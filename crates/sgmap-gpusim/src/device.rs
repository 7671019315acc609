//! GPU device specifications.

/// Specification of a single GPU device.
///
/// The presets correspond to the two Fermi-class devices discussed in the
/// paper: the Tesla C2070 used by the prior work [7] and the Tesla M2090 used
/// by the paper's own evaluation. The M2090 is "a scaled-up version of the
/// C2070 with the exactly same architecture" — more streaming multiprocessors
/// and higher core/memory clocks — which Section 4.0.5 quantifies as a
/// 23–29 % performance difference.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name of the device.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Core (shader) clock in GHz.
    pub core_clock_ghz: f64,
    /// Memory clock in GHz (only used for reporting; bandwidth is modelled
    /// directly).
    pub mem_clock_ghz: f64,
    /// Global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Shared memory (on-chip scratchpad) per SM in bytes.
    pub shared_mem_bytes: u32,
    /// Maximum resident threads per block.
    pub max_threads_per_block: u32,
    /// Warp size.
    pub warp_size: u32,
    /// Average cycles to access global memory from a thread (amortised over
    /// the memory pipeline).
    pub global_access_cycles: f64,
    /// Average cycles to move one 4-byte word between shared memory and a
    /// register.
    pub shared_access_cycles: f64,
}

impl GpuSpec {
    /// The Nvidia Tesla C2070 (Fermi, 14 SMs, 1.15 GHz) used by the prior
    /// work.
    pub fn c2070() -> Self {
        GpuSpec {
            name: "Tesla C2070".to_string(),
            sm_count: 14,
            core_clock_ghz: 1.15,
            mem_clock_ghz: 1.494,
            mem_bandwidth_gbs: 144.0,
            shared_mem_bytes: 48 * 1024,
            max_threads_per_block: 1024,
            warp_size: 32,
            global_access_cycles: 400.0,
            shared_access_cycles: 2.0,
        }
    }

    /// The Nvidia Tesla M2090 (Fermi, 16 SMs, 1.3 GHz) used by the paper's
    /// evaluation.
    pub fn m2090() -> Self {
        GpuSpec {
            name: "Tesla M2090".to_string(),
            sm_count: 16,
            core_clock_ghz: 1.3,
            mem_clock_ghz: 1.848,
            mem_bandwidth_gbs: 177.0,
            shared_mem_bytes: 48 * 1024,
            max_threads_per_block: 1024,
            warp_size: 32,
            global_access_cycles: 400.0,
            shared_access_cycles: 2.0,
        }
    }

    /// Converts a cycle count on this device into microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.core_clock_ghz * 1000.0)
    }

    /// Microseconds needed to stream `bytes` through global memory at the
    /// device's peak bandwidth.
    pub fn global_stream_us(&self, bytes: f64) -> f64 {
        bytes / (self.mem_bandwidth_gbs * 1000.0)
    }

    /// Peak single-precision throughput proxy: SM count × clock. Used to
    /// compare scaled devices (e.g. the 23–29 % C2070 → M2090 step).
    pub fn compute_throughput_proxy(&self) -> f64 {
        f64::from(self.sm_count) * self.core_clock_ghz
    }

    /// A copy of this device with its compute clock scaled by `factor` and
    /// `suffix` appended to the name. Robustness sweeps turn this knob to
    /// model calibration drift in the throughput estimate; the new name keeps
    /// perturbed devices distinct in compile-dedup keys (estimates produced
    /// for the perturbed device are not interchangeable with the original's).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn with_throughput_factor(&self, factor: f64, suffix: &str) -> GpuSpec {
        assert!(factor > 0.0, "throughput factor must be positive: {factor}");
        let mut spec = self.clone();
        spec.core_clock_ghz *= factor;
        spec.name = format!("{} {}", self.name, suffix);
        spec
    }

    /// Checks that the spec can drive the cost model: clocks and bandwidth
    /// finite and positive, counts and sizes nonzero, access cycles finite
    /// and non-negative.
    ///
    /// # Errors
    ///
    /// Describes the first degenerate field, naming it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (field, v) in [
            ("core_clock_ghz", self.core_clock_ghz),
            ("mem_clock_ghz", self.mem_clock_ghz),
            ("mem_bandwidth_gbs", self.mem_bandwidth_gbs),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{field} must be finite and positive, got {v}"));
            }
        }
        for (field, v) in [
            ("sm_count", self.sm_count),
            ("shared_mem_bytes", self.shared_mem_bytes),
            ("max_threads_per_block", self.max_threads_per_block),
            ("warp_size", self.warp_size),
        ] {
            if v == 0 {
                return Err(format!("{field} must be nonzero"));
            }
        }
        for (field, v) in [
            ("global_access_cycles", self.global_access_cycles),
            ("shared_access_cycles", self.shared_access_cycles),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{field} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::m2090()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper_scaling() {
        let c = GpuSpec::c2070();
        let m = GpuSpec::m2090();
        assert_eq!(c.shared_mem_bytes, m.shared_mem_bytes);
        let compute_ratio = m.compute_throughput_proxy() / c.compute_throughput_proxy();
        let mem_ratio = m.mem_bandwidth_gbs / c.mem_bandwidth_gbs;
        // The paper quotes 29 % compute and 23 % memory-bandwidth differences.
        assert!((compute_ratio - 1.29).abs() < 0.03, "{compute_ratio}");
        assert!((mem_ratio - 1.23).abs() < 0.03, "{mem_ratio}");
    }

    #[test]
    fn unit_conversions() {
        let m = GpuSpec::m2090();
        // 1300 cycles at 1.3 GHz is one microsecond.
        assert!((m.cycles_to_us(1300.0) - 1.0).abs() < 1e-9);
        // 177 KB at 177 GB/s is one microsecond.
        assert!((m.global_stream_us(177_000.0) - 1.0).abs() < 1e-9);
    }
}
