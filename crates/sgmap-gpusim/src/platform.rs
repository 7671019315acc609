//! Multi-GPU platform descriptions: the built [`Platform`] the cost models
//! consume, and the declarative [`PlatformSpec`] it is constructed from.
//!
//! A platform is a list of per-leaf [`GpuSpec`]s (so mixed-model boxes are
//! first-class) plus a [`Topology`] whose links carry individual bandwidth,
//! latency and class. GPU `g` of the platform sits on leaf `g` of the
//! topology. The first GPU doubles as the *estimation device*: partition
//! execution estimates are produced for it, and slower or faster siblings are
//! modelled by scaling those estimates with [`Platform::time_factor`].

use crate::device::GpuSpec;
use crate::topology::{Topology, TopologyError};

/// A multi-GPU platform: one [`GpuSpec`] per topology leaf plus the
/// interconnect tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Per-GPU device specifications; `gpus[g]` sits on topology leaf `g`.
    pub gpus: Vec<GpuSpec>,
    /// The interconnect.
    pub topology: Topology,
}

impl Platform {
    /// A platform with `gpu_count` copies of `gpu` behind the switch tree of
    /// Figure 3.3 (host — SW1 — {SW2 — {GPU1, GPU2}, SW3 — {GPU3, GPU4}}),
    /// truncated to the requested number of GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or greater than four. Build a
    /// [`PlatformSpec`] instead for a `Result`-returning path.
    pub fn homogeneous(gpu: GpuSpec, gpu_count: usize) -> Self {
        let topology =
            Topology::switch_tree(gpu_count).expect("the reference switch tree hosts 1 to 4 GPUs");
        Platform {
            gpus: vec![gpu; gpu_count],
            topology,
        }
    }

    /// The paper's evaluation platform: 4 × Tesla M2090.
    pub fn quad_m2090() -> Self {
        Platform::homogeneous(GpuSpec::m2090(), 4)
    }

    /// Returns a homogeneous reference-tree platform with the first
    /// `gpu_count` GPUs of this one's estimation model.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or greater than four.
    pub fn with_gpu_count(&self, gpu_count: usize) -> Self {
        Platform::homogeneous(self.primary_gpu().clone(), gpu_count)
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// The specification of GPU `gpu`.
    pub fn device(&self, gpu: usize) -> &GpuSpec {
        &self.gpus[gpu]
    }

    /// The estimation device: partition execution estimates are produced for
    /// this GPU and rescaled for the others via [`Platform::time_factor`].
    pub fn primary_gpu(&self) -> &GpuSpec {
        &self.gpus[0]
    }

    /// Multiplier converting an execution time estimated on the primary GPU
    /// into a time on GPU `gpu`: the ratio of compute-throughput proxies.
    /// Exactly `1.0` when the two devices share a specification, so
    /// homogeneous platforms are bit-identical to the unscaled model.
    pub fn time_factor(&self, gpu: usize) -> f64 {
        let device = &self.gpus[gpu];
        let primary = self.primary_gpu();
        if device == primary {
            1.0
        } else {
            primary.compute_throughput_proxy() / device.compute_throughput_proxy()
        }
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::quad_m2090()
    }
}

/// The interconnect shape of a [`PlatformSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterconnectSpec {
    /// The paper's reference PCIe switch tree (1–4 GPUs).
    ReferenceTree,
    /// Every GPU directly behind one PCIe root switch.
    Flat,
    /// NVLink islands of `gpus_per_island` GPUs behind a PCIe fabric; the
    /// GPU count must be a multiple of the island size.
    NvlinkIslands {
        /// GPUs per island.
        gpus_per_island: usize,
    },
    /// Nodes of `gpus_per_node` PCIe-attached GPUs joined by network-class
    /// links; the GPU count must be a multiple of the node size.
    Cluster {
        /// GPUs per node.
        gpus_per_node: usize,
    },
}

impl InterconnectSpec {
    /// A short lowercase tag (for spec files and reports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            InterconnectSpec::ReferenceTree => "reference_tree",
            InterconnectSpec::Flat => "flat",
            InterconnectSpec::NvlinkIslands { .. } => "nvlink_islands",
            InterconnectSpec::Cluster { .. } => "cluster",
        }
    }
}

/// A declarative, named description of a platform: per-GPU specs plus an
/// interconnect shape. This is the value `FlowConfig` and sweep grids carry;
/// [`PlatformSpec::build`] turns it into a concrete [`Platform`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Label used in reports and compile-dedup keys.
    pub name: String,
    /// Per-GPU device specifications, in leaf order. The first entry is the
    /// estimation device.
    pub gpus: Vec<GpuSpec>,
    /// The interconnect shape.
    pub interconnect: InterconnectSpec,
    /// Multiplier applied to every link's bandwidth when the platform is
    /// built (`1.0` = the calibrated model, bit-identical). Robustness sweeps
    /// perturb this to measure mapping stability under calibration drift.
    /// The JSON codec (`sgmap-sweep`) omits the field at `1.0` and defaults
    /// it to `1.0` when absent, so historical spec files stay valid.
    pub bandwidth_scale: f64,
    /// Multiplier applied to every link's latency when the platform is built
    /// (`1.0` = the calibrated model, bit-identical; same codec default).
    pub latency_scale: f64,
}

impl PlatformSpec {
    /// A homogeneous reference-tree spec (`gpu_count` copies of `gpu` behind
    /// the Figure 3.3 switch tree). Counts outside 1–4 are representable but
    /// rejected by [`PlatformSpec::build`], so a bad sweep axis surfaces as
    /// an error instead of a panic.
    pub fn reference(gpu: GpuSpec, gpu_count: usize) -> Self {
        PlatformSpec {
            name: format!("{}x{}", gpu.name, gpu_count),
            gpus: vec![gpu; gpu_count],
            interconnect: InterconnectSpec::ReferenceTree,
            bandwidth_scale: 1.0,
            latency_scale: 1.0,
        }
    }

    /// The paper's evaluation platform: 4 × Tesla M2090 on the reference
    /// tree.
    pub fn paper() -> Self {
        PlatformSpec::reference(GpuSpec::m2090(), 4)
    }

    /// An 8-GPU NVLink-island box: two islands of four M2090s each, NVLink
    /// inside an island, PCIe between islands.
    pub fn nvlink8_m2090() -> Self {
        PlatformSpec {
            name: "nvlink8".to_string(),
            gpus: vec![GpuSpec::m2090(); 8],
            interconnect: InterconnectSpec::NvlinkIslands { gpus_per_island: 4 },
            bandwidth_scale: 1.0,
            latency_scale: 1.0,
        }
    }

    /// A 2×4 two-node cluster of M2090s with a network-class inter-node
    /// link.
    pub fn cluster2x4_m2090() -> Self {
        PlatformSpec {
            name: "cluster2x4".to_string(),
            gpus: vec![GpuSpec::m2090(); 8],
            interconnect: InterconnectSpec::Cluster { gpus_per_node: 4 },
            bandwidth_scale: 1.0,
            latency_scale: 1.0,
        }
    }

    /// A mixed-model flat box: two M2090s and two C2070s behind one switch.
    /// The M2090 (first leaf) is the estimation device; the C2070s run the
    /// same estimates scaled by the throughput ratio.
    pub fn mixed_m2090_c2070() -> Self {
        PlatformSpec {
            name: "mixed4".to_string(),
            gpus: vec![
                GpuSpec::m2090(),
                GpuSpec::m2090(),
                GpuSpec::c2070(),
                GpuSpec::c2070(),
            ],
            interconnect: InterconnectSpec::Flat,
            bandwidth_scale: 1.0,
            latency_scale: 1.0,
        }
    }

    /// Renames the spec (labels double as compile-dedup keys in sweeps).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the link bandwidth/latency perturbation factors applied when the
    /// platform is built. `1.0` is the calibrated model; the factors must be
    /// positive (enforced by [`PlatformSpec::build`]).
    #[must_use]
    pub fn with_link_scales(mut self, bandwidth_scale: f64, latency_scale: f64) -> Self {
        self.bandwidth_scale = bandwidth_scale;
        self.latency_scale = latency_scale;
        self
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// The estimation device (the first GPU).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no GPUs (which [`PlatformSpec::build`]
    /// rejects).
    pub fn primary_gpu(&self) -> &GpuSpec {
        &self.gpus[0]
    }

    /// Builds the concrete platform: constructs the topology for the
    /// interconnect shape and attaches the per-leaf GPU specs.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the GPU list is empty, a GPU spec is
    /// degenerate (a clock or bandwidth that is not finite and positive, a
    /// zero count or size, negative or non-finite access cycles), the count
    /// does not fit the interconnect shape, the shape itself is invalid, or
    /// a link scale factor is not finite and positive.
    pub fn build(&self) -> Result<Platform, TopologyError> {
        let n = self.gpus.len();
        if n == 0 {
            return Err(TopologyError::NoGpus);
        }
        for (g, gpu) in self.gpus.iter().enumerate() {
            if let Err(field) = gpu.validate() {
                return Err(TopologyError::UnsupportedShape(format!(
                    "platform '{}': GPU {g} ('{}'): {field}",
                    self.name, gpu.name
                )));
            }
        }
        let valid = |scale: f64| scale.is_finite() && scale > 0.0;
        if !valid(self.bandwidth_scale) || !valid(self.latency_scale) {
            return Err(TopologyError::UnsupportedShape(format!(
                "platform '{}': link scale factors must be finite and positive \
                 (bandwidth {}, latency {})",
                self.name, self.bandwidth_scale, self.latency_scale
            )));
        }
        let topology = match &self.interconnect {
            InterconnectSpec::ReferenceTree => Topology::switch_tree(n)?,
            InterconnectSpec::Flat => Topology::flat(n)?,
            InterconnectSpec::NvlinkIslands { gpus_per_island } => {
                let per = *gpus_per_island;
                if per == 0 || !n.is_multiple_of(per) {
                    return Err(TopologyError::UnsupportedShape(format!(
                        "platform '{}': {n} GPUs do not divide into islands of {per}",
                        self.name
                    )));
                }
                Topology::nvlink_islands(n / per, per)?
            }
            InterconnectSpec::Cluster { gpus_per_node } => {
                let per = *gpus_per_node;
                if per == 0 || !n.is_multiple_of(per) {
                    return Err(TopologyError::UnsupportedShape(format!(
                        "platform '{}': {n} GPUs do not divide into nodes of {per}",
                        self.name
                    )));
                }
                Topology::cluster(n / per, per)?
            }
        };
        // Factors of exactly 1.0 are skipped inside `with_scaled_links`, so
        // the unperturbed path stays bit-identical to the calibrated model.
        let topology = topology.with_scaled_links(self.bandwidth_scale, self.latency_scale);
        Ok(Platform {
            gpus: self.gpus.clone(),
            topology,
        })
    }
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkClass;

    #[test]
    fn platform_construction() {
        let p = Platform::quad_m2090();
        assert_eq!(p.gpu_count(), 4);
        let p2 = p.with_gpu_count(2);
        assert_eq!(p2.gpu_count(), 2);
        assert_eq!(p2.primary_gpu().name, "Tesla M2090");
    }

    #[test]
    #[should_panic(expected = "1 to 4 GPUs")]
    fn oversized_platform_panics() {
        let _ = Platform::homogeneous(GpuSpec::m2090(), 5);
    }

    #[test]
    fn reference_spec_builds_the_reference_platform() {
        for count in 1..=4 {
            let built = PlatformSpec::reference(GpuSpec::m2090(), count)
                .build()
                .unwrap();
            assert_eq!(built, Platform::homogeneous(GpuSpec::m2090(), count));
        }
        assert!(PlatformSpec::reference(GpuSpec::m2090(), 5)
            .build()
            .is_err());
        assert!(PlatformSpec::reference(GpuSpec::m2090(), 0)
            .build()
            .is_err());
    }

    #[test]
    fn hierarchical_presets_build() {
        let nv = PlatformSpec::nvlink8_m2090().build().unwrap();
        assert_eq!(nv.gpu_count(), 8);
        assert!(nv
            .topology
            .link_ids()
            .any(|l| nv.topology.link_class(l) == LinkClass::NvLink));

        let cl = PlatformSpec::cluster2x4_m2090().build().unwrap();
        assert_eq!(cl.gpu_count(), 8);
        assert!(cl
            .topology
            .link_ids()
            .any(|l| cl.topology.link_class(l) == LinkClass::Network));

        // A count that does not divide into the shape is an error.
        let mut bad = PlatformSpec::nvlink8_m2090();
        bad.gpus.pop();
        assert!(bad.build().is_err());
    }

    #[test]
    fn link_scales_perturb_the_built_topology() {
        let base = PlatformSpec::paper().build().unwrap();
        let scaled = PlatformSpec::paper()
            .with_link_scales(1.1, 0.8)
            .build()
            .unwrap();
        for link in base.topology.link_ids() {
            assert!(
                (scaled.topology.link_bandwidth_gbs(link)
                    - base.topology.link_bandwidth_gbs(link) * 1.1)
                    .abs()
                    < 1e-12
            );
            assert!(
                (scaled.topology.link_latency_us(link) - base.topology.link_latency_us(link) * 0.8)
                    .abs()
                    < 1e-12
            );
        }
        // Unit factors are bit-identical to the unperturbed build.
        let unit = PlatformSpec::paper()
            .with_link_scales(1.0, 1.0)
            .build()
            .unwrap();
        assert_eq!(unit, base);
        // Non-positive and non-finite factors are rejected.
        for (bandwidth, latency) in [
            (0.0, 1.0),
            (1.0, -0.5),
            (f64::INFINITY, 1.0),
            (1.0, f64::INFINITY),
            (f64::NAN, 1.0),
        ] {
            let err = PlatformSpec::nvlink8_m2090()
                .with_link_scales(bandwidth, latency)
                .build()
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "platform 'nvlink8': link scale factors \
                     must be finite and positive (bandwidth {bandwidth}, latency {latency})"
                )
            );
        }
    }

    #[test]
    fn degenerate_gpu_specs_are_rejected() {
        type Breaker = fn(&mut GpuSpec);
        let cases: [(&str, Breaker); 11] = [
            ("core_clock_ghz", |g| g.core_clock_ghz = 0.0),
            ("core_clock_ghz", |g| g.core_clock_ghz = f64::NAN),
            ("mem_clock_ghz", |g| g.mem_clock_ghz = -1.0),
            ("mem_bandwidth_gbs", |g| g.mem_bandwidth_gbs = 0.0),
            ("mem_bandwidth_gbs", |g| g.mem_bandwidth_gbs = f64::INFINITY),
            ("sm_count", |g| g.sm_count = 0),
            ("shared_mem_bytes", |g| g.shared_mem_bytes = 0),
            ("max_threads_per_block", |g| g.max_threads_per_block = 0),
            ("warp_size", |g| g.warp_size = 0),
            ("global_access_cycles", |g| g.global_access_cycles = -400.0),
            ("shared_access_cycles", |g| {
                g.shared_access_cycles = f64::NAN
            }),
        ];
        for (field, break_it) in cases {
            let mut spec = PlatformSpec::nvlink8_m2090();
            break_it(&mut spec.gpus[5]);
            let err = spec.build().unwrap_err().to_string();
            assert!(
                err.contains("platform 'nvlink8'") && err.contains("GPU 5") && err.contains(field),
                "{err}"
            );
        }
        // Zero access cycles are a valid (idealised) device.
        let mut spec = PlatformSpec::paper();
        spec.gpus[0].shared_access_cycles = 0.0;
        assert!(spec.build().is_ok());
    }

    #[test]
    fn throughput_factor_scales_the_device_proxy() {
        let base = GpuSpec::m2090();
        let fast = base.with_throughput_factor(1.1, "tp+10%");
        assert_eq!(fast.name, "Tesla M2090 tp+10%");
        assert!(
            (fast.compute_throughput_proxy() - base.compute_throughput_proxy() * 1.1).abs() < 1e-9
        );
        assert_eq!(fast.sm_count, base.sm_count);
    }

    #[test]
    fn time_factor_is_exactly_one_for_homogeneous_platforms() {
        let p = Platform::quad_m2090();
        for g in 0..p.gpu_count() {
            assert_eq!(p.time_factor(g), 1.0);
        }
    }

    #[test]
    fn mixed_platforms_scale_times_by_throughput_ratio() {
        let p = PlatformSpec::mixed_m2090_c2070().build().unwrap();
        assert_eq!(p.time_factor(0), 1.0);
        assert_eq!(p.time_factor(1), 1.0);
        // The C2070 is ~29 % slower, so its times stretch by that ratio.
        let f = p.time_factor(2);
        assert!((f - 1.29).abs() < 0.03, "{f}");
        assert_eq!(p.time_factor(2), p.time_factor(3));
    }
}
