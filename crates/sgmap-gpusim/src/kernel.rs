//! Kernel descriptions: what the code generator hands to the GPU (simulator).
//!
//! A kernel implements one partition of the stream graph in the
//! one-kernel-for-graph style of Figure 2.1(c): `W` executions of the
//! partition's steady state run concurrently, each using `S` compute threads,
//! while `F` dedicated data-transfer threads stream the primary IO between
//! global memory and the double-buffered shared-memory staging area.

/// The tunable launch parameters of a kernel (Section 3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelParams {
    /// `W`: number of executions (steady-state iterations) per kernel launch
    /// that run concurrently in the SM.
    pub w: u32,
    /// `S`: compute threads per execution.
    pub s: u32,
    /// `F`: data-transfer threads.
    pub f: u32,
}

impl KernelParams {
    /// Total number of threads the kernel occupies (`W·S + F`).
    pub fn total_threads(&self) -> u32 {
        self.w * self.s + self.f
    }
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams { w: 1, s: 1, f: 32 }
    }
}

/// One filter of a kernel, reduced to what the timing model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFilter {
    /// Single-thread time of one firing, in microseconds (from profiling).
    pub firing_time_us: f64,
    /// Firings per execution of the partition (the filter's repetition count
    /// within the partition's steady state).
    pub firings: u64,
}

impl KernelFilter {
    /// Total single-thread compute time of this filter per execution
    /// (`t_i` in the paper's model).
    pub fn iteration_time_us(&self) -> f64 {
        self.firing_time_us * self.firings as f64
    }
}

/// A complete kernel description for the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Name (usually derived from the partition id).
    pub name: String,
    /// The filters executed by the compute threads.
    pub filters: Vec<KernelFilter>,
    /// Primary IO bytes moved between global and shared memory per execution
    /// (`D / W` in the paper's notation).
    pub io_bytes_per_exec: u64,
    /// Shared-memory bytes needed by one execution (working set + IO
    /// staging).
    pub sm_bytes_per_exec: u64,
    /// Launch parameters.
    pub params: KernelParams,
}

impl KernelSpec {
    /// Total IO bytes per kernel launch (`D = W * io_bytes_per_exec`).
    pub fn total_io_bytes(&self) -> u64 {
        u64::from(self.params.w) * self.io_bytes_per_exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelSpec {
        KernelSpec {
            name: "p0".to_string(),
            filters: vec![
                KernelFilter {
                    firing_time_us: 2.0,
                    firings: 4,
                },
                KernelFilter {
                    firing_time_us: 1.0,
                    firings: 1,
                },
            ],
            io_bytes_per_exec: 256,
            sm_bytes_per_exec: 1024,
            params: KernelParams { w: 3, s: 2, f: 64 },
        }
    }

    #[test]
    fn aggregate_quantities() {
        let k = sample();
        let serial: f64 = k.filters.iter().map(KernelFilter::iteration_time_us).sum();
        assert_eq!(serial, 9.0);
        assert_eq!(k.total_io_bytes(), 768);
        assert_eq!(k.params.total_threads(), 3 * 2 + 64);
    }

    #[test]
    fn default_params_are_minimal() {
        let p = KernelParams::default();
        assert_eq!((p.w, p.s, p.f), (1, 1, 32));
    }
}
