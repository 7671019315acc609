//! Configuration of the end-to-end flow.

use sgmap_codegen::PlanOptions;
use sgmap_gpusim::{GpuSpec, Platform, PlatformSpec, TransferMode};
use sgmap_mapping::{MappingMethod, MappingOptions};
use sgmap_partition::{Algorithm, PartitionSearchOptions, PartitionerKind};

/// Everything the flow needs to know besides the stream graph itself.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The target platform: per-GPU device specs plus an interconnect shape.
    /// Built into a concrete [`Platform`] by [`FlowConfig::platform`].
    pub platform: PlatformSpec,
    /// Which partitioner to run.
    pub partitioner: PartitionerKind,
    /// The proposed partitioner's algorithm: the paper's flat four-phase
    /// search (default) or the multilevel coarsen-partition-refine scheme
    /// for very large graphs. Ignored by the baseline and SPSG partitioners.
    pub algorithm: Algorithm,
    /// Thread count and batch size of the proposed partitioner's candidate
    /// search. Any value yields the identical partitioning; threads only
    /// change how fast one compile finishes.
    pub partition_search: PartitionSearchOptions,
    /// Which mapper to run.
    pub mapper: MappingMethod,
    /// Budget and modelling options for the ILP mapper.
    pub mapping_options: MappingOptions,
    /// Enables the splitter/joiner elimination of Chapter V.
    pub enhanced: bool,
    /// Plan generation options (fragments, iterations per fragment, ...).
    pub plan: PlanOptions,
}

impl FlowConfig {
    /// The paper's default stack: the proposed partitioner, the
    /// communication-aware ILP mapper, peer-to-peer transfers, the 4 × M2090
    /// reference platform.
    pub fn new() -> Self {
        FlowConfig {
            platform: PlatformSpec::paper(),
            partitioner: PartitionerKind::Proposed,
            algorithm: Algorithm::Flat,
            // Serial early-exit search: a single interactive compile should
            // not pay for speculative batches. Batch drivers (the sweep
            // runner) override this with `with_partition_search`.
            partition_search: PartitionSearchOptions::serial(),
            mapper: MappingMethod::Ilp,
            mapping_options: MappingOptions::default(),
            enhanced: false,
            plan: PlanOptions::default(),
        }
    }

    /// Replaces the platform description.
    pub fn with_platform(mut self, platform: PlatformSpec) -> Self {
        self.platform = platform;
        self
    }

    /// Compatibility wrapper: targets the reference switch tree with
    /// `gpu_count` copies of the current estimation device. Counts outside
    /// the tree's 1–4 are representable and rejected by
    /// [`FlowConfig::validate`].
    pub fn with_gpu_count(mut self, gpu_count: usize) -> Self {
        let gpu = self
            .platform
            .gpus
            .first()
            .cloned()
            .unwrap_or_else(GpuSpec::m2090);
        self.platform = PlatformSpec::reference(gpu, gpu_count);
        self
    }

    /// Selects the partitioner.
    pub fn with_partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Selects the proposed partitioner's algorithm (flat or multilevel).
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the mapper.
    pub fn with_mapper(mut self, mapper: MappingMethod) -> Self {
        self.mapper = mapper;
        self
    }

    /// Replaces the partition-search options (candidate-search threads and
    /// speculative batch size).
    pub fn with_partition_search(mut self, options: PartitionSearchOptions) -> Self {
        self.partition_search = options;
        self
    }

    /// Enables or disables the Chapter V splitter/joiner elimination.
    pub fn with_enhancement(mut self, enhanced: bool) -> Self {
        self.enhanced = enhanced;
        self
    }

    /// Routes inter-GPU transfers through the host (the prior work's
    /// transfer mode) instead of peer-to-peer.
    pub fn with_transfer_mode(mut self, mode: TransferMode) -> Self {
        self.plan.transfer_mode = mode;
        self
    }

    /// Checks the configuration for degenerate values that would otherwise
    /// produce a nonsense run (or a panic deep inside the platform model).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid knob found: a platform
    /// whose topology cannot be built (no GPUs, a count that does not fit
    /// the interconnect shape, ...), or a zero fragment / iteration count in
    /// the plan options.
    pub fn validate(&self) -> Result<(), String> {
        if let Err(e) = self.platform.build() {
            return Err(format!("platform '{}': {e}", self.platform.name));
        }
        if self.plan.n_fragments == 0 {
            return Err("plan.n_fragments must be at least 1".to_string());
        }
        if self.plan.iterations_per_fragment == 0 {
            return Err("plan.iterations_per_fragment must be at least 1".to_string());
        }
        Ok(())
    }

    /// The estimation device: the platform's first GPU, for which partition
    /// execution estimates are produced.
    ///
    /// # Panics
    ///
    /// Panics if the platform has no GPUs (which [`FlowConfig::validate`]
    /// rejects).
    pub fn estimation_gpu(&self) -> &GpuSpec {
        self.platform.primary_gpu()
    }

    /// Builds the concrete platform this configuration targets.
    ///
    /// # Panics
    ///
    /// Panics if the platform description is invalid; call
    /// [`FlowConfig::validate`] first for a `Result`-returning path.
    pub fn platform(&self) -> Platform {
        self.platform
            .build()
            .expect("platform validated by FlowConfig::validate")
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_expected_knobs() {
        // The prior work's stack and the SPSG reference (the sweep's
        // `StackConfig::{previous, spsg}`).
        let ours = FlowConfig::default();
        let prev = FlowConfig::new()
            .with_partitioner(PartitionerKind::Baseline)
            .with_mapper(MappingMethod::RoundRobin)
            .with_transfer_mode(TransferMode::ViaHost);
        let spsg = FlowConfig::new()
            .with_partitioner(PartitionerKind::Single)
            .with_gpu_count(1);
        assert_eq!(ours.partitioner, PartitionerKind::Proposed);
        assert_eq!(prev.partitioner, PartitionerKind::Baseline);
        assert_eq!(prev.mapper, MappingMethod::RoundRobin);
        assert_eq!(prev.plan.transfer_mode, TransferMode::ViaHost);
        assert_eq!(spsg.platform.gpu_count(), 1);
        assert_eq!(spsg.partitioner, PartitionerKind::Single);
        assert_eq!(ours.platform().gpu_count(), 4);
    }

    #[test]
    fn degenerate_configs_fail_validation() {
        assert!(FlowConfig::default().validate().is_ok());
        assert!(FlowConfig::default().with_gpu_count(0).validate().is_err());
        assert!(FlowConfig::default().with_gpu_count(5).validate().is_err());
        let mut zero_fragments = FlowConfig::default();
        zero_fragments.plan.n_fragments = 0;
        assert!(zero_fragments.validate().is_err());
        let mut zero_iterations = FlowConfig::default();
        zero_iterations.plan.iterations_per_fragment = 0;
        assert!(zero_iterations.validate().is_err());
    }

    #[test]
    fn compat_wrappers_build_reference_platforms() {
        let c = FlowConfig::default()
            .with_platform(PlatformSpec::reference(GpuSpec::c2070(), 1))
            .with_gpu_count(2);
        assert_eq!(c.platform.name, "Tesla C2070x2");
        assert_eq!(c.estimation_gpu().name, "Tesla C2070");
        assert_eq!(c.platform(), Platform::homogeneous(GpuSpec::c2070(), 2));
    }

    #[test]
    fn hierarchical_platforms_pass_validation() {
        let nv = FlowConfig::default().with_platform(PlatformSpec::nvlink8_m2090());
        assert!(nv.validate().is_ok());
        assert_eq!(nv.platform().gpu_count(), 8);
        // An undividable island count is caught by validate, not a panic.
        let mut bad = PlatformSpec::nvlink8_m2090();
        bad.gpus.pop();
        let err = FlowConfig::default()
            .with_platform(bad)
            .validate()
            .unwrap_err();
        assert!(err.contains("islands"), "{err}");
    }
}
