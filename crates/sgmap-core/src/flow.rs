//! The compile-and-execute pipeline.

use std::fmt;

use sgmap_codegen::build_execution_plan;
use sgmap_gpusim::{simulate_plan, ExecutionPlan, KernelSpec, Platform};
use sgmap_graph::{GraphError, StreamGraph};
use sgmap_ilp::IlpError;
use sgmap_mapping::{map_with, Mapping};
use sgmap_partition::{build_pdg, PartitionError, PartitionRequest, Partitioning, Pdg};
use sgmap_pee::Estimator;

use crate::config::FlowConfig;
use crate::report::RunReport;

/// Errors of the end-to-end flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The configuration contains a degenerate value (e.g. zero GPUs).
    InvalidConfig(String),
    /// Stream graph analysis failed.
    Graph(GraphError),
    /// Partitioning failed.
    Partition(PartitionError),
    /// The ILP mapper failed.
    Mapping(IlpError),
    /// The partitions' dependences form a cycle, so they have no execution
    /// order; holds the partitions Kahn's pass could not order.
    CyclicPdg(Vec<usize>),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FlowError::Graph(e) => write!(f, "graph analysis failed: {e}"),
            FlowError::Partition(e) => write!(f, "partitioning failed: {e}"),
            FlowError::Mapping(e) => write!(f, "mapping failed: {e}"),
            FlowError::CyclicPdg(unordered) => write!(
                f,
                "the partition dependence graph has a cycle: partitions {unordered:?} cannot be ordered"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}
impl From<PartitionError> for FlowError {
    fn from(e: PartitionError) -> Self {
        FlowError::Partition(e)
    }
}
impl From<IlpError> for FlowError {
    fn from(e: IlpError) -> Self {
        FlowError::Mapping(e)
    }
}

/// Everything the flow produced before execution.
#[derive(Debug)]
pub struct CompileResult {
    /// The target platform.
    pub platform: Platform,
    /// The partitioning of the stream graph.
    pub partitioning: Partitioning,
    /// The partition dependence graph.
    pub pdg: Pdg,
    /// The partition-to-GPU mapping.
    pub mapping: Mapping,
    /// The pipelined execution plan.
    pub plan: ExecutionPlan,
    /// The generated kernels, in plan order.
    pub kernels: Vec<KernelSpec>,
}

impl CompileResult {
    /// Number of partitions (= kernels).
    pub fn partition_count(&self) -> usize {
        self.partitioning.len()
    }
}

/// Runs the flow of Figure 3.1 up to (and including) code generation.
///
/// # Errors
///
/// Returns an error if the configuration is degenerate, if graph analysis,
/// partitioning or mapping fails, or if the partition dependence graph has a
/// cycle.
pub fn compile(graph: &StreamGraph, config: &FlowConfig) -> Result<CompileResult, FlowError> {
    config.validate().map_err(FlowError::InvalidConfig)?;
    let estimator =
        Estimator::new(graph, config.estimation_gpu().clone())?.with_enhancement(config.enhanced);
    // Finish by value so the freshly built stage is moved into the result
    // instead of cloned.
    let stage = partition_graph(graph, config, &estimator)?;
    finish_compile(config, &estimator, stage)
}

/// Maps, plans and generates kernels from an owned stage (no validation —
/// the callers have already checked the config and estimator agreement).
fn finish_compile(
    config: &FlowConfig,
    estimator: &Estimator<'_>,
    stage: PartitionStage,
) -> Result<CompileResult, FlowError> {
    let platform = config.platform();
    let mapping = map_with(
        &stage.pdg,
        &platform,
        config.mapper,
        &config.mapping_options,
    )?;
    let (plan, kernels) = build_execution_plan(
        estimator,
        &stage.partitioning,
        &stage.pdg,
        &mapping,
        &platform,
        &config.plan,
    );
    Ok(CompileResult {
        platform,
        partitioning: stage.partitioning,
        pdg: stage.pdg,
        mapping,
        plan,
        kernels,
    })
}

/// Verifies that a caller-supplied estimator agrees with the configuration:
/// same graph (checked cheaply by identity, falling back to name and filter
/// count), same GPU model, same enhancement flag.
fn check_estimator_agreement(
    graph: &StreamGraph,
    config: &FlowConfig,
    estimator: &Estimator<'_>,
) -> Result<(), FlowError> {
    if !std::ptr::eq(estimator.graph(), graph)
        && (estimator.graph().name() != graph.name()
            || estimator.graph().filter_count() != graph.filter_count())
    {
        return Err(FlowError::InvalidConfig(format!(
            "estimator was built for graph '{}' ({} filters) but the flow was handed '{}' ({} filters)",
            estimator.graph().name(),
            estimator.graph().filter_count(),
            graph.name(),
            graph.filter_count()
        )));
    }
    if estimator.gpu() != config.estimation_gpu() {
        return Err(FlowError::InvalidConfig(format!(
            "estimator targets GPU '{}' but the configuration estimates on '{}'",
            estimator.gpu().name,
            config.estimation_gpu().name
        )));
    }
    if estimator.enhanced() != config.enhanced {
        return Err(FlowError::InvalidConfig(format!(
            "estimator enhancement flag ({}) disagrees with the configuration ({})",
            estimator.enhanced(),
            config.enhanced
        )));
    }
    Ok(())
}

/// The GPU-count-independent front half of a compile: the partitioning and
/// the partition dependence graph.
///
/// Both depend only on (graph, GPU model, partitioner, enhancement) — never
/// on the GPU count, the mapper or the transfer mode — so one stage can be
/// fanned out to every platform size via [`compile_from_stage`]. The sweep
/// runner uses this to run the expensive partition search once per compile
/// group instead of once per grid point.
#[derive(Debug, Clone)]
pub struct PartitionStage {
    /// The partitioning of the stream graph.
    pub partitioning: Partitioning,
    /// The partition dependence graph.
    pub pdg: Pdg,
}

/// Runs the flow up to (and including) the partition dependence graph — the
/// part that does not depend on the GPU count.
///
/// # Errors
///
/// Returns an error if the configuration is degenerate, disagrees with the
/// estimator, if graph analysis or partitioning fails, or if the partition
/// dependence graph has a cycle.
pub fn partition_graph(
    graph: &StreamGraph,
    config: &FlowConfig,
    estimator: &Estimator<'_>,
) -> Result<PartitionStage, FlowError> {
    config.validate().map_err(FlowError::InvalidConfig)?;
    check_estimator_agreement(graph, config, estimator)?;
    let reps = {
        let _span = sgmap_trace::span("graph.analysis");
        graph.repetition_vector()?
    };
    let partitioning = {
        let mut span = sgmap_trace::span("partition");
        let partitioning = PartitionRequest::new(estimator)
            .with_kind(config.partitioner)
            .with_algorithm(config.algorithm.clone())
            .with_search(config.partition_search.clone())
            .run()?;
        span.arg("partitions", partitioning.len());
        partitioning
    };
    let pdg = {
        let _span = sgmap_trace::span("pdg.build");
        build_pdg(graph, &reps, &partitioning)
    };
    // Mapping and planning need an execution order of the partitions.
    let unordered = pdg.unordered_partitions();
    if !unordered.is_empty() {
        return Err(FlowError::CyclicPdg(unordered));
    }
    Ok(PartitionStage { partitioning, pdg })
}

/// Finishes a compile from an existing [`PartitionStage`]: maps the
/// partitions onto the platform and generates the kernels and execution
/// plan.
///
/// The stage must come from [`partition_graph`] on the same graph and
/// estimator with a configuration that differs from `config` at most in its
/// GPU count, mapper, mapping options and plan options — the axes the
/// partitioning does not depend on.
///
/// # Errors
///
/// Returns an error if the configuration is degenerate, disagrees with the
/// estimator, or if mapping fails.
pub fn compile_from_stage(
    graph: &StreamGraph,
    config: &FlowConfig,
    estimator: &Estimator<'_>,
    stage: &PartitionStage,
) -> Result<CompileResult, FlowError> {
    config.validate().map_err(FlowError::InvalidConfig)?;
    check_estimator_agreement(graph, config, estimator)?;
    finish_compile(config, estimator, stage.clone())
}

/// Executes a compiled result on the platform simulator.
pub fn execute(compiled: &CompileResult, config: &FlowConfig) -> RunReport {
    let stats = simulate_plan(&compiled.plan, &compiled.platform);
    let iterations = u64::from(compiled.plan.n_fragments) * config.plan.iterations_per_fragment;
    RunReport::new(
        compiled.partition_count(),
        compiled.mapping.clone(),
        stats,
        iterations,
    )
}

/// Compiles and executes in one call.
///
/// # Errors
///
/// Returns an error if compilation fails; execution itself cannot fail.
pub fn compile_and_run(graph: &StreamGraph, config: &FlowConfig) -> Result<RunReport, FlowError> {
    let compiled = compile(graph, config)?;
    Ok(execute(&compiled, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::TransferMode;
    use sgmap_mapping::MappingMethod;
    use sgmap_partition::PartitionerKind;

    #[test]
    fn full_flow_runs_for_a_small_app_on_every_gpu_count() {
        let graph = App::FmRadio.build(8).unwrap();
        let mut times = Vec::new();
        for g in 1..=4 {
            let config = FlowConfig::default().with_gpu_count(g);
            let report = compile_and_run(&graph, &config).unwrap();
            assert!(report.time_per_iteration_us > 0.0, "G={g}");
            assert!(report.partition_count >= 1);
            times.push(report.time_per_iteration_us);
        }
        // More GPUs never makes the (communication-aware) mapping much worse.
        assert!(
            times[3] <= times[0] * 1.25,
            "4-GPU {} vs 1-GPU {}",
            times[3],
            times[0]
        );
    }

    /// Mixed-family synthetic programs (feedback loops included) on the
    /// multilevel partitioner and 2 GPUs: seed 2's partitions depend on each
    /// other in a cycle, because feedback channels become PDG edges too.
    /// The compile reports that before mapping instead of panicking in the
    /// planner; seed 1's PDG is acyclic and compiles.
    #[test]
    fn a_cyclic_partition_dependence_graph_is_an_error() {
        use sgmap_apps::synthetic::{spec, Family};
        use sgmap_graph::GraphBuilder;
        use sgmap_partition::{Algorithm, MultilevelOptions};

        let config = FlowConfig::default()
            .with_gpu_count(2)
            .with_algorithm(Algorithm::Multilevel(MultilevelOptions::default()));
        let graph = |seed| {
            GraphBuilder::new(format!("loop{seed}"))
                .build(spec(Family::Mixed, 1000, seed))
                .unwrap()
        };
        let cyclic = graph(2);
        let err = compile(&cyclic, &config).unwrap_err();
        let FlowError::CyclicPdg(unordered) = &err else {
            panic!("expected a cyclic PDG, got {err}");
        };
        assert!(!unordered.is_empty());
        assert!(err.to_string().contains("has a cycle"), "{err}");
        compile(&graph(1), &config).unwrap();
    }

    #[test]
    fn compile_exposes_all_intermediate_artefacts() {
        let graph = App::MatMul2.build(4).unwrap();
        let config = FlowConfig::default().with_gpu_count(2);
        let compiled = compile(&graph, &config).unwrap();
        assert_eq!(compiled.kernels.len(), compiled.partition_count());
        assert_eq!(
            compiled.mapping.assignment.len(),
            compiled.partition_count()
        );
        assert_eq!(compiled.pdg.len(), compiled.partition_count());
        let report = execute(&compiled, &config);
        assert!(report.makespan_us > 0.0);
    }

    #[test]
    fn spsg_config_produces_exactly_one_partition() {
        let graph = App::Des.build(8).unwrap();
        let spsg = FlowConfig::new()
            .with_partitioner(PartitionerKind::Single)
            .with_gpu_count(1);
        let report = compile_and_run(&graph, &spsg).unwrap();
        assert_eq!(report.partition_count, 1);
        assert_eq!(report.mapping.gpus_used(), 1);
    }

    #[test]
    fn zero_gpu_count_is_a_flow_error_not_a_panic() {
        let graph = App::FmRadio.build(4).unwrap();
        let err = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(0)).unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig(_)), "{err}");
        let err = compile(&graph, &FlowConfig::default().with_gpu_count(9)).unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn compile_with_a_shared_estimator_matches_plain_compile() {
        use sgmap_pee::EstimateCache;

        let graph = App::FmRadio.build(8).unwrap();
        let config = FlowConfig::default().with_gpu_count(2);
        let plain = compile_and_run(&graph, &config).unwrap();

        let cache = EstimateCache::shared();
        let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
            .unwrap()
            .with_shared_cache(cache.clone());
        let stage = partition_graph(&graph, &config, &estimator).unwrap();
        let compiled = compile_from_stage(&graph, &config, &estimator, &stage).unwrap();
        let shared = execute(&compiled, &config);
        assert_eq!(
            plain.time_per_iteration_us.to_bits(),
            shared.time_per_iteration_us.to_bits()
        );
        assert_eq!(plain.partition_count, shared.partition_count);
        assert!(cache.stats().misses > 0);

        // A mismatched estimator is rejected up front.
        let wrong = Estimator::new(&graph, config.estimation_gpu().clone())
            .unwrap()
            .with_enhancement(true);
        let err = partition_graph(&graph, &config, &wrong).unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn one_partition_stage_fans_out_to_every_gpu_count() {
        use sgmap_partition::PartitionSearchOptions;

        let graph = App::FmRadio.build(8).unwrap();
        let estimator =
            Estimator::new(&graph, FlowConfig::default().estimation_gpu().clone()).unwrap();
        let base = FlowConfig::default()
            .with_partition_search(PartitionSearchOptions::new().with_threads(2));
        let stage = partition_graph(&graph, &base, &estimator).unwrap();
        for g in 1..=4 {
            let config = base.clone().with_gpu_count(g);
            let staged = compile_from_stage(&graph, &config, &estimator, &stage).unwrap();
            let monolithic = compile(&graph, &config).unwrap();
            assert_eq!(staged.partitioning, monolithic.partitioning, "G={g}");
            let a = execute(&staged, &config);
            let b = execute(&monolithic, &config);
            assert_eq!(
                a.time_per_iteration_us.to_bits(),
                b.time_per_iteration_us.to_bits(),
                "G={g}"
            );
        }
        // A degenerate GPU count is still rejected at the fan-out stage.
        let err = compile_from_stage(&graph, &base.clone().with_gpu_count(0), &estimator, &stage)
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn previous_work_stack_is_never_faster_than_ours_on_compute_bound_apps() {
        let graph = App::Des.build(12).unwrap();
        let ours = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(4)).unwrap();
        let previous_work = FlowConfig::new()
            .with_partitioner(PartitionerKind::Baseline)
            .with_mapper(MappingMethod::RoundRobin)
            .with_transfer_mode(TransferMode::ViaHost)
            .with_gpu_count(4);
        let prev = compile_and_run(&graph, &previous_work).unwrap();
        assert!(
            ours.time_per_iteration_us <= prev.time_per_iteration_us * 1.05,
            "ours {} vs previous {}",
            ours.time_per_iteration_us,
            prev.time_per_iteration_us
        );
    }
}
