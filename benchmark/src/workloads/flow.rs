//! `paper_apps` and `synth_multilevel`: whole compiles from graph
//! construction to simulation, plus the compile helpers `hier_mapping`
//! shares.

use std::sync::Arc;

use sgmap_apps::synthetic::{self, Family};
use sgmap_apps::App;
use sgmap_codegen::build_execution_plan;
use sgmap_core::{
    compile_from_stage, execute, partition_graph, Algorithm, CompileResult, FlowConfig,
    MultilevelOptions, PartitionRequest, PartitionStage, RunReport,
};
use sgmap_gpusim::{
    simulate_plan, ExecStats, ExecutionPlan, GpuSpec, KernelSpec, Platform, PlatformSpec,
};
use sgmap_graph::{GraphBuilder, GraphError, StreamGraph, StreamSpec};
use sgmap_mapping::{map_greedy, map_with, Mapping, MappingMethod};
use sgmap_partition::{build_pdg, Partitioning, Pdg};
use sgmap_pee::{EstimateCache, Estimator};
use sgmap_sweep::SweepSpec;
use sgmap_trace::Collector;

use super::{err, truncate, Quality, Workload};
use crate::jobs;
use crate::trace::{record_program_spans, LayerTotals, Tracer};
use crate::verify;

/// A platform to compile for: the flow configuration and the platform it
/// builds, built once during set-up.
pub(super) struct Target {
    pub config: FlowConfig,
    pub platform: Platform,
}

impl Target {
    /// The paper's stack on `spec`, with the node-bounded ILP budget so the
    /// mapping never depends on machine speed.
    pub fn new(spec: PlatformSpec, algorithm: Algorithm) -> Result<Target, String> {
        let mut config = FlowConfig::new()
            .with_platform(spec)
            .with_algorithm(algorithm);
        config.mapping_options = SweepSpec::deterministic_mapping_options();
        let platform = config.platform.build().map_err(err)?;
        Ok(Target { config, platform })
    }
}

/// What a compile-and-simulate job produced.
#[derive(Debug)]
pub struct FlowOutput {
    /// Partitioning, PDG, mapping and plan.
    pub compiled: CompileResult,
    /// The simulated execution.
    pub report: RunReport,
}

/// The output checks every compile job shares.
pub(super) fn check_flow(graph: &StreamGraph, out: &FlowOutput) -> Result<(), String> {
    let compiled = &out.compiled;
    verify::partition_cover(graph.filter_count(), &compiled.partitioning)?;
    verify::pdg_acyclic(&compiled.pdg)?;
    verify::assignment(
        &compiled.mapping,
        compiled.partition_count(),
        compiled.platform.gpu_count(),
    )?;
    verify::sim_time(out.report.time_per_iteration_us)?;
    verify::ilp_not_worse(
        &compiled.mapping,
        &map_greedy(&compiled.pdg, &compiled.platform),
    )
}

/// The quality of a job's mapping against the same stage compiled for one
/// GPU and mapped round-robin.
pub(super) fn flow_quality(
    graph: &StreamGraph,
    estimator: &Estimator<'_>,
    stage: &PartitionStage,
    config: &FlowConfig,
    out: &FlowOutput,
) -> Result<Quality, String> {
    let time_with = |config: &FlowConfig| -> Result<f64, String> {
        let compiled = compile_from_stage(graph, config, estimator, stage).map_err(err)?;
        let t = execute(&compiled, config).time_per_iteration_us;
        verify::sim_time(t)?;
        Ok(t)
    };
    let one_gpu = config
        .clone()
        .with_platform(PlatformSpec::reference(config.estimation_gpu().clone(), 1));
    let round_robin = config.clone().with_mapper(MappingMethod::RoundRobin);
    let t = out.report.time_per_iteration_us;
    Ok(Quality {
        sim_us_per_iter: t,
        speedup_vs_1gpu: time_with(&one_gpu)? / t,
        gain_vs_round_robin: time_with(&round_robin)? / t,
    })
}

/// The back half of a replayed compile, before it is assembled into a
/// [`FlowOutput`].
pub(super) struct Finished {
    mapping: Mapping,
    plan: ExecutionPlan,
    kernels: Vec<KernelSpec>,
    stats: ExecStats,
}

/// Maps, plans and simulates one stage, each step in its own span.
pub(super) fn replay_finish(
    tracer: &mut Tracer,
    estimator: &Estimator<'_>,
    partitioning: &Partitioning,
    pdg: &Pdg,
    target: &Target,
) -> Result<Finished, String> {
    let config = &target.config;
    let platform = &target.platform;
    let mapping = tracer
        .leaf("mapping.map", || {
            map_with(pdg, platform, config.mapper, &config.mapping_options)
        })
        .map_err(err)?;
    let (plan, kernels) = tracer.leaf("codegen.plan", || {
        build_execution_plan(
            estimator,
            partitioning,
            pdg,
            &mapping,
            platform,
            &config.plan,
        )
    });
    let stats = tracer.leaf("gpusim.simulate", || simulate_plan(&plan, platform));
    Ok(Finished {
        mapping,
        plan,
        kernels,
        stats,
    })
}

/// Assembles replayed pieces the way `compile` and `execute` would.
pub(super) fn assemble(
    target: &Target,
    partitioning: Partitioning,
    pdg: Pdg,
    finished: Finished,
) -> FlowOutput {
    let iterations =
        u64::from(finished.plan.n_fragments) * target.config.plan.iterations_per_fragment;
    let report = RunReport::new(
        partitioning.len(),
        finished.mapping.clone(),
        finished.stats,
        iterations,
    );
    let compiled = CompileResult {
        platform: target.platform.clone(),
        partitioning,
        pdg,
        mapping: finished.mapping,
        plan: finished.plan,
        kernels: finished.kernels,
    };
    FlowOutput { compiled, report }
}

/// Same assignment and bit-identical makespan.
pub(super) fn same_flow(a: &FlowOutput, b: &FlowOutput) -> bool {
    a.compiled.mapping.assignment == b.compiled.mapping.assignment
        && a.report.makespan_us.to_bits() == b.report.makespan_us.to_bits()
}

/// Where a job's stream graph comes from.
enum GraphSource {
    /// A paper application at size `N`.
    App(App, u32),
    /// A generated synthetic program, flattened by the job.
    Synthetic { name: String, spec: StreamSpec },
}

impl GraphSource {
    fn build(&self) -> Result<StreamGraph, GraphError> {
        match self {
            GraphSource::App(app, n) => app.build(*n),
            GraphSource::Synthetic { name, spec } => {
                GraphBuilder::new(name.clone()).build(spec.clone())
            }
        }
    }
}

struct FullJob {
    label: String,
    source: GraphSource,
    target: usize,
}

/// Whole compiles: each job builds its graph, profiles it with a fresh
/// estimate cache, partitions, maps, plans and simulates.
pub struct FullFlow {
    jobs: Vec<FullJob>,
    targets: Vec<Target>,
}

impl FullFlow {
    /// `paper_apps`: the eight paper applications at every paper N on the
    /// 2- and 4-GPU reference boxes, flat partitioner.
    ///
    /// # Errors
    ///
    /// Returns an error if a platform or a graph fails to build.
    pub fn paper_apps(seed: u64, max_jobs: Option<usize>) -> Result<FullFlow, String> {
        let targets = jobs::PAPER_GPU_COUNTS
            .iter()
            .map(|&g| {
                Target::new(
                    PlatformSpec::reference(GpuSpec::m2090(), g),
                    Algorithm::Flat,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = truncate(jobs::paper_jobs(seed), max_jobs)
            .into_iter()
            .map(|(app, n, gpus)| FullJob {
                label: jobs::paper_label(app, n, gpus),
                source: GraphSource::App(app, n),
                target: jobs::PAPER_GPU_COUNTS
                    .iter()
                    .position(|&g| g == gpus)
                    .expect("paper jobs use the paper GPU counts"),
            })
            .collect();
        FullFlow::validated(jobs, targets)
    }

    /// `synth_multilevel`: generated pipeline programs on the 2-GPU
    /// reference box, multilevel partitioner. Generating the programs is
    /// set-up; flattening them into graphs is part of each job.
    ///
    /// # Errors
    ///
    /// Returns an error if the platform or a graph fails to build.
    pub fn synth_multilevel(seed: u64, max_jobs: Option<usize>) -> Result<FullFlow, String> {
        let target = Target::new(
            PlatformSpec::reference(GpuSpec::m2090(), 2),
            Algorithm::Multilevel(MultilevelOptions::default()),
        )?;
        let jobs = truncate(jobs::synth_jobs(seed), max_jobs)
            .into_iter()
            .map(|(n, graph_seed)| {
                let name = jobs::synth_label(n, graph_seed);
                FullJob {
                    label: name.clone(),
                    source: GraphSource::Synthetic {
                        spec: synthetic::spec(Family::Pipeline, n, graph_seed),
                        name,
                    },
                    target: 0,
                }
            })
            .collect();
        FullFlow::validated(jobs, vec![target])
    }

    /// Builds every job's graph once and solves its balance equations, so a
    /// malformed input stops the run before anything is timed.
    fn validated(jobs: Vec<FullJob>, targets: Vec<Target>) -> Result<FullFlow, String> {
        for job in &jobs {
            job.source
                .build()
                .and_then(|graph| graph.repetition_vector())
                .map_err(|e| format!("{}: {e}", job.label))?;
        }
        Ok(FullFlow { jobs, targets })
    }

    fn job(&self, job: usize) -> (&FullJob, &Target) {
        let j = &self.jobs[job];
        (j, &self.targets[j.target])
    }
}

/// The front half of a replayed compile: everything up to the PDG, then
/// [`replay_finish`].
fn replay_full(
    tracer: &mut Tracer,
    source: &GraphSource,
    target: &Target,
    cache: &Arc<EstimateCache>,
    collector: &Arc<Collector>,
) -> Result<(StreamGraph, Partitioning, Pdg, Finished), String> {
    let config = &target.config;
    let graph = tracer.leaf("apps.build", || source.build()).map_err(err)?;
    // The estimator borrows the graph, so it must be gone before the graph
    // is returned.
    let (partitioning, pdg, finished) = {
        let reps = tracer
            .leaf("graph.repetition", || graph.repetition_vector())
            .map_err(err)?;
        let estimator = tracer
            .leaf("pee.estimator_new", || {
                Estimator::new(&graph, config.estimation_gpu().clone()).map(|e| {
                    e.with_enhancement(config.enhanced)
                        .with_shared_cache(cache.clone())
                        .with_trace(Some(collector.clone()))
                })
            })
            .map_err(err)?;
        let partitioning = tracer
            .leaf("partition.run", || {
                PartitionRequest::new(&estimator)
                    .with_kind(config.partitioner)
                    .with_algorithm(config.algorithm.clone())
                    .with_search(config.partition_search.clone())
                    .with_trace(Some(collector))
                    .run()
            })
            .map_err(err)?;
        let pdg = tracer.leaf("partition.pdg", || build_pdg(&graph, &reps, &partitioning));
        let finished = replay_finish(tracer, &estimator, &partitioning, &pdg, target)?;
        (partitioning, pdg, finished)
    };
    Ok((graph, partitioning, pdg, finished))
}

impl Workload for FullFlow {
    type Output = (StreamGraph, FlowOutput);

    fn labels(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.label.clone()).collect()
    }

    fn run_job(&self, job: usize) -> Result<Self::Output, String> {
        let (j, target) = self.job(job);
        let config = &target.config;
        let graph = j.source.build().map_err(err)?;
        let out = {
            let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
                .map_err(err)?
                .with_shared_cache(EstimateCache::shared());
            let stage = partition_graph(&graph, config, &estimator).map_err(err)?;
            let compiled = compile_from_stage(&graph, config, &estimator, &stage).map_err(err)?;
            let report = execute(&compiled, config);
            FlowOutput { compiled, report }
        };
        Ok((graph, out))
    }

    fn check_job(&self, job: usize, (graph, out): &Self::Output) -> Result<Quality, String> {
        let (_, target) = self.job(job);
        check_flow(graph, out)?;
        let estimator =
            Estimator::new(graph, target.config.estimation_gpu().clone()).map_err(err)?;
        let stage = PartitionStage {
            partitioning: out.compiled.partitioning.clone(),
            pdg: out.compiled.pdg.clone(),
        };
        flow_quality(graph, &estimator, &stage, &target.config, out)
    }

    fn replay_job(
        &self,
        job: usize,
        tracer: &mut Tracer,
        totals: &mut LayerTotals,
    ) -> Result<Self::Output, String> {
        let (j, target) = self.job(job);
        let cache = EstimateCache::shared();
        let collector = Arc::new(Collector::new());
        let root = tracer.begin_job();
        let replayed = replay_full(tracer, &j.source, target, &cache, &collector);
        tracer.end(root);
        let (graph, partitioning, pdg, finished) = replayed?;
        let out = assemble(target, partitioning, pdg, finished);

        let cache_stats = cache.stats();
        totals.add("apps.filters", graph.filter_count() as f64);
        totals.add("pee.estimate_queries", cache_stats.queries() as f64);
        totals.add("pee.estimate_misses", cache_stats.misses as f64);
        totals.add(
            "partition.partitions",
            out.compiled.partition_count() as f64,
        );
        record_program_spans(&collector, totals);
        let greedy = map_greedy(&out.compiled.pdg, &out.compiled.platform);
        totals.record_compile(&out.compiled, &out.report, &greedy);
        Ok((graph, out))
    }

    fn same_result(&self, a: &Self::Output, b: &Self::Output) -> bool {
        same_flow(&a.1, &b.1)
    }
}
