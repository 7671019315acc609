//! `hier_mapping`: mapping, planning and simulation on flat and
//! hierarchical platforms, from stages partitioned once during set-up.

use sgmap_core::{compile_from_stage, execute, partition_graph, Algorithm, PartitionStage};
use sgmap_graph::StreamGraph;
use sgmap_mapping::map_greedy;
use sgmap_pee::Estimator;

use super::flow::{
    assemble, check_flow, flow_quality, replay_finish, same_flow, FlowOutput, Target,
};
use super::{err, truncate, Quality, Workload};
use crate::jobs;
use crate::trace::{LayerTotals, Tracer};

/// The generated inputs: graphs, platforms and the job order.
pub struct HierInputs {
    graphs: Vec<StreamGraph>,
    targets: Vec<Target>,
    jobs: Vec<(usize, usize)>,
    labels: Vec<String>,
}

impl HierInputs {
    /// Builds every graph and platform of the workload.
    ///
    /// # Errors
    ///
    /// Returns an error if a graph or platform fails to build.
    pub fn generate(seed: u64, max_jobs: Option<usize>) -> Result<HierInputs, String> {
        let graphs = jobs::hier_graphs()
            .into_iter()
            .map(|(app, n)| app.build(n).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        let targets = jobs::hier_platforms()
            .into_iter()
            .map(|spec| Target::new(spec, Algorithm::Flat))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HierInputs {
            graphs,
            targets,
            jobs: truncate(jobs::hier_jobs(seed), max_jobs),
            labels: truncate(jobs::job_labels("hier_mapping", seed), max_jobs),
        })
    }
}

/// The workload after set-up: one estimator and one partition stage per
/// graph.
pub struct HierMapping<'g> {
    inputs: &'g HierInputs,
    estimators: Vec<Estimator<'g>>,
    stages: Vec<PartitionStage>,
}

impl<'g> HierMapping<'g> {
    /// Profiles and partitions every graph once (flat partitioner on the
    /// estimation GPU every platform shares).
    ///
    /// # Errors
    ///
    /// Returns an error if profiling or partitioning a graph fails.
    pub fn prepare(inputs: &'g HierInputs) -> Result<HierMapping<'g>, String> {
        let base = &inputs.targets[0].config;
        let mut estimators = Vec::with_capacity(inputs.graphs.len());
        let mut stages = Vec::with_capacity(inputs.graphs.len());
        for graph in &inputs.graphs {
            let estimator = Estimator::new(graph, base.estimation_gpu().clone()).map_err(err)?;
            stages.push(partition_graph(graph, base, &estimator).map_err(err)?);
            estimators.push(estimator);
        }
        Ok(HierMapping {
            inputs,
            estimators,
            stages,
        })
    }

    fn job(&self, job: usize) -> (&StreamGraph, &Estimator<'g>, &PartitionStage, &Target) {
        let (g, p) = self.inputs.jobs[job];
        (
            &self.inputs.graphs[g],
            &self.estimators[g],
            &self.stages[g],
            &self.inputs.targets[p],
        )
    }
}

impl Workload for HierMapping<'_> {
    type Output = FlowOutput;

    fn labels(&self) -> Vec<String> {
        self.inputs.labels.clone()
    }

    fn run_job(&self, job: usize) -> Result<FlowOutput, String> {
        let (graph, estimator, stage, target) = self.job(job);
        let compiled = compile_from_stage(graph, &target.config, estimator, stage).map_err(err)?;
        let report = execute(&compiled, &target.config);
        Ok(FlowOutput { compiled, report })
    }

    fn check_job(&self, job: usize, out: &FlowOutput) -> Result<Quality, String> {
        let (graph, estimator, stage, target) = self.job(job);
        check_flow(graph, out)?;
        flow_quality(graph, estimator, stage, &target.config, out)
    }

    fn replay_job(
        &self,
        job: usize,
        tracer: &mut Tracer,
        totals: &mut LayerTotals,
    ) -> Result<FlowOutput, String> {
        let (_, estimator, stage, target) = self.job(job);
        let root = tracer.begin_job();
        let finished = replay_finish(tracer, estimator, &stage.partitioning, &stage.pdg, target);
        tracer.end(root);
        let out = assemble(
            target,
            stage.partitioning.clone(),
            stage.pdg.clone(),
            finished?,
        );
        let greedy = map_greedy(&out.compiled.pdg, &out.compiled.platform);
        totals.record_compile(&out.compiled, &out.report, &greedy);
        Ok(out)
    }

    fn same_result(&self, a: &FlowOutput, b: &FlowOutput) -> bool {
        same_flow(a, b)
    }
}
