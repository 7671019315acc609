//! The four workloads and the interface the measurement loop drives them
//! through.

mod flow;
mod hier;
mod sweep;

use crate::runner::{measure, RunOptions, RunResult};
use crate::trace::{LayerTotals, Tracer};

pub use flow::FullFlow;
pub use hier::{HierInputs, HierMapping};
pub use sweep::SweepCached;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "paper_apps",
    "hier_mapping",
    "synth_multilevel",
    "sweep_cached",
];

/// The mapping quality of one job, computed after its timed part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Simulated time per steady-state iteration, µs.
    pub sim_us_per_iter: f64,
    /// The same stage mapped onto one GPU, divided by this job's time.
    pub speedup_vs_1gpu: f64,
    /// The same stage mapped round-robin, divided by this job's time.
    pub gain_vs_round_robin: f64,
}

/// A workload after set-up: a list of jobs the measurement loop runs.
pub trait Workload {
    /// What one job produces.
    type Output;

    /// Worker threads a job uses.
    fn threads(&self) -> usize {
        1
    }

    /// One label per job, in run order.
    fn labels(&self) -> Vec<String>;

    /// Runs job `job` through the crates' public entry points. This is the
    /// timed part.
    ///
    /// # Errors
    ///
    /// Returns the error any entry point returned.
    fn run_job(&self, job: usize) -> Result<Self::Output, String>;

    /// Verifies a job's output and measures its mapping quality. Untimed.
    ///
    /// # Errors
    ///
    /// Returns the first check that failed.
    fn check_job(&self, job: usize, output: &Self::Output) -> Result<Quality, String>;

    /// Replays job `job` one public step at a time, each step inside a span
    /// of `tracer` under one job root, and adds the job's layer counters to
    /// `totals`.
    ///
    /// # Errors
    ///
    /// Returns the error any step returned.
    fn replay_job(
        &self,
        job: usize,
        tracer: &mut Tracer,
        totals: &mut LayerTotals,
    ) -> Result<Self::Output, String>;

    /// Whether two outputs of the same job agree bit for bit on what the
    /// job decided (mapping and simulated makespan).
    fn same_result(&self, a: &Self::Output, b: &Self::Output) -> bool;
}

/// Sets up and measures one workload. The workload is set up once, untimed,
/// to be measured; the measurement times further set-ups and throws them
/// away.
///
/// # Errors
///
/// Returns an error for an unknown workload or a failed set-up.
pub fn run(workload: &str, options: &RunOptions) -> Result<RunResult, String> {
    let (seed, max_jobs) = (options.seed, options.max_jobs);
    match workload {
        "paper_apps" => {
            let setup = || FullFlow::paper_apps(seed, max_jobs);
            measure(&setup()?, options, setup)
        }
        "synth_multilevel" => {
            let setup = || FullFlow::synth_multilevel(seed, max_jobs);
            measure(&setup()?, options, setup)
        }
        "sweep_cached" => {
            let setup = || SweepCached::new(max_jobs);
            measure(&setup()?, options, setup)
        }
        "hier_mapping" => {
            // The prepared workload borrows its inputs, so a timed set-up
            // drops it inside the timing and returns only the inputs.
            let setup = || {
                let inputs = HierInputs::generate(seed, max_jobs)?;
                HierMapping::prepare(&inputs)?;
                Ok(inputs)
            };
            let inputs = HierInputs::generate(seed, max_jobs)?;
            measure(&HierMapping::prepare(&inputs)?, options, setup)
        }
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Keeps the first `max_jobs` jobs, if given.
fn truncate<T>(mut jobs: Vec<T>, max_jobs: Option<usize>) -> Vec<T> {
    if let Some(max) = max_jobs {
        jobs.truncate(max);
    }
    jobs
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
