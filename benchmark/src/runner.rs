//! The measurement loop: a closed loop with one client that runs a
//! workload's jobs back to back, pass after pass, for the run's duration.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::meta;
use crate::stats::{geomean, median, percentile};
use crate::trace::{LayerTotals, Tracer};
use crate::workloads::{Quality, Workload};

/// A job faster than this is repeated back to back until this much time has
/// passed, and its sample is the fastest repeat: single sub-millisecond
/// timings move too much from run to run to compare, and load from other
/// tenants of the host only ever adds time. Short enough that a run fits
/// many passes, so every job gets many samples.
pub const MIN_SAMPLE: Duration = Duration::from_millis(10);

/// An untraced run times the workload's set-up at the start of a pass,
/// repeated back to back until this much time has passed (at least once).
/// The slice's fastest repeat is one set-up sample, and `setup_s` is the
/// median sample. Spread over the run like the jobs' samples, they move
/// less with the load on a shared host than one block at the start: over
/// ten runs, medians of a 5 ms set-up repeated for 1 s before the first job
/// spread by up to 41%.
pub const SETUP_SLICE: Duration = Duration::from_millis(50);
/// A pass after the first skips its set-up slice while the set-ups so far
/// took more than this share of the run, so a slow set-up does not crowd
/// out the jobs' samples: `sweep_cached`, whose set-up is a whole sweep,
/// still sets up about every 4 s.
pub const SETUP_SHARE: f64 = 0.05;

/// How many failure messages a result keeps.
const KEPT_FAILURES: usize = 10;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: it orders the jobs.
    pub seed: u64,
    /// How long to keep starting passes over the jobs. At least one full
    /// pass always runs, so every job is measured.
    pub seconds: f64,
    /// Replay the jobs step by step under spans (per-layer metrics) instead
    /// of timing them whole (end-to-end metrics).
    pub trace: bool,
    /// Run only the first jobs of the list (smoke tests).
    pub max_jobs: Option<usize>,
}

/// The timing of one job over a run.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// The job's label.
    pub label: String,
    /// Successful samples, ms, one per pass that ran the job.
    pub samples_ms: Vec<f64>,
}

impl JobSummary {
    /// The job's time: its fastest sample. Load from other processes on the
    /// machine only ever adds time, and it comes and goes within a run, so
    /// the fastest of a job's samples moves least from run to run.
    pub fn ms(&self) -> Option<f64> {
        self.samples_ms.iter().copied().reduce(f64::min)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Job executions started.
    pub attempted: u64,
    /// Executions that returned an error, panicked or failed verification.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Metric values by name: end-to-end for an untraced run, per-layer for
    /// a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-job timings (untraced runs).
    pub jobs: Vec<JobSummary>,
    /// The recorded spans (traced runs).
    pub tracer: Option<Tracer>,
    /// Worker threads each job used.
    pub threads: usize,
}

impl RunResult {
    /// A metric's value, if the run produced it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[derive(Default)]
struct Failures {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Failures {
    fn record(&mut self, label: &str, message: String) {
        self.failed += 1;
        if self.messages.len() < KEPT_FAILURES {
            self.messages.push(format!("{label}: {message}"));
        }
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(if let Some(s) = payload.downcast_ref::<&str>() {
            format!("panic: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("panic: {s}")
        } else {
            "panic".to_string()
        }),
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One sample of a job: its fastest time over back-to-back repeats filling
/// [`MIN_SAMPLE`], in ms, and the last repeat's output. Outputs are dropped
/// outside the timed part.
fn timed_sample<O>(mut job: impl FnMut() -> Result<O, String>) -> Result<(f64, O), String> {
    let started = Instant::now();
    let mut fastest = f64::INFINITY;
    loop {
        let t = Instant::now();
        let output = black_box(job()?);
        fastest = fastest.min(ms_since(t));
        if started.elapsed() >= MIN_SAMPLE {
            return Ok((fastest, output));
        }
    }
}

/// Measures a set-up workload. `setup` sets the workload up again; an
/// untraced run times it as [`SETUP_SLICE`] describes, and drops what it
/// returns outside the timing.
///
/// # Errors
///
/// Returns the first error a timed set-up returned.
pub fn measure<W: Workload, S>(
    workload: &W,
    options: &RunOptions,
    setup: impl FnMut() -> Result<S, String>,
) -> Result<RunResult, String> {
    if options.trace {
        measure_traced(workload, options)
    } else {
        measure_untraced(workload, options, setup)
    }
}

/// Calls `start_pass(pass)` and then `job(index)` for every job, pass after
/// pass, until `seconds` have passed; the first pass always completes.
///
/// # Errors
///
/// Stops at the first error `start_pass` returns.
fn passes(
    count: usize,
    seconds: f64,
    mut start_pass: impl FnMut(usize) -> Result<(), String>,
    mut job: impl FnMut(usize),
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut pass = 0;
    loop {
        if pass > 0 && (count == 0 || Instant::now() >= deadline) {
            return Ok(());
        }
        start_pass(pass)?;
        for index in 0..count {
            if pass > 0 && Instant::now() >= deadline {
                return Ok(());
            }
            job(index);
        }
        pass += 1;
    }
}

/// Times `setup` back to back for a [`SETUP_SLICE`], at least once. Returns
/// the fastest repeat and the whole slice, in seconds.
fn setup_sample<S>(setup: &mut impl FnMut() -> Result<S, String>) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let mut fastest = f64::INFINITY;
    loop {
        let t = Instant::now();
        let value = setup()?;
        fastest = fastest.min(t.elapsed().as_secs_f64());
        drop(value);
        if started.elapsed() >= SETUP_SLICE {
            return Ok((fastest, started.elapsed().as_secs_f64()));
        }
    }
}

fn measure_untraced<W: Workload, S>(
    workload: &W,
    options: &RunOptions,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<RunResult, String> {
    let labels = workload.labels();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut quality: Vec<Option<Quality>> = vec![None; labels.len()];
    let mut failures = Failures::default();
    let mut setup_s = Vec::new();
    let mut setup_spent = 0.0;
    let started = Instant::now();
    let start_pass = |pass: usize| {
        if pass == 0 || setup_spent <= SETUP_SHARE * started.elapsed().as_secs_f64() {
            let (fastest, spent) = setup_sample(&mut setup)?;
            setup_s.push(fastest);
            setup_spent += spent;
        }
        Ok(())
    };
    passes(labels.len(), options.seconds, start_pass, |job| {
        failures.attempted += 1;
        let verified = guarded(|| {
            let (ms, output) = timed_sample(|| workload.run_job(job))?;
            if quality[job].is_none() {
                quality[job] = Some(workload.check_job(job, &output)?);
            }
            Ok(ms)
        });
        match verified {
            Ok(ms) => samples[job].push(ms),
            Err(e) => failures.record(&labels[job], e),
        }
    })?;

    let jobs: Vec<JobSummary> = labels
        .into_iter()
        .zip(samples)
        .map(|(label, samples_ms)| JobSummary { label, samples_ms })
        .collect();
    let job_ms: Vec<f64> = jobs.iter().filter_map(JobSummary::ms).collect();
    let qualities: Vec<Quality> = quality.into_iter().flatten().collect();
    let geo = |f: fn(&Quality) -> f64| geomean(&qualities.iter().map(f).collect::<Vec<_>>());
    let total_s = job_ms.iter().sum::<f64>() / 1e3;
    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.push((name, v));
        }
    };
    push("setup_s", median(&setup_s));
    push("job_ms_p50", percentile(&job_ms, 50.0));
    push("job_ms_p90", percentile(&job_ms, 90.0));
    push(
        "jobs_per_s",
        (total_s > 0.0).then(|| job_ms.len() as f64 / total_s),
    );
    push("sim_us_per_iter_geomean", geo(|q| q.sim_us_per_iter));
    push("speedup_vs_1gpu_geomean", geo(|q| q.speedup_vs_1gpu));
    push(
        "gain_vs_round_robin_geomean",
        geo(|q| q.gain_vs_round_robin),
    );
    push("peak_rss_mb", meta::peak_rss_mb());
    push(
        "success_ratio",
        (failures.attempted > 0)
            .then(|| (failures.attempted - failures.failed) as f64 / failures.attempted as f64),
    );
    Ok(RunResult {
        attempted: failures.attempted,
        failed: failures.failed,
        failures: failures.messages,
        metrics,
        jobs,
        tracer: None,
        threads: workload.threads(),
    })
}

fn measure_traced<W: Workload>(workload: &W, options: &RunOptions) -> Result<RunResult, String> {
    let labels = workload.labels();
    let mut checked = vec![false; labels.len()];
    let mut tracer = Tracer::new();
    let mut totals = LayerTotals::default();
    let mut failures = Failures::default();
    let no_setup = |_| Ok(());
    passes(labels.len(), options.seconds, no_setup, |job| {
        failures.attempted += 1;
        let verified = guarded(|| {
            let started = Instant::now();
            let output = black_box(workload.run_job(job)?);
            let untraced_ms = ms_since(started);
            if !checked[job] {
                workload.check_job(job, &output)?;
                checked[job] = true;
            }
            totals.begin(job);
            let replayed = workload.replay_job(job, &mut tracer, &mut totals)?;
            if !workload.same_result(&output, &replayed) {
                return Err("the traced replay decided differently".to_string());
            }
            totals.replay_done(untraced_ms);
            Ok(())
        });
        if let Err(e) = verified {
            failures.record(&labels[job], e);
        }
    })?;
    Ok(RunResult {
        attempted: failures.attempted,
        failed: failures.failed,
        failures: failures.messages,
        metrics: totals.metrics(tracer.spans()),
        jobs: Vec::new(),
        tracer: Some(tracer),
        threads: workload.threads(),
    })
}
