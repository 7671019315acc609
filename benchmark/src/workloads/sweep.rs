//! `sweep_cached`: the quick sweep preset on one worker thread, started
//! from the estimate-cache file set-up wrote.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use sgmap_mapping::MappingMethod;
use sgmap_pee::EstimateCache;
use sgmap_sweep::{
    check_report, compare_nonfaulted, load_cache_file, run_sweep_with_cache, save_cache_file,
    StackConfig, SweepReport, SweepSpec,
};

use super::{err, truncate, Quality, Workload};
use crate::jobs;
use crate::stats::geomean;
use crate::trace::{LayerTotals, Tracer};

/// Worker threads of every sweep (also the partition-search threads). With
/// two, each of the two workers also searches partitions on two threads, so
/// four threads share a two-vCPU machine: sweeps ran no faster than on one
/// thread, and their times spread twice as wide from run to run.
pub const SWEEP_THREADS: usize = 1;

/// What one sweep produced.
#[derive(Debug)]
pub struct SweepOutput {
    report: SweepReport,
    json: String,
}

/// Sweeps run once, after the first timed job, to check and rate the timed
/// ones against.
struct References {
    /// The same sweep on one thread from a cold cache.
    one_thread_json: String,
    /// The same sweep with round-robin mapping.
    round_robin: SweepReport,
}

/// The workload after set-up: the spec and the warm cache file.
pub struct SweepCached {
    spec: SweepSpec,
    cache_file: PathBuf,
    labels: Vec<String>,
    references: OnceLock<Result<References, String>>,
}

impl SweepCached {
    /// Runs the sweep once from a cold cache and saves the cache to a file
    /// under the benchmark's `target` directory.
    ///
    /// # Errors
    ///
    /// Returns an error if the sweep or the cache file fails.
    pub fn new(max_jobs: Option<usize>) -> Result<SweepCached, String> {
        let spec = SweepSpec::quick();
        // Timed set-ups run while the measured instance exists, so every
        // instance gets a file of its own.
        static INSTANCES: AtomicUsize = AtomicUsize::new(0);
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cache_file = dir.join(format!(
            "sweep_cached.{}.{instance}.cache.json",
            std::process::id()
        ));
        let cache = EstimateCache::shared();
        run_sweep_with_cache(&spec, SWEEP_THREADS, cache.clone()).map_err(err)?;
        save_cache_file(&cache_file, &cache)?;
        Ok(SweepCached {
            spec,
            cache_file,
            labels: truncate(jobs::sweep_labels(), max_jobs),
            references: OnceLock::new(),
        })
    }

    fn references(&self) -> Result<&References, String> {
        self.references
            .get_or_init(|| {
                let one_thread =
                    run_sweep_with_cache(&self.spec, 1, EstimateCache::shared()).map_err(err)?;
                let mut rr_spec = self.spec.clone();
                rr_spec.stacks = vec![StackConfig {
                    label: "round-robin".to_string(),
                    mapper: MappingMethod::RoundRobin,
                    ..StackConfig::ours()
                }];
                let round_robin =
                    run_sweep_with_cache(&rr_spec, SWEEP_THREADS, EstimateCache::shared())
                        .map_err(err)?;
                Ok(References {
                    one_thread_json: one_thread.to_json(),
                    round_robin,
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl Drop for SweepCached {
    fn drop(&mut self) {
        // Best effort: a leftover file is harmless and ignored by git.
        let _ = std::fs::remove_file(&self.cache_file);
    }
}

/// Quality over the sweep's multi-GPU points; round-robin points are
/// matched by work-list index.
fn sweep_quality(report: &SweepReport, round_robin: &SweepReport) -> Result<Quality, String> {
    let (mut times, mut speedups, mut gains) = (Vec::new(), Vec::new(), Vec::new());
    for r in report.ok_records().filter(|r| r.gpus > 1) {
        let rr = round_robin
            .records
            .get(r.index)
            .filter(|rr| rr.is_ok() && (rr.app, rr.n, rr.gpus) == (r.app, r.n, r.gpus))
            .ok_or_else(|| format!("no round-robin twin for point {}", r.index))?;
        times.push(r.time_per_iteration_us);
        speedups.push(
            r.speedup_vs_1gpu
                .ok_or_else(|| format!("point {} has no 1-GPU speedup", r.index))?,
        );
        gains.push(rr.time_per_iteration_us / r.time_per_iteration_us);
    }
    let invalid = || "sweep has no valid multi-GPU points".to_string();
    Ok(Quality {
        sim_us_per_iter: geomean(&times).ok_or_else(invalid)?,
        speedup_vs_1gpu: geomean(&speedups).ok_or_else(invalid)?,
        gain_vs_round_robin: geomean(&gains).ok_or_else(invalid)?,
    })
}

impl Workload for SweepCached {
    type Output = SweepOutput;

    fn threads(&self) -> usize {
        SWEEP_THREADS
    }

    fn labels(&self) -> Vec<String> {
        self.labels.clone()
    }

    fn run_job(&self, _job: usize) -> Result<SweepOutput, String> {
        let cache = EstimateCache::shared();
        load_cache_file(&self.cache_file, &cache)?;
        let report = run_sweep_with_cache(&self.spec, SWEEP_THREADS, cache).map_err(err)?;
        let json = report.to_json();
        Ok(SweepOutput { report, json })
    }

    fn check_job(&self, _job: usize, out: &SweepOutput) -> Result<Quality, String> {
        let summary = check_report(&out.json).map_err(err)?;
        let references = self.references()?;
        let compared = compare_nonfaulted(&out.json, &references.one_thread_json).map_err(err)?;
        if compared.compared != summary.points {
            return Err(format!(
                "{} of {} points match the 1-thread sweep",
                compared.compared, summary.points
            ));
        }
        sweep_quality(&out.report, &references.round_robin)
    }

    fn replay_job(
        &self,
        _job: usize,
        tracer: &mut Tracer,
        totals: &mut LayerTotals,
    ) -> Result<SweepOutput, String> {
        let root = tracer.begin_job();
        let replayed = (|| {
            let cache = tracer.leaf("sweep.cache_load", || {
                let cache = EstimateCache::shared();
                load_cache_file(&self.cache_file, &cache).map(|_| cache)
            })?;
            let report = tracer
                .leaf("sweep.run", || {
                    run_sweep_with_cache(&self.spec, SWEEP_THREADS, cache)
                })
                .map_err(err)?;
            let json = tracer.leaf("sweep.render", || report.to_json());
            Ok::<_, String>(SweepOutput { report, json })
        })();
        tracer.end(root);
        let out = replayed?;
        tracer
            .leaf("sweep.check", || check_report(&out.json))
            .map_err(err)?;

        let report = &out.report;
        totals.add("sweep.points", report.records.len() as f64);
        totals.add("sweep.compile_groups", report.dedup.compile_groups as f64);
        totals.add(
            "sweep.failed_points",
            report.records.iter().filter(|r| !r.is_ok()).count() as f64,
        );
        totals.add("sweep.cache_hits", report.cache.hits as f64);
        totals.add("sweep.cache_queries", report.cache.queries() as f64);
        totals.add("pee.estimate_queries", report.cache.queries() as f64);
        totals.add("pee.estimate_misses", report.cache.misses as f64);
        Ok(out)
    }

    fn same_result(&self, a: &SweepOutput, b: &SweepOutput) -> bool {
        a.report.canonical_json() == b.report.canonical_json()
    }
}
