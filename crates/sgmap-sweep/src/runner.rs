//! Parallel execution of an expanded sweep, deduplicated by compile group.
//!
//! Partitioning depends only on (application, N, estimation device, stack,
//! enhancement) — never on the platform's GPU count or interconnect shape —
//! so the runner groups expanded points by that key, compiles each group
//! exactly once (graph construction, profiling and the partition search all
//! happen once per group) and fans the compiled
//! [`PartitionStage`](sgmap_core::PartitionStage) out to every platform in
//! the group. On the quick preset this cuts the number of partition searches
//! to a third of the point count.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sgmap_apps::App;
use sgmap_core::{
    compile_from_stage, execute, partition_graph, FlowConfig, PartitionSearchOptions,
};
use sgmap_mapping::Mapping;
use sgmap_pee::{EstimateCache, Estimator};

use crate::report::{DedupStats, StabilityReport, SweepRecord, SweepReport};
use crate::spec::{SweepError, SweepPoint, SweepSpec};

/// Renders a caught panic payload as a message (panics carry `&str` or
/// `String` payloads in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The canonical partition→GPU assignment rendering recorded on
/// stability-aware sweeps.
fn mapping_signature(mapping: &Mapping) -> String {
    let parts: Vec<String> = mapping.assignment.iter().map(ToString::to_string).collect();
    parts.join(",")
}

/// The number of worker threads `run_sweep` uses when the caller passes 0:
/// the machine's available parallelism, capped at 8 (points are coarse
/// enough that more workers only add scheduling noise). This is the same
/// auto-resolution the partition search applies, so "both levels share one
/// thread budget" also holds for the auto case.
pub fn default_threads() -> usize {
    PartitionSearchOptions::new()
        .with_threads(0)
        .resolved_threads()
}

/// The key everything platform-shape-independent hangs off: two points with
/// equal keys share one graph, one estimator, one partition search. The
/// platform contributes only its estimation device (by name — device models
/// are assumed to have distinct names, which
/// [`SweepSpec::validate`](crate::SweepSpec::validate) enforces per platform
/// name), so a reference box, an NVLink-island box and a cluster that all
/// estimate on the same GPU share one compile.
type CompileKey<'p> = (App, u32, &'p str, &'p str, bool);

fn compile_key(point: &SweepPoint) -> CompileKey<'_> {
    (
        point.app,
        point.n,
        point.platform.primary_gpu().name.as_str(),
        point.stack.label.as_str(),
        point.enhanced,
    )
}

/// Groups point indices by compile key, in first-appearance (work-list)
/// order. Within a group the indices stay in work-list order too, so the
/// grouping is deterministic for a given expansion.
fn group_points(points: &[SweepPoint]) -> Vec<Vec<usize>> {
    let mut by_key: HashMap<CompileKey<'_>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let g = *by_key.entry(compile_key(point)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

/// Expands `spec` and executes every point on `threads` worker threads
/// (0 = [`default_threads`]). Workers pull *compile groups* from a shared
/// queue: each group builds its graph, profiles it and runs the partition
/// search once, then maps and executes every GPU count in the group against
/// that shared artefact. The same thread count is handed to the partition
/// search inside each compile, so one large compile also scales.
///
/// All groups share one [`EstimateCache`], so estimation work done for one
/// group (say, DES at N=8 with the proposed partitioner) is reused by every
/// other group that asks the same physical question (another mapper, another
/// GPU model with equal relevant limits). Points that fail to build or
/// compile become error records rather than aborting the sweep; results are
/// reassembled in work-list order, which makes the report independent of
/// scheduling.
///
/// When the spec names a [`cache_file`](SweepSpec::cache_file), the shared
/// cache is warm-started from that file (if it exists) before the sweep and
/// saved back — merged with the new entries — afterwards, so a repeated
/// sweep answers every shared-cache query without recomputation.
///
/// # Errors
///
/// Returns an error if the spec fails validation or its cache file exists
/// but cannot be read, parsed or written.
///
/// # Panics
///
/// Panics if a worker thread panics (i.e. a bug in the flow itself, not a
/// recoverable per-point failure).
///
/// # Tracing
///
/// With a trace collector ambient (`sgmap_trace::scope`), compile groups and
/// points run under `sweep.group` / `sweep.point` spans on whichever worker
/// thread runs them, cache persistence emits `sweep.cache_loaded` /
/// `sweep.cache_saved` instants, and a failed cache save becomes a
/// structured `cache.save_failed` warning as well as a stderr line. The
/// collector is write-only, so the report is byte-identical with and
/// without it.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, SweepError> {
    let cache = EstimateCache::shared();
    match &spec.cache_file {
        None => run_sweep_with_cache(spec, threads, cache),
        Some(path) => {
            // A corrupt or version-mismatched cache file degrades to a cold
            // start by default — the cache is an optimisation, not an input.
            // `strict_cache` turns that degradation into a hard error for
            // pipelines that must notice a damaged cache.
            match crate::cache_io::load_cache_file_if_exists(path, &cache) {
                Ok(_) => sgmap_trace::instant(
                    "sweep.cache_loaded",
                    vec![("entries", (cache.len() as u64).into())],
                ),
                Err(e) if spec.strict_cache => return Err(SweepError::CacheIo(e)),
                Err(e) => sgmap_trace::warn(
                    "cache.load_failed",
                    format!("estimate cache ignored (cold start): {e}"),
                ),
            }
            let report = run_sweep_with_cache(spec, threads, cache.clone())?;
            // Saving is an optimisation for the *next* run; failing to write
            // it must not throw away the sweep that just completed.
            match crate::cache_io::save_cache_file(path, &cache) {
                Ok(entries) => {
                    sgmap_trace::instant("sweep.cache_saved", vec![("entries", entries.into())])
                }
                Err(e) => sgmap_trace::warn(
                    "cache.save_failed",
                    format!("estimate cache not persisted: {e}"),
                ),
            }
            Ok(report)
        }
    }
}

/// Like [`run_sweep`], but answers estimation queries from (and records them
/// into) a caller-supplied shared cache — the hook batch drivers and the
/// persistent-cache plumbing use. The report's cache counters are the
/// cache's totals at the end of the sweep, so a warm-started cache reports
/// fewer misses than a cold one (and zero once fully warmed). Traced like
/// [`run_sweep`].
///
/// # Errors
///
/// Returns an error if the spec fails validation.
///
/// # Panics
///
/// Panics if a worker thread panics (i.e. a bug in the flow itself, not a
/// recoverable per-point failure).
pub fn run_sweep_with_cache(
    spec: &SweepSpec,
    threads: usize,
    cache: Arc<EstimateCache>,
) -> Result<SweepReport, SweepError> {
    let points = spec.expand()?;
    let groups = group_points(&points);
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let workers = threads.min(groups.len().max(1));
    // When there are fewer groups than threads (e.g. one combination swept
    // over the GPU-count axis), the spare threads go to the per-point
    // mapping/execution inside each group, so a thin grid still uses the
    // whole budget.
    let point_threads = (threads / workers.max(1)).max(1);
    // The partition search inside each compile uses the same thread count as
    // the sweep itself; the batch size is a fixed constant, so the report —
    // including every cache counter — is byte-identical for any `threads`.
    let search = PartitionSearchOptions::new().with_threads(threads);
    let started = Instant::now();

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<SweepRecord>>> = Mutex::new(vec![None; points.len()]);
    // Workers record into the calling thread's trace collector.
    let trace = sgmap_trace::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                sgmap_trace::scope(trace.as_ref(), || loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    // A panic anywhere in the group's compile phase (or one that
                    // escapes the per-point isolation) fails that group's points
                    // with structured error records instead of taking down the
                    // sweep; the payload is deterministic, so the records are
                    // too.
                    let group_records = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_group(spec, &points, &groups[g], &cache, &search, point_threads)
                    }))
                    .unwrap_or_else(|payload| {
                        let msg = panic_message(payload.as_ref());
                        sgmap_trace::add("sweep.panics_caught", 1);
                        sgmap_trace::warn(
                            "sweep.group_panicked",
                            format!("compile group panicked; its points failed: {msg}"),
                        );
                        groups[g]
                            .iter()
                            .map(|&i| {
                                (
                                    i,
                                    SweepRecord::from_error(&points[i], format!("panic: {msg}")),
                                )
                            })
                            .collect()
                    });
                    let mut results = results.lock().expect("sweep results lock poisoned");
                    for (i, record) in group_records {
                        results[i] = Some(record);
                    }
                })
            });
        }
    });

    let mut records: Vec<SweepRecord> = results
        .into_inner()
        .expect("sweep results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every point produces a record"))
        .collect();
    attach_speedups(&mut records);
    let stability = spec
        .stability_baseline
        .as_deref()
        .map(|baseline| StabilityReport::compute(&records, baseline));
    sgmap_trace::add("sweep.points", points.len() as u64);
    sgmap_trace::add("sweep.compile_groups", groups.len() as u64);

    Ok(SweepReport {
        spec_name: spec.name.clone(),
        records,
        cache: cache.stats(),
        dedup: DedupStats {
            expanded_points: points.len() as u64,
            compile_groups: groups.len() as u64,
        },
        stability,
        threads,
        wall_clock: started.elapsed(),
    })
}

/// The per-point flow configuration (the platform and the stack's routing
/// knobs vary inside a group; everything else is shared).
fn point_config(
    spec: &SweepSpec,
    point: &SweepPoint,
    search: &PartitionSearchOptions,
) -> FlowConfig {
    let mut config = FlowConfig::new()
        .with_platform(point.platform.clone())
        .with_partitioner(point.stack.partitioner)
        .with_algorithm(point.stack.algorithm.clone())
        .with_mapper(point.stack.mapper)
        .with_enhancement(point.enhanced)
        .with_partition_search(search.clone());
    config.mapping_options = spec.mapping_options.clone();
    config.plan = spec.plan.clone();
    // The stack axis is authoritative for routing; the spec-level plan only
    // contributes the fragment/iteration shape.
    config.plan.transfer_mode = point.stack.transfer_mode;
    config
}

/// Maps `f` over `0..n` on `threads` scoped worker threads, returning the
/// results in index order (inline for a single thread or item).
fn par_collect<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let trace = sgmap_trace::current();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                sgmap_trace::scope(trace.as_ref(), || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    results.lock().expect("point results lock poisoned")[i] = Some(r);
                })
            });
        }
    });
    results
        .into_inner()
        .expect("point results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every index is mapped"))
        .collect()
}

/// Compiles one group (graph, estimator, partition stage — all built once)
/// and executes every point in it on `point_threads` threads, returning
/// `(point index, record)` pairs.
fn run_group(
    spec: &SweepSpec,
    points: &[SweepPoint],
    group: &[usize],
    cache: &Arc<EstimateCache>,
    search: &PartitionSearchOptions,
    point_threads: usize,
) -> Vec<(usize, SweepRecord)> {
    let fail_all = |message: String| -> Vec<(usize, SweepRecord)> {
        group
            .iter()
            .map(|&i| (i, SweepRecord::from_error(&points[i], &message)))
            .collect()
    };
    let first = &points[group[0]];
    let mut group_span = sgmap_trace::span("sweep.group");
    group_span.arg("app", first.app.name());
    group_span.arg("n", u64::from(first.n));
    group_span.arg("stack", first.stack.label.as_str());
    group_span.arg("points", group.len());
    let graph = match first.app.build(first.n) {
        Ok(graph) => graph,
        Err(e) => return fail_all(e.to_string()),
    };
    let estimator = match Estimator::new(&graph, first.platform.primary_gpu().clone()) {
        Ok(est) => est
            .with_enhancement(first.enhanced)
            .with_shared_cache(cache.clone()),
        Err(e) => return fail_all(e.to_string()),
    };
    let stage = match partition_graph(&graph, &point_config(spec, first, search), &estimator) {
        Ok(stage) => stage,
        Err(e) => return fail_all(e.to_string()),
    };
    par_collect(point_threads, group.len(), |k| {
        let i = group[k];
        let point = &points[i];
        let mut point_span = sgmap_trace::span("sweep.point");
        point_span.arg("app", point.app.name());
        point_span.arg("n", u64::from(point.n));
        point_span.arg("platform", point.platform.name.as_str());
        (
            i,
            run_point(spec, point, &graph, &estimator, &stage, search),
        )
    })
}

/// Maps and executes one point in isolation: the attempt runs under
/// `catch_unwind`, so a panic becomes a structured error record rather than
/// taking the worker (and the sweep) down.
fn run_point(
    spec: &SweepSpec,
    point: &SweepPoint,
    graph: &sgmap_graph::StreamGraph,
    estimator: &Estimator<'_>,
    stage: &sgmap_core::PartitionStage,
    search: &PartitionSearchOptions,
) -> SweepRecord {
    let attempt = || -> Result<SweepRecord, String> {
        if spec.panic_points.contains(&point.index) {
            panic!("injected panic at point {}", point.index);
        }
        let config = point_config(spec, point, search);
        let compiled =
            compile_from_stage(graph, &config, estimator, stage).map_err(|e| e.to_string())?;
        let run = execute(&compiled, &config);
        let mut record = SweepRecord::from_run(point, &run);
        if spec.stability_baseline.is_some() {
            record.mapping_signature = Some(mapping_signature(&run.mapping));
        }
        Ok(record)
    };
    match std::panic::catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(Ok(record)) => record,
        Ok(Err(message)) => SweepRecord::from_error(point, &message),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            sgmap_trace::add("sweep.panics_caught", 1);
            sgmap_trace::warn(
                "sweep.point_panicked",
                format!("point {} panicked: {msg}", point.index),
            );
            SweepRecord::from_error(point, format!("panic: {msg}"))
        }
    }
}

/// Fills `speedup_vs_1gpu` for every record whose (app, N, model, stack,
/// enhancement) group also contains a successful 1-GPU record. Baselines are
/// indexed by scaling-group key, so this is one pass over the records
/// instead of a rescan per baseline.
fn attach_speedups(records: &mut [SweepRecord]) {
    type GroupKey = (App, u32, String, String, bool);
    let mut baselines: HashMap<GroupKey, f64> = HashMap::new();
    for r in records.iter() {
        if r.is_ok() && r.gpus == 1 && r.time_per_iteration_us > 0.0 {
            baselines
                .entry((r.app, r.n, r.gpu_model.clone(), r.stack.clone(), r.enhanced))
                .or_insert(r.time_per_iteration_us);
        }
    }
    for record in records.iter_mut() {
        if !record.is_ok() || record.time_per_iteration_us <= 0.0 {
            continue;
        }
        let key = (
            record.app,
            record.n,
            record.gpu_model.clone(),
            record.stack.clone(),
            record.enhanced,
        );
        if let Some(&baseline_time) = baselines.get(&key) {
            record.speedup_vs_1gpu = Some(baseline_time / record.time_per_iteration_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSweep, GpuModel, StackConfig};
    use sgmap_apps::App;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new(
            "tiny",
            vec![AppSweep::explicit(App::FmRadio, vec![4])],
            vec![GpuModel::M2090],
            vec![1, 2],
            vec![StackConfig::ours()],
        )
    }

    #[test]
    fn a_tiny_sweep_runs_and_reports_speedups() {
        let report = run_sweep(&tiny_spec(), 2).unwrap();
        assert_eq!(report.records.len(), 2);
        assert!(report.records.iter().all(|r| r.is_ok()), "{report:?}");
        let one = report.find(App::FmRadio, 4, 1, "ours", None, None).unwrap();
        let two = report.find(App::FmRadio, 4, 2, "ours", None, None).unwrap();
        assert_eq!(one.speedup_vs_1gpu, Some(1.0));
        assert!(two.speedup_vs_1gpu.unwrap() > 0.0);
        assert!(report.cache.misses > 0);
    }

    #[test]
    fn points_that_differ_only_in_gpu_count_share_one_compile_group() {
        let report = run_sweep(&tiny_spec(), 1).unwrap();
        // One (app, N, model, stack, enhancement) combination swept over two
        // GPU counts: two points, one compile.
        assert_eq!(report.dedup.expanded_points, 2);
        assert_eq!(report.dedup.compile_groups, 1);
        assert_eq!(report.dedup.compiles_saved(), 1);
    }

    #[test]
    fn grouping_preserves_work_list_order() {
        let mut spec = tiny_spec();
        spec.apps = vec![
            AppSweep::explicit(App::FmRadio, vec![4]),
            AppSweep::explicit(App::MatMul2, vec![2]),
        ];
        spec.stacks = vec![StackConfig::ours(), StackConfig::previous()];
        let points = spec.expand().unwrap();
        let groups = group_points(&points);
        // 2 apps x 2 stacks = 4 groups of 2 GPU counts each.
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.len() == 2));
        // Groups appear in work-list order of their first point, and indices
        // inside each group ascend.
        let firsts: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        assert!(groups.iter().all(|g| g.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn unbuildable_points_become_error_records() {
        // FFT requires a power-of-two N; 7 cannot build.
        let mut spec = tiny_spec();
        spec.apps = vec![AppSweep::explicit(App::Fft, vec![7])];
        spec.platforms.truncate(1);
        let report = run_sweep(&spec, 1).unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].error.is_some());
        assert_eq!(report.records[0].time_per_iteration_us, 0.0);
        // A failed group still counts as a group.
        assert_eq!(report.dedup.compile_groups, 1);
    }
}
