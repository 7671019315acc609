//! `perfbench`: the repository's performance harness.
//!
//! Times the phases of single compiles (graph build, estimator/profile
//! construction, the partition search, mapping + code generation) on a fixed
//! set of compile targets, then the multilevel partitioner's scaling curve
//! on seeded synthetic graphs (1k–50k filters), then a full sweep preset,
//! and emits the results as `BENCH.json` — the canonical perf artefact CI
//! uploads so the project accumulates a wall-clock trajectory to optimise
//! against.
//!
//! ```text
//! perfbench [--preset NAME] [--threads N] [--out FILE] [--cache-file FILE]
//!           [--trace FILE] [--metrics FILE]
//! perfbench --check BENCH.json
//! ```
//!
//! * `--preset NAME` — which sweep preset to time (default `quick`).
//! * `--threads N` — worker threads for the sweep phase (default 1: phase
//!   timings are single-core numbers, comparable across machines).
//! * `--out FILE` — write `BENCH.json` to `FILE` instead of stdout.
//! * `--cache-file FILE` — persist the shared estimator cache: load it
//!   before the sweep (if the file exists), save it afterwards, and report
//!   the warm-start sweep separately. A second run with the same file should
//!   report zero shared-cache misses.
//! * `--trace FILE` — dump the run's trace (every compile phase, ILP node,
//!   sweep point) as Chrome trace-event JSON, loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev).
//! * `--metrics FILE` — dump the trace's aggregate counters / histograms /
//!   span totals as canonical metrics JSON.
//! * `--check FILE` — validate a previously written `BENCH.json` (pure-Rust
//!   schema check, the exact validator CI runs) and exit 0/1.
//!
//! The trace collector is always on — the per-phase
//! `partition_phase1_ms`..`partition_phase4_ms` fields of `BENCH.json` are
//! read back from its span totals — so `--trace` / `--metrics` only control
//! whether the already-collected data is written out.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sgmap_apps::App;
use sgmap_core::{
    compile_from_stage, execute, partition_graph, Algorithm, FlowConfig, MultilevelOptions,
    PartitionSearchOptions,
};
use sgmap_mapping::{map_on_survivors, repair_mapping};
use sgmap_pee::{EstimateCache, Estimator};
use sgmap_sweep::{
    check_bench_report, load_cache_file_if_exists, run_sweep_with_cache, save_cache_file,
    JsonValue, SweepSpec,
};
use sgmap_trace::Collector;

const USAGE: &str = "usage: perfbench [--preset NAME] [--threads N] [--out FILE] [--cache-file FILE] [--trace FILE] [--metrics FILE]\n       perfbench --check BENCH.json";

/// Schema version of the emitted `BENCH.json`. Version 2 added the
/// `synthetic_scaling` section (the multilevel partitioner's scaling curve on
/// generated graphs); version 3 added the per-compile `lp_refactorizations` /
/// `ilp_gap` fields and the `budget_bounded` section (a node-capped large
/// mapping solve recording its reported optimality gap); version 4 added the
/// `repair` section (degradation-aware remapping after a device loss, timed
/// against a full recompile) and the `stability` section (the robustness
/// preset's mapping-stability summary under model perturbations). Older
/// reports no longer validate.
const BENCH_FORMAT_VERSION: u64 = 4;

/// The fixed single-compile targets: one representative (app, N) per
/// application family, sized so one compile takes long enough to time
/// reliably but the whole suite stays in CI-smoke territory.
const COMPILE_TARGETS: &[(App, u32)] = &[
    (App::Des, 8),
    (App::FmRadio, 16),
    (App::Fft, 64),
    (App::Bitonic, 16),
    (App::MatMul2, 4),
];

/// The synthetic scaling curve: seeded generated pipelines far past the
/// paper's benchmark sizes, compiled with the multilevel partitioner. The
/// largest point is the scaling gate — a 50k-filter graph must partition and
/// map end-to-end on a single core within CI's patience.
const SYNTHETIC_TARGETS: &[(App, u32)] = &[
    (App::SynthPipe, 1_000),
    (App::SynthPipe, 5_000),
    (App::SynthPipe, 10_000),
    (App::SynthPipe, 50_000),
];

struct Args {
    preset: String,
    threads: usize,
    out: Option<String>,
    cache_file: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    check: Option<String>,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        preset: "quick".to_string(),
        threads: 1,
        out: None,
        cache_file: None,
        trace: None,
        metrics: None,
        check: None,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => args.preset = it.next().ok_or("--preset needs a value")?,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: not a number: {v}"))?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a value")?),
            "--cache-file" => {
                args.cache_file = Some(it.next().ok_or("--cache-file needs a value")?);
            }
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a value")?),
            "--metrics" => args.metrics = Some(it.next().ok_or("--metrics needs a value")?),
            "--check" => args.check = Some(it.next().ok_or("--check needs a report file")?),
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// Sum of the recorded `partition.phaseK` span durations, milliseconds.
fn phase_totals_ms(collector: &Collector) -> [f64; 4] {
    let totals = collector.span_totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_us / 1000.0);
    [
        total("partition.phase1"),
        total("partition.phase2"),
        total("partition.phase3"),
        total("partition.phase4"),
    ]
}

/// Times every phase of one compile (single-threaded, serial search — the
/// interactive-compile configuration) and returns the JSON record. The
/// per-phase partition timings come from the collector's span totals, so the
/// compile runs with tracing attached.
fn bench_compile(app: App, n: u32, collector: &Collector) -> JsonValue {
    let config = FlowConfig::new()
        .with_gpu_count(2)
        .with_partition_search(PartitionSearchOptions::serial());
    let cache = EstimateCache::shared();

    let t0 = Instant::now();
    let graph = app.build(n).expect("compile targets build");
    let build_ms = ms(t0);

    let t1 = Instant::now();
    let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
        .expect("compile targets have consistent rates")
        .with_shared_cache(cache.clone());
    let estimator_ms = ms(t1);

    let phases_before = phase_totals_ms(collector);
    let t2 = Instant::now();
    let stage = partition_graph(&graph, &config, &estimator).expect("partitioning succeeds");
    let partition_ms = ms(t2);
    let phases_after = phase_totals_ms(collector);
    let phase_ms: Vec<f64> = phases_after
        .iter()
        .zip(phases_before)
        .map(|(after, before)| (after - before).max(0.0))
        .collect();

    let t3 = Instant::now();
    let compiled =
        compile_from_stage(&graph, &config, &estimator, &stage).expect("mapping succeeds");
    let finish_ms = ms(t3);

    let t4 = Instant::now();
    let report = execute(&compiled, &config);
    let execute_ms = ms(t4);

    let stats = cache.stats();
    let ilp = compiled.mapping.ilp_stats;
    let total_ms = build_ms + estimator_ms + partition_ms + finish_ms;
    let estimates_per_sec = if partition_ms > 0.0 {
        stats.queries() as f64 / (partition_ms / 1000.0)
    } else {
        0.0
    };
    eprintln!(
        "compile {:>8} N={:<4} {:7.1} ms (build {:.1}, estimator {:.1}, partition {:.1}, map+plan {:.1}) — {} partitions, {} estimates ({:.0}/s), ilp {} nodes / {} pivots / {} warm on {}x{}",
        app.name(), n, total_ms, build_ms, estimator_ms, partition_ms, finish_ms,
        compiled.partition_count(), stats.queries(), estimates_per_sec,
        ilp.nodes, ilp.lp_iterations, ilp.lp_warm_starts, ilp.rows, ilp.cols,
    );
    JsonValue::object(vec![
        ("app", JsonValue::str(app.name())),
        ("n", JsonValue::Uint(u64::from(n))),
        ("platform", JsonValue::str(&*config.platform.name)),
        ("filters", JsonValue::Uint(graph.filter_count() as u64)),
        (
            "partitions",
            JsonValue::Uint(compiled.partition_count() as u64),
        ),
        ("ilp_nodes", JsonValue::Uint(ilp.nodes)),
        ("lp_iterations", JsonValue::Uint(ilp.lp_iterations)),
        ("lp_warm_starts", JsonValue::Uint(ilp.lp_warm_starts)),
        ("lp_refactorizations", JsonValue::Uint(ilp.refactorizations)),
        ("ilp_gap", JsonValue::Float(ilp.optimality_gap)),
        ("ilp_rows", JsonValue::Uint(ilp.rows)),
        ("ilp_cols", JsonValue::Uint(ilp.cols)),
        ("build_ms", JsonValue::Float(build_ms)),
        ("estimator_ms", JsonValue::Float(estimator_ms)),
        ("partition_ms", JsonValue::Float(partition_ms)),
        ("partition_phase1_ms", JsonValue::Float(phase_ms[0])),
        ("partition_phase2_ms", JsonValue::Float(phase_ms[1])),
        ("partition_phase3_ms", JsonValue::Float(phase_ms[2])),
        ("partition_phase4_ms", JsonValue::Float(phase_ms[3])),
        ("finish_ms", JsonValue::Float(finish_ms)),
        ("execute_ms", JsonValue::Float(execute_ms)),
        ("total_ms", JsonValue::Float(total_ms)),
        ("estimate_queries", JsonValue::Uint(stats.queries())),
        ("estimate_misses", JsonValue::Uint(stats.misses)),
        ("estimates_per_sec", JsonValue::Float(estimates_per_sec)),
        (
            "time_per_iteration_us",
            JsonValue::Float(report.time_per_iteration_us),
        ),
    ])
}

/// Total recorded duration of one span name, milliseconds.
fn span_total_ms(collector: &Collector, name: &str) -> f64 {
    collector
        .span_totals()
        .get(name)
        .map_or(0.0, |t| t.total_us / 1000.0)
}

/// Times one point of the synthetic scaling curve: a seeded generated graph
/// compiled with the multilevel partitioner (single-threaded, serial
/// search). The multilevel phase breakdown — coarsening, initial
/// partitioning of the coarsest graph, refinement — is read back from the
/// collector's span totals, and the level count from its counters.
fn bench_synthetic(app: App, n: u32, collector: &Collector) -> JsonValue {
    let config = FlowConfig::new()
        .with_gpu_count(2)
        .with_algorithm(Algorithm::Multilevel(MultilevelOptions::default()))
        .with_partition_search(PartitionSearchOptions::serial());

    let t0 = Instant::now();
    let graph = app.build(n).expect("synthetic targets build");
    let build_ms = ms(t0);

    let t1 = Instant::now();
    let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
        .expect("synthetic targets have consistent rates");
    let estimator_ms = ms(t1);

    let spans_before: Vec<f64> = ["partition.coarsen", "partition.initial", "partition.refine"]
        .iter()
        .map(|name| span_total_ms(collector, name))
        .collect();
    let levels_before = collector.counter("partition.coarsen_levels");
    let t2 = Instant::now();
    let stage = partition_graph(&graph, &config, &estimator).expect("partitioning succeeds");
    let partition_ms = ms(t2);
    let spans_after: Vec<f64> = ["partition.coarsen", "partition.initial", "partition.refine"]
        .iter()
        .map(|name| span_total_ms(collector, name))
        .collect();
    let coarsen_levels = collector.counter("partition.coarsen_levels") - levels_before;

    let t3 = Instant::now();
    let compiled =
        compile_from_stage(&graph, &config, &estimator, &stage).expect("mapping succeeds");
    let map_ms = ms(t3);

    let total_ms = build_ms + estimator_ms + partition_ms + map_ms;
    eprintln!(
        "synthetic {:>9} N={:<6} {:8.1} ms (build {:.1}, estimator {:.1}, partition {:.1}, map+plan {:.1}) — {} filters -> {} partitions over {} coarsen levels",
        app.name(), n, total_ms, build_ms, estimator_ms, partition_ms, map_ms,
        graph.filter_count(), compiled.partition_count(), coarsen_levels,
    );
    JsonValue::object(vec![
        ("app", JsonValue::str(app.name())),
        ("n", JsonValue::Uint(u64::from(n))),
        ("filters", JsonValue::Uint(graph.filter_count() as u64)),
        (
            "partitions",
            JsonValue::Uint(compiled.partition_count() as u64),
        ),
        ("coarsen_levels", JsonValue::Uint(coarsen_levels)),
        ("build_ms", JsonValue::Float(build_ms)),
        ("estimator_ms", JsonValue::Float(estimator_ms)),
        (
            "coarsen_ms",
            JsonValue::Float((spans_after[0] - spans_before[0]).max(0.0)),
        ),
        (
            "initial_ms",
            JsonValue::Float((spans_after[1] - spans_before[1]).max(0.0)),
        ),
        (
            "refine_ms",
            JsonValue::Float((spans_after[2] - spans_before[2]).max(0.0)),
        ),
        ("partition_ms", JsonValue::Float(partition_ms)),
        ("map_ms", JsonValue::Float(map_ms)),
        ("total_ms", JsonValue::Float(total_ms)),
    ])
}

/// Times a budget-bounded large mapping solve: a synthetic split-join graph
/// whose branch-and-bound is capped to a small node budget, so the solve is
/// answered by the best-bound frontier with a reported optimality gap — the
/// configuration time/node-limited production solves run in. Records the
/// gap so the perf trajectory tracks *solution quality under budget*, not
/// just wall-clock.
fn bench_budget_bounded(app: App, n: u32, max_nodes: usize) -> JsonValue {
    let mut config = FlowConfig::new()
        .with_gpu_count(4)
        .with_algorithm(Algorithm::Multilevel(MultilevelOptions::default()))
        .with_partition_search(PartitionSearchOptions::serial());
    config.mapping_options.max_nodes = max_nodes;

    let graph = app.build(n).expect("synthetic targets build");
    let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
        .expect("synthetic targets have consistent rates");
    let stage = partition_graph(&graph, &config, &estimator).expect("partitioning succeeds");

    let t = Instant::now();
    let compiled =
        compile_from_stage(&graph, &config, &estimator, &stage).expect("mapping succeeds");
    let map_ms = ms(t);
    let ilp = compiled.mapping.ilp_stats;
    eprintln!(
        "budget {:>9} N={:<6} map+plan {:7.1} ms under max_nodes={} — ilp {} nodes, gap {:.4}",
        app.name(),
        n,
        map_ms,
        max_nodes,
        ilp.nodes,
        ilp.optimality_gap,
    );
    JsonValue::object(vec![
        ("app", JsonValue::str(app.name())),
        ("n", JsonValue::Uint(u64::from(n))),
        ("max_nodes", JsonValue::Uint(max_nodes as u64)),
        (
            "partitions",
            JsonValue::Uint(compiled.partition_count() as u64),
        ),
        ("ilp_nodes", JsonValue::Uint(ilp.nodes)),
        ("ilp_gap", JsonValue::Float(ilp.optimality_gap)),
        ("lp_iterations", JsonValue::Uint(ilp.lp_iterations)),
        ("ilp_rows", JsonValue::Uint(ilp.rows)),
        ("ilp_cols", JsonValue::Uint(ilp.cols)),
        ("map_ms", JsonValue::Float(map_ms)),
    ])
}

/// Times degradation-aware repair against a full recompile after a device
/// loss: compiles `app` at `n` on the 4-GPU paper box, kills one device the
/// baseline mapping actually uses, then measures (a) `repair_mapping` — the
/// greedy patch plus tightly budgeted warm-started ILP polish — against (b)
/// re-running the partition search and a full-budget survivor mapping from
/// scratch. The checker enforces the acceptance bar: repair at least 5×
/// faster while staying within 10 % of the recompile objective.
fn bench_repair(app: App, n: u32) -> JsonValue {
    let config = FlowConfig::new()
        .with_gpu_count(4)
        .with_partition_search(PartitionSearchOptions::serial());
    let graph = app.build(n).expect("compile targets build");
    let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
        .expect("compile targets have consistent rates");
    let stage = partition_graph(&graph, &config, &estimator).expect("partitioning succeeds");
    let compiled =
        compile_from_stage(&graph, &config, &estimator, &stage).expect("mapping succeeds");
    let lost_gpu = compiled.mapping.assignment[0];

    let t = Instant::now();
    let (repaired, stats) = repair_mapping(
        &compiled.pdg,
        &compiled.platform,
        &compiled.mapping,
        lost_gpu,
    )
    .expect("repair succeeds");
    let repair_ms = ms(t);

    // The alternative to repairing: throw the compile away and redo it for
    // the survivors — partition search and full-budget mapping included.
    // (The estimator cache is warm from the baseline compile, which only
    // makes the comparison harder on the repair path.)
    let t = Instant::now();
    let restage = partition_graph(&graph, &config, &estimator).expect("partitioning succeeds");
    let recompiled = map_on_survivors(
        &restage.pdg,
        &compiled.platform,
        lost_gpu,
        &config.mapping_options,
    )
    .expect("survivor mapping succeeds");
    let recompile_ms = ms(t);

    let speedup = recompile_ms / repair_ms.max(1e-9);
    let objective_ratio = repaired.predicted_tmax_us / recompiled.predicted_tmax_us;
    eprintln!(
        "repair {:>9} N={:<6} lost GPU {}: {:7.2} ms vs recompile {:7.1} ms ({:.1}x), objective ratio {:.4}",
        app.name(),
        n,
        lost_gpu,
        repair_ms,
        recompile_ms,
        speedup,
        objective_ratio,
    );
    JsonValue::object(vec![
        ("app", JsonValue::str(app.name())),
        ("n", JsonValue::Uint(u64::from(n))),
        ("gpus", JsonValue::Uint(4)),
        ("lost_gpu", JsonValue::Uint(lost_gpu as u64)),
        (
            "moved_partitions",
            JsonValue::Uint(stats.moved_partitions as u64),
        ),
        ("repair_ms", JsonValue::Float(repair_ms)),
        ("recompile_ms", JsonValue::Float(recompile_ms)),
        ("speedup", JsonValue::Float(speedup)),
        (
            "repair_tmax_us",
            JsonValue::Float(repaired.predicted_tmax_us),
        ),
        (
            "recompile_tmax_us",
            JsonValue::Float(recompiled.predicted_tmax_us),
        ),
        ("objective_ratio", JsonValue::Float(objective_ratio)),
    ])
}

/// Runs the robustness preset and flattens its stability analysis into the
/// BENCH record: how often the mapping survives ±5/±10/±20 % perturbations
/// of the bandwidth/latency/throughput model unchanged, and the largest
/// objective spread those perturbations induce.
fn bench_stability(threads: usize) -> JsonValue {
    let spec = SweepSpec::robustness();
    let cache = EstimateCache::shared();
    let t = Instant::now();
    let report = run_sweep_with_cache(&spec, threads, cache).expect("robustness preset expands");
    let wall_ms = ms(t);
    let failed = report.records.iter().filter(|r| !r.is_ok()).count() as u64;
    let stability = report
        .stability
        .as_ref()
        .expect("robustness preset computes stability");
    eprintln!(
        "stability '{}': {} points in {:.0} ms; {}/{} mappings unchanged, max objective spread {:.4}",
        spec.name,
        report.records.len(),
        wall_ms,
        stability.unchanged_mappings,
        stability.compared_points,
        stability.max_objective_spread,
    );
    JsonValue::object(vec![
        ("preset", JsonValue::str(&*spec.name)),
        ("points", JsonValue::Uint(report.records.len() as u64)),
        ("failed_points", JsonValue::Uint(failed)),
        ("wall_ms", JsonValue::Float(wall_ms)),
        (
            "baseline_platform",
            JsonValue::str(&*stability.baseline_platform),
        ),
        (
            "compared_points",
            JsonValue::Uint(stability.compared_points),
        ),
        (
            "unchanged_mappings",
            JsonValue::Uint(stability.unchanged_mappings),
        ),
        (
            "mapping_stability",
            JsonValue::Float(stability.mapping_stability),
        ),
        (
            "max_objective_spread",
            JsonValue::Float(stability.max_objective_spread),
        ),
    ])
}

/// Runs the sweep preset against `cache` and returns its JSON record.
fn bench_sweep(spec: &SweepSpec, threads: usize, cache: &Arc<EstimateCache>) -> JsonValue {
    let before = cache.stats();
    let t = Instant::now();
    let report = run_sweep_with_cache(spec, threads, cache.clone()).expect("preset specs expand");
    let wall_ms = ms(t);
    let after = cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let failed = report.records.iter().filter(|r| !r.is_ok()).count() as u64;
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    eprintln!(
        "sweep '{}': {} points in {:.0} ms; cache {} hits / {} misses ({:.0}% hit rate)",
        spec.name,
        report.records.len(),
        wall_ms,
        hits,
        misses,
        hit_rate * 100.0,
    );
    sgmap_trace::instant(
        "sweep.summary",
        vec![
            ("points", (report.records.len() as u64).into()),
            ("compile_groups", report.dedup.compile_groups.into()),
            ("cache_hits", hits.into()),
            ("cache_misses", misses.into()),
        ],
    );
    JsonValue::object(vec![
        ("preset", JsonValue::str(&*spec.name)),
        ("points", JsonValue::Uint(report.records.len() as u64)),
        ("failed_points", JsonValue::Uint(failed)),
        ("wall_ms", JsonValue::Float(wall_ms)),
        (
            "cache",
            JsonValue::object(vec![
                ("hits", JsonValue::Uint(hits)),
                ("misses", JsonValue::Uint(misses)),
                ("entries", JsonValue::Uint(after.entries)),
                ("hit_rate", JsonValue::Float(hit_rate)),
            ]),
        ),
        (
            "dedup",
            JsonValue::object(vec![
                (
                    "expanded_points",
                    JsonValue::Uint(report.dedup.expanded_points),
                ),
                (
                    "compile_groups",
                    JsonValue::Uint(report.dedup.compile_groups),
                ),
                (
                    "compiles_saved",
                    JsonValue::Uint(report.dedup.compiles_saved()),
                ),
            ]),
        ),
    ])
}

fn run_check(path: &str) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_bench_report(&src) {
        Ok(summary) => {
            eprintln!("{path}: OK — {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: FAILED — {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.check {
        return run_check(path);
    }

    let spec = match SweepSpec::preset(&args.preset) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Load (and thereby validate) the cache file up front, before the timed
    // compile suite runs — a corrupt or stale file should fail in
    // milliseconds, not after minutes of benchmarking.
    let cache = EstimateCache::shared();
    let mut preloaded = 0u64;
    if let Some(path) = &args.cache_file {
        match load_cache_file_if_exists(path, &cache) {
            Ok(n) => preloaded = n,
            Err(e) => {
                eprintln!("cannot load cache file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if preloaded > 0 {
            eprintln!("warm start: {preloaded} cache entries loaded from {path}");
        }
    }

    // The collector is always on: the per-phase partition timings in the
    // compile records are read back from its span totals.
    let collector = Arc::new(Collector::new());
    let mut fields = sgmap_trace::scope(Some(&collector), || {
        let compiles: Vec<JsonValue> = COMPILE_TARGETS
            .iter()
            .map(|&(app, n)| bench_compile(app, n, &collector))
            .collect();

        // The synthetic scaling curve: each point gets its own estimator (no
        // shared cache) so the timings measure the multilevel partitioner
        // cold.
        let synthetic: Vec<JsonValue> = SYNTHETIC_TARGETS
            .iter()
            .map(|&(app, n)| bench_synthetic(app, n, &collector))
            .collect();

        // The budget-bounded point: a large mapping solve under a hard node
        // cap, recording the optimality gap the truncated search reports.
        let budget_bounded = bench_budget_bounded(App::SynthPipe, 5_000, 40);

        // The repair point: degradation-aware remapping after a device loss,
        // timed against the full recompile it replaces.
        let repair = bench_repair(App::FmRadio, 16);

        // The stability section: the robustness preset's mapping-stability
        // summary under model perturbations.
        let stability = bench_stability(args.threads);

        // The sweep phase: cold against a fresh cache, or warm-started from
        // (and saved back to) --cache-file.
        let sweep = bench_sweep(&spec, args.threads, &cache);
        if let Some(path) = &args.cache_file {
            // The cache save speeds up the *next* run; a write failure must
            // not discard the measurements this run just produced.
            match save_cache_file(path, &cache) {
                Ok(n) => eprintln!("{n} cache entries saved to {path}"),
                Err(e) => sgmap_trace::warn(
                    "cache.save_failed",
                    format!("estimate cache not persisted: {e}"),
                ),
            }
        }

        vec![
            ("version", JsonValue::Uint(BENCH_FORMAT_VERSION)),
            ("preset", JsonValue::str(&*spec.name)),
            ("compiles", JsonValue::Array(compiles)),
            ("synthetic_scaling", JsonValue::Array(synthetic)),
            ("budget_bounded", budget_bounded),
            ("repair", repair),
            ("stability", stability),
            ("sweep", sweep),
        ]
    });
    if args.cache_file.is_some() {
        fields.push(("cache_preloaded_entries", JsonValue::Uint(preloaded)));
    }
    fields.push((
        "meta",
        JsonValue::object(vec![("threads", JsonValue::Uint(args.threads as u64))]),
    ));
    let json = JsonValue::object(fields).render();

    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("BENCH.json written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, collector.chrome_trace_json()) {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, collector.metrics_json()) {
            eprintln!("cannot write metrics {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}");
    }
    ExitCode::SUCCESS
}
