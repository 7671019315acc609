//! Tracing is observation only: attaching a collector must never change a
//! sweep report, and the counters it collects must agree with the engine's
//! own statistics.

use std::sync::Arc;

use sgmap_apps::App;
use sgmap_core::{compile_from_stage, execute, partition_graph, FlowConfig};
use sgmap_pee::{EstimateCache, Estimator};
use sgmap_sweep::{
    check_trace, run_sweep, AppSweep, GpuModel, StackConfig, SweepSpec, TraceCheckSummary,
};
use sgmap_trace::{scope, Collector};

/// The determinism grid (see `determinism.rs`): 2 apps x 2 N x 3 GPU counts
/// x 2 stacks = 24 points, the same acceptance bar as the quick preset but
/// sized for a debug-profile test.
fn contention_spec() -> SweepSpec {
    SweepSpec::new(
        "tracing",
        vec![
            AppSweep::explicit(App::FmRadio, vec![4, 8]),
            AppSweep::explicit(App::MatMul2, vec![2, 3]),
        ],
        vec![GpuModel::M2090],
        vec![1, 2, 4],
        vec![StackConfig::ours(), StackConfig::previous()],
    )
}

#[test]
fn traced_reports_are_byte_identical_to_untraced() {
    let spec = contention_spec();
    let untraced = run_sweep(&spec, 1).unwrap();
    let single = Arc::new(Collector::new());
    let traced_single = scope(Some(&single), || run_sweep(&spec, 1)).unwrap();
    let multi = Arc::new(Collector::new());
    let traced_multi = scope(Some(&multi), || run_sweep(&spec, 4)).unwrap();

    assert!(untraced.records.iter().all(|r| r.is_ok()));
    let reference = untraced.canonical_json();
    assert_eq!(
        reference,
        traced_single.canonical_json(),
        "tracing changed the report"
    );
    assert_eq!(
        reference,
        traced_multi.canonical_json(),
        "tracing on 4 threads changed the report"
    );

    // Both collectors actually saw the sweep.
    for collector in [&single, &multi] {
        let counters = collector.counters();
        assert_eq!(counters.get("sweep.points"), Some(&24));
        assert_eq!(counters.get("sweep.compile_groups"), Some(&8));
        assert!(counters.get("partition.candidates_evaluated").copied() > Some(0));
    }
    // Every worker thread (sweep groups, per-point mapping, partition
    // search) records into the sweep's collector: the 4-thread run sees
    // exactly the counters and spans of the 1-thread run.
    assert_eq!(single.counters(), multi.counters());
    let span_counts = |c: &Collector| -> Vec<(&'static str, u64)> {
        c.span_totals()
            .into_iter()
            .map(|(name, t)| (name, t.count))
            .collect()
    };
    assert_eq!(span_counts(&single), span_counts(&multi));
    assert_eq!(single.span_totals()["sweep.point"].count, 24);

    // Both exporters of the multi-threaded run validate, and the chrome
    // trace contains the span vocabulary downstream tools key on.
    let chrome = multi.chrome_trace_json();
    match check_trace(&chrome).unwrap() {
        TraceCheckSummary::Chrome { spans, .. } => assert!(spans > 0),
        other => panic!("expected a chrome summary, got {other:?}"),
    }
    for name in [
        "\"name\":\"graph.build\"",
        "\"name\":\"partition.phase1\"",
        "\"name\":\"partition.phase4\"",
        "\"name\":\"pdg.build\"",
        "\"name\":\"map\"",
        "\"name\":\"codegen\"",
        "\"name\":\"execute\"",
        "\"name\":\"sweep.group\"",
        "\"name\":\"sweep.point\"",
    ] {
        assert!(chrome.contains(name), "trace lacks {name}");
    }
    assert!(matches!(
        check_trace(&multi.metrics_json()).unwrap(),
        TraceCheckSummary::Metrics { .. }
    ));
}

/// With fewer compile groups than threads the spare threads map and execute
/// a group's points in parallel; those point workers must record into the
/// sweep's collector too.
#[test]
fn point_workers_record_into_the_sweep_collector() {
    let spec = SweepSpec::new(
        "tracing-points",
        vec![AppSweep::explicit(App::FmRadio, vec![8])],
        vec![GpuModel::M2090],
        vec![1, 2, 4],
        vec![StackConfig::ours()],
    );
    let single = Arc::new(Collector::new());
    scope(Some(&single), || run_sweep(&spec, 1)).unwrap();
    let multi = Arc::new(Collector::new());
    scope(Some(&multi), || run_sweep(&spec, 4)).unwrap();
    assert_eq!(single.counters(), multi.counters());
    for name in ["sweep.point", "map", "codegen", "execute"] {
        assert_eq!(multi.span_totals()[name].count, 3, "span {name}");
    }
}

#[test]
fn trace_counters_match_engine_statistics() {
    let collector = Arc::new(Collector::new());
    let graph = scope(Some(&collector), || App::Des.build(8)).unwrap();
    let cache = EstimateCache::shared();
    let config = FlowConfig::new().with_gpu_count(2);
    let compiled = scope(Some(&collector), || {
        let estimator = Estimator::new(&graph, config.estimation_gpu().clone())
            .unwrap()
            .with_shared_cache(cache.clone());
        let stage = partition_graph(&graph, &config, &estimator).unwrap();
        let compiled = compile_from_stage(&graph, &config, &estimator, &stage).unwrap();
        execute(&compiled, &config);
        compiled
    });

    let counters = collector.counters();
    // Every single-flight estimator miss asks the shared cache exactly once,
    // so the trace's miss counter equals the cache's query total.
    assert_eq!(
        counters.get("pee.estimate_misses").copied(),
        Some(cache.stats().queries()),
        "{counters:?}"
    );
    // The ILP counters mirror the solver's own statistics.
    let ilp = compiled.mapping.ilp_stats;
    assert_eq!(counters.get("ilp.nodes").copied(), Some(ilp.nodes));
    assert_eq!(
        counters.get("ilp.lp_iterations").copied(),
        Some(ilp.lp_iterations)
    );
    assert_eq!(
        counters.get("ilp.lp_warm_starts").copied(),
        Some(ilp.lp_warm_starts)
    );
    // One B&B node span per visited node (the root relaxation included):
    // none when the warm start was proven before any LP.
    let spans = collector.span_totals();
    assert_eq!(spans.get("ilp.node").map_or(0, |t| t.count), ilp.nodes);
    // The codegen counter agrees with the emitted plan.
    assert_eq!(
        counters.get("codegen.kernels").copied(),
        Some(compiled.plan.kernels.len() as u64)
    );
    // The whole pipeline left one span each for its single-shot stages,
    // the mapper's layers included.
    for stage in [
        "graph.build",
        "pdg.build",
        "map",
        "map.greedy",
        "map.floor",
        "map.model",
        "ilp.solve",
        "codegen",
        "execute",
    ] {
        assert_eq!(spans.get(stage).map(|t| t.count), Some(1), "span {stage}");
    }
}
