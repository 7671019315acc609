//! Shared infrastructure for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation. All but `fig4_1` describe their grid as a sweep and run it on
//! the `sgmap-sweep` engine, which compiles each `(application, N, stack)`
//! once and reuses it for every GPU count. This library holds the pieces
//! they share: the N sweep to use, reporting of a finished sweep (failed
//! points, dedup and cache summary) and a mean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sgmap_apps::App;

/// Returns the N sweep to use: the paper's full sweep with `--full`, a
/// representative subset otherwise.
pub fn sweep(app: App, full: bool) -> Vec<u32> {
    if full {
        app.paper_n_values()
    } else {
        app.quick_n_values()
    }
}

/// Prints every failed point of a sweep report (with the captured cause) and
/// exits non-zero if there was any. The figure binaries call this right after
/// `run_sweep` so a failing grid point surfaces its real error instead of a
/// later `expect` panic on a missing record.
pub fn exit_on_failed_points(report: &sgmap_sweep::SweepReport) {
    let mut failed = false;
    for r in report.records.iter().filter(|r| !r.is_ok()) {
        failed = true;
        eprintln!(
            "sweep point failed: {} N={} {} G={} [{}{}]: {}",
            r.app.name(),
            r.n,
            r.gpu_model,
            r.gpus,
            r.stack,
            if r.enhanced { ", enhanced" } else { "" },
            r.error.as_deref().unwrap_or("unknown error")
        );
    }
    if failed {
        std::process::exit(1);
    }
}

/// `true` if the harness was invoked with `--full`.
pub fn full_sweep_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Prints the engine-level summary of a sweep — compile-group dedup and
/// estimator-cache counters — to stderr, keeping stdout clean for the
/// figure's table. With a trace collector ambient, the same numbers land in
/// the trace as a `sweep.summary` instant event, so a captured trace is
/// self-describing about the sweep it came from.
pub fn eprintln_sweep_summary(report: &sgmap_sweep::SweepReport) {
    sgmap_trace::instant(
        "sweep.summary",
        vec![
            ("points", (report.records.len() as u64).into()),
            ("compile_groups", report.dedup.compile_groups.into()),
            ("cache_hits", report.cache.hits.into()),
            ("cache_misses", report.cache.misses.into()),
        ],
    );
    eprintln!(
        "sweep '{}': {} points in {} compile groups ({} compiles saved); cache {} hits / {} misses ({:.0}% hit rate)",
        report.spec_name,
        report.records.len(),
        report.dedup.compile_groups,
        report.dedup.compiles_saved(),
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0,
    );
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }
}
