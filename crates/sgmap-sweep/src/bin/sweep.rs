//! The `sweep` CLI: run a named sweep preset and emit a JSON report, or
//! validate an existing report.
//!
//! ```text
//! sweep [--preset NAME | --spec FILE] [--threads N] [--out FILE]
//!       [--cache-file FILE] [--strict-cache] [--canonical]
//!       [--trace FILE] [--metrics FILE] [--allow-failed-points]
//!       [--inject-panic IDX] [--list]
//! sweep --check REPORT.json
//! sweep --check-trace TRACE.json
//! sweep --compare-nonfaulted A.json B.json
//! ```
//!
//! * `--preset NAME` — which grid to run (default `quick`); see `--list`.
//! * `--spec FILE` — run a sweep described by a JSON spec file instead of a
//!   named preset (see the `sgmap-sweep` spec-JSON docs for the format).
//!   Mutually exclusive with `--preset`.
//! * `--threads N` — worker threads (default: available parallelism, max 8).
//!   The same count drives the sweep workers *and* the partition search
//!   inside each compile; any value produces byte-identical canonical JSON.
//! * `--out FILE` — write the JSON report to `FILE` instead of stdout.
//! * `--cache-file FILE` — persist the shared estimate cache across runs:
//!   load `FILE` (if it exists) before the sweep and save the merged cache
//!   back afterwards. A repeated sweep then reports zero cache misses. A
//!   corrupt or version-mismatched file is ignored with a structured
//!   `cache.load_failed` warning (cold start) by default.
//! * `--strict-cache` — make a corrupt or version-mismatched cache file a
//!   hard error instead of a warn-and-cold-start.
//! * `--canonical` — emit only the deterministic report body (no wall-clock
//!   metadata), for byte-for-byte comparisons between runs.
//! * `--trace FILE` — record a trace of the whole sweep (compile groups,
//!   partition phases, ILP nodes, kernel launches) and write it as Chrome
//!   trace-event JSON, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev). Tracing never changes the report.
//! * `--metrics FILE` — write the trace's aggregate counters / histograms /
//!   span totals as canonical metrics JSON.
//! * `--allow-failed-points` — exit 0 even when some points carry per-point
//!   error entries (the default exit is 1 so CI notices failures). The
//!   report itself always includes every point either way.
//! * `--inject-panic IDX` — deterministic fault hook for testing the
//!   sweep's failure isolation: panic at the expanded point index `IDX`
//!   (caught, recorded as a per-point error). May be repeated.
//! * `--list` — print the available presets and exit.
//! * `--check FILE` — validate a previously written report (non-empty, no
//!   failed points, nonzero cache hits, nonzero compile-dedup groups) and
//!   exit 0/1. This is exactly the validator CI runs.
//! * `--check-trace FILE` — validate a previously written `--trace` or
//!   `--metrics` file (auto-detected) and exit 0/1; also used by CI.
//! * `--compare-nonfaulted A B` — compare the point records of two reports
//!   byte-for-byte, skipping indices at which either report recorded a
//!   per-point error, and exit 0/1. CI's robustness gate uses this to assert
//!   that an injected fault leaves every other point untouched.
//!
//! A human-readable summary always goes to stderr, so stdout stays valid
//! JSON for piping.

use std::process::ExitCode;
use std::sync::Arc;

use sgmap_sweep::{
    check_report, check_trace, compare_nonfaulted, default_threads, run_sweep,
    sweep_spec_from_json, SweepSpec,
};

const USAGE: &str = "usage: sweep [--preset NAME | --spec FILE] [--threads N] [--out FILE] [--cache-file FILE] [--strict-cache] [--canonical] [--trace FILE] [--metrics FILE] [--allow-failed-points] [--inject-panic IDX] [--list]\n       sweep --check REPORT.json\n       sweep --check-trace TRACE.json\n       sweep --compare-nonfaulted A.json B.json";

struct Args {
    preset: Option<String>,
    spec: Option<String>,
    threads: usize,
    out: Option<String>,
    cache_file: Option<String>,
    strict_cache: bool,
    canonical: bool,
    trace: Option<String>,
    metrics: Option<String>,
    allow_failed_points: bool,
    inject_panic: Vec<usize>,
    list: bool,
    check: Option<String>,
    check_trace: Option<String>,
    compare_nonfaulted: Option<(String, String)>,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        preset: None,
        spec: None,
        threads: 0,
        out: None,
        cache_file: None,
        strict_cache: false,
        canonical: false,
        trace: None,
        metrics: None,
        allow_failed_points: false,
        inject_panic: Vec::new(),
        list: false,
        check: None,
        check_trace: None,
        compare_nonfaulted: None,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                args.preset = Some(it.next().ok_or("--preset needs a value")?);
            }
            "--spec" => {
                args.spec = Some(it.next().ok_or("--spec needs a file")?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: not a number: {v}"))?;
            }
            "--out" => {
                args.out = Some(it.next().ok_or("--out needs a value")?);
            }
            "--cache-file" => {
                args.cache_file = Some(it.next().ok_or("--cache-file needs a value")?);
            }
            "--strict-cache" => args.strict_cache = true,
            "--allow-failed-points" => args.allow_failed_points = true,
            "--inject-panic" => {
                let v = it.next().ok_or("--inject-panic needs a point index")?;
                args.inject_panic.push(
                    v.parse()
                        .map_err(|_| format!("--inject-panic: not a point index: {v}"))?,
                );
            }
            "--canonical" => args.canonical = true,
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a value")?);
            }
            "--metrics" => {
                args.metrics = Some(it.next().ok_or("--metrics needs a value")?);
            }
            "--list" => args.list = true,
            "--check" => {
                args.check = Some(it.next().ok_or("--check needs a report file")?);
            }
            "--check-trace" => {
                args.check_trace = Some(it.next().ok_or("--check-trace needs a trace file")?);
            }
            "--compare-nonfaulted" => {
                let a = it.next().ok_or("--compare-nonfaulted needs two files")?;
                let b = it.next().ok_or("--compare-nonfaulted needs two files")?;
                args.compare_nonfaulted = Some((a, b));
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if args.preset.is_some() && args.spec.is_some() {
        return Err(format!(
            "--preset and --spec are mutually exclusive\n{USAGE}"
        ));
    }
    Ok(args)
}

/// Runs the `--check` / `--check-trace` subcommands: read, validate with the
/// given validator, report, exit.
fn run_check<S: std::fmt::Display, E: std::fmt::Display>(
    path: &str,
    validate: impl Fn(&str) -> Result<S, E>,
) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&src) {
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

/// Writes a trace / metrics export, reporting any I/O failure on stderr.
fn write_export(path: &str, what: &str, contents: String) -> ExitCode {
    match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("{what} written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {what} {path}: {e}");
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
        return run_check(path, check_report);
    }
    if let Some(path) = &args.check_trace {
        return run_check(path, check_trace);
    }
    if let Some((a, b)) = &args.compare_nonfaulted {
        let read = |path: &str| match std::fs::read_to_string(path) {
            Ok(src) => Some(src),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                None
            }
        };
        let (Some(src_a), Some(src_b)) = (read(a), read(b)) else {
            return ExitCode::FAILURE;
        };
        return match compare_nonfaulted(&src_a, &src_b) {
            Ok(summary) => {
                eprintln!("{a} vs {b}: OK — {summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{a} vs {b}: FAILED — {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.list {
        for name in SweepSpec::PRESETS {
            let points = SweepSpec::preset(name)
                .and_then(|s| s.expand())
                .map(|p| p.len())
                .unwrap_or(0);
            println!("{name:<12} {points} points");
        }
        return ExitCode::SUCCESS;
    }

    let spec = match &args.spec {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match sweep_spec_from_json(&src).and_then(|spec| {
                spec.validate().map_err(|e| e.to_string())?;
                Ok(spec)
            }) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let name = args.preset.as_deref().unwrap_or("quick");
            match SweepSpec::preset(name) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let mut spec = match &args.cache_file {
        Some(path) => spec.with_cache_file(path),
        None => spec,
    };
    spec = spec.with_strict_cache(args.strict_cache);
    for &idx in &args.inject_panic {
        spec = spec.with_injected_panic(idx);
    }
    let threads = if args.threads == 0 {
        default_threads()
    } else {
        args.threads
    };
    eprintln!("sweep '{}' on {} threads...", spec.name, threads);
    let collector = if args.trace.is_some() || args.metrics.is_some() {
        Some(Arc::new(sgmap_trace::Collector::new()))
    } else {
        None
    };
    let report = match sgmap_trace::scope(collector.as_ref(), || run_sweep(&spec, threads)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(collector) = &collector {
        // Stamp the trace with the sweep's own summary before exporting, so
        // a captured trace is self-describing about the run it came from.
        collector.instant(
            "sweep.summary",
            vec![
                ("points", (report.records.len() as u64).into()),
                ("compile_groups", report.dedup.compile_groups.into()),
                ("cache_hits", report.cache.hits.into()),
                ("cache_misses", report.cache.misses.into()),
            ],
        );
        if let Some(path) = &args.trace {
            let code = write_export(path, "trace", collector.chrome_trace_json());
            if code != ExitCode::SUCCESS {
                return code;
            }
        }
        if let Some(path) = &args.metrics {
            let code = write_export(path, "metrics", collector.metrics_json());
            if code != ExitCode::SUCCESS {
                return code;
            }
        }
    }

    let ok = report.ok_records().count();
    let failed = report.records.len() - ok;
    eprintln!(
        "{} points ({} ok, {} failed) in {:.2}s; {} compile groups ({} compiles saved); cache: {} hits / {} misses ({:.0}% hit rate)",
        report.records.len(),
        ok,
        failed,
        report.wall_clock.as_secs_f64(),
        report.dedup.compile_groups,
        report.dedup.compiles_saved(),
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0,
    );

    let json = if args.canonical {
        report.canonical_json()
    } else {
        report.to_json()
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("report written to {path}");
        }
        None => println!("{json}"),
    }
    if failed > 0 && !args.allow_failed_points {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
