//! Self-checking of sweep reports: the pure-Rust validator behind
//! `sweep --check`.
//!
//! CI used to smoke-check the quick preset with an inline Python script;
//! this module replaces it so the pipeline has no Python dependency and the
//! exact validator CI runs is available to users locally.
//!
//! Each artefact's field rules are private tables of (path, type, rule)
//! rows that one walker checks; the rules that relate several fields
//! follow the walk as code.

use std::fmt;

use sgmap_trace::json::Value;

/// What a passing report looked like, for the one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSummary {
    /// Number of points in the report.
    pub points: usize,
    /// Shared-cache hits recorded by the sweep.
    pub cache_hits: u64,
    /// Number of expanded grid points according to the dedup counters.
    pub expanded_points: u64,
    /// Number of compile groups that actually ran.
    pub compile_groups: u64,
}

impl fmt::Display for CheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points ok; cache hits {}; {} compiles for {} points ({} saved)",
            self.points,
            self.cache_hits,
            self.compile_groups,
            self.expanded_points,
            self.expanded_points.saturating_sub(self.compile_groups)
        )
    }
}

/// A reason the report failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// The file is not valid JSON.
    Parse(String),
    /// A required field is missing or has the wrong shape.
    Shape(String),
    /// The report has no points at all.
    NoPoints,
    /// At least one point carries an error.
    FailedPoints {
        /// Total number of failed points in the report.
        count: usize,
        /// Descriptions of the first few failures.
        sample: Vec<String>,
    },
    /// The shared estimator cache recorded no hits.
    NoCacheHits,
    /// The dedup counters are missing, zero or inconsistent.
    BadDedup(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Parse(msg) => write!(f, "report is not valid JSON: {msg}"),
            CheckError::Shape(msg) => write!(f, "report has unexpected shape: {msg}"),
            CheckError::NoPoints => write!(f, "report contains no points"),
            CheckError::FailedPoints { count, sample } => {
                write!(f, "{count} point(s) failed: {}", sample.join("; "))?;
                if *count > sample.len() {
                    write!(f, "; ...")?;
                }
                Ok(())
            }
            CheckError::NoCacheHits => write!(f, "estimator cache recorded no hits"),
            CheckError::BadDedup(msg) => write!(f, "dedup counters invalid: {msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// A [`CheckError::Shape`] for `problem` at the location `at` (the document
/// root when empty).
fn shape_at(at: &str, problem: impl fmt::Display) -> CheckError {
    let sep = if at.is_empty() { "" } else { ": " };
    CheckError::Shape(format!("{at}{sep}{problem}"))
}

/// The JSON type a schema row expects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A non-negative integer.
    Int,
    /// A number; every rule rejects a non-finite one.
    Num,
    /// A string.
    Str,
    /// An array.
    List,
}

/// What a schema row's value must hold beyond its type.
#[derive(Clone, Copy)]
enum Rule {
    /// Nothing more.
    Present,
    /// A string or array with at least one element.
    NonEmpty,
    /// Exactly 0.
    Zero,
    /// Greater than 0.
    Positive,
    /// At least 0.
    NonNegative,
    /// At least the bound.
    AtLeast(f64),
    /// Within the closed interval.
    Within(f64, f64),
}

use Kind::{Int, List, Num, Str};
use Rule::{AtLeast, NonEmpty, NonNegative, Positive, Present, Within, Zero};

/// One schema row: (path, type, rule). A path is dot-separated keys from
/// where the walk starts; `key[]` visits every element of the array `key`
/// and `*` every field of an object, as in `compiles[].build_ms`,
/// `sweep.cache.misses` and `histograms.*.count`. Every array and object on
/// the way must exist; an empty one leaves its rows nothing to check.
type Row = (&'static str, Kind, Rule);

/// Checks one value of a row, named `field` in messages. A string or an
/// array is measured by its length.
fn check_value(value: Option<&Value>, field: &str, kind: Kind, rule: Rule) -> Result<(), String> {
    let (name, x) = match kind {
        Int => ("integer", value.and_then(Value::as_u64).map(|v| v as f64)),
        Num => ("number", value.and_then(Value::as_f64)),
        Str => (
            "string",
            value.and_then(Value::as_str).map(|s| s.len() as f64),
        ),
        List => (
            "array",
            value.and_then(Value::as_array).map(|a| a.len() as f64),
        ),
    };
    let x = x.ok_or_else(|| format!("missing {name} '{field}'"))?;
    if !x.is_finite() {
        return Err(format!("'{field}' must be finite, got {x}"));
    }
    let (ok, need) = match rule {
        Present => return Ok(()),
        NonEmpty if x == 0.0 => return Err(format!("empty {field}")),
        NonEmpty => return Ok(()),
        Zero => (x == 0.0, "0".to_string()),
        Positive => (x > 0.0, "positive".to_string()),
        NonNegative => (x >= 0.0, "non-negative".to_string()),
        AtLeast(k) => (x >= k, format!(">= {k}")),
        Within(lo, hi) => ((lo..=hi).contains(&x), format!("within [{lo}, {hi}]")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("'{field}' must be {need}, got {x}"))
    }
}

/// Checks the row (`path`, `kind`, `rule`) against `doc`, which sits at
/// the location `at` of its document.
fn check_path(doc: &Value, at: &str, path: &str, kind: Kind, rule: Rule) -> Result<(), CheckError> {
    let (head, rest) = match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    };
    if head == "*" {
        let fields = doc
            .as_object()
            .ok_or_else(|| shape_at(at, "expected an object"))?;
        for (name, value) in fields {
            match rest {
                Some(rest) => check_path(value, &format!("{at}['{name}']"), rest, kind, rule)?,
                None => check_value(Some(value), name, kind, rule).map_err(|e| shape_at(at, e))?,
            }
        }
        return Ok(());
    }
    let Some(rest) = rest else {
        return check_value(doc.get(head), head, kind, rule).map_err(|e| shape_at(at, e));
    };
    let sep = if at.is_empty() { "" } else { "." };
    if let Some(key) = head.strip_suffix("[]") {
        let items = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| shape_at(at, format!("missing array '{key}'")))?;
        for (i, item) in items.iter().enumerate() {
            check_path(item, &format!("{at}{sep}{key}[{i}]"), rest, kind, rule)?;
        }
        return Ok(());
    }
    let child = doc
        .get(head)
        .filter(|v| v.as_object().is_some())
        .ok_or_else(|| shape_at(at, format!("missing object '{head}'")))?;
    check_path(child, &format!("{at}{sep}{head}"), rest, kind, rule)
}

/// Checks `doc`, at the location `at` of its document, against every row
/// of `rows` in order, and returns the first violation.
fn walk(doc: &Value, at: &str, rows: &[Row]) -> Result<(), CheckError> {
    rows.iter()
        .try_for_each(|&(path, kind, rule)| check_path(doc, at, path, kind, rule))
}

/// The value at the dot-separated `path` (plain keys only) of `doc`, read
/// by `read`: how the rules that relate fields read what the walk checked.
fn lookup<'a, T>(
    doc: &'a Value,
    path: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, CheckError> {
    path.split('.')
        .try_fold(doc, |v, key| v.get(key))
        .and_then(read)
        .ok_or_else(|| CheckError::Shape(format!("missing field '{path}'")))
}

/// Rejects a document whose `version` is not `want`; `what` names the
/// format.
fn check_version(doc: &Value, what: &str, want: u64) -> Result<(), CheckError> {
    match doc.get("version").and_then(Value::as_u64) {
        Some(v) if v == want => Ok(()),
        other => Err(CheckError::Shape(format!(
            "unsupported {what} version {other:?}"
        ))),
    }
}

/// The counters of a sweep report.
const REPORT: &[Row] = &[
    ("cache.hits", Int, Present),
    ("dedup.expanded_points", Int, Present),
    ("dedup.compile_groups", Int, Present),
];

/// Validates the JSON text of a sweep report: it must parse, contain at
/// least one point, contain no failed points, record at least one shared-
/// cache hit and report consistent, nonzero compile-dedup counters.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered, in the order listed above.
pub fn check_report(src: &str) -> Result<CheckSummary, CheckError> {
    let report = Value::parse(src).map_err(CheckError::Parse)?;
    let points = report.array("points").map_err(CheckError::Shape)?;
    if points.is_empty() {
        return Err(CheckError::NoPoints);
    }
    let mut failed = 0usize;
    let mut sample = Vec::new();
    for point in points {
        let error = point
            .get("error")
            .ok_or_else(|| CheckError::Shape("point without error field".to_string()))?;
        if !error.is_null() {
            failed += 1;
            if sample.len() < 5 {
                let describe = |field: &str| {
                    point
                        .get(field)
                        .map(|v| v.render())
                        .unwrap_or_else(|| "?".to_string())
                };
                sample.push(format!(
                    "{} N={} G={} {}: {}",
                    describe("app"),
                    describe("n"),
                    describe("gpus"),
                    describe("stack"),
                    error.as_str().unwrap_or("non-string error")
                ));
            }
        }
    }
    if failed > 0 {
        return Err(CheckError::FailedPoints {
            count: failed,
            sample,
        });
    }
    walk(&report, "", REPORT)?;
    let cache_hits = lookup(&report, "cache.hits", Value::as_u64)?;
    if cache_hits == 0 {
        return Err(CheckError::NoCacheHits);
    }
    let expanded_points = lookup(&report, "dedup.expanded_points", Value::as_u64)?;
    let compile_groups = lookup(&report, "dedup.compile_groups", Value::as_u64)?;
    check_dedup(compile_groups, expanded_points, points.len() as u64, None)?;
    Ok(CheckSummary {
        points: points.len(),
        cache_hits,
        expanded_points,
        compile_groups,
    })
}

/// The dedup-counter rule of sweep reports and of `BENCH.json`'s sweep
/// sections: at least one compile group, no more groups than expanded grid
/// points, and exactly one expanded point per point in the report. `at`
/// prefixes the message with the location of the counters, if given.
fn check_dedup(
    compile_groups: u64,
    expanded_points: u64,
    points: u64,
    at: Option<&str>,
) -> Result<(), CheckError> {
    let problem = if compile_groups == 0 {
        "zero compile groups".to_string()
    } else if compile_groups > expanded_points {
        format!("{compile_groups} compile groups exceed {expanded_points} expanded points")
    } else if expanded_points != points {
        format!("dedup says {expanded_points} expanded points but the report has {points}")
    } else {
        return Ok(());
    };
    Err(CheckError::BadDedup(match at {
        Some(at) => format!("{at}: {problem}"),
        None => problem,
    }))
}

/// What a passing failed-point-tolerant comparison looked like, for the
/// one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareSummary {
    /// Points compared byte-for-byte (both sides ok).
    pub compared: usize,
    /// Points skipped because at least one side recorded an error.
    pub skipped: usize,
}

impl fmt::Display for CompareSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points byte-identical ({} failed points skipped)",
            self.compared, self.skipped
        )
    }
}

/// Compares the point records of two sweep reports byte-for-byte, skipping
/// every index at which either report recorded a per-point error. This is
/// the validator behind `sweep --compare-nonfaulted`: CI uses it to assert
/// that a sweep with an injected fault leaves every *other* point
/// byte-identical to the fault-free run (`--check` would reject the faulted
/// report outright because it contains an error entry).
///
/// # Errors
///
/// Returns a [`CheckError`] when either input fails to parse, a point has
/// no `error` field, the point lists differ in length, a non-faulted point
/// differs between the two reports, or no point was ok on both sides (an
/// empty comparison proves nothing).
pub fn compare_nonfaulted(a_src: &str, b_src: &str) -> Result<CompareSummary, CheckError> {
    let points_of = |src: &str| -> Result<Vec<Value>, CheckError> {
        let report = Value::parse(src).map_err(CheckError::Parse)?;
        report
            .array("points")
            .map(<[Value]>::to_vec)
            .map_err(CheckError::Shape)
    };
    let a = points_of(a_src)?;
    let b = points_of(b_src)?;
    if a.len() != b.len() {
        return Err(CheckError::Shape(format!(
            "point count mismatch: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let mut compared = 0usize;
    let mut skipped = 0usize;
    let failed = |p: &Value, i: usize| match p.get("error") {
        Some(e) => Ok(!e.is_null()),
        None => Err(CheckError::Shape(format!("point {i} without error field"))),
    };
    for (i, (pa, pb)) in a.iter().zip(&b).enumerate() {
        let (failed_a, failed_b) = (failed(pa, i)?, failed(pb, i)?);
        if failed_a || failed_b {
            skipped += 1;
            continue;
        }
        if pa.render() != pb.render() {
            return Err(CheckError::Shape(format!(
                "point {i} differs between the two reports:\n  a: {}\n  b: {}",
                pa.render(),
                pb.render()
            )));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err(CheckError::Shape(format!(
            "no point is ok in both reports ({skipped} skipped), so nothing was compared"
        )));
    }
    Ok(CompareSummary { compared, skipped })
}

/// What a passing `BENCH.json` looked like, for the one-line summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCheckSummary {
    /// Number of timed single-compile targets.
    pub compiles: usize,
    /// Total wall-clock of the timed compiles, milliseconds.
    pub compile_total_ms: f64,
    /// Number of points on the synthetic scaling curve.
    pub synthetic_points: usize,
    /// Filter count of the largest synthetic scaling point.
    pub synthetic_max_filters: u64,
    /// Number of points in the timed sweep.
    pub sweep_points: u64,
    /// Wall-clock of the timed sweep, milliseconds.
    pub sweep_wall_ms: f64,
    /// Repair-vs-recompile speedup recorded in the `repair` section.
    pub repair_speedup: f64,
    /// Mapping-stability fraction recorded in the `stability` section.
    pub mapping_stability: f64,
}

impl fmt::Display for BenchCheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} compiles in {:.1} ms; scaling curve to {} filters; repair {:.1}x faster than recompile; mapping stability {:.0}%; sweep of {} points in {:.1} ms",
            self.compiles,
            self.compile_total_ms,
            self.synthetic_max_filters,
            self.repair_speedup,
            self.mapping_stability * 100.0,
            self.sweep_points,
            self.sweep_wall_ms
        )
    }
}

/// The fields of a version-4 `BENCH.json`. The rules that relate fields
/// follow the walk in [`check_bench_report`].
const BENCH: &[Row] = &[
    ("compiles", List, NonEmpty),
    ("compiles[].platform", Str, NonEmpty),
    ("compiles[].build_ms", Num, NonNegative),
    ("compiles[].estimator_ms", Num, NonNegative),
    ("compiles[].partition_ms", Num, NonNegative),
    ("compiles[].partition_phase1_ms", Num, NonNegative),
    ("compiles[].partition_phase2_ms", Num, NonNegative),
    ("compiles[].partition_phase3_ms", Num, NonNegative),
    ("compiles[].partition_phase4_ms", Num, NonNegative),
    ("compiles[].finish_ms", Num, NonNegative),
    ("compiles[].total_ms", Num, Positive),
    ("compiles[].partitions", Int, Positive),
    ("compiles[].estimate_queries", Int, Positive),
    // Every timed compile maps onto >= 2 GPUs with the ILP. A warm start
    // at the compute floor is proven before any LP (0 nodes, 0 iterations);
    // the rules after the walk tell that proof from a skipped solve.
    ("compiles[].ilp_nodes", Int, NonNegative),
    ("compiles[].lp_iterations", Int, NonNegative),
    ("compiles[].ilp_rows", Int, Positive),
    ("compiles[].ilp_cols", Int, Positive),
    // The sparse-LU backend counts refactorisations and every solve
    // reports its proven optimality gap.
    ("compiles[].lp_refactorizations", Int, Present),
    ("compiles[].ilp_gap", Num, NonNegative),
    ("compiles[].lp_warm_starts", Int, Present),
    ("synthetic_scaling", List, NonEmpty),
    ("synthetic_scaling[].app", Str, NonEmpty),
    ("synthetic_scaling[].filters", Int, Positive),
    ("synthetic_scaling[].partitions", Int, Positive),
    // A synthetic graph is far larger than the coarsening target, so the
    // multilevel pipeline must actually have coarsened.
    ("synthetic_scaling[].coarsen_levels", Int, Positive),
    ("synthetic_scaling[].build_ms", Num, NonNegative),
    ("synthetic_scaling[].estimator_ms", Num, NonNegative),
    ("synthetic_scaling[].coarsen_ms", Num, NonNegative),
    ("synthetic_scaling[].initial_ms", Num, NonNegative),
    ("synthetic_scaling[].refine_ms", Num, NonNegative),
    ("synthetic_scaling[].partition_ms", Num, NonNegative),
    ("synthetic_scaling[].map_ms", Num, NonNegative),
    ("synthetic_scaling[].total_ms", Num, Positive),
    // A node-capped branch-and-bound still returns a feasible mapping and
    // an honest (finite) optimality gap.
    ("budget_bounded.max_nodes", Int, Positive),
    ("budget_bounded.partitions", Int, Positive),
    ("budget_bounded.ilp_nodes", Int, Positive),
    ("budget_bounded.ilp_rows", Int, Positive),
    ("budget_bounded.ilp_cols", Int, Positive),
    ("budget_bounded.ilp_gap", Num, NonNegative),
    ("budget_bounded.map_ms", Num, Positive),
    // Degradation-aware remapping holds its acceptance bar: it moves work
    // off the lost device, at least 5x faster than a full recompile and
    // within 10 % of its objective.
    ("repair.moved_partitions", Int, Positive),
    ("repair.repair_ms", Num, Positive),
    ("repair.recompile_ms", Num, Positive),
    ("repair.speedup", Num, AtLeast(5.0)),
    ("repair.objective_ratio", Num, Positive),
    ("repair.objective_ratio", Num, Within(0.0, 1.1)),
    // The robustness preset ran clean and its summary is well-formed.
    ("stability.points", Int, Positive),
    ("stability.failed_points", Int, Zero),
    ("stability.compared_points", Int, Positive),
    ("stability.unchanged_mappings", Int, Present),
    ("stability.mapping_stability", Num, Within(0.0, 1.0)),
    ("stability.max_objective_spread", Num, NonNegative),
    ("sweep.points", Int, Positive),
    ("sweep.failed_points", Int, Zero),
    ("sweep.wall_ms", Num, Positive),
    ("sweep.cache.hits", Int, Present),
    ("sweep.cache.misses", Int, Present),
    ("sweep.dedup.expanded_points", Int, Present),
    ("sweep.dedup.compile_groups", Int, Present),
];

/// Validates the JSON text of a `perfbench` report (`BENCH.json`): format
/// version 4, then every row of the private `BENCH` table in `check.rs`
/// (one row per field: its path, type and rule; every number must be
/// finite), then the rules that relate fields: a compile with no ILP node
/// has no LP iteration and gap 0 (a proof before any LP), one with nodes
/// has LP iterations, at least one compile searched (`ilp_nodes` > 0) and
/// one reoptimised warm (`lp_warm_starts` > 0), a synthetic scaling curve reaching
/// 50 000 filters, no more `unchanged_mappings` than `compared_points`, a
/// well-formed optional `cache_preloaded_entries` whose positive value
/// demands zero sweep cache misses (a cold sweep must have queried the
/// cache), and consistent sweep dedup counters.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn check_bench_report(src: &str) -> Result<BenchCheckSummary, CheckError> {
    let report = Value::parse(src).map_err(CheckError::Parse)?;
    check_version(&report, "BENCH.json", 4)?;
    walk(&report, "", BENCH)?;
    let compiles = lookup(&report, "compiles", Value::as_array)?;
    let synthetic = lookup(&report, "synthetic_scaling", Value::as_array)?;
    // A compile whose warm start meets the compute floor is proven without
    // any LP: no node, no iteration, no gap. A compile that searched pivoted.
    for (i, compile) in compiles.iter().enumerate() {
        let nodes = lookup(compile, "ilp_nodes", Value::as_u64)?;
        let iterations = lookup(compile, "lp_iterations", Value::as_u64)?;
        let gap = lookup(compile, "ilp_gap", Value::as_f64)?;
        if nodes == 0 && (iterations > 0 || gap != 0.0) {
            return Err(CheckError::Shape(format!(
                "compiles[{i}]: 0 ILP nodes needs 0 lp_iterations and ilp_gap 0, got {iterations} and {gap}"
            )));
        }
        if nodes > 0 && iterations == 0 {
            return Err(CheckError::Shape(format!(
                "compiles[{i}]: {nodes} ILP nodes with 0 lp_iterations"
            )));
        }
    }
    // Every listed compile may be proven before any LP, but across the
    // whole suite branch and bound must have searched somewhere.
    if !compiles
        .iter()
        .any(|c| c.get("ilp_nodes").and_then(Value::as_u64) > Some(0))
    {
        return Err(CheckError::Shape(
            "no ilp_nodes recorded across any compile".to_string(),
        ));
    }
    // A compile whose root relaxation is already integral legitimately
    // reports zero warm starts, but across the whole suite the
    // branch-and-bound searches must have reoptimised dual-warm somewhere.
    if !compiles
        .iter()
        .any(|c| c.get("lp_warm_starts").and_then(Value::as_u64) > Some(0))
    {
        return Err(CheckError::Shape(
            "no lp_warm_starts recorded across any compile".to_string(),
        ));
    }
    let mut compile_total_ms = 0.0;
    for compile in compiles {
        compile_total_ms += lookup(compile, "total_ms", Value::as_f64)?;
    }
    let mut synthetic_max_filters = 0u64;
    for point in synthetic {
        synthetic_max_filters = synthetic_max_filters.max(lookup(point, "filters", Value::as_u64)?);
    }
    // The whole point of the curve is to exercise the partitioner past the
    // paper's benchmark sizes.
    if synthetic_max_filters < 50_000 {
        return Err(CheckError::Shape(format!(
            "synthetic_scaling tops out at {synthetic_max_filters} filters (need >= 50000)"
        )));
    }
    let compared = lookup(&report, "stability.compared_points", Value::as_u64)?;
    let unchanged = lookup(&report, "stability.unchanged_mappings", Value::as_u64)?;
    if unchanged > compared {
        return Err(CheckError::Shape(format!(
            "stability: {unchanged} unchanged mappings exceed {compared} compared points"
        )));
    }
    let preloaded = match report.get("cache_preloaded_entries") {
        None => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            CheckError::Shape(format!(
                "'cache_preloaded_entries' must be a non-negative integer, got {}",
                v.render()
            ))
        })?,
    };
    // A sweep warm-started from a covering cache file must miss nothing; a
    // cold sweep must at least have queried the cache.
    let hits = lookup(&report, "sweep.cache.hits", Value::as_u64)?;
    let misses = lookup(&report, "sweep.cache.misses", Value::as_u64)?;
    if preloaded > 0 && misses != 0 {
        return Err(CheckError::Shape(format!(
            "sweep: warm-started sweep reports {misses} misses (expected 0)"
        )));
    }
    if preloaded == 0 && hits == 0 && misses == 0 {
        return Err(CheckError::Shape("sweep: cache saw no queries".to_string()));
    }
    let sweep_points = lookup(&report, "sweep.points", Value::as_u64)?;
    check_dedup(
        lookup(&report, "sweep.dedup.compile_groups", Value::as_u64)?,
        lookup(&report, "sweep.dedup.expanded_points", Value::as_u64)?,
        sweep_points,
        Some("sweep"),
    )?;
    Ok(BenchCheckSummary {
        compiles: compiles.len(),
        compile_total_ms,
        synthetic_points: synthetic.len(),
        synthetic_max_filters,
        sweep_points,
        sweep_wall_ms: lookup(&report, "sweep.wall_ms", Value::as_f64)?,
        repair_speedup: lookup(&report, "repair.speedup", Value::as_f64)?,
        mapping_stability: lookup(&report, "stability.mapping_stability", Value::as_f64)?,
    })
}

/// What a passing trace file looked like, for the one-line summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCheckSummary {
    /// A Chrome trace-event file (`--trace`).
    Chrome {
        /// Total events in the file.
        events: usize,
        /// Complete (`"ph":"X"`) span events.
        spans: usize,
        /// Instant (`"ph":"i"`) events.
        instants: usize,
        /// Metadata (`"ph":"M"`) events.
        metadata: usize,
    },
    /// An aggregate-metrics file (`--metrics`).
    Metrics {
        /// Distinct counters.
        counters: usize,
        /// Distinct histograms.
        histograms: usize,
        /// Distinct span names.
        spans: usize,
        /// Recorded warnings.
        warnings: usize,
    },
}

impl fmt::Display for TraceCheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCheckSummary::Chrome {
                events,
                spans,
                instants,
                metadata,
            } => write!(
                f,
                "chrome trace ok: {events} events ({spans} spans, {instants} instants, {metadata} metadata)"
            ),
            TraceCheckSummary::Metrics {
                counters,
                histograms,
                spans,
                warnings,
            } => write!(
                f,
                "metrics ok: {counters} counters, {histograms} histograms, {spans} span names, {warnings} warnings"
            ),
        }
    }
}

/// The fields of every Chrome trace event; the rest depend on its phase.
const EVENT: &[Row] = &[("name", Str, NonEmpty), ("ph", Str, Present)];
/// The fields of a complete (`"ph":"X"`) span event.
const SPAN_EVENT: &[Row] = &[
    ("ts", Num, NonNegative),
    ("dur", Num, NonNegative),
    ("pid", Num, NonNegative),
    ("tid", Num, NonNegative),
];
/// The fields of an instant (`"ph":"i"`) event.
const INSTANT_EVENT: &[Row] = &[("ts", Num, NonNegative), ("s", Str, Present)];
/// The fields of a metadata (`"ph":"M"`) event.
const METADATA_EVENT: &[Row] = &[("args.name", Str, Present)];

/// Validates a Chrome trace-event file as the `--trace` exporter writes it.
fn check_chrome_trace(report: &Value) -> Result<TraceCheckSummary, CheckError> {
    let events = report.array("traceEvents").map_err(CheckError::Shape)?;
    let (mut spans, mut instants, mut metadata) = (0usize, 0usize, 0usize);
    for (i, event) in events.iter().enumerate() {
        let at = format!("traceEvents[{i}]");
        walk(event, &at, EVENT)?;
        match lookup(event, "ph", Value::as_str)? {
            "X" => {
                walk(event, &at, SPAN_EVENT)?;
                spans += 1;
            }
            "i" => {
                walk(event, &at, INSTANT_EVENT)?;
                match lookup(event, "s", Value::as_str)? {
                    "t" | "p" | "g" => {}
                    s => return Err(shape_at(&at, format!("bad instant scope '{s}'"))),
                }
                instants += 1;
            }
            "M" => {
                walk(event, &at, METADATA_EVENT)?;
                metadata += 1;
            }
            ph => return Err(shape_at(&at, format!("unknown phase '{ph}'"))),
        }
    }
    if spans == 0 {
        return Err(CheckError::Shape(
            "trace contains no span events".to_string(),
        ));
    }
    Ok(TraceCheckSummary::Chrome {
        events: events.len(),
        spans,
        instants,
        metadata,
    })
}

/// The fields of a version-1 metrics file. The rules that relate fields
/// follow the walk in [`check_metrics`].
const METRICS: &[Row] = &[
    ("counters.*", Int, Present),
    ("histograms.*.count", Int, Present),
    ("histograms.*.sum", Int, Present),
    ("histograms.*.min", Int, Present),
    ("histograms.*.max", Int, Present),
    ("histograms.*.buckets", List, Present),
    ("spans.*.count", Int, Positive),
    ("spans.*.total_us", Num, NonNegative),
    ("spans.*.max_us", Num, NonNegative),
    ("warnings", List, Present),
    ("warnings[].code", Str, Present),
    ("warnings[].message", Str, Present),
    ("warnings[].ts_us", Num, NonNegative),
];

/// Validates an aggregate-metrics file as the `--metrics` exporter writes
/// it: the `METRICS` rows, integer buckets summing to each histogram's
/// count, and no span longer than its name's total.
fn check_metrics(report: &Value) -> Result<TraceCheckSummary, CheckError> {
    check_version(report, "metrics", 1)?;
    walk(report, "", METRICS)?;
    let entries = |key: &str| lookup(report, key, Value::as_object);
    let (counters, histograms, spans) = (
        entries("counters")?,
        entries("histograms")?,
        entries("spans")?,
    );
    for (name, h) in histograms {
        let at = format!("histograms['{name}']");
        // Summed with checked arithmetic: a wrapped sum could match `count`.
        let mut total = 0u64;
        for b in lookup(h, "buckets", Value::as_array)? {
            let b = b
                .as_u64()
                .ok_or_else(|| shape_at(&at, "non-integer bucket"))?;
            total = total
                .checked_add(b)
                .ok_or_else(|| shape_at(&at, "buckets sum overflows u64"))?;
        }
        let count = lookup(h, "count", Value::as_u64)?;
        if total != count {
            return Err(shape_at(
                &at,
                format!("buckets sum to {total} but count is {count}"),
            ));
        }
    }
    for (name, s) in spans {
        let total = lookup(s, "total_us", Value::as_f64)?;
        let max = lookup(s, "max_us", Value::as_f64)?;
        if max > total {
            return Err(shape_at(
                &format!("spans['{name}']"),
                format!("max_us {max} exceeds total_us {total}"),
            ));
        }
    }
    Ok(TraceCheckSummary::Metrics {
        counters: counters.len(),
        histograms: histograms.len(),
        spans: spans.len(),
        warnings: lookup(report, "warnings", Value::as_array)?.len(),
    })
}

/// Validates the JSON text of a trace file written by `sweep --trace` /
/// `perfbench --trace` (Chrome trace-event format) or `--metrics` (the
/// aggregate-metrics format), auto-detected by their top-level keys. This is
/// the validator behind `sweep --check-trace`, used verbatim by CI.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered: a parse error, an
/// unrecognised top-level shape, or a malformed event / counter / histogram /
/// span / warning entry.
pub fn check_trace(src: &str) -> Result<TraceCheckSummary, CheckError> {
    let report = Value::parse(src).map_err(CheckError::Parse)?;
    if report.get("traceEvents").is_some() {
        check_chrome_trace(&report)
    } else if report.get("format").and_then(Value::as_str) == Some("sgmap-metrics") {
        check_metrics(&report)
    } else {
        Err(CheckError::Shape(
            "neither a chrome trace (traceEvents) nor a metrics file (format sgmap-metrics)"
                .to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DedupStats, SweepRecord, SweepReport};
    use crate::spec::{StackConfig, SweepPoint};
    use sgmap_apps::App;
    use sgmap_gpusim::{GpuSpec, PlatformSpec};
    use sgmap_pee::CacheStats;
    use std::time::Duration;

    fn report(records: Vec<SweepRecord>, hits: u64, groups: u64) -> SweepReport {
        let points = records.len() as u64;
        SweepReport {
            spec_name: "t".to_string(),
            records,
            cache: CacheStats {
                hits,
                misses: 2,
                entries: 2,
            },
            dedup: DedupStats {
                expanded_points: points,
                compile_groups: groups,
            },
            stability: None,
            threads: 1,
            wall_clock: Duration::from_millis(1),
        }
    }

    fn point(index: usize) -> SweepPoint {
        SweepPoint {
            index,
            app: App::Des,
            n: 4,
            platform: PlatformSpec::reference(GpuSpec::m2090(), index + 1).named("M2090"),
            stack: StackConfig::ours(),
            enhanced: false,
        }
    }

    fn ok_record(index: usize) -> SweepRecord {
        let mut r = SweepRecord::from_error(&point(index), "placeholder");
        r.error = None;
        r
    }

    #[test]
    fn a_healthy_report_passes_both_renderings() {
        let rep = report(vec![ok_record(0), ok_record(1)], 10, 1);
        for json in [rep.canonical_json(), rep.to_json()] {
            let summary = check_report(&json).unwrap();
            assert_eq!(summary.points, 2);
            assert_eq!(summary.cache_hits, 10);
            assert_eq!(summary.compile_groups, 1);
            assert!(summary.to_string().contains("2 points ok"));
        }
    }

    #[test]
    fn each_failure_mode_is_detected() {
        assert!(matches!(
            check_report("not json"),
            Err(CheckError::Parse(_))
        ));
        assert!(matches!(
            check_report("{\"cache\":{}}"),
            Err(CheckError::Shape(_))
        ));
        assert_eq!(
            check_report(&report(vec![], 10, 1).canonical_json()),
            Err(CheckError::NoPoints)
        );
        let failed = report(
            vec![ok_record(0), SweepRecord::from_error(&point(1), "boom")],
            10,
            1,
        );
        match check_report(&failed.canonical_json()) {
            Err(CheckError::FailedPoints { count, sample }) => {
                assert_eq!(count, 1);
                assert_eq!(sample.len(), 1);
                assert!(sample[0].contains("boom"), "{sample:?}");
            }
            other => panic!("expected FailedPoints, got {other:?}"),
        }
        // The count reports every failure, not just the sampled ones.
        let many = report(
            (0..9)
                .map(|i| SweepRecord::from_error(&point(i % 4), "boom"))
                .collect(),
            10,
            1,
        );
        match check_report(&many.canonical_json()) {
            Err(CheckError::FailedPoints { count, sample }) => {
                assert_eq!(count, 9);
                assert_eq!(sample.len(), 5);
                let shown = CheckError::FailedPoints { count, sample }.to_string();
                assert!(shown.starts_with("9 point(s) failed"), "{shown}");
                assert!(shown.ends_with("; ..."), "{shown}");
            }
            other => panic!("expected FailedPoints, got {other:?}"),
        }
        assert_eq!(
            check_report(&report(vec![ok_record(0)], 0, 1).canonical_json()),
            Err(CheckError::NoCacheHits)
        );
        assert!(matches!(
            check_report(&report(vec![ok_record(0)], 5, 0).canonical_json()),
            Err(CheckError::BadDedup(_))
        ));
        assert!(matches!(
            check_report(&report(vec![ok_record(0)], 5, 3).canonical_json()),
            Err(CheckError::BadDedup(_))
        ));
    }

    #[test]
    fn nonfaulted_comparison_skips_failed_points_and_flags_real_drift() {
        let a = report(vec![ok_record(0), ok_record(1)], 5, 2).canonical_json();
        let mut faulted = vec![ok_record(0), SweepRecord::from_error(&point(1), "boom")];
        faulted[1].index = 1;
        let b = report(faulted, 5, 2).canonical_json();
        // Identical reports compare clean.
        let summary = compare_nonfaulted(&a, &a).unwrap();
        assert_eq!(summary.compared, 2);
        assert_eq!(summary.skipped, 0);
        // A failed point on one side is skipped, not a mismatch.
        let summary = compare_nonfaulted(&a, &b).unwrap();
        assert_eq!(summary.compared, 1);
        assert_eq!(summary.skipped, 1);
        assert!(summary.to_string().contains("1 points byte-identical"));
        // A drifted non-faulted point is an error.
        let drifted = a.replace("\"partitions\":0", "\"partitions\":5");
        let err = compare_nonfaulted(&a, &drifted).unwrap_err();
        assert!(err.to_string().contains("point 0 differs"), "{err}");
        // Length mismatches and parse failures are errors.
        let short = report(vec![ok_record(0)], 5, 1).canonical_json();
        assert!(compare_nonfaulted(&a, &short).is_err());
        assert!(matches!(
            compare_nonfaulted(&a, "nope"),
            Err(CheckError::Parse(_))
        ));
    }

    /// Points without an `error` field are a shape error, and a comparison
    /// that compares no point fails rather than passing vacuously.
    #[test]
    fn nonfaulted_comparison_never_passes_vacuously() {
        let a = "{\"points\":[{\"app\":\"X\"},{\"app\":\"Y\"}]}";
        let b = "{\"points\":[{\"app\":\"Z\"},{\"app\":\"W\"}]}";
        let err = compare_nonfaulted(a, b).unwrap_err();
        assert!(
            matches!(&err, CheckError::Shape(m) if m.contains("without error field")),
            "{err}"
        );
        // Every point failed on one side or the other: nothing compared.
        let failed = |i| {
            let mut r = SweepRecord::from_error(&point(i), "boom");
            r.index = i;
            r
        };
        let all_failed = report(vec![failed(0), failed(1)], 5, 2).canonical_json();
        let ok = report(vec![ok_record(0), ok_record(1)], 5, 2).canonical_json();
        let err = compare_nonfaulted(&ok, &all_failed).unwrap_err();
        assert!(err.to_string().contains("nothing was compared"), "{err}");
        // Two empty reports compare nothing either.
        let empty = report(vec![], 5, 0).canonical_json();
        assert!(compare_nonfaulted(&empty, &empty).is_err());
    }

    /// A structurally healthy BENCH.json, as `perfbench` emits it.
    fn bench_json(misses: u64, preloaded: Option<u64>) -> String {
        let preloaded_field = match preloaded {
            Some(n) => format!("\"cache_preloaded_entries\":{n},"),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"version\":4,\"preset\":\"quick\",\"compiles\":[",
                "{{\"app\":\"DES\",\"n\":8,\"platform\":\"Tesla M2090x2\",",
                "\"filters\":34,\"partitions\":8,",
                "\"ilp_nodes\":57,\"lp_iterations\":412,\"lp_warm_starts\":56,",
                "\"lp_refactorizations\":9,\"ilp_gap\":0.0,",
                "\"ilp_rows\":177,\"ilp_cols\":210,",
                "\"build_ms\":0.1,\"estimator_ms\":0.2,\"partition_ms\":1.5,",
                "\"partition_phase1_ms\":0.4,\"partition_phase2_ms\":0.3,",
                "\"partition_phase3_ms\":0.5,\"partition_phase4_ms\":0.3,",
                "\"finish_ms\":30.0,\"execute_ms\":0.1,\"total_ms\":31.8,",
                "\"estimate_queries\":126,\"estimate_misses\":88,",
                "\"estimates_per_sec\":84000.0,\"time_per_iteration_us\":12.5}}],",
                "\"synthetic_scaling\":[",
                "{{\"app\":\"SynthPipe\",\"n\":50000,\"filters\":57126,",
                "\"partitions\":82,\"coarsen_levels\":8,",
                "\"build_ms\":5.6,\"estimator_ms\":1.9,\"coarsen_ms\":2200.0,",
                "\"initial_ms\":110.0,\"refine_ms\":900.0,",
                "\"partition_ms\":5608.8,\"map_ms\":88.8,",
                "\"total_ms\":5705.1}}],",
                "\"budget_bounded\":{{\"app\":\"SynthFan\",\"n\":5000,",
                "\"max_nodes\":40,\"partitions\":61,\"ilp_nodes\":41,",
                "\"ilp_gap\":0.0312,\"lp_iterations\":2210,",
                "\"ilp_rows\":900,\"ilp_cols\":1200,\"map_ms\":120.5}},",
                "\"repair\":{{\"app\":\"FMRadio\",\"n\":16,\"gpus\":4,",
                "\"lost_gpu\":0,\"moved_partitions\":5,",
                "\"repair_ms\":2.4,\"recompile_ms\":84.0,\"speedup\":35.0,",
                "\"repair_tmax_us\":0.081,\"recompile_tmax_us\":0.079,",
                "\"objective_ratio\":1.0253}},",
                "\"stability\":{{\"preset\":\"robustness\",\"points\":38,",
                "\"failed_points\":0,\"wall_ms\":2200.0,",
                "\"baseline_platform\":\"M2090\",\"compared_points\":36,",
                "\"unchanged_mappings\":30,\"mapping_stability\":0.8333,",
                "\"max_objective_spread\":0.4167}},",
                "\"sweep\":{{\"preset\":\"quick\",\"points\":48,\"failed_points\":0,",
                "\"wall_ms\":26000.0,\"cache\":{{\"hits\":1102,\"misses\":{misses},",
                "\"entries\":624,\"hit_rate\":0.64}},",
                "\"dedup\":{{\"expanded_points\":48,\"compile_groups\":16,",
                "\"compiles_saved\":32}}}},",
                "{preloaded}\"meta\":{{\"threads\":1}}}}"
            ),
            misses = misses,
            preloaded = preloaded_field,
        )
    }

    #[test]
    fn exported_traces_pass_the_trace_checker() {
        let collector = std::sync::Arc::new(sgmap_trace::Collector::new());
        sgmap_trace::scope(Some(&collector), || {
            let mut span = sgmap_trace::span("partition.phase1");
            span.arg("parts", 12u64);
        });
        collector.add("partition.candidates_evaluated", 42);
        collector.record("pee.chars_merged_size", 9);
        collector.instant("sweep.cache_loaded", vec![("entries", 7u64.into())]);
        collector.warning("cache.save_failed", "disk full");
        match check_trace(&collector.chrome_trace_json()).unwrap() {
            TraceCheckSummary::Chrome {
                spans, instants, ..
            } => {
                assert_eq!(spans, 1);
                // The recorded instant plus the warning instant.
                assert_eq!(instants, 2);
            }
            other => panic!("expected a chrome summary, got {other:?}"),
        }
        match check_trace(&collector.metrics_json()).unwrap() {
            TraceCheckSummary::Metrics {
                counters,
                histograms,
                spans,
                warnings,
            } => {
                assert_eq!(counters, 1);
                assert_eq!(histograms, 1);
                assert_eq!(spans, 1);
                assert_eq!(warnings, 1);
            }
            other => panic!("expected a metrics summary, got {other:?}"),
        }
    }

    /// A healthy metrics file with one entry of each kind, all named `x`.
    const METRICS_JSON: &str = concat!(
        "{\"format\":\"sgmap-metrics\",\"version\":1,\"counters\":{\"x\":3},",
        "\"histograms\":{\"x\":{\"count\":3,\"sum\":7,\"min\":1,\"max\":4,",
        "\"buckets\":[1,2]}},",
        "\"spans\":{\"x\":{\"count\":2,\"total_us\":9.5,\"max_us\":6.0}},",
        "\"warnings\":[{\"code\":\"c\",\"message\":\"m\",\"ts_us\":1.5}]}"
    );

    #[test]
    fn trace_failure_modes_are_detected() {
        let metrics = |histogram: &str| {
            format!(
                "{{\"format\":\"sgmap-metrics\",\"version\":1,\"counters\":{{}},\"histograms\":{{\"h\":{histogram}}},\"spans\":{{}},\"warnings\":[]}}"
            )
        };
        for (broken, expected) in [
            ("nope".to_string(), "report is not valid JSON: invalid literal at byte 0"),
            (
                "{}".to_string(),
                "report has unexpected shape: neither a chrome trace (traceEvents) nor a metrics file (format sgmap-metrics)",
            ),
            // A trace with no spans at all is rejected.
            (
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string(),
                "report has unexpected shape: trace contains no span events",
            ),
            // An event with a bad phase.
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":1,\"ts\":0.0}]}"
                    .to_string(),
                "report has unexpected shape: traceEvents[0]: unknown phase 'Q'",
            ),
            // Histogram buckets that disagree with the count.
            (
                metrics("{\"count\":3,\"sum\":1,\"min\":0,\"max\":1,\"buckets\":[1,1]}"),
                "report has unexpected shape: histograms['h']: buckets sum to 2 but count is 3",
            ),
            // Buckets whose sum wraps around to the count.
            (
                metrics(
                    "{\"count\":1,\"sum\":1,\"min\":0,\"max\":1,\"buckets\":[18446744073709551615,2]}",
                ),
                "report has unexpected shape: histograms['h']: buckets sum overflows u64",
            ),
            // An unsupported metrics version.
            (
                "{\"format\":\"sgmap-metrics\",\"version\":2}".to_string(),
                "report has unexpected shape: unsupported metrics version Some(2)",
            ),
        ] {
            assert_eq!(check_trace(&broken).unwrap_err().to_string(), expected);
        }
        // The metrics fixture of the row test passes.
        check_trace(METRICS_JSON).unwrap();
    }

    #[test]
    fn a_healthy_bench_report_passes() {
        let summary = check_bench_report(&bench_json(624, None)).unwrap();
        assert_eq!(summary.compiles, 1);
        assert_eq!(summary.synthetic_points, 1);
        assert_eq!(summary.synthetic_max_filters, 57126);
        assert_eq!(summary.sweep_points, 48);
        assert_eq!(summary.repair_speedup, 35.0);
        assert_eq!(summary.mapping_stability, 0.8333);
        assert!(summary.to_string().contains("48 points"));
        assert!(summary.to_string().contains("57126 filters"));
        assert!(summary.to_string().contains("35.0x faster"));
        // A warm-started report with zero misses passes too.
        check_bench_report(&bench_json(0, Some(624))).unwrap();
        // So does a compile proven before any LP next to one that searched.
        let healthy = bench_json(624, None);
        let start = healthy.find("{\"app\":\"DES\"").unwrap();
        let end = healthy.find("}],\"synthetic_scaling\"").unwrap() + 1;
        let searched = &healthy[start..end];
        let proven = searched
            .replace(
                "\"ilp_nodes\":57,\"lp_iterations\":412,",
                "\"ilp_nodes\":0,\"lp_iterations\":0,",
            )
            .replace("\"lp_warm_starts\":56,", "\"lp_warm_starts\":0,")
            .replace("\"lp_refactorizations\":9,", "\"lp_refactorizations\":0,");
        let two = healthy.replacen(searched, &format!("{searched},{proven}"), 1);
        assert_eq!(check_bench_report(&two).unwrap().compiles, 2);
    }

    #[test]
    fn bench_failure_modes_are_detected() {
        let shape = |msg: &str| CheckError::Shape(msg.to_string());
        let healthy = bench_json(624, None);
        let edit = |from: &str, to: &str| {
            assert!(healthy.contains(from), "{from}");
            healthy.replacen(from, to, 1)
        };
        let preloaded = |value: &str| {
            bench_json(624, Some(624)).replace(
                "\"cache_preloaded_entries\":624",
                &format!("\"cache_preloaded_entries\":{value}"),
            )
        };
        for (broken, expected) in [
            (
                "nope".to_string(),
                CheckError::Parse("invalid literal at byte 0".to_string()),
            ),
            (
                "{\"version\":9}".to_string(),
                shape("unsupported BENCH.json version Some(9)"),
            ),
            // Version-2 reports (no lp_refactorizations / ilp_gap / budget
            // section) no longer pass.
            (
                "{\"version\":2}".to_string(),
                shape("unsupported BENCH.json version Some(2)"),
            ),
            (
                "{\"version\":3,\"compiles\":[]}".to_string(),
                shape("unsupported BENCH.json version Some(3)"),
            ),
            // A warm-started sweep that still misses violates the
            // persistence contract, and a malformed warm-start count must
            // not pass for a cold sweep.
            (
                bench_json(624, Some(624)),
                shape("sweep: warm-started sweep reports 624 misses (expected 0)"),
            ),
            (
                preloaded("\"624\""),
                shape("'cache_preloaded_entries' must be a non-negative integer, got \"624\""),
            ),
            (
                preloaded("-3"),
                shape("'cache_preloaded_entries' must be a non-negative integer, got -3"),
            ),
            (
                edit("\"hits\":1102,\"misses\":624", "\"hits\":0,\"misses\":0"),
                shape("sweep: cache saw no queries"),
            ),
            // Broken counters inside otherwise valid shapes.
            (
                edit("\"points\":48", "\"points\":0"),
                shape("sweep: 'points' must be positive, got 0"),
            ),
            (
                edit("\"failed_points\":0", "\"failed_points\":2"),
                shape("stability: 'failed_points' must be 0, got 2"),
            ),
            (
                edit("\"compile_groups\":16", "\"compile_groups\":0"),
                CheckError::BadDedup("sweep: zero compile groups".to_string()),
            ),
            (
                edit("\"partitions\":8", "\"partitions\":0"),
                shape("compiles[0]: 'partitions' must be positive, got 0"),
            ),
            // A timing must be a finite number: an overflowing literal is
            // already a parse error.
            (
                edit("\"build_ms\":0.1", "\"build_ms\":1e999"),
                CheckError::Parse("number '1e999' at byte 250 is out of range for f64".to_string()),
            ),
            (
                edit("\"total_ms\":5705.1", "\"total_ms\":-1e999"),
                CheckError::Parse(
                    "number '-1e999' at byte 788 is out of range for f64".to_string(),
                ),
            ),
            // The ILP counters of the revised simplex must be alive: a
            // compile without nodes is a proof (no iterations, gap 0), one
            // with nodes pivoted, and somewhere in the suite the search
            // branched and reoptimised warm.
            (
                edit("\"ilp_nodes\":57", "\"ilp_nodes\":0"),
                shape(
                    "compiles[0]: 0 ILP nodes needs 0 lp_iterations and ilp_gap 0, got 412 and 0",
                ),
            ),
            (
                edit(
                    "\"ilp_nodes\":57,\"lp_iterations\":412",
                    "\"ilp_nodes\":0,\"lp_iterations\":0",
                )
                .replacen("\"ilp_gap\":0.0,", "\"ilp_gap\":0.5,", 1),
                shape(
                    "compiles[0]: 0 ILP nodes needs 0 lp_iterations and ilp_gap 0, got 0 and 0.5",
                ),
            ),
            (
                edit("\"lp_iterations\":412", "\"lp_iterations\":0"),
                shape("compiles[0]: 57 ILP nodes with 0 lp_iterations"),
            ),
            (
                edit(
                    "\"ilp_nodes\":57,\"lp_iterations\":412",
                    "\"ilp_nodes\":0,\"lp_iterations\":0",
                ),
                shape("no ilp_nodes recorded across any compile"),
            ),
            (
                edit("\"lp_warm_starts\":56", "\"lp_warm_starts\":0"),
                shape("no lp_warm_starts recorded across any compile"),
            ),
            (
                edit("\"ilp_nodes\":57,", ""),
                shape("compiles[0]: missing integer 'ilp_nodes'"),
            ),
            (
                edit("\"lp_refactorizations\":9,", ""),
                shape("compiles[0]: missing integer 'lp_refactorizations'"),
            ),
            (
                edit("\"ilp_gap\":0.0,", ""),
                shape("compiles[0]: missing number 'ilp_gap'"),
            ),
            // The solved LP's size is recorded and positive.
            (
                edit("\"ilp_rows\":177,", ""),
                shape("compiles[0]: missing integer 'ilp_rows'"),
            ),
            (
                edit("\"ilp_cols\":210", "\"ilp_cols\":0"),
                shape("compiles[0]: 'ilp_cols' must be positive, got 0"),
            ),
            (
                edit("\"ilp_rows\":900", "\"ilp_rows\":0"),
                shape("budget_bounded: 'ilp_rows' must be positive, got 0"),
            ),
            (
                edit("\"ilp_cols\":1200,", ""),
                shape("budget_bounded: missing integer 'ilp_cols'"),
            ),
            // The budget-bounded point is mandatory and must have searched
            // at least one node, a finite gap and a positive wall-clock.
            (
                edit("\"budget_bounded\":", "\"budget_bounded_x\":"),
                shape("missing object 'budget_bounded'"),
            ),
            (
                edit("\"ilp_nodes\":41", "\"ilp_nodes\":0"),
                shape("budget_bounded: 'ilp_nodes' must be positive, got 0"),
            ),
            (
                edit("\"ilp_gap\":0.0312", "\"ilp_gap\":-0.5"),
                shape("budget_bounded: 'ilp_gap' must be non-negative, got -0.5"),
            ),
            (
                edit("\"map_ms\":120.5", "\"map_ms\":0.0"),
                shape("budget_bounded: 'map_ms' must be positive, got 0"),
            ),
            (
                edit("\"platform\":\"Tesla M2090x2\",", ""),
                shape("compiles[0]: missing string 'platform'"),
            ),
            (
                edit("\"partition_phase1_ms\":0.4,", ""),
                shape("compiles[0]: missing number 'partition_phase1_ms'"),
            ),
            (
                edit(
                    "\"partition_phase3_ms\":0.5",
                    "\"partition_phase3_ms\":-0.5",
                ),
                shape("compiles[0]: 'partition_phase3_ms' must be non-negative, got -0.5"),
            ),
            // The synthetic scaling curve is mandatory and must be healthy:
            // present, non-empty, coarsened, and reaching 50k filters.
            (
                edit("\"synthetic_scaling\":[", "\"synthetic_scaling_x\":["),
                shape("missing array 'synthetic_scaling'"),
            ),
            (
                edit(
                    "\"synthetic_scaling\":[{\"app\":\"SynthPipe\"",
                    "\"synthetic_scaling\":[],\"ignored\":[{\"app\":\"SynthPipe\"",
                ),
                shape("empty synthetic_scaling"),
            ),
            (
                edit("\"filters\":57126", "\"filters\":49999"),
                shape("synthetic_scaling tops out at 49999 filters (need >= 50000)"),
            ),
            // A curve topping out at the old 10k point no longer passes.
            (
                edit(
                    "\"n\":50000,\"filters\":57126,",
                    "\"n\":10000,\"filters\":11498,",
                ),
                shape("synthetic_scaling tops out at 11498 filters (need >= 50000)"),
            ),
            (
                edit("\"coarsen_levels\":8", "\"coarsen_levels\":0"),
                shape("synthetic_scaling[0]: 'coarsen_levels' must be positive, got 0"),
            ),
            (
                edit("\"coarsen_ms\":2200.0", "\"coarsen_ms\":-1.0"),
                shape("synthetic_scaling[0]: 'coarsen_ms' must be non-negative, got -1"),
            ),
            (
                edit("\"refine_ms\":900.0,", ""),
                shape("synthetic_scaling[0]: missing number 'refine_ms'"),
            ),
            // The repair section is mandatory and must hold its acceptance
            // bar: >= 5x faster than the recompile, within 10% of its
            // objective, and actually moving work off the lost device.
            (
                edit("\"repair\":", "\"repair_x\":"),
                shape("missing object 'repair'"),
            ),
            (
                edit("\"speedup\":35.0", "\"speedup\":3.0"),
                shape("repair: 'speedup' must be >= 5, got 3"),
            ),
            (
                edit("\"objective_ratio\":1.0253", "\"objective_ratio\":1.2"),
                shape("repair: 'objective_ratio' must be within [0, 1.1], got 1.2"),
            ),
            (
                edit("\"objective_ratio\":1.0253", "\"objective_ratio\":0"),
                shape("repair: 'objective_ratio' must be positive, got 0"),
            ),
            (
                edit("\"moved_partitions\":5", "\"moved_partitions\":0"),
                shape("repair: 'moved_partitions' must be positive, got 0"),
            ),
            (
                edit("\"repair_ms\":2.4", "\"repair_ms\":0.0"),
                shape("repair: 'repair_ms' must be positive, got 0"),
            ),
            // The stability section is mandatory and must be well-formed:
            // ran clean, compared something, fraction inside [0, 1].
            (
                edit("\"stability\":", "\"stability_x\":"),
                shape("missing object 'stability'"),
            ),
            (
                edit(
                    "\"failed_points\":0,\"wall_ms\":2200.0",
                    "\"failed_points\":1,\"wall_ms\":2200.0",
                ),
                shape("stability: 'failed_points' must be 0, got 1"),
            ),
            (
                edit("\"compared_points\":36", "\"compared_points\":0"),
                shape("stability: 'compared_points' must be positive, got 0"),
            ),
            (
                edit("\"unchanged_mappings\":30", "\"unchanged_mappings\":37"),
                shape("stability: 37 unchanged mappings exceed 36 compared points"),
            ),
            (
                edit("\"mapping_stability\":0.8333", "\"mapping_stability\":1.5"),
                shape("stability: 'mapping_stability' must be within [0, 1], got 1.5"),
            ),
            (
                edit(
                    "\"max_objective_spread\":0.4167",
                    "\"max_objective_spread\":-1.0",
                ),
                shape("stability: 'max_objective_spread' must be non-negative, got -1"),
            ),
        ] {
            assert_eq!(check_bench_report(&broken), Err(expected));
        }
    }

    /// The fields of a JSON object.
    type Fields = Vec<(String, Value)>;

    /// Calls `edit` with the object holding each field the schema `path`
    /// names in `doc`, and that field's key.
    fn edit_fields(doc: &mut Value, path: &str, edit: &mut dyn FnMut(&mut Fields, &str)) {
        let Value::Object(fields) = doc else {
            panic!("{path} runs through a non-object");
        };
        let Some((head, rest)) = path.split_once('.') else {
            let keys: Vec<String> = match path {
                "*" => fields.iter().map(|(k, _)| k.clone()).collect(),
                key => vec![key.to_string()],
            };
            for key in keys {
                edit(fields, &key);
            }
            return;
        };
        let key = head.strip_suffix("[]").unwrap_or(head);
        for (k, v) in fields.iter_mut() {
            if head == "*" || k == key {
                match v {
                    Value::Array(items) if head.ends_with("[]") => {
                        for item in items {
                            edit_fields(item, rest, edit);
                        }
                    }
                    v => edit_fields(v, rest, edit),
                }
            }
        }
    }

    /// For each row of `rows`, breaks the healthy document `healthy` twice
    /// or three times: the row's field deleted, set to a value that breaks
    /// its rule and, for a number, set to an overflowing literal. The first
    /// two must fail `check` with a shape error that names the row's
    /// location and field, so a row the walker never reads, or a rule that
    /// cannot fail, breaks the test; the overflow must fail to parse.
    /// `*` in a path stands for the key `x`, the only one `healthy` uses.
    /// `prefix` leads from the document to where the walk of `rows` starts.
    fn assert_rows_live(
        prefix: &str,
        rows: &[Row],
        healthy: &str,
        check: impl Fn(&str) -> Result<(), CheckError>,
    ) {
        check(healthy).unwrap();
        let doc = Value::parse(healthy).unwrap();
        for &(row_path, kind, rule) in rows {
            let path = format!("{prefix}{row_path}");
            let path = path.as_str();
            let (at, field) = match path.rsplit_once('.') {
                Some((at, field)) => (at.replace("[]", "[0]").replace(".*", "['x']"), field),
                None => (String::new(), path),
            };
            let field = if field == "*" { "x" } else { field };
            let breaking = match (kind, rule) {
                (Int | Num, Present) => "\"x\"".to_string(),
                (Str | List, Present) => "1".to_string(),
                (Str, NonEmpty) => "\"\"".to_string(),
                (List, NonEmpty) => "[]".to_string(),
                (_, Zero) => "1".to_string(),
                (_, Positive) => "0".to_string(),
                (_, NonNegative) => "-1".to_string(),
                (_, AtLeast(k)) => (k - 1.0).to_string(),
                (_, Within(_, hi)) => (hi + 1.0).to_string(),
                (Int | Num, NonEmpty) => panic!("{path}: NonEmpty is for strings and arrays"),
            };
            let mut values = vec![breaking];
            if kind == Num {
                values.push("1e999".to_string());
            }
            let mut variants = Vec::new();
            // Deleting a `*` field leaves nothing to check.
            if !path.ends_with('*') {
                let mut deleted = doc.clone();
                edit_fields(&mut deleted, path, &mut |fields, key| {
                    fields.retain(|(k, _)| k != key);
                });
                variants.push(deleted.render());
            }
            for value in values {
                let mut broken = doc.clone();
                edit_fields(&mut broken, path, &mut |fields, key| {
                    for (k, v) in fields.iter_mut() {
                        if k == key {
                            *v = Value::str("@BROKEN@");
                        }
                    }
                });
                variants.push(broken.render().replace("\"@BROKEN@\"", &value));
            }
            for variant in variants {
                assert_ne!(variant, doc.render(), "{path}: the edit found no field");
                match check(&variant) {
                    Err(CheckError::Parse(msg)) if variant.contains("1e999") => {
                        assert!(msg.ends_with("is out of range for f64"), "{path}: {msg}");
                    }
                    Err(CheckError::Shape(msg)) => {
                        let names_location = at.is_empty() || msg.starts_with(&format!("{at}: "));
                        assert!(names_location && msg.contains(field), "{path}: {msg}");
                    }
                    other => panic!("{path}: expected a shape error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_schema_row_is_live() {
        assert_rows_live("", BENCH, &bench_json(624, None), |s| {
            check_bench_report(s).map(drop)
        });
        let trace = |s: &str| check_trace(s).map(drop);
        assert_rows_live("", METRICS, METRICS_JSON, trace);
        let report = report(vec![ok_record(0)], 5, 1).canonical_json();
        assert_rows_live("", REPORT, &report, |s| check_report(s).map(drop));
        // Each event table walks the first event of a trace whose second
        // event is a span.
        let span = "{\"name\":\"s\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\"pid\":1,\"tid\":1}";
        let chrome = |first: &str| format!("{{\"traceEvents\":[{first},{span}]}}");
        let events = "traceEvents[].";
        assert_rows_live(events, EVENT, &chrome(span), trace);
        assert_rows_live(events, SPAN_EVENT, &chrome(span), trace);
        let instant = "{\"name\":\"n\",\"ph\":\"i\",\"ts\":1,\"s\":\"t\"}";
        assert_rows_live(events, INSTANT_EVENT, &chrome(instant), trace);
        let metadata = "{\"name\":\"n\",\"ph\":\"M\",\"args\":{\"name\":\"p\"}}";
        assert_rows_live(events, METADATA_EVENT, &chrome(metadata), trace);
    }
}
