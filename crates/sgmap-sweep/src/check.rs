//! Self-checking of sweep reports: the pure-Rust validator behind
//! `sweep --check`.
//!
//! CI used to smoke-check the quick preset with an inline Python script;
//! this module replaces it so the pipeline has no Python dependency and the
//! exact validator CI runs is available to users locally.

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

/// Maps a [`Value`] getter's error into a [`CheckError::Shape`] prefixed
/// with the location `at`.
fn shape(at: &str) -> impl Fn(String) -> CheckError + '_ {
    move |e| CheckError::Shape(format!("{at}: {e}"))
}

/// The number field `field` of `value`, which must be finite and
/// non-negative.
fn non_negative(value: &Value, field: &str, at: &str) -> Result<f64, CheckError> {
    let v = value.f64(field).map_err(shape(at))?;
    if !v.is_finite() || v < 0.0 {
        return Err(CheckError::Shape(format!(
            "{at}: '{field}' must be finite and non-negative, got {v}"
        )));
    }
    Ok(v)
}

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
    let counter = |object: &str, field: &str| {
        report
            .get(object)
            .ok_or_else(|| format!("missing object '{object}'"))
            .and_then(|o| o.u64(field))
            .map_err(shape(object))
    };
    let cache_hits = counter("cache", "hits")?;
    if cache_hits == 0 {
        return Err(CheckError::NoCacheHits);
    }
    let expanded_points = counter("dedup", "expanded_points")?;
    let compile_groups = counter("dedup", "compile_groups")?;
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

/// Validates the sweep section of a `BENCH.json`.
fn check_bench_sweep(
    sweep: &Value,
    at: &str,
    expect_no_misses: bool,
) -> Result<(u64, f64), CheckError> {
    let points = sweep.u64("points").map_err(shape(at))?;
    if points == 0 {
        return Err(CheckError::Shape(format!("{at}: zero points")));
    }
    if sweep.u64("failed_points").map_err(shape(at))? != 0 {
        return Err(CheckError::Shape(format!("{at}: failed points recorded")));
    }
    let wall_ms = sweep.f64("wall_ms").map_err(shape(at))?;
    if !wall_ms.is_finite() || wall_ms <= 0.0 {
        return Err(CheckError::Shape(format!("{at}: non-positive wall_ms")));
    }
    let cache = sweep
        .get("cache")
        .ok_or_else(|| CheckError::Shape(format!("{at}: missing cache object")))?;
    let misses = cache.u64("misses").map_err(shape(at))?;
    let hits = cache.u64("hits").map_err(shape(at))?;
    if expect_no_misses && misses != 0 {
        return Err(CheckError::Shape(format!(
            "{at}: warm-started sweep reports {misses} misses (expected 0)"
        )));
    }
    if !expect_no_misses && hits + misses == 0 {
        return Err(CheckError::Shape(format!("{at}: cache saw no queries")));
    }
    let dedup = sweep
        .get("dedup")
        .ok_or_else(|| CheckError::Shape(format!("{at}: missing dedup object")))?;
    let expanded = dedup.u64("expanded_points").map_err(shape(at))?;
    let groups = dedup.u64("compile_groups").map_err(shape(at))?;
    check_dedup(groups, expanded, points, Some(at))?;
    Ok((points, wall_ms))
}

/// The solved LP's size (`ilp_rows` / `ilp_cols`, after presolve) is
/// recorded and positive: an ILP that searched a node solved some LP.
fn check_lp_size(entry: &Value, at: &str) -> Result<(), CheckError> {
    for field in ["ilp_rows", "ilp_cols"] {
        if entry.u64(field).map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero {field}")));
        }
    }
    Ok(())
}

/// Validates the JSON text of a `perfbench` report (`BENCH.json`): format
/// version 4, a non-empty list of timed compiles with positive wall-clocks,
/// non-zero estimate counts and live ILP solver counters (`ilp_nodes`,
/// `lp_iterations`, `lp_refactorizations`, a finite non-negative
/// `ilp_gap` and a positive LP size `ilp_rows` / `ilp_cols` per compile, at
/// least one `lp_warm_starts` across the suite — the revised simplex must
/// actually be warm-starting), a
/// `synthetic_scaling` curve whose largest point partitioned a graph of at
/// least 50 000 filters through the multilevel pipeline (non-zero coarsen
/// levels, non-negative phase timings), a `budget_bounded` point whose
/// node-capped branch-and-bound still produced a feasible mapping with a
/// finite optimality gap and a positive LP size, a `repair` section whose
/// degradation-aware remapping is at least 5× faster than the full recompile while staying
/// within 10 % of its objective, a `stability` section with a well-formed
/// mapping-stability fraction and no failed points, and a healthy sweep
/// section. A report whose sweep
/// was warm-started from a persistent cache file
/// (`cache_preloaded_entries > 0`) must additionally report zero
/// shared-cache misses — the contract of cache persistence. The field may be
/// absent (a cold sweep) but, when present, must be a non-negative integer.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn check_bench_report(src: &str) -> Result<BenchCheckSummary, CheckError> {
    let report = Value::parse(src).map_err(CheckError::Parse)?;
    match report.get("version").and_then(Value::as_u64) {
        Some(4) => {}
        other => {
            return Err(CheckError::Shape(format!(
                "unsupported BENCH.json version {other:?}"
            )))
        }
    }
    let compiles = report.array("compiles").map_err(CheckError::Shape)?;
    if compiles.is_empty() {
        return Err(CheckError::Shape("no timed compiles".to_string()));
    }
    let mut compile_total_ms = 0.0;
    let mut total_warm_starts = 0u64;
    for (i, compile) in compiles.iter().enumerate() {
        let at = format!("compile {i}");
        if compile.string("platform").map_err(shape(&at))?.is_empty() {
            return Err(CheckError::Shape(format!("{at}: empty platform label")));
        }
        for field in [
            "build_ms",
            "estimator_ms",
            "partition_ms",
            "partition_phase1_ms",
            "partition_phase2_ms",
            "partition_phase3_ms",
            "partition_phase4_ms",
            "finish_ms",
        ] {
            let v = compile.f64(field).map_err(shape(&at))?;
            if v < 0.0 {
                return Err(CheckError::Shape(format!("{at}: negative {field}")));
            }
        }
        let total = compile.f64("total_ms").map_err(shape(&at))?;
        if !total.is_finite() || total <= 0.0 {
            return Err(CheckError::Shape(format!("{at}: non-positive total_ms")));
        }
        compile_total_ms += total;
        if compile.u64("partitions").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero partitions")));
        }
        if compile.u64("estimate_queries").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero estimate queries")));
        }
        // Every timed compile maps onto >= 2 GPUs with the ILP, so its
        // solver must have visited at least the root node and pivoted.
        if compile.u64("ilp_nodes").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero ilp_nodes")));
        }
        if compile.u64("lp_iterations").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero lp_iterations")));
        }
        check_lp_size(compile, &at)?;
        // The sparse-LU backend counts refactorisations (>= 1 per cold
        // solve) and every solve reports its proven optimality gap.
        compile.u64("lp_refactorizations").map_err(shape(&at))?;
        let gap = compile.f64("ilp_gap").map_err(shape(&at))?;
        if !gap.is_finite() || gap < 0.0 {
            return Err(CheckError::Shape(format!(
                "{at}: ilp_gap must be finite and non-negative, got {gap}"
            )));
        }
        total_warm_starts += compile.u64("lp_warm_starts").map_err(shape(&at))?;
    }
    // A compile whose root relaxation is already integral legitimately
    // reports zero warm starts, but across the whole suite the
    // branch-and-bound searches must have reoptimised dual-warm somewhere.
    if total_warm_starts == 0 {
        return Err(CheckError::Shape(
            "no lp_warm_starts recorded across any compile".to_string(),
        ));
    }
    let synthetic = report
        .array("synthetic_scaling")
        .map_err(CheckError::Shape)?;
    if synthetic.is_empty() {
        return Err(CheckError::Shape(
            "empty synthetic_scaling curve".to_string(),
        ));
    }
    let mut synthetic_max_filters = 0u64;
    for (i, point) in synthetic.iter().enumerate() {
        let at = format!("synthetic point {i}");
        if point.string("app").map_err(shape(&at))?.is_empty() {
            return Err(CheckError::Shape(format!("{at}: empty app name")));
        }
        let filters = point.u64("filters").map_err(shape(&at))?;
        if filters == 0 {
            return Err(CheckError::Shape(format!("{at}: zero filters")));
        }
        synthetic_max_filters = synthetic_max_filters.max(filters);
        if point.u64("partitions").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero partitions")));
        }
        // A synthetic graph is far larger than the coarsening target, so the
        // multilevel pipeline must actually have coarsened.
        if point.u64("coarsen_levels").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero coarsen levels")));
        }
        for field in [
            "build_ms",
            "estimator_ms",
            "coarsen_ms",
            "initial_ms",
            "refine_ms",
            "partition_ms",
            "map_ms",
        ] {
            let v = point.f64(field).map_err(shape(&at))?;
            if v < 0.0 {
                return Err(CheckError::Shape(format!("{at}: negative {field}")));
            }
        }
        let total = point.f64("total_ms").map_err(shape(&at))?;
        if !total.is_finite() || total <= 0.0 {
            return Err(CheckError::Shape(format!("{at}: non-positive total_ms")));
        }
    }
    // The whole point of the curve is to exercise the partitioner past the
    // paper's benchmark sizes.
    if synthetic_max_filters < 50_000 {
        return Err(CheckError::Shape(format!(
            "synthetic_scaling tops out at {synthetic_max_filters} filters (need >= 50000)"
        )));
    }
    // The budget-bounded point proves a node-capped branch-and-bound still
    // returns a feasible mapping and an honest (finite) optimality gap.
    let budget = report
        .get("budget_bounded")
        .ok_or_else(|| CheckError::Shape("missing budget_bounded section".to_string()))?;
    {
        let at = "budget_bounded";
        if budget.u64("max_nodes").map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero max_nodes")));
        }
        if budget.u64("partitions").map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero partitions")));
        }
        if budget.u64("ilp_nodes").map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero ilp_nodes")));
        }
        check_lp_size(budget, at)?;
        let gap = budget.f64("ilp_gap").map_err(shape(at))?;
        if !gap.is_finite() || gap < 0.0 {
            return Err(CheckError::Shape(format!(
                "{at}: ilp_gap must be finite and non-negative, got {gap}"
            )));
        }
        let map_ms = budget.f64("map_ms").map_err(shape(at))?;
        if !map_ms.is_finite() || map_ms <= 0.0 {
            return Err(CheckError::Shape(format!("{at}: non-positive map_ms")));
        }
    }
    // The repair section proves the degradation-aware remapping path holds
    // its acceptance bar: much cheaper than a recompile, nearly as good.
    let repair = report
        .get("repair")
        .ok_or_else(|| CheckError::Shape("missing repair section".to_string()))?;
    let repair_speedup;
    {
        let at = "repair";
        if repair.u64("moved_partitions").map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!(
                "{at}: no partitions moved off the lost device"
            )));
        }
        let repair_ms = repair.f64("repair_ms").map_err(shape(at))?;
        let recompile_ms = repair.f64("recompile_ms").map_err(shape(at))?;
        if !repair_ms.is_finite() || repair_ms <= 0.0 {
            return Err(CheckError::Shape(format!("{at}: non-positive repair_ms")));
        }
        if !recompile_ms.is_finite() || recompile_ms <= 0.0 {
            return Err(CheckError::Shape(format!(
                "{at}: non-positive recompile_ms"
            )));
        }
        repair_speedup = repair.f64("speedup").map_err(shape(at))?;
        if !repair_speedup.is_finite() || repair_speedup < 5.0 {
            return Err(CheckError::Shape(format!(
                "{at}: repair is only {repair_speedup:.2}x faster than a full recompile (need >= 5x)"
            )));
        }
        let ratio = repair.f64("objective_ratio").map_err(shape(at))?;
        if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.1 {
            return Err(CheckError::Shape(format!(
                "{at}: repaired objective is {ratio:.4}x the recompile objective (need <= 1.1x)"
            )));
        }
    }
    // The stability section proves the robustness preset ran clean and its
    // summary fields are well-formed.
    let stability = report
        .get("stability")
        .ok_or_else(|| CheckError::Shape("missing stability section".to_string()))?;
    let mapping_stability;
    {
        let at = "stability";
        if stability.u64("points").map_err(shape(at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero points")));
        }
        if stability.u64("failed_points").map_err(shape(at))? != 0 {
            return Err(CheckError::Shape(format!("{at}: failed points recorded")));
        }
        let compared = stability.u64("compared_points").map_err(shape(at))?;
        if compared == 0 {
            return Err(CheckError::Shape(format!("{at}: zero compared points")));
        }
        let unchanged = stability.u64("unchanged_mappings").map_err(shape(at))?;
        if unchanged > compared {
            return Err(CheckError::Shape(format!(
                "{at}: {unchanged} unchanged mappings exceed {compared} compared points"
            )));
        }
        mapping_stability = stability.f64("mapping_stability").map_err(shape(at))?;
        if !(0.0..=1.0).contains(&mapping_stability) {
            return Err(CheckError::Shape(format!(
                "{at}: mapping_stability {mapping_stability} outside [0, 1]"
            )));
        }
        let spread = stability.f64("max_objective_spread").map_err(shape(at))?;
        if !spread.is_finite() || spread < 0.0 {
            return Err(CheckError::Shape(format!(
                "{at}: max_objective_spread must be finite and non-negative, got {spread}"
            )));
        }
    }
    let sweep = report
        .get("sweep")
        .ok_or_else(|| CheckError::Shape("missing sweep section".to_string()))?;
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
    let (sweep_points, sweep_wall_ms) = check_bench_sweep(sweep, "sweep", preloaded > 0)?;
    Ok(BenchCheckSummary {
        compiles: compiles.len(),
        compile_total_ms,
        synthetic_points: synthetic.len(),
        synthetic_max_filters,
        sweep_points,
        sweep_wall_ms,
        repair_speedup,
        mapping_stability,
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

/// Validates a Chrome trace-event file as the `--trace` exporter writes it.
fn check_chrome_trace(report: &Value) -> Result<TraceCheckSummary, CheckError> {
    let events = report.array("traceEvents").map_err(CheckError::Shape)?;
    let (mut spans, mut instants, mut metadata) = (0usize, 0usize, 0usize);
    for (i, event) in events.iter().enumerate() {
        let at = format!("traceEvents[{i}]");
        let name = event.string("name").map_err(shape(&at))?;
        if name.is_empty() {
            return Err(CheckError::Shape(format!("{at}: empty event name")));
        }
        match event.string("ph").map_err(shape(&at))? {
            "X" => {
                non_negative(event, "ts", &at)?;
                non_negative(event, "dur", &at)?;
                non_negative(event, "pid", &at)?;
                non_negative(event, "tid", &at)?;
                spans += 1;
            }
            "i" => {
                non_negative(event, "ts", &at)?;
                match event.string("s").map_err(shape(&at))? {
                    "t" | "p" | "g" => {}
                    s => {
                        return Err(CheckError::Shape(format!("{at}: bad instant scope '{s}'")));
                    }
                }
                instants += 1;
            }
            "M" => {
                let args = event
                    .get("args")
                    .ok_or_else(|| CheckError::Shape(format!("{at}: metadata without args")))?;
                args.string("name").map_err(shape(&at))?;
                metadata += 1;
            }
            ph => return Err(CheckError::Shape(format!("{at}: unknown phase '{ph}'"))),
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

/// Validates an aggregate-metrics file as the `--metrics` exporter writes it.
fn check_metrics(report: &Value) -> Result<TraceCheckSummary, CheckError> {
    match report.get("version").and_then(Value::as_u64) {
        Some(1) => {}
        other => {
            return Err(CheckError::Shape(format!(
                "unsupported metrics version {other:?}"
            )))
        }
    }
    let counters = report
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| CheckError::Shape("missing counters object".to_string()))?;
    for (name, value) in counters {
        if value.as_u64().is_none() {
            return Err(CheckError::Shape(format!(
                "counter '{name}' is not a non-negative integer"
            )));
        }
    }
    let histograms = report
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or_else(|| CheckError::Shape("missing histograms object".to_string()))?;
    for (name, h) in histograms {
        let at = format!("histogram '{name}'");
        let count = h.u64("count").map_err(shape(&at))?;
        h.u64("sum").map_err(shape(&at))?;
        h.u64("min").map_err(shape(&at))?;
        h.u64("max").map_err(shape(&at))?;
        let buckets = h.array("buckets").map_err(shape(&at))?;
        let mut total = 0u64;
        for b in buckets {
            total += b
                .as_u64()
                .ok_or_else(|| CheckError::Shape(format!("{at}: non-integer bucket")))?;
        }
        if total != count {
            return Err(CheckError::Shape(format!(
                "{at}: buckets sum to {total} but count is {count}"
            )));
        }
    }
    let spans = report
        .get("spans")
        .and_then(Value::as_object)
        .ok_or_else(|| CheckError::Shape("missing spans object".to_string()))?;
    for (name, s) in spans {
        let at = format!("span '{name}'");
        if s.u64("count").map_err(shape(&at))? == 0 {
            return Err(CheckError::Shape(format!("{at}: zero count")));
        }
        let total = non_negative(s, "total_us", &at)?;
        let max = non_negative(s, "max_us", &at)?;
        if max > total {
            return Err(CheckError::Shape(format!(
                "{at}: max_us {max} exceeds total_us {total}"
            )));
        }
    }
    let warnings = report.array("warnings").map_err(CheckError::Shape)?;
    for (i, w) in warnings.iter().enumerate() {
        let at = format!("warnings[{i}]");
        w.string("code").map_err(shape(&at))?;
        w.string("message").map_err(shape(&at))?;
        non_negative(w, "ts_us", &at)?;
    }
    Ok(TraceCheckSummary::Metrics {
        counters: counters.len(),
        histograms: histograms.len(),
        spans: spans.len(),
        warnings: warnings.len(),
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

    #[test]
    fn trace_failure_modes_are_detected() {
        assert!(matches!(check_trace("nope"), Err(CheckError::Parse(_))));
        assert!(matches!(check_trace("{}"), Err(CheckError::Shape(_))));
        // A trace with no spans at all is rejected.
        let empty = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
        assert!(matches!(check_trace(empty), Err(CheckError::Shape(_))));
        // A span event with a bad phase.
        let bad_ph = concat!(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\",",
            "\"pid\":1,\"tid\":1,\"ts\":0.0}]}"
        );
        assert!(matches!(check_trace(bad_ph), Err(CheckError::Shape(_))));
        // Metrics whose histogram buckets disagree with the count.
        let bad_hist = concat!(
            "{\"format\":\"sgmap-metrics\",\"version\":1,\"counters\":{},",
            "\"histograms\":{\"h\":{\"count\":3,\"sum\":1,\"min\":0,\"max\":1,",
            "\"buckets\":[1,1]}},\"spans\":{},\"warnings\":[]}"
        );
        let err = check_trace(bad_hist).unwrap_err();
        assert!(err.to_string().contains("buckets sum"), "{err}");
        // An unsupported metrics version.
        let bad_version = "{\"format\":\"sgmap-metrics\",\"version\":2}";
        assert!(matches!(
            check_trace(bad_version),
            Err(CheckError::Shape(_))
        ));
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
    }

    #[test]
    fn bench_failure_modes_are_detected() {
        assert!(matches!(
            check_bench_report("nope"),
            Err(CheckError::Parse(_))
        ));
        assert!(matches!(
            check_bench_report("{\"version\":9}"),
            Err(CheckError::Shape(_))
        ));
        // Version-2 reports (no lp_refactorizations / ilp_gap / budget
        // section) no longer pass.
        assert!(matches!(
            check_bench_report("{\"version\":2}"),
            Err(CheckError::Shape(_))
        ));
        assert!(matches!(
            check_bench_report("{\"version\":3,\"compiles\":[]}"),
            Err(CheckError::Shape(_))
        ));
        // A warm-started sweep that still misses violates the persistence
        // contract.
        let err = check_bench_report(&bench_json(624, Some(624))).unwrap_err();
        assert!(err.to_string().contains("624 misses"), "{err}");
        // A malformed warm-start count must not pass for a cold sweep.
        for bad in ["\"624\"", "-3"] {
            let report = bench_json(624, Some(624)).replace(
                "\"cache_preloaded_entries\":624",
                &format!("\"cache_preloaded_entries\":{bad}"),
            );
            let err = check_bench_report(&report).unwrap_err();
            assert!(matches!(err, CheckError::Shape(_)), "{err}");
            assert!(err.to_string().contains("cache_preloaded_entries"), "{err}");
        }
        // Broken counters inside otherwise valid shapes.
        let zero_points = bench_json(624, None).replace("\"points\":48", "\"points\":0");
        assert!(check_bench_report(&zero_points).is_err());
        let failed = bench_json(624, None).replace("\"failed_points\":0", "\"failed_points\":2");
        assert!(check_bench_report(&failed).is_err());
        let bad_dedup =
            bench_json(624, None).replace("\"compile_groups\":16", "\"compile_groups\":0");
        assert!(matches!(
            check_bench_report(&bad_dedup),
            Err(CheckError::BadDedup(_))
        ));
        let no_partitions = bench_json(624, None).replace("\"partitions\":8", "\"partitions\":0");
        assert!(check_bench_report(&no_partitions).is_err());
        // The ILP counters of the revised simplex must be alive: nodes and
        // iterations per compile, warm starts somewhere in the suite.
        for broken in [
            bench_json(624, None).replace("\"ilp_nodes\":57", "\"ilp_nodes\":0"),
            bench_json(624, None).replace("\"lp_iterations\":412", "\"lp_iterations\":0"),
            bench_json(624, None).replace("\"lp_warm_starts\":56", "\"lp_warm_starts\":0"),
            bench_json(624, None).replace("\"ilp_nodes\":57,", ""),
            bench_json(624, None).replace("\"lp_refactorizations\":9,", ""),
            bench_json(624, None).replace("\"ilp_gap\":0.0,", ""),
            // The solved LP's size is recorded and positive.
            bench_json(624, None).replace("\"ilp_rows\":177,", ""),
            bench_json(624, None).replace("\"ilp_cols\":210", "\"ilp_cols\":0"),
            bench_json(624, None).replace("\"ilp_rows\":900", "\"ilp_rows\":0"),
            bench_json(624, None).replace("\"ilp_cols\":1200,", ""),
            // The budget-bounded point is mandatory and must have searched
            // at least one node, a finite gap and a positive wall-clock.
            bench_json(624, None).replace("\"budget_bounded\":", "\"budget_bounded_x\":"),
            bench_json(624, None).replace("\"ilp_nodes\":41", "\"ilp_nodes\":0"),
            bench_json(624, None).replace("\"ilp_gap\":0.0312", "\"ilp_gap\":-0.5"),
            bench_json(624, None).replace("\"map_ms\":120.5", "\"map_ms\":0.0"),
            bench_json(624, None).replace("\"platform\":\"Tesla M2090x2\",", ""),
            bench_json(624, None).replace("\"partition_phase1_ms\":0.4,", ""),
            bench_json(624, None).replace(
                "\"partition_phase3_ms\":0.5",
                "\"partition_phase3_ms\":-0.5",
            ),
            // The synthetic scaling curve is mandatory and must be healthy:
            // present, coarsened, and reaching at least 50k filters.
            bench_json(624, None).replace("\"synthetic_scaling\":[", "\"synthetic_scaling_x\":["),
            bench_json(624, None).replace("\"filters\":57126", "\"filters\":49999"),
            bench_json(624, None).replace("\"coarsen_levels\":8", "\"coarsen_levels\":0"),
            bench_json(624, None).replace("\"coarsen_ms\":2200.0", "\"coarsen_ms\":-1.0"),
            bench_json(624, None).replace("\"refine_ms\":900.0,", ""),
            // The repair section is mandatory and must hold its acceptance
            // bar: >= 5x faster than the recompile, within 10% of its
            // objective, and actually moving work off the lost device.
            bench_json(624, None).replace("\"repair\":", "\"repair_x\":"),
            bench_json(624, None).replace("\"speedup\":35.0", "\"speedup\":3.0"),
            bench_json(624, None).replace("\"objective_ratio\":1.0253", "\"objective_ratio\":1.2"),
            bench_json(624, None).replace("\"moved_partitions\":5", "\"moved_partitions\":0"),
            bench_json(624, None).replace("\"repair_ms\":2.4", "\"repair_ms\":0.0"),
            // The stability section is mandatory and must be well-formed:
            // ran clean, compared something, fraction inside [0, 1].
            bench_json(624, None).replace("\"stability\":", "\"stability_x\":"),
            bench_json(624, None).replace(
                "\"failed_points\":0,\"wall_ms\":2200.0",
                "\"failed_points\":1,\"wall_ms\":2200.0",
            ),
            bench_json(624, None).replace("\"compared_points\":36", "\"compared_points\":0"),
            bench_json(624, None)
                .replace("\"mapping_stability\":0.8333", "\"mapping_stability\":1.5"),
            bench_json(624, None).replace(
                "\"max_objective_spread\":0.4167",
                "\"max_objective_spread\":-1.0",
            ),
        ] {
            let err = check_bench_report(&broken).unwrap_err();
            assert!(matches!(err, CheckError::Shape(_)), "{err}");
        }
        let empty_curve = bench_json(624, None).replace(
            "\"synthetic_scaling\":[{\"app\":\"SynthPipe\"",
            "\"synthetic_scaling\":[],\"ignored\":[{\"app\":\"SynthPipe\"",
        );
        let err = check_bench_report(&empty_curve).unwrap_err();
        assert!(err.to_string().contains("empty synthetic_scaling"), "{err}");
        // A curve topping out at the old 10k point no longer passes the gate.
        let short_curve = bench_json(624, None).replace(
            "\"n\":50000,\"filters\":57126,",
            "\"n\":10000,\"filters\":11498,",
        );
        let err = check_bench_report(&short_curve).unwrap_err();
        assert!(
            err.to_string()
                .contains("tops out at 11498 filters (need >= 50000)"),
            "{err}"
        );
    }
}
