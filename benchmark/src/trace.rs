//! The traced pass: spans the benchmark records around each call into a
//! layer, their self times, and the per-layer metrics built from them.
//!
//! Spans are recorded from the benchmark's own code, around the public entry
//! point of each layer, and kept in memory until the pass ends. The program's
//! own collector is read in exactly one place, [`record_program_spans`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use sgmap_core::{CompileResult, RunReport};
use sgmap_mapping::{Mapping, MappingMethod};
use sgmap_sweep::JsonValue;
use sgmap_trace::Collector;

/// The name of the root span that encloses one job of the traced replay.
pub const JOB_SPAN: &str = "job";

/// One recorded span. `parent` is the index of the enclosing span in the
/// same recording; job roots have none.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Sequence number of the job execution the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer and call, `<layer>.<what>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory. Single-threaded: the traced pass replays
/// one job at a time.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    job: u64,
    open: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next job and returns its handle.
    pub fn begin_job(&mut self) -> usize {
        // A replay that panicked left its spans open: close them here.
        if let Some(&root) = self.open.first() {
            self.end(root);
        }
        self.job += 1;
        self.begin(JOB_SPAN)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            job: self.job,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `index` and every span opened inside it.
    pub fn end(&mut self, index: usize) {
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let result = f();
        self.end(span);
        result
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or(JsonValue::Null, |p| JsonValue::Uint(p as u64));
            let line = JsonValue::object(vec![
                ("job", JsonValue::Uint(s.job)),
                ("span", JsonValue::Uint(id as u64)),
                ("parent", parent),
                ("name", JsonValue::str(s.name)),
                ("start_us", JsonValue::Float(s.start_ns as f64 / 1e3)),
                ("end_us", JsonValue::Float(s.end_ns as f64 / 1e3)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of its
/// interval that its direct children cover (overlapping children are counted
/// once). Indexed like `spans`.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The layer counters and timings of a traced pass, turned into the
/// per-layer metrics by [`LayerTotals::metrics`].
///
/// Counters are deterministic for a job, so only each job's first replay
/// records them: they come out the same however many passes a run makes.
/// Times come from every replay.
#[derive(Debug, Default)]
pub struct LayerTotals {
    sums: BTreeMap<&'static str, f64>,
    jobs: BTreeSet<usize>,
    recording: bool,
    replays: u64,
    untraced_ms: f64,
}

impl LayerTotals {
    /// Starts a replay of job `job`; its counters are recorded only if the
    /// job has not been replayed before.
    pub fn begin(&mut self, job: usize) {
        self.recording = self.jobs.insert(job);
    }

    /// Adds `value` to the counter `key` during a job's first replay.
    pub fn add(&mut self, key: &'static str, value: f64) {
        if self.recording {
            *self.sums.entry(key).or_insert(0.0) += value;
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Counts one successful replay whose untraced twin took `untraced_ms`.
    pub fn replay_done(&mut self, untraced_ms: f64) {
        self.replays += 1;
        self.untraced_ms += untraced_ms;
    }

    /// Records the layers of a compile: mapping, ILP, codegen and simulator
    /// counters. `greedy` is `map_greedy` on the same PDG and platform.
    pub fn record_compile(
        &mut self,
        compiled: &CompileResult,
        report: &RunReport,
        greedy: &Mapping,
    ) {
        let mapping = &compiled.mapping;
        if greedy.predicted_tmax_us > 0.0 {
            self.add(
                "mapping.greedy_ratio",
                mapping.predicted_tmax_us / greedy.predicted_tmax_us,
            );
            self.add("mapping.greedy_jobs", 1.0);
        }
        if mapping.method == MappingMethod::Ilp && compiled.platform.gpu_count() > 1 {
            let s = &mapping.ilp_stats;
            self.add("ilp.nodes", s.nodes as f64);
            self.add("ilp.lp_iterations", s.lp_iterations as f64);
            self.add("ilp.lp_warm_starts", s.lp_warm_starts as f64);
            self.add("ilp.refactorizations", s.refactorizations as f64);
            self.add("ilp.presolve_removed_rows", s.presolve_removed_rows as f64);
            if s.optimality_gap.is_finite() {
                self.add("ilp.gap", s.optimality_gap);
                self.add("ilp.gap_jobs", 1.0);
            }
            if !mapping.optimal {
                self.add("ilp.budget_exhausted_jobs", 1.0);
            }
        }
        self.add("codegen.kernels", compiled.plan.kernels.len() as f64);
        self.add("codegen.transfers", compiled.plan.transfers.len() as f64);
        let stats = &report.stats;
        self.add(
            "gpusim.link_bytes",
            stats.per_link_bytes.iter().sum::<u64>() as f64,
        );
        self.add("gpusim.busy_us", stats.per_gpu_busy_us.iter().sum());
        self.add(
            "gpusim.capacity_us",
            stats.makespan_us * stats.per_gpu_busy_us.len() as f64,
        );
    }

    /// Turns the sums and the recorded spans into the per-layer metrics, in
    /// `(name, value)` pairs; a layer the workload never reached reads 0.
    pub fn metrics(&self, spans: &[SpanRecord]) -> Vec<(&'static str, f64)> {
        let self_ns = self_times_ns(spans);
        let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
        let mut job_wall_ms = 0.0;
        for (span, &ns) in spans.iter().zip(&self_ns) {
            *self_ms.entry(span.name).or_insert(0.0) += ns as f64 / 1e6;
            if span.parent.is_none() && span.name == JOB_SPAN {
                job_wall_ms += span.duration_ns() as f64 / 1e6;
            }
        }
        let replays = self.replays.max(1) as f64;
        let jobs = self.jobs.len().max(1) as f64;
        let per_job_ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / replays;
        let per_job = |key: &str| self.sum(key) / jobs;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let unattributed_ms = self_ms.get(JOB_SPAN).copied().unwrap_or(0.0);
        let queries = self.sum("pee.estimate_queries");
        let sweep_queries = self.sum("sweep.cache_queries");
        vec![
            ("apps.build_ms", per_job_ms("apps.build")),
            ("apps.filters", per_job("apps.filters")),
            ("graph.repetition_ms", per_job_ms("graph.repetition")),
            ("pee.estimator_new_ms", per_job_ms("pee.estimator_new")),
            ("pee.estimate_queries", per_job("pee.estimate_queries")),
            ("pee.estimate_misses", per_job("pee.estimate_misses")),
            (
                "pee.hit_ratio",
                ratio(queries - self.sum("pee.estimate_misses"), queries),
            ),
            ("partition.run_ms", per_job_ms("partition.run")),
            ("partition.pdg_ms", per_job_ms("partition.pdg")),
            ("partition.partitions", per_job("partition.partitions")),
            ("partition.phase1_ms", per_job("partition.phase1_ms")),
            ("partition.phase2_ms", per_job("partition.phase2_ms")),
            ("partition.phase3_ms", per_job("partition.phase3_ms")),
            ("partition.phase4_ms", per_job("partition.phase4_ms")),
            ("partition.coarsen_ms", per_job("partition.coarsen_ms")),
            ("partition.initial_ms", per_job("partition.initial_ms")),
            ("partition.refine_ms", per_job("partition.refine_ms")),
            (
                "partition.coarsen_levels",
                per_job("partition.coarsen_levels"),
            ),
            ("mapping.map_ms", per_job_ms("mapping.map")),
            (
                "mapping.greedy_ratio",
                ratio(
                    self.sum("mapping.greedy_ratio"),
                    self.sum("mapping.greedy_jobs"),
                ),
            ),
            ("ilp.nodes", per_job("ilp.nodes")),
            ("ilp.lp_iterations", per_job("ilp.lp_iterations")),
            ("ilp.lp_warm_starts", per_job("ilp.lp_warm_starts")),
            ("ilp.refactorizations", per_job("ilp.refactorizations")),
            (
                "ilp.presolve_removed_rows",
                per_job("ilp.presolve_removed_rows"),
            ),
            (
                "ilp.gap_mean",
                ratio(self.sum("ilp.gap"), self.sum("ilp.gap_jobs")),
            ),
            (
                "ilp.budget_exhausted_jobs",
                self.sum("ilp.budget_exhausted_jobs"),
            ),
            (
                "ilp.ms_per_node",
                ratio(per_job_ms("mapping.map"), per_job("ilp.nodes")),
            ),
            ("codegen.plan_ms", per_job_ms("codegen.plan")),
            ("codegen.kernels", per_job("codegen.kernels")),
            ("codegen.transfers", per_job("codegen.transfers")),
            ("gpusim.simulate_ms", per_job_ms("gpusim.simulate")),
            ("gpusim.link_bytes", per_job("gpusim.link_bytes")),
            (
                "gpusim.gpu_busy_ratio",
                ratio(self.sum("gpusim.busy_us"), self.sum("gpusim.capacity_us")),
            ),
            ("sweep.run_ms", per_job_ms("sweep.run")),
            ("sweep.cache_load_ms", per_job_ms("sweep.cache_load")),
            ("sweep.render_ms", per_job_ms("sweep.render")),
            ("sweep.check_ms", per_job_ms("sweep.check")),
            ("sweep.points", per_job("sweep.points")),
            ("sweep.compile_groups", per_job("sweep.compile_groups")),
            (
                "sweep.cache_hit_ratio",
                ratio(self.sum("sweep.cache_hits"), sweep_queries),
            ),
            ("sweep.failed_points", per_job("sweep.failed_points")),
            ("bench.unattributed_ms", unattributed_ms / replays),
            (
                "bench.attributed_ratio",
                ratio(job_wall_ms - unattributed_ms, job_wall_ms),
            ),
            (
                "bench.trace_overhead_ratio",
                ratio(job_wall_ms, self.untraced_ms),
            ),
        ]
    }
}

/// Adds the partition sub-phase times and coarsening levels the program's
/// own collector recorded during one job. The only place the benchmark reads
/// the program's trace.
pub fn record_program_spans(collector: &Collector, totals: &mut LayerTotals) {
    const PHASES: [(&str, &str); 7] = [
        ("partition.phase1", "partition.phase1_ms"),
        ("partition.phase2", "partition.phase2_ms"),
        ("partition.phase3", "partition.phase3_ms"),
        ("partition.phase4", "partition.phase4_ms"),
        ("partition.coarsen", "partition.coarsen_ms"),
        ("partition.initial", "partition.initial_ms"),
        ("partition.refine", "partition.refine_ms"),
    ];
    let spans = collector.span_totals();
    for (span, key) in PHASES {
        if let Some(t) = spans.get(span) {
            totals.add(key, t.total_us / 1e3);
        }
    }
    totals.add(
        "partition.coarsen_levels",
        collector.counter("partition.coarsen_levels") as f64,
    );
}
