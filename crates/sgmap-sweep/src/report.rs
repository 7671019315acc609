//! Sweep records and the JSON report.

use std::time::Duration;

use sgmap_apps::App;
use sgmap_core::RunReport;
use sgmap_pee::CacheStats;
use sgmap_trace::json::Value;

use crate::spec::{mapper_name, partitioner_name, transfer_name, SweepPoint};

/// What limited the throughput of a point, judged from the mapping's
/// predicted per-GPU and per-link busy times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The busiest GPU bounds the throughput.
    Compute,
    /// The busiest PCIe link bounds the throughput.
    Interconnect,
}

impl Bottleneck {
    /// Stable lower-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::Interconnect => "interconnect",
        }
    }
}

/// The serializable outcome of one sweep point — a [`RunReport`] flattened
/// into the stable record shape the JSON report emits.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Position in the deterministic work list.
    pub index: usize,
    /// The application.
    pub app: App,
    /// The size parameter.
    pub n: u32,
    /// Platform name (the GPU-model short name for reference-tree platforms
    /// expanded from a model × count grid, e.g. `"M2090"`; the platform's
    /// own name, e.g. `"nvlink8"`, otherwise).
    pub gpu_model: String,
    /// Number of GPUs in the platform.
    pub gpus: usize,
    /// Stack label (e.g. `"ours"`).
    pub stack: String,
    /// Partitioner name.
    pub partitioner: String,
    /// Mapper name.
    pub mapper: String,
    /// Transfer-mode name.
    pub transfer: String,
    /// Whether the Chapter-V enhancement was applied.
    pub enhanced: bool,
    /// The failure message when the point could not be compiled (all
    /// measurement fields are zero in that case).
    pub error: Option<String>,
    /// Number of partitions the graph was compiled into.
    pub partitions: usize,
    /// GPUs actually used by the mapping.
    pub gpus_used: usize,
    /// Average time per steady-state iteration, microseconds.
    pub time_per_iteration_us: f64,
    /// End-to-end makespan, microseconds.
    pub makespan_us: f64,
    /// The mapper's predicted bottleneck time, microseconds.
    pub predicted_tmax_us: f64,
    /// What limited the throughput (`None` for failed points).
    pub bottleneck: Option<Bottleneck>,
    /// Speedup over the matching 1-GPU point of the same (app, N, model,
    /// stack, enhancement) group, when that point exists in the sweep.
    pub speedup_vs_1gpu: Option<f64>,
    /// Canonical rendering of the mapping's partition→GPU assignment
    /// (indices joined by `","`), recorded only on sweeps that request a
    /// stability analysis ([`SweepSpec::stability_baseline`]). `None`
    /// elsewhere, and omitted from the JSON when `None`, so reports from
    /// other presets keep their historical byte shape.
    ///
    /// [`SweepSpec::stability_baseline`]: crate::SweepSpec::stability_baseline
    pub mapping_signature: Option<String>,
}

impl SweepRecord {
    /// Builds the record for a successfully executed point.
    pub fn from_run(point: &SweepPoint, report: &RunReport) -> Self {
        let max_gpu = report
            .mapping
            .per_gpu_time_us
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        let max_link = report
            .mapping
            .per_link_time_us
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        let bottleneck = if max_link > max_gpu {
            Bottleneck::Interconnect
        } else {
            Bottleneck::Compute
        };
        SweepRecord {
            partitions: report.partition_count,
            gpus_used: report.mapping.gpus_used(),
            time_per_iteration_us: report.time_per_iteration_us,
            makespan_us: report.makespan_us,
            predicted_tmax_us: report.mapping.predicted_tmax_us,
            bottleneck: Some(bottleneck),
            error: None,
            ..SweepRecord::empty(point)
        }
    }

    /// Builds the record for a point that failed to compile.
    pub fn from_error(point: &SweepPoint, error: impl std::fmt::Display) -> Self {
        SweepRecord {
            error: Some(error.to_string()),
            ..SweepRecord::empty(point)
        }
    }

    fn empty(point: &SweepPoint) -> Self {
        SweepRecord {
            index: point.index,
            app: point.app,
            n: point.n,
            gpu_model: point.platform.name.clone(),
            gpus: point.platform.gpu_count(),
            stack: point.stack.label.clone(),
            partitioner: partitioner_name(point.stack.partitioner).to_string(),
            mapper: mapper_name(point.stack.mapper).to_string(),
            transfer: transfer_name(point.stack.transfer_mode).to_string(),
            enhanced: point.enhanced,
            error: None,
            partitions: 0,
            gpus_used: 0,
            time_per_iteration_us: 0.0,
            makespan_us: 0.0,
            predicted_tmax_us: 0.0,
            bottleneck: None,
            speedup_vs_1gpu: None,
            mapping_signature: None,
        }
    }

    /// `true` when the point compiled and ran.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("index", Value::Uint(self.index as u64)),
            ("app", Value::str(self.app.name())),
            ("n", Value::Uint(u64::from(self.n))),
            ("gpu_model", Value::str(&*self.gpu_model)),
            ("gpus", Value::Uint(self.gpus as u64)),
            ("stack", Value::str(&*self.stack)),
            ("partitioner", Value::str(&*self.partitioner)),
            ("mapper", Value::str(&*self.mapper)),
            ("transfer", Value::str(&*self.transfer)),
            ("enhanced", Value::Bool(self.enhanced)),
            (
                "error",
                match &self.error {
                    Some(e) => Value::str(&**e),
                    None => Value::Null,
                },
            ),
            ("partitions", Value::Uint(self.partitions as u64)),
            ("gpus_used", Value::Uint(self.gpus_used as u64)),
            (
                "time_per_iteration_us",
                Value::Float(self.time_per_iteration_us),
            ),
            ("makespan_us", Value::Float(self.makespan_us)),
            ("predicted_tmax_us", Value::Float(self.predicted_tmax_us)),
            (
                "bottleneck",
                match self.bottleneck {
                    Some(b) => Value::str(b.name()),
                    None => Value::Null,
                },
            ),
            (
                "speedup_vs_1gpu",
                match self.speedup_vs_1gpu {
                    Some(s) => Value::Float(s),
                    None => Value::Null,
                },
            ),
        ];
        if let Some(sig) = &self.mapping_signature {
            fields.push(("mapping_signature", Value::str(&**sig)));
        }
        Value::object(fields)
    }
}

/// Compile-deduplication counters: how many grid points the sweep expanded
/// to versus how many compiles (graph build + profile + partition search)
/// actually ran after grouping points by their compile key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// Number of expanded grid points.
    pub expanded_points: u64,
    /// Number of distinct (app, N, GPU model, stack, enhancement) compile
    /// groups — the number of partition searches that ran.
    pub compile_groups: u64,
}

impl DedupStats {
    /// Compiles avoided by grouping (`expanded_points - compile_groups`).
    pub fn compiles_saved(&self) -> u64 {
        self.expanded_points.saturating_sub(self.compile_groups)
    }
}

/// How stable the compiled mappings are under small model perturbations:
/// every perturbed-platform point is compared against the unperturbed
/// baseline point of the same (app, N, stack, enhancement, GPU-count)
/// coordinate. Produced by sweeps with a
/// [`stability_baseline`](crate::SweepSpec::stability_baseline), e.g. the
/// `robustness` preset.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityReport {
    /// Name of the unperturbed baseline platform.
    pub baseline_platform: String,
    /// Number of perturbed points compared against a baseline.
    pub compared_points: u64,
    /// How many of those kept the baseline's partition→GPU assignment.
    pub unchanged_mappings: u64,
    /// `unchanged_mappings / compared_points` (`1.0` when nothing was
    /// compared).
    pub mapping_stability: f64,
    /// Largest relative spread of the predicted bottleneck time inside any
    /// coordinate group: `(max − min) / baseline`.
    pub max_objective_spread: f64,
}

impl StabilityReport {
    /// Compares every perturbed point against the baseline point of its
    /// coordinate. Failed points and coordinates without a baseline are
    /// skipped; records without a mapping signature count as changed only
    /// if the baseline has one.
    pub fn compute(records: &[SweepRecord], baseline_platform: &str) -> StabilityReport {
        let mut compared = 0u64;
        let mut unchanged = 0u64;
        let mut max_spread = 0.0f64;
        let baselines: Vec<&SweepRecord> = records
            .iter()
            .filter(|r| r.is_ok() && r.gpu_model == baseline_platform)
            .collect();
        for base in &baselines {
            let mut lo = base.predicted_tmax_us;
            let mut hi = base.predicted_tmax_us;
            for rec in records {
                let same_coord = rec.is_ok()
                    && rec.gpu_model != baseline_platform
                    && rec.app == base.app
                    && rec.n == base.n
                    && rec.stack == base.stack
                    && rec.enhanced == base.enhanced
                    && rec.gpus == base.gpus;
                if !same_coord {
                    continue;
                }
                compared += 1;
                if rec.mapping_signature.is_some()
                    && rec.mapping_signature == base.mapping_signature
                {
                    unchanged += 1;
                }
                lo = lo.min(rec.predicted_tmax_us);
                hi = hi.max(rec.predicted_tmax_us);
            }
            if base.predicted_tmax_us > 0.0 {
                max_spread = max_spread.max((hi - lo) / base.predicted_tmax_us);
            }
        }
        StabilityReport {
            baseline_platform: baseline_platform.to_string(),
            compared_points: compared,
            unchanged_mappings: unchanged,
            mapping_stability: if compared == 0 {
                1.0
            } else {
                unchanged as f64 / compared as f64
            },
            max_objective_spread: max_spread,
        }
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::object(vec![
            ("baseline_platform", Value::str(&*self.baseline_platform)),
            ("compared_points", Value::Uint(self.compared_points)),
            ("unchanged_mappings", Value::Uint(self.unchanged_mappings)),
            ("mapping_stability", Value::Float(self.mapping_stability)),
            (
                "max_objective_spread",
                Value::Float(self.max_objective_spread),
            ),
        ])
    }
}

/// The result of running a sweep: the per-point records in work-list order
/// plus shared-cache statistics and (non-deterministic) execution metadata.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Name of the sweep spec that produced this report.
    pub spec_name: String,
    /// Per-point records, ordered by [`SweepRecord::index`].
    pub records: Vec<SweepRecord>,
    /// Shared estimator-cache counters at the end of the sweep. These are
    /// deterministic for a given spec (single-flight caching makes the miss
    /// count equal the number of distinct keys, independent of scheduling).
    pub cache: CacheStats,
    /// Compile-group deduplication counters (deterministic: a function of
    /// the expansion alone).
    pub dedup: DedupStats,
    /// Mapping-stability analysis, present only on sweeps that set a
    /// [`stability_baseline`](crate::SweepSpec::stability_baseline).
    /// Omitted from the JSON when `None`, so other presets' reports keep
    /// their historical byte shape.
    pub stability: Option<StabilityReport>,
    /// Number of worker threads used (metadata; excluded from canonical
    /// JSON).
    pub threads: usize,
    /// Wall-clock duration of the sweep (metadata; excluded from canonical
    /// JSON).
    pub wall_clock: Duration,
}

impl SweepReport {
    /// The deterministic part of the report: spec name, records and cache
    /// statistics. Two runs of the same spec — with any thread counts —
    /// render byte-identical canonical JSON.
    pub fn canonical_json(&self) -> String {
        self.body_value().render()
    }

    /// The full report: the canonical body plus an execution-metadata object
    /// (thread count, wall-clock time).
    pub fn to_json(&self) -> String {
        let mut body = match self.body_value() {
            Value::Object(fields) => fields,
            _ => unreachable!("body is always an object"),
        };
        body.push((
            "meta".to_string(),
            Value::object(vec![
                ("threads", Value::Uint(self.threads as u64)),
                (
                    "wall_clock_ms",
                    Value::Float(self.wall_clock.as_secs_f64() * 1000.0),
                ),
            ]),
        ));
        Value::Object(body).render()
    }

    fn body_value(&self) -> Value {
        let mut fields = vec![
            ("sweep", Value::str(&*self.spec_name)),
            (
                "points",
                Value::Array(self.records.iter().map(SweepRecord::to_value).collect()),
            ),
            (
                "cache",
                Value::object(vec![
                    ("hits", Value::Uint(self.cache.hits)),
                    ("misses", Value::Uint(self.cache.misses)),
                    ("entries", Value::Uint(self.cache.entries)),
                ]),
            ),
            (
                "dedup",
                Value::object(vec![
                    ("expanded_points", Value::Uint(self.dedup.expanded_points)),
                    ("compile_groups", Value::Uint(self.dedup.compile_groups)),
                    ("compiles_saved", Value::Uint(self.dedup.compiles_saved())),
                ]),
            ),
        ];
        if let Some(stability) = &self.stability {
            fields.push(("stability", stability.to_value()));
        }
        Value::object(fields)
    }

    /// Looks up the record for an exact (app, N, GPU count, stack label)
    /// coordinate. The GPU-model and enhancement axes are ignored when
    /// `None`; pass them explicitly on sweeps that vary those axes, or the
    /// first matching record (in work-list order) wins.
    pub fn find(
        &self,
        app: App,
        n: u32,
        gpus: usize,
        stack: &str,
        gpu_model: Option<&str>,
        enhanced: Option<bool>,
    ) -> Option<&SweepRecord> {
        self.records.iter().find(|r| {
            r.app == app
                && r.n == n
                && r.gpus == gpus
                && r.stack == stack
                && gpu_model.is_none_or(|m| r.gpu_model == m)
                && enhanced.is_none_or(|e| r.enhanced == e)
        })
    }

    /// All successfully executed records.
    pub fn ok_records(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records.iter().filter(|r| r.is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StackConfig;
    use sgmap_gpusim::{GpuSpec, PlatformSpec};

    fn point() -> SweepPoint {
        SweepPoint {
            index: 0,
            app: App::Des,
            n: 4,
            platform: PlatformSpec::reference(GpuSpec::m2090(), 2).named("M2090"),
            stack: StackConfig::ours(),
            enhanced: false,
        }
    }

    #[test]
    fn error_records_serialise_with_null_measurements() {
        let rec = SweepRecord::from_error(&point(), "boom");
        assert!(!rec.is_ok());
        let report = SweepReport {
            spec_name: "t".to_string(),
            records: vec![rec],
            cache: CacheStats::default(),
            dedup: DedupStats {
                expanded_points: 1,
                compile_groups: 1,
            },
            stability: None,
            threads: 1,
            wall_clock: Duration::from_millis(1),
        };
        let json = report.canonical_json();
        assert!(json.contains(r#""error":"boom""#));
        assert!(json.contains(r#""bottleneck":null"#));
        assert!(
            json.contains(r#""dedup":{"expanded_points":1,"compile_groups":1,"compiles_saved":0}"#)
        );
        assert!(!json.contains("meta"));
        assert!(report.to_json().contains(r#""meta":{"threads":1"#));
    }
}
