//! The metric table of record: `BENCHMARK.json` at the repository root,
//! compiled in so the names, units and bounds the program prints and judges
//! cannot drift from the file.

use sgmap_sweep::JsonValue;

/// The text of `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, speedups).
    Higher,
}

/// One metric of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before it counts as a regression (`None` for per-layer metrics).
    pub bound: Option<f64>,
}

/// The parsed table.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// How long one run measures, seconds.
    pub run_seconds: u64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn load() -> Result<BenchSpec, String> {
        Self::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(src: &str) -> Result<BenchSpec, String> {
        let doc = JsonValue::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))
        };
        let text = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match text(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks up an end-to-end metric by name.
    pub fn end_to_end_metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
