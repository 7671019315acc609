//! Pure-Rust JSON exporters: Chrome trace-event format and a canonical
//! aggregate-metrics document, both built from [`Value`]s of this crate's
//! [`json`](crate::json) codec, so every JSON artefact of the workspace
//! shares one writer.

use crate::collector::{ArgValue, Collector, Event, EventKind};
use crate::json::Value;

const PID: u64 = 1;

fn arg_value(v: &ArgValue) -> Value {
    match v {
        ArgValue::Str(s) => Value::str(s.as_str()),
        ArgValue::Uint(u) => Value::Uint(*u),
        ArgValue::Float(f) => Value::Float(*f),
    }
}

fn args_value(args: &[(&'static str, ArgValue)]) -> Value {
    Value::object(args.iter().map(|(k, v)| (*k, arg_value(v))).collect())
}

/// A `ph:"M"` metadata event naming the process (`tid` 0) or one lane.
fn metadata(name: &str, tid: u64, label: String) -> Value {
    Value::object(vec![
        ("name", Value::str(name)),
        ("ph", Value::str("M")),
        ("pid", Value::Uint(PID)),
        ("tid", Value::Uint(tid)),
        ("args", Value::object(vec![("name", Value::Str(label))])),
    ])
}

fn event_value(ev: &Event) -> Value {
    let mut fields = vec![("name", Value::str(ev.name)), ("cat", Value::str("sgmap"))];
    match ev.kind {
        EventKind::Span { dur_us } => fields.extend([
            ("ph", Value::str("X")),
            ("pid", Value::Uint(PID)),
            ("tid", Value::Uint(ev.lane)),
            ("ts", Value::Float(ev.ts_us)),
            ("dur", Value::Float(dur_us)),
        ]),
        EventKind::Instant => fields.extend([
            ("ph", Value::str("i")),
            ("s", Value::str("t")),
            ("pid", Value::Uint(PID)),
            ("tid", Value::Uint(ev.lane)),
            ("ts", Value::Float(ev.ts_us)),
        ]),
    }
    fields.push(("args", args_value(&ev.args)));
    Value::object(fields)
}

impl Collector {
    /// Export the raw event stream as Chrome trace-event JSON (the
    /// `traceEvents` object format), one event per line. Load the file in
    /// `chrome://tracing` or drop it onto <https://ui.perfetto.dev>. Spans
    /// become `ph:"X"` complete events, instants become `ph:"i"`, warnings
    /// become process-scoped instants with `cat:"warning"`, and per-lane
    /// `thread_name` metadata labels each worker thread.
    pub fn chrome_trace_json(&self) -> String {
        self.with_state(|s| {
            // Sort a copy of the events by start time (drop order is end
            // order, which looks scrambled in viewers that do not re-sort).
            let mut events: Vec<&Event> = s.events.iter().collect();
            events.sort_by(|a, b| {
                a.ts_us
                    .partial_cmp(&b.ts_us)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            let mut lanes: Vec<u64> = events.iter().map(|e| e.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();

            let mut out: Vec<Value> = Vec::with_capacity(events.len() + lanes.len() + 2);
            out.push(metadata("process_name", 0, "sgmap".to_string()));
            for &lane in &lanes {
                out.push(metadata("thread_name", lane, format!("lane-{lane}")));
            }
            out.extend(events.into_iter().map(event_value));
            for w in &s.warnings {
                out.push(Value::object(vec![
                    ("name", Value::str(w.code)),
                    ("cat", Value::str("warning")),
                    ("ph", Value::str("i")),
                    ("s", Value::str("p")),
                    ("pid", Value::Uint(PID)),
                    ("tid", Value::Uint(0)),
                    ("ts", Value::Float(w.ts_us)),
                    (
                        "args",
                        Value::object(vec![("message", Value::str(w.message.as_str()))]),
                    ),
                ]));
            }
            let lines: Vec<String> = out.iter().map(Value::render).collect();
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
                lines.join(",\n")
            )
        })
    }

    /// Export aggregate metrics as canonical JSON: counters, histograms and
    /// per-name span totals under sorted keys, plus the warning list. Two
    /// collectors that observed the same workload produce structurally
    /// identical documents (timing values aside), which makes the format
    /// suitable for diffing and machine consumption.
    pub fn metrics_json(&self) -> String {
        let totals = self.span_totals();
        self.with_state(|s| {
            let counters = s
                .counters
                .iter()
                .map(|(&k, &v)| (k, Value::Uint(v)))
                .collect();
            let histograms = s
                .histograms
                .iter()
                .map(|(&k, h)| {
                    let buckets = h.buckets().iter().map(|&b| Value::Uint(b)).collect();
                    let fields = vec![
                        ("count", Value::Uint(h.count())),
                        ("sum", Value::Uint(h.sum())),
                        ("min", Value::Uint(h.min())),
                        ("max", Value::Uint(h.max())),
                        ("buckets", Value::Array(buckets)),
                    ];
                    (k, Value::object(fields))
                })
                .collect();
            let spans = totals
                .iter()
                .map(|(&k, t)| {
                    let fields = vec![
                        ("count", Value::Uint(t.count)),
                        ("total_us", Value::Float(t.total_us)),
                        ("max_us", Value::Float(t.max_us)),
                    ];
                    (k, Value::object(fields))
                })
                .collect();
            let warnings = s
                .warnings
                .iter()
                .map(|w| {
                    Value::object(vec![
                        ("code", Value::str(w.code)),
                        ("message", Value::str(w.message.as_str())),
                        ("ts_us", Value::Float(w.ts_us)),
                    ])
                })
                .collect();
            let doc = Value::object(vec![
                ("format", Value::str("sgmap-metrics")),
                ("version", Value::Uint(1)),
                ("counters", Value::object(counters)),
                ("histograms", Value::object(histograms)),
                ("spans", Value::object(spans)),
                ("warnings", Value::Array(warnings)),
            ]);
            doc.render() + "\n"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> std::sync::Arc<Collector> {
        let c = std::sync::Arc::new(Collector::new());
        {
            let mut s = c.open_span("partition.phase1", Vec::new());
            s.arg("parts", 3u64);
            let _inner = c.open_span("ilp.node", Vec::new());
        }
        c.instant("sweep.cache_loaded", vec![("entries", ArgValue::Uint(12))]);
        c.add("pee.estimate_misses", 7);
        c.record("pee.chars_merged_size", 5);
        c.warning("cache.save_failed", "disk \"full\"\n");
        c
    }

    #[test]
    fn chrome_export_shape() {
        let json = sample().chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"partition.phase1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"parts\":3"));
        assert!(json.contains("\"cat\":\"warning\""));
        // Escaping: the embedded quote and newline must be escaped.
        assert!(json.contains("disk \\\"full\\\"\\n"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn metrics_export_shape() {
        let json = sample().metrics_json();
        assert!(json.starts_with("{\"format\":\"sgmap-metrics\",\"version\":1,"));
        assert!(json.contains("\"pee.estimate_misses\":7"));
        assert!(
            json.contains("\"pee.chars_merged_size\":{\"count\":1,\"sum\":5,\"min\":5,\"max\":5,")
        );
        assert!(json.contains("\"partition.phase1\":{\"count\":1,"));
        assert!(json.contains("\"code\":\"cache.save_failed\""));
    }

    #[test]
    fn empty_collector_exports_are_valid() {
        let c = Collector::new();
        let chrome = c.chrome_trace_json();
        assert!(chrome.contains("\"traceEvents\":["));
        let metrics = c.metrics_json();
        assert!(metrics.contains("\"counters\":{}"));
        assert!(metrics.contains("\"warnings\":[]"));
    }
}
