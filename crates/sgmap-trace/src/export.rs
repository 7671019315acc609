//! Pure-Rust JSON exporters: Chrome trace-event format and a canonical
//! aggregate-metrics document. No dependencies; the tiny JSON writer below
//! mirrors the formatting rules of `sgmap-sweep`'s `json` module (floats
//! render via `f64::to_string` with a trailing `.0` added for integral
//! values, non-finite floats become `null`) so downstream parsers see one
//! consistent dialect.

use crate::collector::{ArgValue, Collector, Event, EventKind};

const PID: u64 = 1;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let mut s = x.to_string();
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

fn fmt_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::Str(s) => format!("\"{}\"", escape(s)),
        ArgValue::Uint(u) => u.to_string(),
        ArgValue::Float(f) => fmt_f64(*f),
    }
}

fn fmt_args(args: &[(&'static str, ArgValue)]) -> String {
    let fields: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), fmt_arg(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl Collector {
    /// Export the raw event stream as Chrome trace-event JSON (the
    /// `traceEvents` object format). Load the file in `chrome://tracing` or
    /// drop it onto <https://ui.perfetto.dev>. Spans become `ph:"X"` complete
    /// events, instants become `ph:"i"`, warnings become process-scoped
    /// instants with `cat:"warning"`, and per-lane `thread_name` metadata
    /// labels each worker thread.
    pub fn chrome_trace_json(&self) -> String {
        self.with_state(|s| {
            // Sort a copy of the events by start time (drop order is end
            // order, which looks scrambled in viewers that do not re-sort).
            let mut events: Vec<&Event> = s.events.iter().collect();
            events.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap_or(std::cmp::Ordering::Equal));

            let mut lanes: Vec<u64> = events.iter().map(|e| e.lane).collect();
            lanes.sort_unstable();
            lanes.dedup();

            let mut out: Vec<String> = Vec::with_capacity(events.len() + lanes.len() + 2);
            out.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"args\":{{\"name\":\"sgmap\"}}}}"
            ));
            for lane in &lanes {
                out.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{lane},\"args\":{{\"name\":\"lane-{lane}\"}}}}"
                ));
            }
            for ev in events {
                let name = escape(ev.name);
                let ts = fmt_f64(ev.ts_us);
                let args = fmt_args(&ev.args);
                match ev.kind {
                    EventKind::Span { dur_us } => out.push(format!(
                        "{{\"name\":\"{name}\",\"cat\":\"sgmap\",\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{ts},\"dur\":{},\"args\":{args}}}",
                        ev.lane,
                        fmt_f64(dur_us)
                    )),
                    EventKind::Instant => out.push(format!(
                        "{{\"name\":\"{name}\",\"cat\":\"sgmap\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{},\"ts\":{ts},\"args\":{args}}}",
                        ev.lane
                    )),
                }
            }
            for w in &s.warnings {
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"warning\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{PID},\"tid\":0,\"ts\":{},\"args\":{{\"message\":\"{}\"}}}}",
                    escape(w.code),
                    fmt_f64(w.ts_us),
                    escape(&w.message)
                ));
            }
            format!(
                "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
                out.join(",\n")
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
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
                .collect();
            let histograms: Vec<String> = s
                .histograms
                .iter()
                .map(|(k, h)| {
                    let buckets: Vec<String> =
                        h.buckets().iter().map(|b| b.to_string()).collect();
                    format!(
                        "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                        escape(k),
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        buckets.join(",")
                    )
                })
                .collect();
            let spans: Vec<String> = totals
                .iter()
                .map(|(k, t)| {
                    format!(
                        "\"{}\":{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
                        escape(k),
                        t.count,
                        fmt_f64(t.total_us),
                        fmt_f64(t.max_us)
                    )
                })
                .collect();
            let warnings: Vec<String> = s
                .warnings
                .iter()
                .map(|w| {
                    format!(
                        "{{\"code\":\"{}\",\"message\":\"{}\",\"ts_us\":{}}}",
                        escape(w.code),
                        escape(&w.message),
                        fmt_f64(w.ts_us)
                    )
                })
                .collect();
            format!(
                "{{\"format\":\"sgmap-metrics\",\"version\":1,\"counters\":{{{}}},\"histograms\":{{{}}},\"spans\":{{{}}},\"warnings\":[{}]}}\n",
                counters.join(","),
                histograms.join(","),
                spans.join(","),
                warnings.join(",")
            )
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
    fn float_formatting_matches_sweep_dialect() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
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
