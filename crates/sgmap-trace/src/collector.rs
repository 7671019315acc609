use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::Histogram;

/// A structured argument value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    Str(String),
    Uint(u64),
    Float(f64),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Uint(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::Uint(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

/// A structured warning recorded through [`Collector::warning`].
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    pub code: &'static str,
    pub message: String,
    pub ts_us: f64,
}

#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// Completed span with a duration.
    Span { dur_us: f64 },
    /// Zero-duration instant event.
    Instant,
}

#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub name: &'static str,
    pub lane: u64,
    pub ts_us: f64,
    pub kind: EventKind,
    pub args: Vec<(&'static str, ArgValue)>,
}

#[derive(Default)]
pub(crate) struct State {
    pub events: Vec<Event>,
    pub counters: BTreeMap<&'static str, u64>,
    pub histograms: BTreeMap<&'static str, Histogram>,
    pub warnings: Vec<Warning>,
}

/// Aggregate statistics for all spans sharing a name, computed on demand by
/// [`Collector::span_totals`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: f64,
    pub max_us: f64,
}

/// Thread-safe trace collector: spans, counters, histograms, warnings.
///
/// A `Collector` is write-only during a compile — nothing in the pipeline
/// reads it back — so attaching one cannot perturb results. All recording
/// methods take `&self`; share it across threads via `Arc<Collector>`.
pub struct Collector {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().unwrap();
        f.debug_struct("Collector")
            .field("events", &s.events.len())
            .field("counters", &s.counters.len())
            .field("histograms", &s.histograms.len())
            .field("warnings", &s.warnings.len())
            .finish()
    }
}

/// Per-thread lane id used as the Chrome-trace `tid`. Lanes are handed out in
/// first-touch order starting at 1, so single-threaded runs always trace on
/// lane 1.
fn lane() -> u64 {
    static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Microseconds since the collector was created.
    pub(crate) fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span carrying structured arguments; it is recorded when the
    /// returned guard drops. Spans are opened through [`crate::span_with`].
    pub(crate) fn open_span(
        self: &Arc<Self>,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        Span {
            collector: Some(Arc::clone(self)),
            name,
            start_us: self.now_us(),
            args,
        }
    }

    /// Record a zero-duration instant event.
    pub fn instant(&self, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        let ts_us = self.now_us();
        let lane = lane();
        let mut s = self.state.lock().unwrap();
        s.events.push(Event {
            name,
            lane,
            ts_us,
            kind: EventKind::Instant,
            args,
        });
    }

    /// Record a structured warning (also visible in both export formats).
    pub fn warning(&self, code: &'static str, message: impl Into<String>) {
        let ts_us = self.now_us();
        let mut s = self.state.lock().unwrap();
        s.warnings.push(Warning {
            code,
            message: message.into(),
            ts_us,
        });
    }

    /// Add `delta` to the monotonic counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut s = self.state.lock().unwrap();
        *s.counters.entry(name).or_insert(0) += delta;
    }

    /// Record `value` into the histogram `name`.
    pub fn record(&self, name: &'static str, value: u64) {
        let mut s = self.state.lock().unwrap();
        s.histograms.entry(name).or_default().record(value);
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        let s = self.state.lock().unwrap();
        s.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.state.lock().unwrap().counters.clone()
    }

    /// Snapshot of histogram `name`, if any values were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let s = self.state.lock().unwrap();
        s.histograms.get(name).cloned()
    }

    /// Snapshot of all recorded warnings.
    pub fn warnings(&self) -> Vec<Warning> {
        self.state.lock().unwrap().warnings.clone()
    }

    /// Aggregate per-name span statistics (count / total / max duration),
    /// computed from the raw event stream.
    pub fn span_totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let s = self.state.lock().unwrap();
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for ev in &s.events {
            if let EventKind::Span { dur_us } = ev.kind {
                let t = totals.entry(ev.name).or_default();
                t.count += 1;
                t.total_us += dur_us;
                t.max_us = t.max_us.max(dur_us);
            }
        }
        totals
    }

    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&State) -> R) -> R {
        f(&self.state.lock().unwrap())
    }

    fn finish_span(&self, name: &'static str, start_us: f64, args: Vec<(&'static str, ArgValue)>) {
        let dur_us = (self.now_us() - start_us).max(0.0);
        let lane = lane();
        let mut s = self.state.lock().unwrap();
        s.events.push(Event {
            name,
            lane,
            ts_us: start_us,
            kind: EventKind::Span { dur_us },
            args,
        });
    }
}

/// RAII span guard. Dropping it records the completed span into the
/// collector that was ambient when it opened, even if the guard outlives that
/// scope; a disabled guard is inert and costs a single branch on drop.
#[must_use = "a span is recorded when the guard drops; binding it to `_` ends it immediately"]
pub struct Span {
    collector: Option<Arc<Collector>>,
    name: &'static str,
    start_us: f64,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// An inert guard used when tracing is disabled.
    #[inline]
    pub(crate) fn disabled(name: &'static str) -> Span {
        Span {
            collector: None,
            name,
            start_us: 0.0,
            args: Vec::new(),
        }
    }

    /// Attach an argument to the span after it was opened (no-op if disabled).
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.collector.is_some() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(c) = &self.collector {
            c.finish_span(self.name, self.start_us, std::mem::take(&mut self.args));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of recorded events (spans + instants).
    fn event_count(c: &Collector) -> usize {
        c.state.lock().unwrap().events.len()
    }

    #[test]
    fn counters_accumulate() {
        let c = Collector::new();
        c.add("x", 2);
        c.add("x", 3);
        c.add("y", 1);
        assert_eq!(c.counter("x"), 5);
        assert_eq!(c.counter("y"), 1);
        assert_eq!(c.counter("missing"), 0);
        assert_eq!(c.counters().len(), 2);
    }

    #[test]
    fn spans_record_on_drop() {
        let c = Arc::new(Collector::new());
        {
            let _outer = c.open_span("outer", Vec::new());
            let mut inner = c.open_span("inner", Vec::new());
            inner.arg("k", 7u64);
        }
        assert_eq!(event_count(&c), 2);
        let totals = c.span_totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["inner"].count, 1);
        // The outer span encloses the inner one.
        assert!(totals["outer"].total_us >= totals["inner"].total_us);
    }

    /// Helpers called outside any scope record nothing anywhere, not even
    /// into a collector installed afterwards.
    #[test]
    fn disabled_span_is_inert() {
        let s = Span::disabled("nothing");
        drop(s);
        let mut g = crate::span("also-nothing");
        g.arg("k", 1u64);
        drop(g);
        crate::add("c", 1);
        crate::record("h", 1);
        crate::instant("i", Vec::new());
        assert!(crate::current().is_none());
        let c = Arc::new(Collector::new());
        crate::scope(Some(&c), || {});
        assert_eq!(event_count(&c), 0);
        assert!(c.counters().is_empty());
        assert!(c.histogram("h").is_none());
    }

    #[test]
    fn helpers_forward_when_enabled() {
        let c = Arc::new(Collector::new());
        crate::scope(Some(&c), || {
            let _s = crate::span("s");
            crate::add("n", 4);
            crate::record("h", 9);
            crate::instant("tick", vec![("v", ArgValue::Uint(1))]);
            crate::warn("w.code", "something odd".to_string());
        });
        assert_eq!(c.counter("n"), 4);
        assert_eq!(c.histogram("h").unwrap().count(), 1);
        assert_eq!(event_count(&c), 2); // span + instant
        let warnings = c.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].code, "w.code");
        assert_eq!(warnings[0].message, "something odd");
    }

    #[test]
    fn spans_from_multiple_threads_get_distinct_lanes() {
        let c = Arc::new(Collector::new());
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c2 = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let _s = c2.open_span("worker", Vec::new());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let lanes = c.with_state(|s| {
            s.events
                .iter()
                .map(|e| e.lane)
                .collect::<std::collections::BTreeSet<_>>()
        });
        assert_eq!(lanes.len(), 2);
    }
}
