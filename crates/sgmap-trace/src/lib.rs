//! Zero-dependency structured tracing for the sgmap compile pipeline.
//!
//! The crate provides a [`Collector`] that records four kinds of data while a
//! compile (or a whole sweep) runs:
//!
//! - **spans** — RAII-guarded durations ([`Span`]) with `&'static str` names,
//!   nested per thread (each OS thread gets its own lane / Chrome `tid`),
//! - **counters** — monotonic `u64` counters keyed by `&'static str`,
//! - **histograms** — fixed log2-bucket [`Histogram`]s for value distributions,
//! - **warnings** — structured `(code, message)` pairs for conditions that were
//!   previously only visible as ad-hoc `eprintln!` output.
//!
//! Two pure-Rust exporters turn a collector into JSON:
//!
//! - [`Collector::chrome_trace_json`] — Chrome trace-event format, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>,
//! - [`Collector::metrics_json`] — a canonical aggregate-metrics document
//!   (sorted keys, stable formatting) for machine consumption.
//!
//! Both are built from [`json::Value`], the workspace's one JSON codec: a
//! deterministic writer, a recursive-descent reader and typed field getters
//! that name the offending key. It lives here because this is the one crate
//! every other crate already depends on; sweep reports, spec / platform /
//! estimate-cache files and `BENCH.json` use it too.
//!
//! # Attaching a collector
//!
//! A collector is attached with [`scope`], the one way to turn tracing on:
//! `scope(Some(&collector), || …)` installs it as the calling thread's
//! *ambient* collector for the duration of the closure, and the free helpers
//! ([`span`], [`span_with`], [`add`], [`record`], [`instant`], [`warn`])
//! record into whatever collector is ambient. Outside any scope they are a
//! no-op: one thread-local read and one branch, no allocation, no clock read,
//! so instrumented hot paths cost nothing when tracing is disabled. Scopes
//! nest; leaving one (normally or by unwinding) restores the outer collector,
//! and `scope(None, …)` keeps it.
//!
//! The ambient collector is per thread. Code that fans work out to
//! `std::thread::scope` workers captures [`current`] before spawning and
//! re-installs it with [`scope`] inside each worker.
//!
//! ```
//! use std::sync::Arc;
//! use sgmap_trace::{scope, Collector};
//!
//! let collector = Arc::new(Collector::new());
//! scope(Some(&collector), || {
//!     let _span = sgmap_trace::span("demo");
//!     sgmap_trace::add("demo.items", 3);
//! });
//! sgmap_trace::add("demo.items", 1); // outside the scope: not recorded
//! assert_eq!(collector.counter("demo.items"), 3);
//! ```
//!
//! Two pipeline entry points also accept a collector.
//! `PartitionRequest::with_trace` (`sgmap-partition`) installs it with
//! [`scope`] for the partition run it configures. `Estimator::with_trace`
//! (`sgmap-pee`) replaces the collector an estimator captures from the
//! ambient scope when it is built; the estimator keeps that handle, so its
//! `pee.*` counters reach one collector whichever thread queries it and
//! whenever. An estimator without a handle records into the collector
//! ambient at query time. Everything else, the `sgmap-core` compile flow
//! included, records into the ambient collector only.
//!
//! # Span / counter naming conventions
//!
//! Names are dotted lowercase, `<layer>.<what>`:
//!
//! | kind | names |
//! |------|-------|
//! | span | `graph.build`, `graph.analysis`, `partition`, `partition.prewarm`, `partition.phase1`..`partition.phase4`, `partition.coarsen`, `partition.initial`, `partition.refine`, `pdg.build`, `map`, `map.greedy`, `map.floor`, `map.model`, `map.repair`, `ilp.solve`, `ilp.node`, `codegen`, `execute`, `sweep.group`, `sweep.point` |
//! | counter | `graph.filters`, `graph.channels`, `partition.candidates_evaluated`, `partition.merges_accepted`, `partition.feasibility_hits`, `partition.feasibility_misses`, `partition.adjacency_rebuilds`, `partition.coarsen_levels`, `partition.refine_moves`, `pee.estimate_hits`, `pee.estimate_misses`, `pee.chars_merged`, `pee.chars_from_set`, `pee.chars_subtracted`, `pee.param_points`, `ilp.nodes`, `ilp.lp_iterations`, `ilp.lp_warm_starts`, `ilp.lp_cold_solves`, `ilp.refactorizations`, `ilp.bound_flips`, `ilp.budget_exhausted`, `ilp.numerical_fallbacks`, `ilp.bound_stops`, `map.floor_nodes`, `map.floor_capped`, `map.repairs`, `map.repair_moved_partitions`, `codegen.kernels`, `codegen.transfers`, `gpusim.kernel_launches`, `gpusim.transfers`, `sweep.compile_groups`, `sweep.points`, `sweep.panics_caught` |
//! | histogram | `pee.chars_from_set_size`, `pee.chars_merged_size`, `pee.chars_subtracted_size` |
//! | instant | `sweep.cache_loaded`, `sweep.cache_saved`, `sweep.summary` |
//! | warning | `cache.load_failed`, `cache.save_failed`, `ilp.no_integer_solution`, `ilp.numerical_fallback`, `sweep.group_panicked`, `sweep.point_panicked` |
//!
//! The layers only ever *write* to the collector; no computation reads it
//! back, which is what keeps traced and untraced runs byte-identical.

mod collector;
mod export;
mod histogram;
pub mod json;

pub use collector::{ArgValue, Collector, Span, SpanTotals, Warning};
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};

use std::cell::{Cell, RefCell};
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
    /// Whether `CURRENT` holds a collector. A plain flag, so the disabled
    /// check is one load without the lazy-destructor bookkeeping of `CURRENT`.
    /// Checking `CURRENT` alone measured ~18 ns per disabled span and ~2 ns
    /// per disabled counter, against ~5 ns and ~0.8 ns with this flag
    /// (`benches/overhead.rs`, 2-vCPU Xeon VM, three alternating runs).
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with `collector` installed as this thread's ambient collector.
///
/// The previous ambient collector is restored when `f` returns or unwinds.
/// `None` leaves the ambient collector as it is, so a caller without a
/// collector of its own keeps recording into the outer one.
pub fn scope<R>(collector: Option<&Arc<Collector>>, f: impl FnOnce() -> R) -> R {
    let Some(collector) = collector else {
        return f();
    };
    ENABLED.set(true);
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(Arc::clone(collector)))));
    f()
}

/// Puts the outer ambient collector back when a [`scope`] ends.
struct Restore(Option<Arc<Collector>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let outer = self.0.take();
        // The thread-locals are gone only while the thread itself is exiting.
        let _ = ENABLED.try_with(|e| e.set(outer.is_some()));
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = outer);
    }
}

/// The calling thread's ambient collector, if a [`scope`] installed one.
pub fn current() -> Option<Arc<Collector>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `f` on the ambient collector, if there is one.
#[inline]
fn with_current(f: impl FnOnce(&Arc<Collector>)) {
    if ENABLED.get() {
        CURRENT.with(|c| {
            if let Some(c) = &*c.borrow() {
                f(c)
            }
        });
    }
}

/// Open a span named `name` in the ambient collector, or an inert guard when
/// there is none. The span ends (and is recorded) when the guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new())
}

/// Like [`span`] but with structured arguments attached to the span event.
#[inline]
pub fn span_with(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> Span {
    if !ENABLED.get() {
        return Span::disabled(name);
    }
    CURRENT.with(|c| match &*c.borrow() {
        Some(c) => c.open_span(name, args),
        None => Span::disabled(name),
    })
}

/// Add `delta` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn add(name: &'static str, delta: u64) {
    with_current(|c| c.add(name, delta));
}

/// Record `value` into the log2-bucket histogram `name` (no-op when disabled).
#[inline]
pub fn record(name: &'static str, value: u64) {
    with_current(|c| c.record(name, value));
}

/// Emit an instant (zero-duration) event (no-op when disabled).
pub fn instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    with_current(|c| c.instant(name, args));
}

/// Route a warning through the structured API: it always reaches stderr as
/// the legacy human-readable `warning:` line, and with a collector ambient
/// it is additionally recorded (machine-readable, exported in both formats).
pub fn warn(code: &'static str, message: String) {
    eprintln!("warning: {message}");
    with_current(|c| c.warning(code, message));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scope_restores_the_outer_collector() {
        let outer = Arc::new(Collector::new());
        let inner = Arc::new(Collector::new());
        scope(Some(&outer), || {
            add("n", 1);
            scope(Some(&inner), || add("n", 10));
            add("n", 100);
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        });
        assert_eq!(outer.counter("n"), 101);
        assert_eq!(inner.counter("n"), 10);
        assert!(current().is_none());
        assert!(
            !ENABLED.get(),
            "leaving the scope restores the disabled fast path"
        );
    }

    #[test]
    fn scope_none_keeps_the_outer_collector() {
        let outer = Arc::new(Collector::new());
        scope(Some(&outer), || {
            scope(None, || {
                add("n", 2);
                let _s = span("in.none");
            });
        });
        assert_eq!(outer.counter("n"), 2);
        assert_eq!(outer.span_totals()["in.none"].count, 1);
        assert!(scope(None, current).is_none());
    }

    #[test]
    fn panic_inside_a_scope_restores_the_outer_collector() {
        let outer = Arc::new(Collector::new());
        let inner = Arc::new(Collector::new());
        scope(Some(&outer), || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scope(Some(&inner), || {
                    let _s = span("unwound");
                    add("n", 5);
                    panic!("isolated failure");
                })
            }));
            assert!(caught.is_err());
            add("n", 1);
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        });
        assert_eq!(outer.counter("n"), 1);
        assert_eq!(inner.counter("n"), 5);
        // The span guard still records while unwinding.
        assert_eq!(inner.span_totals()["unwound"].count, 1);
        assert!(current().is_none());
        assert!(!ENABLED.get());
    }

    #[test]
    fn a_span_outliving_its_scope_records_into_its_own_collector() {
        let c = Arc::new(Collector::new());
        let s = scope(Some(&c), || span("escaped"));
        drop(s);
        assert_eq!(c.span_totals()["escaped"].count, 1);
    }
}
