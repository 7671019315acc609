//! Span overhead micro-benchmarks backing the numbers cited in the README.
//! "Disabled" means no collector scope is installed: a span or counter is
//! then one thread-local read and one branch (no clock read, no
//! allocation). "Enabled" runs inside `sgmap_trace::scope`: an enabled span
//! costs two clock reads, a reference-count bump and one mutex-guarded Vec
//! push; enabled counters and histograms one mutex-guarded map update.
//! `span_enabled` enters a scope per span so that it can recycle its
//! collector; `scope_enter` measures that entry on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sgmap_trace::{scope, Collector};
use std::sync::Arc;

fn bench_overhead(c: &mut Criterion) {
    let enabled = Arc::new(Collector::new());

    c.bench_function("span_disabled", |b| {
        b.iter(|| {
            let guard = sgmap_trace::span(black_box("bench.span"));
            black_box(&guard);
        });
    });

    c.bench_function("span_enabled", |b| {
        // Recycle the collector every 100k spans so the measurement reflects
        // the steady-state push, not the memory growth of a collector fed
        // tens of millions of events it would never see in real use.
        let mut collector = Arc::new(Collector::new());
        let mut spans = 0u32;
        b.iter(|| {
            spans += 1;
            if spans == 100_000 {
                collector = Arc::new(Collector::new());
                spans = 0;
            }
            scope(Some(&collector), || {
                let guard = sgmap_trace::span(black_box("bench.span"));
                black_box(&guard);
            });
        });
    });

    c.bench_function("scope_enter", |b| {
        b.iter(|| scope(black_box(Some(&enabled)), || ()));
    });

    c.bench_function("counter_disabled", |b| {
        b.iter(|| sgmap_trace::add(black_box("bench.counter"), 1));
    });

    scope(Some(&enabled), || {
        c.bench_function("counter_enabled", |b| {
            b.iter(|| sgmap_trace::add(black_box("bench.counter"), 1));
        });

        c.bench_function("histogram_enabled", |b| {
            b.iter(|| sgmap_trace::record(black_box("bench.hist"), black_box(17)));
        });
    });
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
