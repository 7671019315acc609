//! Micro-benchmarks of the estimator's hot paths: cache hits vs misses, and
//! the incremental characteristics algebra vs the reference rescan.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sgmap_apps::App;
use sgmap_gpusim::profile::profile_graph;
use sgmap_gpusim::GpuSpec;
use sgmap_graph::NodeSet;
use sgmap_pee::{merge_characteristics, CharsIndex, Estimator, PartitionCharacteristics};

fn bench_estimate_paths(c: &mut Criterion) {
    let graph = App::FmRadio.build(12).unwrap();
    let all = NodeSet::all(&graph);

    // Hit path: the same set queried over and over (the partition search's
    // common case — every merge iteration re-evaluates known candidates).
    let warm = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
    warm.estimate(&all);
    c.bench_function("estimator/hit/fmradio12-all", |b| {
        b.iter(|| warm.estimate(black_box(&all)))
    });

    // Miss path: a fresh estimator per iteration, so the query pays
    // characteristics + parameter search (profile construction included;
    // it is the same for both and dominated by the parameter search).
    c.bench_function("estimator/miss/fmradio12-all", |b| {
        b.iter(|| {
            let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
            est.estimate(black_box(&all))
        })
    });
}

fn bench_characteristics(c: &mut Criterion) {
    let graph = App::FmRadio.build(12).unwrap();
    let reps = graph.repetition_vector().unwrap();
    let profile = profile_graph(&graph, &GpuSpec::m2090());
    let index = CharsIndex::new(&graph, &reps, &profile);

    // A typical merge candidate: two small adjacent pieces of a much larger
    // graph. The reference rescan pays O(|graph|) regardless of the set
    // size; the indexed and merged paths pay O(|set|).
    let ids: Vec<_> = graph.filter_ids().collect();
    let mid = ids.len() / 2;
    let front = NodeSet::from_ids(ids[mid - 3..mid].iter().copied());
    let back = NodeSet::from_ids(ids[mid..mid + 3].iter().copied());
    let union = front.union(&back);
    let front_chars = index.for_set(&graph, &front, false);
    let back_chars = index.for_set(&graph, &back, false);

    c.bench_function("chars/from_set/fmradio12-union", |b| {
        b.iter(|| {
            PartitionCharacteristics::from_set(
                black_box(&graph),
                black_box(&union),
                &reps,
                &profile,
                false,
            )
        })
    });
    c.bench_function("chars/indexed_for_set/fmradio12-union", |b| {
        b.iter(|| index.for_set(black_box(&graph), black_box(&union), false))
    });
    c.bench_function("chars/merge/fmradio12-union", |b| {
        b.iter(|| {
            merge_characteristics(
                &index,
                black_box(&graph),
                false,
                &[(&front, &front_chars), (&back, &back_chars)],
                &union,
            )
        })
    });
}

criterion_group!(benches, bench_estimate_paths, bench_characteristics);
criterion_main!(benches);
