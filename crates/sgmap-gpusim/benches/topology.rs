//! Micro-benchmarks of the topology hot paths driving ILP constraint
//! generation: building the per-link `D_l` terms needs `route()` for every
//! communicating GPU pair and `dtlist()` for every link. Both are O(1) table
//! lookups precomputed at build time, timed here on an 8-GPU platform.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sgmap_gpusim::{Endpoint, PlatformSpec, Topology};

/// One constraint-generation pass: accumulate route lengths over every
/// ordered GPU pair (the III.6/III.7 crossing terms) plus the host routes.
fn constraint_pass_lookup(topo: &Topology) -> usize {
    let g = topo.gpu_count();
    let mut hops = 0;
    for i in 0..g {
        for j in 0..g {
            if i != j {
                hops += topo.route(Endpoint::Gpu(i), Endpoint::Gpu(j)).len();
            }
        }
        hops += topo.route(Endpoint::Host, Endpoint::Gpu(i)).len();
        hops += topo.route(Endpoint::Gpu(i), Endpoint::Host).len();
    }
    hops
}

fn dtlist_pass_lookup(topo: &Topology) -> usize {
    topo.link_ids().map(|l| topo.dtlist(l).len()).sum()
}

fn bench_topology(c: &mut Criterion) {
    let topo = PlatformSpec::nvlink8_m2090()
        .build()
        .expect("preset builds")
        .topology;

    c.bench_function("topology/routes/nvlink8/precomputed", |b| {
        b.iter(|| constraint_pass_lookup(black_box(&topo)))
    });
    c.bench_function("topology/dtlists/nvlink8/precomputed", |b| {
        b.iter(|| dtlist_pass_lookup(black_box(&topo)))
    });
}

criterion_group!(benches, bench_topology);
criterion_main!(benches);
