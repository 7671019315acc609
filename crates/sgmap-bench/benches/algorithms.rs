//! Criterion micro-benchmarks of the algorithmic kernels of the flow:
//! steady-state rate solving, shared-memory layout, partitioning, the LP/ILP
//! solver and the mapping formulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use sgmap_apps::App;
use sgmap_gpusim::{sm_layout, GpuSpec, Platform};
use sgmap_graph::NodeSet;
use sgmap_ilp::{Model, ObjectiveSense, Solver};
use sgmap_mapping::{map_greedy, map_ilp, MappingOptions};
use sgmap_partition::{build_pdg, PartitionRequest, Pdg, PdgEdge};
use sgmap_pee::Estimator;

fn bench_rates_and_layout(c: &mut Criterion) {
    let graph = App::Bitonic.build(32).unwrap();
    c.bench_function("repetition_vector/bitonic32", |b| {
        b.iter(|| graph.repetition_vector().unwrap())
    });
    let reps = graph.repetition_vector().unwrap();
    let all = NodeSet::all(&graph);
    c.bench_function("sm_footprint/bitonic32", |b| {
        b.iter(|| sm_layout::footprint(&graph, &all, &reps, false))
    });
}

fn bench_partitioning(c: &mut Criterion) {
    let graph = App::FmRadio.build(8).unwrap();
    c.bench_function("partition/proposed/fmradio8", |b| {
        b.iter(|| {
            let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
            PartitionRequest::new(&est).run().unwrap()
        })
    });
}

fn bench_ilp_solver(c: &mut Criterion) {
    c.bench_function("ilp/knapsack12", |b| {
        b.iter(|| {
            let mut m = Model::new(ObjectiveSense::Maximize);
            let items: Vec<_> = (0..12)
                .map(|i| m.add_binary(1.0 + f64::from(i % 5)))
                .collect();
            m.add_constraint_le(
                items
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                    .collect(),
                9.0,
            );
            Solver::new().solve(&m).unwrap()
        })
    });
}

fn synthetic_pdg() -> Pdg {
    let times: Vec<f64> = (0..12).map(|i| 5.0 + f64::from(i % 4) * 3.0).collect();
    let edges = (0..11)
        .map(|i| PdgEdge {
            from: i,
            to: i + 1,
            bytes_per_iteration: 256 << (i % 4),
        })
        .collect();
    let n = times.len();
    let mut primary_input_bytes = vec![0; n];
    primary_input_bytes[0] = 4096;
    let mut primary_output_bytes = vec![0; n];
    primary_output_bytes[n - 1] = 4096;
    Pdg {
        times_us: times,
        edges,
        primary_input_bytes,
        primary_output_bytes,
    }
}

fn bench_mapping(c: &mut Criterion) {
    let pdg = synthetic_pdg();
    let platform = Platform::quad_m2090();
    c.bench_function("mapping/greedy/12parts", |b| {
        b.iter(|| map_greedy(&pdg, &platform))
    });
    let mut group = c.benchmark_group("mapping/ilp");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("12parts_4gpus", |b| {
        b.iter(|| map_ilp(&pdg, &platform, &MappingOptions::default()).unwrap())
    });
    group.finish();

    // End-to-end PDG construction from a real application.
    let graph = App::Des.build(8).unwrap();
    let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
    let partitioning = PartitionRequest::new(&est).run().unwrap();
    let reps = graph.repetition_vector().unwrap();
    c.bench_function("pdg/build/des8", |b| {
        b.iter(|| build_pdg(&graph, &reps, &partitioning))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_rates_and_layout, bench_partitioning, bench_ilp_solver, bench_mapping
}
criterion_main!(benches);
