//! Micro-benchmarks of the LP cores: the dense two-phase tableau vs the
//! revised bounded-variable simplex, presolve on vs off, and cold solves vs
//! warm-started dual reoptimisation after a single branch-style bound
//! tightening — the exact access pattern of the branch-and-bound mapper.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sgmap_ilp::simplex::VarBound;
use sgmap_ilp::{dense, simplex, LpSolver, Model, ObjectiveSense, Solver, SolverOptions, VarId};

/// A mapper-shaped model: minimise the makespan `t` of `p` partitions on
/// `g` GPUs with per-link communication rows — the same min-max structure
/// `map_ilp` emits, sized like a mid-sized application.
fn mapper_model(p: usize, g: usize) -> (Model, Vec<Vec<VarId>>) {
    let mut m = Model::new(ObjectiveSense::Minimize);
    let t = m.add_continuous("t", 1.0);
    let mut n: Vec<Vec<VarId>> = Vec::with_capacity(p);
    for i in 0..p {
        n.push(
            (0..g)
                .map(|j| m.add_binary(format!("n_{i}_{j}"), 0.0))
                .collect(),
        );
    }
    for ni in &n {
        m.add_constraint_eq(ni.iter().map(|&v| (v, 1.0)).collect(), 1.0);
    }
    // Deterministic pseudo-random workloads.
    let work = |i: usize| 3.0 + ((i * 7919) % 13) as f64;
    for j in 0..g {
        let mut terms: Vec<(VarId, f64)> = n
            .iter()
            .enumerate()
            .map(|(i, ni)| (ni[j], work(i)))
            .collect();
        terms.push((t, -1.0));
        m.add_constraint_le(terms, 0.0);
    }
    // Chain-communication rows: an x-variable per edge per "link", lower
    // bounded by the crossing indicator, its volume charged against t.
    for l in 0..2 * (g - 1) {
        let mut load: Vec<(VarId, f64)> = Vec::new();
        for e in 0..p - 1 {
            let x = m.add_continuous(format!("x_{e}_{l}"), 0.0);
            m.set_bounds(x, 0.0, 1.0);
            let (a, b) = (l / 2, l / 2 + 1);
            m.add_constraint_le(vec![(n[e][a], 1.0), (n[e + 1][b], 1.0), (x, -1.0)], 1.0);
            load.push((x, 64.0 + ((e * 31) % 5) as f64 * 16.0));
        }
        let d = m.add_continuous(format!("d_{l}"), 0.0);
        load.push((d, -1.0));
        m.add_constraint_le(load, 0.0);
        m.add_constraint_le(vec![(d, 1.0 / 512.0), (t, -1.0)], 0.0);
    }
    let total: f64 = (0..p).map(work).sum();
    m.set_bounds(t, total / g as f64, f64::INFINITY);
    (m, n)
}

fn bench_lp_cores(c: &mut Criterion) {
    let (model, n) = mapper_model(16, 4);
    let branch = [VarBound {
        var: n[3][1].index(),
        lo: 1.0,
        hi: 1.0,
    }];

    c.bench_function("lp/dense/mapper16x4", |b| {
        b.iter(|| dense::solve_lp(black_box(&model), &[]).unwrap())
    });
    c.bench_function("lp/revised-cold/mapper16x4", |b| {
        b.iter(|| simplex::solve_lp(black_box(&model), &[]).unwrap())
    });
    // Warm path: solve once cold, then time the dual reoptimisation after a
    // single bound tightening (alternating with the relaxation so every
    // iteration really re-solves).
    c.bench_function("lp/revised-warm/mapper16x4", |b| {
        let mut solver = LpSolver::new(&model).unwrap();
        solver.solve(&[]).unwrap();
        b.iter(|| {
            solver.solve(black_box(&branch)).unwrap();
            solver.solve(&[]).unwrap()
        })
    });
}

fn bench_bb(c: &mut Criterion) {
    let (model, _) = mapper_model(12, 2);
    c.bench_function("ilp/bb-warm-started/mapper12x2", |b| {
        b.iter(|| Solver::new().solve(black_box(&model)).unwrap())
    });
    c.bench_function("ilp/bb-no-presolve/mapper12x2", |b| {
        let opts = SolverOptions {
            presolve: false,
            ..SolverOptions::default()
        };
        b.iter(|| {
            Solver::with_options(opts.clone())
                .solve(black_box(&model))
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_lp_cores, bench_bb);
criterion_main!(benches);
