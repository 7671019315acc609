//! Micro-benchmarks of the revised bounded-variable simplex: presolve on vs
//! off, and cold solves vs warm-started dual reoptimisation after a single
//! branch-style bound tightening — the exact access pattern of the
//! branch-and-bound mapper.
//!
//! The `mapper80x2` / `mapper40x4` cases are sized like the benchmark's
//! ILPs (a few hundred rows, several basis refactorisations per solve), so
//! they show the LU refactorisation cost the small models hide.
//! `mapper100x6` (1116 rows) is sized like the hierarchical-platform ILPs
//! that dominate mapping time, where btran runs on its sparse path.
//! `cargo bench -p sgmap-ilp --bench simplex -- --test` runs every body
//! once as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sgmap_ilp::simplex::VarBound;
use sgmap_ilp::{simplex, LpSolver, Solver, SolverOptions};

#[path = "../tests/common/mapper.rs"]
mod mapper;

use mapper::mapper_model;

fn bench_lp_cores(c: &mut Criterion) {
    let (model, n) = mapper_model(16, 4);
    let branch = [VarBound {
        var: n[3][1].index(),
        lo: 1.0,
        hi: 1.0,
    }];

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

/// Benchmark-scale models: a cold LP and a node-limited branch-and-bound
/// with the node budgets of the pivot-sequence golden test.
fn bench_benchmark_scale(c: &mut Criterion) {
    for (p, g, max_nodes) in [(80, 2, 80), (40, 4, 80), (100, 6, 400)] {
        let (model, _) = mapper_model(p, g);
        c.bench_function(&format!("lp/revised-cold/mapper{p}x{g}"), |b| {
            b.iter(|| simplex::solve_lp(black_box(&model), &[]).unwrap())
        });
        let opts = SolverOptions {
            max_nodes,
            ..SolverOptions::default()
        };
        c.bench_function(&format!("ilp/bb-{max_nodes}-nodes/mapper{p}x{g}"), |b| {
            b.iter(|| {
                Solver::with_options(opts.clone())
                    .solve(black_box(&model))
                    .unwrap()
            })
        });
    }
}

criterion_group!(benches, bench_lp_cores, bench_bb, bench_benchmark_scale);
criterion_main!(benches);
