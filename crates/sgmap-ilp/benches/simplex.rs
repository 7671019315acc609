//! Micro-benchmarks of the solver on mapper-shaped models: cold LPs — the
//! continuous relaxation of a model, which [`Solver`] answers at its root
//! node — and node-limited branch-and-bound searches, whose nodes are
//! warm-started dual reoptimisations after one branch-style bound
//! tightening, the access pattern of the mapper.
//!
//! The `mapper80x2` / `mapper40x4` cases are sized like the benchmark's
//! ILPs (a few hundred rows, several basis refactorisations per solve), so
//! they show the LU refactorisation cost the small models hide.
//! `mapper100x6` (1116 rows) is sized like the hierarchical-platform ILPs
//! that dominate mapping time, where btran runs on its sparse path.
//! `cargo bench -p sgmap-ilp --bench simplex -- --test` runs every body
//! once as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sgmap_ilp::{Model, Solver, SolverOptions, VarId};

#[path = "../tests/common/mapper.rs"]
mod mapper;

use mapper::mapper_model;

/// The continuous relaxation of `model`: the same columns, bounds, costs
/// and rows with every binary continuous on its `[0, 1]` box, so a solve is
/// one cold LP at the root node.
fn relaxation(model: &Model) -> Model {
    let mut lp = Model::new(model.objective_sense());
    for i in 0..model.num_vars() {
        let var = VarId::from(i);
        let x = lp.add_continuous(model.objective_coefficient(var));
        let (lo, hi) = model.var_bounds(var);
        lp.set_bounds(x, lo, hi);
    }
    for row in 0..model.num_constraints() {
        let (terms, sense, rhs) = model.constraint(row);
        lp.add_constraint(terms.to_vec(), sense, rhs);
    }
    lp
}

fn bench_lp_cores(c: &mut Criterion) {
    let lp = relaxation(&mapper_model(16, 4).0);
    c.bench_function("lp/revised-cold/mapper16x4", |b| {
        b.iter(|| Solver::new().solve(black_box(&lp)).unwrap())
    });
}

fn bench_bb(c: &mut Criterion) {
    let (model, _) = mapper_model(12, 2);
    c.bench_function("ilp/bb-warm-started/mapper12x2", |b| {
        b.iter(|| Solver::new().solve(black_box(&model)).unwrap())
    });
}

/// Benchmark-scale models: a cold LP and a node-limited branch-and-bound
/// with the node budgets of the pivot-sequence golden test.
fn bench_benchmark_scale(c: &mut Criterion) {
    for (p, g, max_nodes) in [(80, 2, 80), (40, 4, 80), (100, 6, 400)] {
        let (model, _) = mapper_model(p, g);
        let lp = relaxation(&model);
        c.bench_function(&format!("lp/revised-cold/mapper{p}x{g}"), |b| {
            b.iter(|| Solver::new().solve(black_box(&lp)).unwrap())
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
