//! The mapper-shaped benchmark model, shared by the `simplex` bench and the
//! pivot-sequence golden test so both exercise the same bases.

use sgmap_ilp::{Model, ObjectiveSense, VarId};

/// A mapper-shaped model: minimise the makespan `t` of `p` partitions on
/// `g` GPUs with per-link communication rows — the min-max structure of
/// `map_ilp`, with the crossing rows per link as the paper states them
/// (`map_ilp` shares them per cut), sized like a mid-sized application.
/// Returns the model and the assignment binaries `n[partition][gpu]`.
pub fn mapper_model(p: usize, g: usize) -> (Model, Vec<Vec<VarId>>) {
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
