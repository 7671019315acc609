//! Output checks written independently of the crates they check: a job whose
//! output fails one of them counts as failed.

use sgmap_mapping::Mapping;
use sgmap_partition::{Partitioning, Pdg};

/// Every filter of a `filter_count`-filter graph is in exactly one
/// partition.
pub fn partition_cover(filter_count: usize, partitioning: &Partitioning) -> Result<(), String> {
    let mut owner: Vec<Option<usize>> = vec![None; filter_count];
    for (p, partition) in partitioning.iter().enumerate() {
        for id in partition.nodes.iter() {
            let slot = owner
                .get_mut(id.index())
                .ok_or_else(|| format!("partition {p} holds unknown filter {}", id.index()))?;
            if let Some(other) = slot.replace(p) {
                return Err(format!(
                    "filter {} is in partitions {other} and {p}",
                    id.index()
                ));
            }
        }
    }
    match owner.iter().position(Option::is_none) {
        Some(f) => Err(format!("filter {f} is in no partition")),
        None => Ok(()),
    }
}

/// The partition dependence graph is acyclic (Kahn's algorithm; unlike
/// `Pdg::topological_order`, a cycle is an error rather than a panic).
pub fn pdg_acyclic(pdg: &Pdg) -> Result<(), String> {
    let n = pdg.len();
    let mut indegree = vec![0usize; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &pdg.edges {
        if e.from >= n || e.to >= n {
            return Err(format!("PDG edge {}->{} leaves the graph", e.from, e.to));
        }
        indegree[e.to] += 1;
        successors[e.from].push(e.to);
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut visited = 0;
    while let Some(u) = ready.pop() {
        visited += 1;
        for &v in &successors[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push(v);
            }
        }
    }
    if visited == n {
        Ok(())
    } else {
        Err(format!(
            "PDG has a cycle through {} of {n} partitions",
            n - visited
        ))
    }
}

/// The mapping assigns each of `partitions` partitions to one of `gpus`
/// GPUs.
pub fn assignment(mapping: &Mapping, partitions: usize, gpus: usize) -> Result<(), String> {
    if mapping.assignment.len() != partitions {
        return Err(format!(
            "assignment covers {} partitions, expected {partitions}",
            mapping.assignment.len()
        ));
    }
    match mapping.assignment.iter().find(|&&g| g >= gpus) {
        Some(g) => Err(format!("partition assigned to GPU {g} of {gpus}")),
        None => Ok(()),
    }
}

/// A simulated time per iteration is finite and positive.
pub fn sim_time(us_per_iteration: f64) -> Result<(), String> {
    if us_per_iteration.is_finite() && us_per_iteration > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "simulated time per iteration is {us_per_iteration}"
        ))
    }
}

/// The ILP's predicted bottleneck is no higher than the greedy mapper's on
/// the same PDG and platform (the greedy mapping is the ILP's warm start).
pub fn ilp_not_worse(ilp: &Mapping, greedy: &Mapping) -> Result<(), String> {
    if ilp.predicted_tmax_us <= greedy.predicted_tmax_us {
        Ok(())
    } else {
        Err(format!(
            "ILP predicts Tmax {} us, worse than greedy's {} us",
            ilp.predicted_tmax_us, greedy.predicted_tmax_us
        ))
    }
}
