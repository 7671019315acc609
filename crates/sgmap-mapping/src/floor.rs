//! An exact floor on `Tmax`: the best compute balance the partition times
//! admit on the allowed GPUs.
//!
//! Every mapping's `Tmax` is at least its busiest GPU's time, so the optimal
//! compute-only makespan of the PDG's partition times is a lower bound on
//! the mapper ILP's optimum. The GPUs are uniform machines: GPU `j` runs
//! work `w` in `w · time_factor(j)`, so heterogeneous boxes and survivor
//! subsets are covered too. When an incumbent meets this floor nothing
//! strictly better exists, and branch and bound can stop. The floor is not
//! put into the LP: every relaxation stays the one the model states.
//!
//! The floor is found by an exhaustive branch and bound over the partitions
//! in decreasing time, started from a longest-processing-time schedule:
//!
//! * **capacity:** a partial assignment is dropped when the remaining work
//!   cannot fit below the best makespan on the room the GPUs have left;
//! * **equal times:** partitions of equal time are interchangeable, so a run
//!   of them takes GPUs in non-decreasing order (each multiset once);
//! * **equal GPUs:** among the GPUs a partition may take, those with the
//!   same time factor and the same load are interchangeable, so only the
//!   first is tried;
//! * **an all-equal tail** is filled by counting: its optimal completion
//!   takes the cheapest finishing slots over all GPUs, one at a time.
//!
//! The search visits at most [`NODE_CAP`] nodes and reads no clock; a search
//! that hits the cap gives no floor, and the mapper solves as without one.

use sgmap_gpusim::Platform;

/// Node budget of one floor search. The budget-limited paper-grid maps,
/// whose partitions are mostly of equal time, need a few dozen nodes. A
/// search that reaches the cap (75 distinct partition times on 2 GPUs, as
/// on the synthetic pipelines) costs about 0.13 ms on a 2-vCPU Xeon VM, and
/// the mapper then solves as without a floor.
const NODE_CAP: u64 = 4_096;

/// The static lower bound on `Tmax` the mapper ILP puts on its `Tmax`
/// column: the larger of the total work over the allowed GPUs' capacity and
/// [`pigeonhole_bound`].
pub(crate) fn static_bound(times_us: &[f64], platform: &Platform, allowed: &[usize]) -> f64 {
    let total_work: f64 = times_us.iter().sum();
    // With heterogeneous devices the aggregate capacity is the sum of the
    // inverse time factors (exactly the GPU count on homogeneous platforms).
    let capacity: f64 = allowed.iter().map(|&j| 1.0 / platform.time_factor(j)).sum();
    (total_work / capacity).max(pigeonhole_bound(times_us, platform, allowed))
}

/// The makespan lower bound for identical machines (Dell'Amico & Martello,
/// "Optimal scheduling of tasks on identical parallel processors", ORSA J.
/// Computing 7(2), 1995) on the `allowed` GPUs. With the partition times
/// sorted in descending order, the `kG + 1` largest share `G` GPUs, so some
/// GPU receives `k + 1` of them, which take at least the `k + 1` smallest of
/// those, `p[kG - k] + … + p[kG]` (0-based), even on the fastest allowed
/// device. `k = 0` is the largest single partition.
pub(crate) fn pigeonhole_bound(times_us: &[f64], platform: &Platform, allowed: &[usize]) -> f64 {
    let gpus = allowed.len();
    let fastest = allowed
        .iter()
        .map(|&j| platform.time_factor(j))
        .fold(f64::INFINITY, f64::min);
    let mut sorted = times_us.to_vec();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    let work = (0..sorted.len())
        .step_by(gpus)
        .map(|kg| sorted[kg - kg / gpus..=kg].iter().sum::<f64>())
        .fold(0.0, f64::max);
    work * fastest
}

/// The optimal compute-only makespan of `times_us` on the `allowed` GPUs,
/// or `None` when the search hits its node cap. Records the search's nodes
/// in the `map.floor_nodes` trace counter and a capped search in
/// `map.floor_capped`.
pub(crate) fn makespan_floor(
    times_us: &[f64],
    platform: &Platform,
    allowed: &[usize],
) -> Option<f64> {
    let factors: Vec<f64> = allowed.iter().map(|&j| platform.time_factor(j)).collect();
    let lower = static_bound(times_us, platform, allowed);
    let (floor, nodes) = optimal_makespan(times_us, &factors, lower, NODE_CAP);
    sgmap_trace::add("map.floor_nodes", nodes);
    if floor.is_none() {
        sgmap_trace::add("map.floor_capped", 1);
    }
    floor
}

/// Whether a mapping's `tmax` meets `floor`, within the tolerance the
/// branch-and-bound solver uses to call one objective better than another:
/// then no mapping is better by more than rounding noise.
pub(crate) fn meets_floor(tmax: f64, floor: f64) -> bool {
    tmax <= floor + 1e-12
}

/// The search's node cap was reached.
struct Capped;

/// The state of one floor search.
struct Search<'a> {
    /// Partition times, in decreasing order.
    times: Vec<f64>,
    /// `remaining[i]`: the total time of partitions `i..`.
    remaining: Vec<f64>,
    factors: &'a [f64],
    /// Unscaled work on each GPU.
    loads: Vec<f64>,
    /// The best makespan found so far.
    best: f64,
    /// A valid lower bound: the search ends once `best` meets it.
    lower: f64,
    nodes: u64,
    cap: u64,
}

/// The optimal makespan of `times_us` on uniform machines with time
/// `factors`, and the nodes the search visited: `None` once it would visit
/// more than `cap`. `lower` is a valid lower bound that ends the search
/// early when the best schedule found meets it.
fn optimal_makespan(times_us: &[f64], factors: &[f64], lower: f64, cap: u64) -> (Option<f64>, u64) {
    let mut times = times_us.to_vec();
    times.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut remaining = vec![0.0; times.len() + 1];
    for i in (0..times.len()).rev() {
        remaining[i] = remaining[i + 1] + times[i];
    }
    let mut search = Search {
        best: f64::INFINITY,
        loads: vec![0.0; factors.len()],
        times,
        remaining,
        factors,
        lower,
        nodes: 0,
        cap,
    };
    // Longest processing time first: each partition to the GPU that would
    // finish it earliest.
    search.fill(0);
    search.loads.iter_mut().for_each(|w| *w = 0.0);
    match search.descend(0, 0) {
        Ok(()) => (Some(search.best), search.nodes),
        Err(Capped) => (None, search.nodes),
    }
}

impl Search<'_> {
    /// Places partitions `from..` one at a time, each on the GPU that would
    /// finish it earliest (ties to the lowest index), and keeps the makespan
    /// if it beats the best. For partitions of one time this is optimal: it
    /// takes the cheapest finishing slots of all GPUs.
    fn fill(&mut self, from: usize) {
        for &t in &self.times[from..] {
            let finish = |j: usize| self.factors[j] * (self.loads[j] + t);
            let j = (0..self.factors.len())
                .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
                .expect("at least one GPU");
            self.loads[j] += t;
        }
        let makespan = self.makespan();
        if makespan < self.best {
            self.best = makespan;
        }
    }

    fn makespan(&self) -> f64 {
        self.loads
            .iter()
            .zip(self.factors)
            .map(|(w, f)| w * f)
            .fold(0.0, f64::max)
    }

    /// Searches every placement of partition `i..` that could beat the best
    /// makespan; `lo` is the GPU of partition `i - 1`.
    fn descend(&mut self, i: usize, lo: usize) -> Result<(), Capped> {
        if self.best <= self.lower {
            return Ok(());
        }
        self.nodes += 1;
        if self.nodes > self.cap {
            return Err(Capped);
        }
        // The room each GPU has left below the best makespan; a GPU with
        // none already rules out a better schedule.
        let mut room = 0.0;
        for (w, f) in self.loads.iter().zip(self.factors) {
            if w * f >= self.best {
                return Ok(());
            }
            room += self.best / f - w;
        }
        if self.remaining[i] >= room {
            return Ok(());
        }
        let n = self.times.len();
        if i == n || self.times[i] == self.times[n - 1] {
            let saved = self.loads.clone();
            self.fill(i);
            self.loads = saved;
            return Ok(());
        }
        let t = self.times[i];
        let first = if i > 0 && t == self.times[i - 1] {
            lo
        } else {
            0
        };
        for j in first..self.factors.len() {
            let (factor, load) = (self.factors[j], self.loads[j]);
            let twin = (first..j).any(|k| self.factors[k] == factor && self.loads[k] == load);
            if twin || factor * (load + t) >= self.best {
                continue;
            }
            self.loads[j] = load + t;
            self.descend(i + 1, j)?;
            self.loads[j] = load;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact optimum by enumerating every assignment.
    fn brute_force(times: &[f64], factors: &[f64]) -> f64 {
        let g = factors.len();
        let mut best = f64::INFINITY;
        for code in 0..g.pow(times.len() as u32) {
            let mut rest = code;
            let mut loads = vec![0.0; g];
            for &t in times {
                loads[rest % g] += t;
                rest /= g;
            }
            let makespan = loads
                .iter()
                .zip(factors)
                .map(|(w, f)| w * f)
                .fold(0.0, f64::max);
            best = best.min(makespan);
        }
        best
    }

    #[test]
    fn an_all_equal_tail_is_filled_by_counting() {
        // 31 equal partitions after two large ones, as FMRadio-16 on four
        // GPUs has: one node for the tail once the large ones are placed.
        let mut times = vec![5.0, 4.0];
        times.extend(std::iter::repeat_n(1.0, 31));
        let (floor, nodes) = optimal_makespan(&times, &[1.0; 4], 0.0, NODE_CAP);
        assert_eq!(floor, Some(10.0));
        assert!(nodes <= 8, "{nodes} nodes");
    }

    #[test]
    fn a_capped_search_gives_no_floor() {
        let times: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 * 0.013).collect();
        let (floor, nodes) = optimal_makespan(&times, &[1.0, 1.0, 1.3], 0.0, 64);
        assert_eq!(floor, None);
        assert_eq!(nodes, 65);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// With no cap in reach, the search finds the exact optimum on
        /// identical and uniform machines, with and without equal times.
        #[test]
        fn the_floor_is_the_exact_compute_optimum(
            picks in prop::collection::vec(0usize..4, 1..8),
            jitter in prop::collection::vec(0.0f64..4.0, 8..9),
            gpus in prop::collection::vec(0usize..4, 2..5),
        ) {
            let equal: Vec<f64> = picks.iter().map(|&k| [1.0, 2.5, 3.0, 7.25][k]).collect();
            let mixed: Vec<f64> = equal.iter().zip(&jitter).map(|(t, j)| t + j).collect();
            let factors: Vec<f64> = gpus.iter().map(|&k| [1.0, 1.0, 0.8, 1.6][k]).collect();
            for times in [&equal, &mixed] {
                let (floor, _) = optimal_makespan(times, &factors, 0.0, u64::MAX);
                let exact = brute_force(times, &factors);
                prop_assert!(
                    (floor.unwrap() - exact).abs() <= 1e-12 * exact,
                    "{times:?} on {factors:?}: floor {floor:?}, optimum {exact}"
                );
            }
        }
    }
}
