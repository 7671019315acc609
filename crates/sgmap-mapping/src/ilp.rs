//! The ILP formulation of communication-aware mapping (Section 3.2.2).
//!
//! Decision variables:
//!
//! * `n_ij` (binary) — partition `i` runs on GPU `j`,
//! * `x_el` (continuous, 0..1) — PDG edge `e`'s traffic crosses link `l`;
//!   linearised as `x_el >= A + B - 1` where `A` (`B`) says the producer
//!   (consumer) sits on the link's source (destination) side, derived from
//!   the topology's `dtlist(l)`,
//! * `d_l` (continuous) — bytes crossing link `l`, including the primary
//!   input/output travelling between the host and the partitions' GPUs,
//! * `Tmax` (continuous) — the objective.
//!
//! Per-transfer latency is excluded from the static objective (it is hidden
//! by the N-fragment pipelining and charged by the executor instead), so the
//! per-link time is the pure bandwidth term `d_l / BW`.
//!
//! Two valid cuts become `Tmax`'s lower bound, so they cost no rows: the
//! total work over the allowed GPUs' capacity, and the pigeonhole bound of
//! Dell'Amico & Martello (1995). With `G` allowed GPUs and the partition
//! times sorted in descending order, some GPU receives `k + 1` of the
//! `kG + 1` largest, for every `k` with `kG + 1 <= P`, and it runs them at
//! best at the fastest allowed GPU's speed. Without the second cut the root
//! LP of twelve partitions on eight GPUs sits well below a greedy warm start
//! that is already optimal, and the search spends its whole node budget
//! failing to close the gap.
//!
//! The model is warm-started with the greedy mapping and solved by the
//! branch-and-bound solver of `sgmap-ilp` under a configurable node budget,
//! the only budget: no clock is read, so a mapping is a function of its
//! inputs alone. If the budget runs out, the best incumbent (never worse
//! than the greedy warm start) is returned.

use sgmap_gpusim::{Endpoint, LinkId, Platform};
use sgmap_ilp::{IlpError, Model, ObjectiveSense, SolutionStatus, Solver, SolverOptions, VarId};
use sgmap_partition::Pdg;

use crate::evaluate::evaluate_assignment;
use crate::greedy::map_greedy;
use crate::{Mapping, MappingMethod};

/// Budget options for the ILP mapper.
#[derive(Debug, Clone)]
pub struct MappingOptions {
    /// Node budget for the branch-and-bound search.
    pub max_nodes: usize,
    /// Stop the search once the incumbent is proven within this relative gap
    /// of the best bound (`0.0` searches to optimality).
    pub relative_gap: f64,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            max_nodes: 600,
            relative_gap: 0.0,
        }
    }
}

/// Bookkeeping for the auxiliary variables of one PCIe link.
struct LinkVars {
    link: LinkId,
    d: VarId,
    /// `(edge index, x_el)` pairs.
    x: Vec<(usize, VarId)>,
}

/// Solves the partition-to-GPU mapping with the ILP formulation. The
/// branch-and-bound solver records per-node `ilp.node` spans plus pivot /
/// warm-start counters from its [`sgmap_ilp::SolveStats`] into the ambient
/// trace collector.
///
/// # Errors
///
/// Returns an error only if the solver fails in an unexpected way; budget
/// exhaustion falls back to the best feasible solution (at worst the greedy
/// warm start).
pub fn map_ilp(
    pdg: &Pdg,
    platform: &Platform,
    options: &MappingOptions,
) -> Result<Mapping, IlpError> {
    let allowed: Vec<usize> = (0..platform.gpu_count()).collect();
    let incumbent = map_greedy(pdg, platform);
    map_ilp_on(pdg, platform, options, &allowed, incumbent)
}

/// The ILP mapper restricted to a subset of the platform's GPUs: only GPUs in
/// `allowed` get assignment columns, so the solution never places a partition
/// elsewhere. `incumbent` is the warm start and fallback — it must already
/// respect the restriction. [`map_ilp`] is the unrestricted special
/// case; the repair path re-solves over the survivors of a lost device.
pub(crate) fn map_ilp_on(
    pdg: &Pdg,
    platform: &Platform,
    options: &MappingOptions,
    allowed: &[usize],
    incumbent: Mapping,
) -> Result<Mapping, IlpError> {
    let g = platform.gpu_count();
    let p = pdg.len();
    assert!(!allowed.is_empty(), "no GPUs to map onto");
    debug_assert!(incumbent.assignment.iter().all(|gpu| allowed.contains(gpu)));
    if p == 0 {
        return Ok(Mapping {
            assignment: Vec::new(),
            predicted_tmax_us: 0.0,
            per_gpu_time_us: vec![0.0; g],
            per_link_time_us: vec![0.0; platform.topology.link_count()],
            method: MappingMethod::Ilp,
            optimal: true,
            ilp_stats: sgmap_ilp::SolveStats::default(),
        });
    }
    if allowed.len() == 1 {
        let assignment = vec![allowed[0]; p];
        let cost = evaluate_assignment(pdg, platform, &assignment);
        return Ok(Mapping {
            assignment,
            predicted_tmax_us: cost.tmax_us,
            per_gpu_time_us: cost.per_gpu_time_us,
            per_link_time_us: cost.per_link_time_us,
            method: MappingMethod::Ilp,
            optimal: true,
            ilp_stats: sgmap_ilp::SolveStats::default(),
        });
    }

    let topo = &platform.topology;
    // Position of a global GPU index among the allowed columns.
    let mut pos_of: Vec<Option<usize>> = vec![None; g];
    for (pos, &j) in allowed.iter().enumerate() {
        pos_of[j] = Some(pos);
    }

    let mut model = Model::new(ObjectiveSense::Minimize);
    let tmax = model.add_continuous("tmax", 1.0);

    // n_ij, one column per allowed GPU.
    let mut n: Vec<Vec<VarId>> = Vec::with_capacity(p);
    for i in 0..p {
        n.push(
            allowed
                .iter()
                .map(|&j| model.add_binary(format!("n_{i}_{j}"), 0.0))
                .collect(),
        );
    }
    // Assignment constraints (III.5).
    for ni in &n {
        model.add_constraint_eq(ni.iter().map(|&v| (v, 1.0)).collect(), 1.0);
    }
    // GPU time constraints (III.1, III.4), with each device charging its
    // own (throughput-scaled) execution time.
    for (pos, &j) in allowed.iter().enumerate() {
        let factor = platform.time_factor(j);
        let mut terms: Vec<(VarId, f64)> = n
            .iter()
            .zip(&pdg.times_us)
            .map(|(ni, &t)| (ni[pos], t * factor))
            .collect();
        terms.push((tmax, -1.0));
        model.add_constraint_le(terms, 0.0);
    }
    // Valid cuts that tighten the LP relaxation (they cut off fractional
    // assignments but no integer one): the busiest GPU can never beat the
    // average load, nor the pigeonhole bound on the largest partitions. The
    // revised simplex handles variable bounds natively, so they cost no rows.
    let total_work: f64 = pdg.times_us.iter().sum();
    // With heterogeneous devices the aggregate capacity is the sum of the
    // inverse time factors (exactly the GPU count on homogeneous platforms).
    let capacity: f64 = allowed.iter().map(|&j| 1.0 / platform.time_factor(j)).sum();
    model.set_bounds(
        tmax,
        (total_work / capacity).max(pigeonhole_bound(&pdg.times_us, platform, allowed)),
        f64::INFINITY,
    );

    let mut link_vars: Vec<LinkVars> = Vec::new();
    for link in topo.link_ids() {
        let dtlist = topo.dtlist(link);
        // Source/destination sides of the link, restricted to GPUs that
        // actually have assignment columns.
        let mut srcs: Vec<usize> = dtlist
            .iter()
            .filter(|&&(k, _)| pos_of[k].is_some())
            .map(|&(k, _)| k)
            .collect();
        let mut dsts: Vec<usize> = dtlist
            .iter()
            .filter(|&&(_, h)| pos_of[h].is_some())
            .map(|&(_, h)| h)
            .collect();
        srcs.sort_unstable();
        srcs.dedup();
        dsts.sort_unstable();
        dsts.dedup();

        // Accumulate the load expression; skip the link entirely if
        // nothing can ever use it.
        let mut load_terms: Vec<(VarId, f64)> = Vec::new();
        let mut x_vars: Vec<(usize, VarId)> = Vec::new();

        let d_l = model.add_continuous(format!("d_{}", link.index()), 0.0);

        if !srcs.is_empty() && !dsts.is_empty() {
            for (e_idx, e) in pdg.edges.iter().enumerate() {
                if e.bytes_per_iteration == 0 {
                    continue;
                }
                let x = model.add_continuous(format!("x_{}_{}", e_idx, link.index()), 0.0);
                // The crossing indicator lives in [0, 1] (a native
                // bound, not a row).
                model.set_bounds(x, 0.0, 1.0);
                // x >= A + B - 1  <=>  A + B - x <= 1.
                let mut cross: Vec<(VarId, f64)> = srcs
                    .iter()
                    .map(|&k| (n[e.from][pos_of[k].expect("filtered")], 1.0))
                    .collect();
                cross.extend(
                    dsts.iter()
                        .map(|&h| (n[e.to][pos_of[h].expect("filtered")], 1.0)),
                );
                cross.push((x, -1.0));
                model.add_constraint_le(cross, 1.0);
                load_terms.push((x, e.bytes_per_iteration as f64));
                x_vars.push((e_idx, x));
            }
        }
        // Primary input / output over host routes.
        for (i, ni) in n.iter().enumerate() {
            for (pos, &j) in allowed.iter().enumerate() {
                let nij = ni[pos];
                if pdg.primary_input_bytes[i] > 0
                    && topo.route(Endpoint::Host, Endpoint::Gpu(j)).contains(&link)
                {
                    load_terms.push((nij, pdg.primary_input_bytes[i] as f64));
                }
                if pdg.primary_output_bytes[i] > 0
                    && topo.route(Endpoint::Gpu(j), Endpoint::Host).contains(&link)
                {
                    load_terms.push((nij, pdg.primary_output_bytes[i] as f64));
                }
            }
        }
        if load_terms.is_empty() {
            continue;
        }
        // d_l >= load  <=>  load - d_l <= 0.
        load_terms.push((d_l, -1.0));
        model.add_constraint_le(load_terms, 0.0);
        // d_l / BW_l <= Tmax  (III.2, III.3, with the latency amortised
        // away by pipelining and BW_l the link's own bandwidth).
        model.add_constraint_le(
            vec![(d_l, 1.0 / topo.link_bytes_per_us(link)), (tmax, -1.0)],
            0.0,
        );
        link_vars.push(LinkVars {
            link,
            d: d_l,
            x: x_vars,
        });
    }

    // Warm start from the incumbent assignment: fill in every variable so
    // the point is feasible for the full model.
    let warm = {
        let mut values = vec![0.0; model.num_vars()];
        for (i, &gpu) in incumbent.assignment.iter().enumerate() {
            values[n[i][pos_of[gpu].expect("incumbent uses allowed GPUs")].index()] = 1.0;
        }
        let cost = evaluate_assignment(pdg, platform, &incumbent.assignment);
        let mut t = cost.per_gpu_time_us.iter().cloned().fold(0.0f64, f64::max);
        for lv in &link_vars {
            let bytes = cost.per_link_bytes[lv.link.index()];
            values[lv.d.index()] = bytes as f64;
            t = t.max(bytes as f64 / topo.link_bytes_per_us(lv.link));
            for &(e_idx, x) in &lv.x {
                let e = &pdg.edges[e_idx];
                let (src, dst) = (incumbent.assignment[e.from], incumbent.assignment[e.to]);
                let crossing = src != dst
                    && topo
                        .route(Endpoint::Gpu(src), Endpoint::Gpu(dst))
                        .contains(&lv.link);
                values[x.index()] = if crossing { 1.0 } else { 0.0 };
            }
        }
        values[tmax.index()] = t;
        values
    };

    let solver_options = SolverOptions {
        max_nodes: options.max_nodes,
        relative_gap: options.relative_gap,
        ..SolverOptions::default()
    };
    let solution = match Solver::with_options(solver_options)
        .warm_start(warm)
        .solve(&model)
    {
        Ok(s) => {
            // Without a relative gap, a Feasible (not Optimal) status means
            // the node budget ran out mid-search — surface it instead of
            // leaving it buried in SolveStats.
            if s.status == SolutionStatus::Feasible && options.relative_gap == 0.0 {
                sgmap_trace::add("ilp.budget_exhausted", 1);
                sgmap_trace::warn(
                    "ilp.budget_exhausted",
                    format!(
                        "mapping ILP stopped at its node budget after {} nodes \
                         (proven gap {:.4}); using the best incumbent",
                        s.nodes_explored, s.stats.optimality_gap
                    ),
                );
            }
            s
        }
        // Budget exhaustion or numerical trouble: the incumbent is a valid
        // (warm-start) solution of the same model, so keep it.
        Err(IlpError::NoIntegerSolution) => {
            sgmap_trace::add("ilp.budget_exhausted", 1);
            sgmap_trace::warn(
                "ilp.budget_exhausted",
                "mapping ILP found no integer solution within budget; keeping the greedy mapping"
                    .to_string(),
            );
            return Ok(Mapping {
                method: MappingMethod::Ilp,
                optimal: false,
                ..incumbent
            });
        }
        Err(IlpError::Numerical(msg)) => {
            sgmap_trace::add("ilp.numerical_fallbacks", 1);
            sgmap_trace::warn(
                "ilp.numerical_fallback",
                format!("mapping ILP hit numerical trouble ({msg}); keeping the greedy mapping"),
            );
            return Ok(Mapping {
                method: MappingMethod::Ilp,
                optimal: false,
                ..incumbent
            });
        }
        Err(e) => return Err(e),
    };
    let ilp_stats = solution.stats;

    let mut assignment = vec![0usize; p];
    for (i, ni) in n.iter().enumerate() {
        let pos = ni
            .iter()
            .position(|&v| solution.binary_value(v))
            .unwrap_or(0);
        assignment[i] = allowed[pos];
    }
    // Re-evaluate with the shared cost model (authoritative numbers); keep
    // the incumbent mapping if the budget-limited search somehow did worse.
    let cost = evaluate_assignment(pdg, platform, &assignment);
    if cost.tmax_us <= incumbent.predicted_tmax_us + 1e-6 {
        Ok(Mapping {
            assignment,
            predicted_tmax_us: cost.tmax_us,
            per_gpu_time_us: cost.per_gpu_time_us,
            per_link_time_us: cost.per_link_time_us,
            method: MappingMethod::Ilp,
            optimal: solution.status == SolutionStatus::Optimal,
            ilp_stats,
        })
    } else {
        Ok(Mapping {
            method: MappingMethod::Ilp,
            optimal: false,
            ilp_stats,
            ..incumbent
        })
    }
}

/// The makespan lower bound for identical machines (Dell'Amico & Martello,
/// "Optimal scheduling of tasks on identical parallel processors", ORSA J.
/// Computing 7(2), 1995) on the `allowed` GPUs. With the partition times
/// sorted in descending order, the `kG + 1` largest share `G` GPUs, so some
/// GPU receives `k + 1` of them, which take at least the `k + 1` smallest of
/// those, `p[kG - k] + … + p[kG]` (0-based), even on the fastest allowed
/// device. `k = 0` is the largest single partition.
fn pigeonhole_bound(times_us: &[f64], platform: &Platform, allowed: &[usize]) -> f64 {
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::greedy::map_round_robin;
    use crate::repair::{map_on_survivors, repair_mapping};
    use proptest::prelude::*;
    use sgmap_gpusim::{GpuSpec, InterconnectSpec, PlatformSpec};
    use sgmap_partition::PdgEdge;

    fn pdg(times: Vec<f64>, edges: Vec<PdgEdge>) -> Pdg {
        let n = times.len();
        let mut input = vec![0u64; n];
        let mut output = vec![0u64; n];
        input[0] = 256;
        output[n - 1] = 256;
        Pdg {
            times_us: times,
            edges,
            primary_input_bytes: input,
            primary_output_bytes: output,
        }
    }

    #[test]
    fn ilp_balances_a_simple_chain_optimally() {
        // Four partitions 8/6/6/8 on two GPUs: the optimum splits 14/14.
        let p = pdg(
            vec![8.0, 6.0, 6.0, 8.0],
            (0..3)
                .map(|i| PdgEdge {
                    from: i,
                    to: i + 1,
                    bytes_per_iteration: 16,
                })
                .collect(),
        );
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let m = map_ilp(&p, &platform, &MappingOptions::default()).unwrap();
        let max_gpu = m.per_gpu_time_us.iter().cloned().fold(0.0, f64::max);
        assert!(max_gpu <= 14.0 + 1e-6, "per-GPU {:?}", m.per_gpu_time_us);
        assert_eq!(m.method, MappingMethod::Ilp);
    }

    #[test]
    fn ilp_is_never_worse_than_greedy_or_round_robin() {
        let p = pdg(
            vec![30.0, 5.0, 25.0, 10.0, 8.0, 22.0],
            vec![
                PdgEdge {
                    from: 0,
                    to: 1,
                    bytes_per_iteration: 4_096,
                },
                PdgEdge {
                    from: 1,
                    to: 2,
                    bytes_per_iteration: 65_536,
                },
                PdgEdge {
                    from: 2,
                    to: 3,
                    bytes_per_iteration: 512,
                },
                PdgEdge {
                    from: 3,
                    to: 4,
                    bytes_per_iteration: 131_072,
                },
                PdgEdge {
                    from: 4,
                    to: 5,
                    bytes_per_iteration: 1_024,
                },
            ],
        );
        for gpus in [2usize, 3, 4] {
            let platform = Platform::quad_m2090().with_gpu_count(gpus);
            let ilp = map_ilp(&p, &platform, &MappingOptions::default()).unwrap();
            let greedy = map_greedy(&p, &platform);
            let rr = map_round_robin(&p, &platform);
            assert!(
                ilp.predicted_tmax_us <= greedy.predicted_tmax_us + 1e-6,
                "G={gpus}: ilp {} > greedy {}",
                ilp.predicted_tmax_us,
                greedy.predicted_tmax_us
            );
            assert!(ilp.predicted_tmax_us <= rr.predicted_tmax_us + 1e-6);
        }
    }

    #[test]
    fn communication_awareness_avoids_splitting_chatty_partitions() {
        // Two heavy partitions exchanging a huge volume of data plus two
        // light ones: a workload-only mapper splits the heavy pair across
        // GPUs; the communication-aware ILP keeps them together.
        let p = pdg(
            vec![50.0, 50.0, 10.0, 10.0],
            vec![
                PdgEdge {
                    from: 0,
                    to: 1,
                    bytes_per_iteration: 3_000_000,
                },
                PdgEdge {
                    from: 1,
                    to: 2,
                    bytes_per_iteration: 64,
                },
                PdgEdge {
                    from: 2,
                    to: 3,
                    bytes_per_iteration: 64,
                },
            ],
        );
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let aware = map_ilp(&p, &platform, &MappingOptions::default()).unwrap();
        assert_eq!(
            aware.assignment[0], aware.assignment[1],
            "chatty partitions should stay together: {:?}",
            aware.assignment
        );
        // Splitting them would cost ~500 us of link time.
        assert!(aware.predicted_tmax_us < 200.0);
    }

    #[test]
    fn single_gpu_is_trivially_optimal() {
        let p = pdg(vec![5.0, 7.0], vec![]);
        let m = map_ilp(&p, &Platform::single_m2090(), &MappingOptions::default()).unwrap();
        assert!(m.optimal);
        assert!(m.assignment.iter().all(|&a| a == 0));
    }

    /// Random PDGs of 2–7 partitions: uneven times, so the pigeonhole bound
    /// often binds, and edges light enough that compute decides many maps.
    fn small_pdg_strategy() -> BoxedStrategy<Pdg> {
        prop::collection::vec((1.0f64..400.0, 0usize..7, 0u64..400_000), 2..8)
            .prop_map(|parts| {
                let times = parts.iter().map(|&(t, _, _)| t).collect();
                // Partition i > 0 consumes from an earlier one: a connected DAG.
                let edges = parts
                    .iter()
                    .enumerate()
                    .skip(1)
                    .map(|(i, &(_, from, bytes))| PdgEdge {
                        from: from % i,
                        to: i,
                        bytes_per_iteration: bytes,
                    })
                    .collect();
                pdg(times, edges)
            })
            .boxed()
    }

    /// The paper tree at 2–4 GPUs, `mixed4` (time factors above 1), and a
    /// mixed box whose primary GPU is the slower C2070 (factors below 1).
    fn oracle_platforms() -> Vec<Platform> {
        let c2070_primary = PlatformSpec {
            name: "c2070_primary".to_string(),
            gpus: vec![GpuSpec::c2070(), GpuSpec::m2090(), GpuSpec::m2090()],
            interconnect: InterconnectSpec::Flat,
            bandwidth_scale: 1.0,
            latency_scale: 1.0,
        };
        let mut platforms: Vec<Platform> = (2..=4)
            .map(|g| Platform::quad_m2090().with_gpu_count(g))
            .collect();
        platforms.push(PlatformSpec::mixed_m2090_c2070().build().unwrap());
        platforms.push(c2070_primary.build().unwrap());
        platforms
    }

    /// The exact optimum of the cost model over every assignment to the
    /// `allowed` GPUs (at most 4^7 evaluations).
    fn exhaustive_tmax(pdg: &Pdg, platform: &Platform, allowed: &[usize]) -> f64 {
        let n = pdg.len();
        let mut best = f64::INFINITY;
        for code in 0..allowed.len().pow(n as u32) {
            let mut rest = code;
            let assignment: Vec<usize> = (0..n)
                .map(|_| {
                    let gpu = allowed[rest % allowed.len()];
                    rest /= allowed.len();
                    gpu
                })
                .collect();
            best = best.min(evaluate_assignment(pdg, platform, &assignment).tmax_us);
        }
        best
    }

    /// Runs `map` and checks the lower bound it claims on its own `Tmax`,
    /// `Tmax · (1 − gap)`, against the exhaustive `optimum`: a search proven
    /// optimal (gap 0) must hit it, and a proven gap must not promise more.
    /// When the solver gives up on numerical trouble the mapper keeps its
    /// warm start and claims nothing, so only a search that finishes is held
    /// to the optimum. A mapping that says `optimal` claims gap 0 whatever
    /// its reported gap, so its `Tmax` must be the optimum itself.
    fn check_claim(optimum: f64, map: impl FnOnce() -> Mapping) -> Result<(), TestCaseError> {
        let collector = Arc::new(sgmap_trace::Collector::new());
        let mapping = sgmap_trace::scope(Some(&collector), map);
        let gave_up = collector
            .warnings()
            .iter()
            .any(|w| w.code == "ilp.numerical_fallback");
        let tmax = mapping.predicted_tmax_us;
        let claimed = if gave_up {
            prop_assert!(!mapping.optimal, "a numerical fallback claims optimality");
            0.0
        } else {
            tmax * (1.0 - mapping.ilp_stats.optimality_gap)
        };
        prop_assert!(
            tmax >= optimum * (1.0 - 1e-9),
            "Tmax {tmax} beats the optimum {optimum}"
        );
        prop_assert!(
            claimed <= optimum * (1.0 + 1e-9),
            "claims Tmax >= {claimed} (optimal: {}) but the optimum is {optimum}",
            mapping.optimal
        );
        prop_assert!(
            !mapping.optimal || (tmax - optimum).abs() <= optimum * 1e-9,
            "claims optimality at Tmax {tmax} but the optimum is {optimum}"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pigeonhole cut never cuts off an integer mapping: on every
        /// platform and survivor subset it stays at or below the exhaustive
        /// optimum, a search with nodes to spare proves that optimum, and
        /// the budget-limited repair polish claims no gap it has not earned.
        #[test]
        fn pigeonhole_bound_never_exceeds_the_exhaustive_optimum(pdg in small_pdg_strategy()) {
            let unlimited = MappingOptions {
                max_nodes: 1_000_000,
                relative_gap: 0.0,
            };
            for platform in oracle_platforms() {
                let all: Vec<usize> = (0..platform.gpu_count()).collect();
                let optimum = exhaustive_tmax(&pdg, &platform, &all);
                let bound = pigeonhole_bound(&pdg.times_us, &platform, &all);
                prop_assert!(bound <= optimum * (1.0 + 1e-9), "bound {bound} > optimum {optimum}");
                check_claim(optimum, || map_ilp(&pdg, &platform, &unlimited).unwrap())?;

                let original = map_greedy(&pdg, &platform);
                for lost in all.iter().copied() {
                    let survivors: Vec<usize> = all.iter().copied().filter(|&j| j != lost).collect();
                    let optimum = exhaustive_tmax(&pdg, &platform, &survivors);
                    let bound = pigeonhole_bound(&pdg.times_us, &platform, &survivors);
                    prop_assert!(bound <= optimum * (1.0 + 1e-9),
                        "lost {lost}: bound {bound} > optimum {optimum}");
                    check_claim(optimum, || {
                        map_on_survivors(&pdg, &platform, lost, &unlimited).unwrap()
                    })?;
                    check_claim(optimum, || {
                        repair_mapping(&pdg, &platform, &original, lost).unwrap().0
                    })?;
                }
            }
        }
    }
}
