//! The ILP formulation of communication-aware mapping (Section 3.2.2).
//!
//! Decision variables:
//!
//! * `n_ij` (binary) — partition `i` runs on GPU `j`,
//! * `x_ec` (continuous, 0..1) — PDG edge `e`'s traffic crosses cut `c`;
//!   linearised as `x_ec >= A + B - 1` where `A` (`B`) says the producer
//!   (consumer) sits on the cut's source (destination) side,
//! * `d_l` (continuous) — bytes crossing link `l`, including the primary
//!   input/output travelling between the host and the partitions' GPUs;
//!   only a link that some traffic can use gets one,
//! * `Tmax` (continuous) — the objective.
//!
//! A cut `c = (S, D)` is the pair of GPU sides a link separates: the sorted
//! sources and destinations of the topology's `dtlist(l)`, restricted to the
//! allowed GPUs. The paper states the crossing term per link, `x_el`, but
//! the term depends on the link only through its cut, and on a tree several
//! links share one. A link separates the GPUs below it from the rest, so
//! the up-link out of a subtree and the down-link into the complementary
//! one have the same cut: on two GPUs, the up-link out of GPU 0 and the
//! down-link into GPU 1. So one `x_ec` per edge and cut is charged to the
//! `d_l` row of every link with that cut. Projected onto `n`, `d` and
//! `Tmax` the relaxation is unchanged, and with it the root bound and the
//! integer optimum, but the 2-GPU reference tree needs `2E` crossing rows
//! instead of `4E` and the 4-GPU paper tree `10E` instead of `12E`.
//!
//! Per-transfer latency is excluded from the static objective (it is hidden
//! by the N-fragment pipelining and charged by the executor instead), so the
//! per-link time is the pure bandwidth term `d_l / BW`.
//!
//! Two valid inequalities become `Tmax`'s lower bound, so they cost no rows:
//! the total work over the allowed GPUs' capacity, and the pigeonhole bound
//! of Dell'Amico & Martello (1995). With `G` allowed GPUs and the partition
//! times sorted in descending order, some GPU receives `k + 1` of the
//! `kG + 1` largest, for every `k` with `kG + 1 <= P`, and it runs them at
//! best at the fastest allowed GPU's speed. Without the pigeonhole bound the
//! root LP of twelve partitions on eight GPUs sits well below a greedy warm
//! start that is already optimal, and the search spends its whole node
//! budget failing to close the gap.
//!
//! The model is warm-started with the greedy mapping and solved by the
//! branch-and-bound solver of `sgmap-ilp` under a configurable node budget,
//! the only budget: no clock is read, so a mapping is a function of its
//! inputs alone. If the budget runs out, the best incumbent (never worse
//! than the greedy warm start) is returned.
//!
//! The solver also gets a bound on `Tmax` from outside the model as its
//! objective bound: the exact floor, the optimal compute-only makespan of
//! the partition times (the `floor` module), or the static bound above when
//! the floor search is capped. On a map that compute decides, the LP
//! relaxation sees only the average load and the pigeonhole bound, and sits
//! a few percent below a warm start that is already the best balance. A
//! warm start that meets the floor is proven optimal before the root
//! relaxation, with no LP solved; otherwise the search stops, proven
//! optimal, as soon as a new incumbent meets it, instead of spending its
//! budget failing to close that gap. The bound stays out of the LP, so
//! every relaxation is the one the model states.
//!
//! The search stops at the default relative gap of [`MappingOptions`],
//! `1e-4`, the default MIP gap of CPLEX, Gurobi and HiGHS. The gap holds
//! against both the LP frontier and that bound, so a warm start already
//! within it of the bound is returned before the root relaxation, as
//! [`SolutionStatus::Feasible`] with its gap. On the synthetic pipelines
//! the root LP sits where the static bound does, and 80 nodes never moved
//! the gap, so such a map saves the whole search.

use sgmap_gpusim::{Endpoint, LinkId, Platform};
use sgmap_ilp::{IlpError, Model, ObjectiveSense, SolutionStatus, Solver, SolverOptions, VarId};
use sgmap_partition::Pdg;

use crate::evaluate::evaluate_assignment;
use crate::floor::{makespan_floor, static_bound};
use crate::greedy::map_greedy;
use crate::{Mapping, MappingMethod};

/// Budget options for the ILP mapper.
#[derive(Debug, Clone)]
pub struct MappingOptions {
    /// Node budget for the branch-and-bound search.
    pub max_nodes: usize,
    /// Stop the search once the incumbent is proven within this relative gap
    /// of both the LP frontier and the compute floor (or the static bound,
    /// when the floor search is capped). A greedy warm start already within
    /// it of that bound is returned before any LP. The default, `1e-4`, is
    /// the default relative MIP gap of CPLEX, Gurobi and HiGHS; `0.0`
    /// searches to proven optimality or the node budget.
    pub relative_gap: f64,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            max_nodes: 600,
            relative_gap: 1e-4,
        }
    }
}

/// The load column of one link that carries a load row.
struct LinkVars {
    link: LinkId,
    d: VarId,
}

/// One cut `(S, D)`: the source and destination GPU sides of a link's
/// `dtlist`, restricted to the allowed GPUs. Every link that separates the
/// same sides shares its crossing indicators.
struct Cut {
    /// Sorted global indices of the source-side GPUs.
    srcs: Vec<usize>,
    /// Sorted global indices of the destination-side GPUs.
    dsts: Vec<usize>,
    /// `(edge index, x_ec)` pairs, one per PDG edge with bytes.
    x: Vec<(usize, VarId)>,
}

impl Cut {
    /// Whether an edge from `src` to `dst` (global GPU indices) crosses it.
    fn separates(&self, src: usize, dst: usize) -> bool {
        self.srcs.binary_search(&src).is_ok() && self.dsts.binary_search(&dst).is_ok()
    }
}

/// The mapper ILP over the `allowed` GPUs, with the columns the warm start
/// and the solution readout address.
struct MapperModel {
    model: Model,
    tmax: VarId,
    /// `n[i][pos]`: partition `i` runs on GPU `allowed[pos]`.
    n: Vec<Vec<VarId>>,
    /// The links that carry a load row, in link order.
    links: Vec<LinkVars>,
    /// The distinct cuts, in the order their first link appears.
    cuts: Vec<Cut>,
}

impl MapperModel {
    /// Builds the model: the paper's assignment, GPU-time and link rows, with
    /// one crossing indicator per PDG edge and distinct cut.
    fn build(pdg: &Pdg, platform: &Platform, allowed: &[usize]) -> MapperModel {
        let topo = &platform.topology;
        // Position of a global GPU index among the allowed columns.
        let mut pos_of: Vec<Option<usize>> = vec![None; platform.gpu_count()];
        for (pos, &j) in allowed.iter().enumerate() {
            pos_of[j] = Some(pos);
        }

        let mut model = Model::new(ObjectiveSense::Minimize);
        let tmax = model.add_continuous(1.0);

        // n_ij, one column per allowed GPU.
        let n: Vec<Vec<VarId>> = (0..pdg.len())
            .map(|_| allowed.iter().map(|_| model.add_binary(0.0)).collect())
            .collect();
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
        // Valid inequalities that tighten the LP relaxation (they cut off
        // fractional assignments but no integer one): the busiest GPU can
        // never beat the average load, nor the pigeonhole bound on the
        // largest partitions. The revised simplex handles variable bounds
        // natively, so they cost no rows.
        model.set_bounds(
            tmax,
            static_bound(&pdg.times_us, platform, allowed),
            f64::INFINITY,
        );

        // Crossing indicators exist only for edges that carry bytes.
        let has_traffic = pdg.edges.iter().any(|e| e.bytes_per_iteration > 0);
        let mut links: Vec<LinkVars> = Vec::new();
        let mut cuts: Vec<Cut> = Vec::new();
        for link in topo.link_ids() {
            let dtlist = topo.dtlist(link);
            // Source/destination sides of the link, restricted to GPUs that
            // actually have assignment columns.
            let side = |pick: fn(&(usize, usize)) -> usize| {
                let mut gpus: Vec<usize> = dtlist
                    .iter()
                    .map(pick)
                    .filter(|&k| pos_of[k].is_some())
                    .collect();
                gpus.sort_unstable();
                gpus.dedup();
                gpus
            };
            let (srcs, dsts) = (side(|&(k, _)| k), side(|&(_, h)| h));

            let crosses = has_traffic && !srcs.is_empty() && !dsts.is_empty();
            // Primary input / output over host routes.
            let mut host_terms: Vec<(VarId, f64)> = Vec::new();
            for (i, ni) in n.iter().enumerate() {
                for (pos, &j) in allowed.iter().enumerate() {
                    let nij = ni[pos];
                    if pdg.primary_input_bytes[i] > 0
                        && topo.route(Endpoint::Host, Endpoint::Gpu(j)).contains(&link)
                    {
                        host_terms.push((nij, pdg.primary_input_bytes[i] as f64));
                    }
                    if pdg.primary_output_bytes[i] > 0
                        && topo.route(Endpoint::Gpu(j), Endpoint::Host).contains(&link)
                    {
                        host_terms.push((nij, pdg.primary_output_bytes[i] as f64));
                    }
                }
            }
            // Skip the link entirely, load column included, if nothing can
            // ever use it: on a survivor subset, the links to a lost GPU.
            if !crosses && host_terms.is_empty() {
                continue;
            }
            // The load column comes before any crossing indicators its cut
            // creates: the column order steers the simplex's tie-breaks.
            let d_l = model.add_continuous(0.0);
            let mut load_terms: Vec<(VarId, f64)> = Vec::new();
            if crosses {
                // The first link of a cut creates its crossing indicators;
                // every later one charges the same indicators to its own load.
                let c = match cuts.iter().position(|c| c.srcs == srcs && c.dsts == dsts) {
                    Some(c) => c,
                    None => {
                        let x = crossing_indicators(&mut model, pdg, &n, &pos_of, &srcs, &dsts);
                        cuts.push(Cut { srcs, dsts, x });
                        cuts.len() - 1
                    }
                };
                load_terms.extend(
                    cuts[c]
                        .x
                        .iter()
                        .map(|&(e_idx, x)| (x, pdg.edges[e_idx].bytes_per_iteration as f64)),
                );
            }
            load_terms.extend(host_terms);
            // d_l >= load  <=>  load - d_l <= 0.
            load_terms.push((d_l, -1.0));
            model.add_constraint_le(load_terms, 0.0);
            // d_l / BW_l <= Tmax  (III.2, III.3, with the latency amortised
            // away by pipelining and BW_l the link's own bandwidth).
            model.add_constraint_le(
                vec![(d_l, 1.0 / topo.link_bytes_per_us(link)), (tmax, -1.0)],
                0.0,
            );
            links.push(LinkVars { link, d: d_l });
        }
        MapperModel {
            model,
            tmax,
            n,
            links,
            cuts,
        }
    }

    /// The model point of an assignment onto the allowed GPUs, every column
    /// filled in so that it is feasible for the whole model: `x_ec` is 1
    /// exactly when the producer sits in `S` and the consumer in `D`, which
    /// on a tree is when the route between them crosses the cut's links.
    fn point(
        &self,
        pdg: &Pdg,
        platform: &Platform,
        allowed: &[usize],
        assignment: &[usize],
    ) -> Vec<f64> {
        let topo = &platform.topology;
        let mut values = vec![0.0; self.model.num_vars()];
        for (ni, &gpu) in self.n.iter().zip(assignment) {
            let pos = allowed.iter().position(|&j| j == gpu);
            values[ni[pos.expect("assignment uses allowed GPUs")].index()] = 1.0;
        }
        let cost = evaluate_assignment(pdg, platform, assignment);
        let mut t = cost.per_gpu_time_us.iter().cloned().fold(0.0f64, f64::max);
        for lv in &self.links {
            let bytes = cost.per_link_bytes[lv.link.index()] as f64;
            values[lv.d.index()] = bytes;
            t = t.max(bytes / topo.link_bytes_per_us(lv.link));
        }
        for cut in &self.cuts {
            for &(e_idx, x) in &cut.x {
                let e = &pdg.edges[e_idx];
                if cut.separates(assignment[e.from], assignment[e.to]) {
                    values[x.index()] = 1.0;
                }
            }
        }
        values[self.tmax.index()] = t;
        values
    }
}

/// Adds the crossing indicators of the cut `(srcs, dsts)`: one `x_ec` in
/// `[0, 1]` per PDG edge with bytes, with its row `x_ec >= A + B - 1`.
/// Returns the `(edge index, x_ec)` pairs.
fn crossing_indicators(
    model: &mut Model,
    pdg: &Pdg,
    n: &[Vec<VarId>],
    pos_of: &[Option<usize>],
    srcs: &[usize],
    dsts: &[usize],
) -> Vec<(usize, VarId)> {
    let column = |i: usize, j: usize| n[i][pos_of[j].expect("sides hold allowed GPUs")];
    let mut x_vars: Vec<(usize, VarId)> = Vec::new();
    for (e_idx, e) in pdg.edges.iter().enumerate() {
        if e.bytes_per_iteration == 0 {
            continue;
        }
        let x = model.add_continuous(0.0);
        // The crossing indicator lives in [0, 1] (a native bound, not a row).
        model.set_bounds(x, 0.0, 1.0);
        // x >= A + B - 1  <=>  A + B - x <= 1.
        let mut cross: Vec<(VarId, f64)> = srcs.iter().map(|&k| (column(e.from, k), 1.0)).collect();
        cross.extend(dsts.iter().map(|&h| (column(e.to, h), 1.0)));
        cross.push((x, -1.0));
        model.add_constraint_le(cross, 1.0);
        x_vars.push((e_idx, x));
    }
    x_vars
}

/// Solves the partition-to-GPU mapping with the ILP formulation. Its layers
/// record into the ambient trace collector: the greedy warm start under a
/// `map.greedy` span, the compute floor under `map.floor`, the model and
/// the warm start's point in it under `map.model`, and the
/// branch-and-bound solver per-node `ilp.node` spans plus pivot /
/// warm-start counters from its [`sgmap_ilp::SolveStats`]. A one-GPU
/// platform or an empty PDG has one mapping, returned before any of them.
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
    map_ilp_on(pdg, platform, options, &allowed, || {
        map_greedy(pdg, platform)
    })
}

/// The ILP mapper restricted to a subset of the platform's GPUs: only GPUs in
/// `allowed` get assignment columns, so the solution never places a partition
/// elsewhere. An empty PDG or a single allowed GPU has one mapping, returned
/// at once. Otherwise `warm_start` gives the warm start and fallback, which
/// must already respect the restriction, and the compute floor on `allowed`
/// is searched for. The solver's objective bound is that floor, or the
/// static bound when the floor search is capped: a warm start that meets it
/// is proven optimal before any LP, one within the relative gap of it is
/// returned before any LP, and the search stops once a new incumbent meets
/// it. [`map_ilp`] is the unrestricted special case; the repair path
/// re-solves over the survivors of a lost device.
pub(crate) fn map_ilp_on(
    pdg: &Pdg,
    platform: &Platform,
    options: &MappingOptions,
    allowed: &[usize],
    warm_start: impl FnOnce() -> Mapping,
) -> Result<Mapping, IlpError> {
    let g = platform.gpu_count();
    let p = pdg.len();
    assert!(!allowed.is_empty(), "no GPUs to map onto");
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

    let incumbent = warm_start();
    debug_assert!(incumbent.assignment.iter().all(|gpu| allowed.contains(gpu)));
    let bound = makespan_floor(&pdg.times_us, platform, allowed)
        .unwrap_or_else(|| static_bound(&pdg.times_us, platform, allowed));

    let (mm, warm) = {
        let _span = sgmap_trace::span("map.model");
        let mm = MapperModel::build(pdg, platform, allowed);
        let warm = mm.point(pdg, platform, allowed, &incumbent.assignment);
        (mm, warm)
    };

    let solver_options = SolverOptions {
        max_nodes: options.max_nodes,
        relative_gap: options.relative_gap,
    };
    let solver = Solver::with_options(solver_options)
        .warm_start(warm)
        .objective_bound(bound);
    // A search the node budget or the relative gap ended is a normal
    // outcome: the solver counts it, and the mapping carries it as
    // `optimal: false` and the proven gap in its ILP statistics.
    let solution = match solver.solve(&mm.model) {
        Ok(s) => s,
        // Budget exhaustion or numerical trouble: the incumbent is a valid
        // (warm-start) solution of the same model, so keep it.
        Err(IlpError::NoIntegerSolution) => {
            sgmap_trace::warn(
                "ilp.no_integer_solution",
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

    let assignment: Vec<usize> =
        mm.n.iter()
            .map(|ni| {
                allowed[ni
                    .iter()
                    .position(|&v| solution.binary_value(v))
                    .unwrap_or(0)]
            })
            .collect();
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::floor::pigeonhole_bound;
    use crate::greedy::{map_greedy_on, map_round_robin};
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
        let m = map_ilp(
            &p,
            &Platform::homogeneous(GpuSpec::m2090(), 1),
            &MappingOptions::default(),
        )
        .unwrap();
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

    /// [`small_pdg_strategy`] with most partitions at one time, as on the
    /// budget-limited paper-grid maps, where the floor ends the search.
    fn equal_time_pdg_strategy() -> BoxedStrategy<Pdg> {
        (small_pdg_strategy(), prop::collection::vec(0usize..4, 8..9))
            .prop_map(|(mut pdg, picks)| {
                for (t, &k) in pdg.times_us.iter_mut().zip(&picks) {
                    if k > 0 {
                        *t = 40.0;
                    }
                }
                pdg
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
    /// optimal (gap 0) must hit it, and any other map must lie within its
    /// reported gap of it.
    /// When the solver gives up on numerical trouble the mapper keeps its
    /// warm start and claims nothing, so only a search that finishes is held
    /// to the optimum. A mapping that says `optimal` claims gap 0 whatever
    /// its reported gap, so its `Tmax` must be the optimum itself. Returns
    /// the mapping.
    fn check_claim(optimum: f64, map: impl FnOnce() -> Mapping) -> Result<Mapping, TestCaseError> {
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
        Ok(mapping)
    }

    /// A map with no branch-and-bound node must be its warm start (`warm`,
    /// its assignment) as it stands: one that met the compute floor before
    /// any LP, at the exhaustive `optimum`, or one within the relative gap
    /// of its bound.
    fn check_lp_free_map(
        mapping: &Mapping,
        warm: &[usize],
        optimum: f64,
    ) -> Result<(), TestCaseError> {
        if mapping.ilp_stats.nodes > 0 {
            return Ok(());
        }
        prop_assert_eq!(mapping.ilp_stats.lp_iterations, 0);
        prop_assert_eq!(
            &mapping.assignment,
            warm,
            "a map without an LP moved the warm start"
        );
        let tmax = mapping.predicted_tmax_us;
        prop_assert!(
            !mapping.optimal || (tmax - optimum).abs() <= optimum * 1e-9,
            "proven without an LP at Tmax {tmax}, but the optimum is {optimum}"
        );
        Ok(())
    }

    /// The sorted source and destination GPU sides of `link`, restricted to
    /// `allowed`, read straight from the topology's `dtlist`.
    fn sides(platform: &Platform, link: LinkId, allowed: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let dtlist = platform.topology.dtlist(link);
        let side = |pick: fn(&(usize, usize)) -> usize| {
            let mut gpus: Vec<usize> = dtlist
                .iter()
                .map(pick)
                .filter(|j| allowed.contains(j))
                .collect();
            gpus.sort_unstable();
            gpus.dedup();
            gpus
        };
        (side(|&(k, _)| k), side(|&(_, h)| h))
    }

    /// The per-link formulation, the oracle of the per-cut one: every link
    /// whose restricted sides are both non-empty gets its own crossing
    /// indicator and row per PDG edge with bytes, as Section 3.2.2 states
    /// the model.
    fn per_link_model(
        pdg: &Pdg,
        platform: &Platform,
        allowed: &[usize],
    ) -> (Model, Vec<Vec<VarId>>) {
        let topo = &platform.topology;
        let mut model = Model::new(ObjectiveSense::Minimize);
        let tmax = model.add_continuous(1.0);
        let n: Vec<Vec<VarId>> = (0..pdg.len())
            .map(|_| allowed.iter().map(|_| model.add_binary(0.0)).collect())
            .collect();
        for ni in &n {
            model.add_constraint_eq(ni.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
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
        let total_work: f64 = pdg.times_us.iter().sum();
        let capacity: f64 = allowed.iter().map(|&j| 1.0 / platform.time_factor(j)).sum();
        let pigeonhole = pigeonhole_bound(&pdg.times_us, platform, allowed);
        model.set_bounds(tmax, (total_work / capacity).max(pigeonhole), f64::INFINITY);
        let column = |i: usize, j: usize| n[i][allowed.iter().position(|&a| a == j).unwrap()];
        for link in topo.link_ids() {
            let (srcs, dsts) = sides(platform, link, allowed);
            let mut load: Vec<(VarId, f64)> = Vec::new();
            if !srcs.is_empty() && !dsts.is_empty() {
                for e in pdg.edges.iter().filter(|e| e.bytes_per_iteration > 0) {
                    let x = model.add_continuous(0.0);
                    model.set_bounds(x, 0.0, 1.0);
                    let mut cross: Vec<(VarId, f64)> =
                        srcs.iter().map(|&k| (column(e.from, k), 1.0)).collect();
                    cross.extend(dsts.iter().map(|&h| (column(e.to, h), 1.0)));
                    cross.push((x, -1.0));
                    model.add_constraint_le(cross, 1.0);
                    load.push((x, e.bytes_per_iteration as f64));
                }
            }
            for i in 0..pdg.len() {
                for &j in allowed {
                    let (input, output) = (pdg.primary_input_bytes[i], pdg.primary_output_bytes[i]);
                    if input > 0 && topo.route(Endpoint::Host, Endpoint::Gpu(j)).contains(&link) {
                        load.push((column(i, j), input as f64));
                    }
                    if output > 0 && topo.route(Endpoint::Gpu(j), Endpoint::Host).contains(&link) {
                        load.push((column(i, j), output as f64));
                    }
                }
            }
            if load.is_empty() {
                continue;
            }
            let d = model.add_continuous(0.0);
            load.push((d, -1.0));
            model.add_constraint_le(load, 0.0);
            model.add_constraint_le(
                vec![(d, 1.0 / topo.link_bytes_per_us(link)), (tmax, -1.0)],
                0.0,
            );
        }
        (model, n)
    }

    /// The distinct non-empty cuts of the platform's links, restricted to
    /// `allowed`.
    fn distinct_cuts(platform: &Platform, allowed: &[usize]) -> usize {
        let mut cuts: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for link in platform.topology.link_ids() {
            let cut = sides(platform, link, allowed);
            if !cut.0.is_empty() && !cut.1.is_empty() && !cuts.contains(&cut) {
                cuts.push(cut);
            }
        }
        cuts.len()
    }

    /// Every subset of the platform's GPUs with at least two members (a
    /// single GPU needs no model).
    fn survivor_subsets(gpus: usize) -> impl Iterator<Item = Vec<usize>> {
        (1usize..1 << gpus)
            .filter(|mask| mask.count_ones() >= 2)
            .map(move |mask| (0..gpus).filter(|j| mask >> j & 1 == 1).collect())
    }

    /// The LP value of `model`'s continuous relaxation, with the assignment
    /// columns `n` (one per `allowed` GPU) fixed to `assignment` if given.
    /// Every binary becomes a continuous column on its `[0, 1]` box, so the
    /// solver answers with one cold LP at its root node.
    fn relaxation_value(
        model: &Model,
        n: &[Vec<VarId>],
        allowed: &[usize],
        assignment: Option<&Vec<usize>>,
    ) -> f64 {
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
        for (ni, &gpu) in n.iter().zip(assignment.into_iter().flatten()) {
            for (&v, &j) in ni.iter().zip(allowed) {
                let on = if j == gpu { 1.0 } else { 0.0 };
                lp.set_bounds(v, on, on);
            }
        }
        Solver::new().solve(&lp).unwrap().objective
    }

    /// Checks the per-cut model of `pdg` on `allowed` against the per-link
    /// oracle: the same LP value at the root and with the assignment fixed
    /// (the root LP rarely sees traffic, a fixed assignment always does), a
    /// feasible greedy warm start, and one crossing column per edge with
    /// bytes and distinct cut.
    fn check_per_cut_model(
        pdg: &Pdg,
        platform: &Platform,
        allowed: &[usize],
    ) -> Result<(), TestCaseError> {
        let mm = MapperModel::build(pdg, platform, allowed);
        let (oracle, oracle_n) = per_link_model(pdg, platform, allowed);
        let greedy = map_greedy_on(pdg, platform, allowed);
        let spread: Vec<usize> = (0..pdg.len()).map(|i| allowed[i % allowed.len()]).collect();
        for assignment in [None, Some(&greedy.assignment), Some(&spread)] {
            let per_cut = relaxation_value(&mm.model, &mm.n, allowed, assignment);
            let per_link = relaxation_value(&oracle, &oracle_n, allowed, assignment);
            prop_assert!(
                (per_cut - per_link).abs() <= 1e-9 * per_link.abs().max(1.0),
                "{allowed:?} at {assignment:?}: per-cut LP {per_cut} != per-link {per_link}"
            );
        }
        let warm = mm.point(pdg, platform, allowed, &greedy.assignment);
        prop_assert!(
            mm.model.is_feasible(&warm, 1e-6),
            "{allowed:?}: the greedy warm start {:?} is infeasible",
            greedy.assignment
        );
        let with_bytes = pdg
            .edges
            .iter()
            .filter(|e| e.bytes_per_iteration > 0)
            .count();
        let crossing: usize = mm.cuts.iter().map(|c| c.x.len()).sum();
        prop_assert_eq!(crossing, with_bytes * distinct_cuts(platform, allowed));
        Ok(())
    }

    /// Checks that `model` has nothing a presolve would remove: every column
    /// sits in some row with a nonzero coefficient, every row has at least
    /// two distinct columns and names none twice, and no column is fixed by
    /// its bounds. The solver searches the model as built, so an empty
    /// column or a singleton row would cost every LP of the search.
    fn check_nothing_to_presolve(model: &Model, allowed: &[usize]) -> Result<(), TestCaseError> {
        let mut in_a_row = vec![false; model.num_vars()];
        for row in 0..model.num_constraints() {
            let (terms, _, _) = model.constraint(row);
            let mut cols: Vec<usize> = terms.iter().map(|(v, _)| v.index()).collect();
            cols.sort_unstable();
            cols.dedup();
            let distinct = cols.len() == terms.len() && cols.len() >= 2;
            prop_assert!(
                distinct,
                "{allowed:?}: row {row} needs 2+ distinct columns: {terms:?}"
            );
            for &(v, coef) in terms {
                in_a_row[v.index()] |= coef != 0.0;
            }
        }
        for (j, &used) in in_a_row.iter().enumerate() {
            prop_assert!(used, "{allowed:?}: column {j} is in no row");
            let (lo, hi) = model.var_bounds(VarId::from(j));
            prop_assert!(lo != hi, "{allowed:?}: column {j} is fixed at {lo}");
        }
        Ok(())
    }

    #[test]
    fn paper_trees_keep_two_and_ten_crossing_columns_per_edge() {
        // A chain of 6 partitions: E = 5 edges with bytes.
        let p = pdg(
            vec![10.0; 6],
            (0..5)
                .map(|i| PdgEdge {
                    from: i,
                    to: i + 1,
                    bytes_per_iteration: 1_024,
                })
                .collect(),
        );
        for (gpus, per_edge) in [(2, 2), (4, 10)] {
            let platform = Platform::quad_m2090().with_gpu_count(gpus);
            let all: Vec<usize> = (0..gpus).collect();
            let mm = MapperModel::build(&p, &platform, &all);
            let crossing: usize = mm.cuts.iter().map(|c| c.x.len()).sum();
            assert_eq!(crossing, per_edge * 5, "{gpus} GPUs");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pigeonhole cut never cuts off an integer mapping: on every
        /// platform and survivor subset it stays at or below the exhaustive
        /// optimum, a search with nodes to spare proves that optimum (one
        /// proven with no node keeps its greedy warm start), the default
        /// options (600 nodes, a 1e-4 gap) return a map within its reported
        /// gap of it, and the budget-limited repair polish claims no gap it
        /// has not earned.
        #[test]
        fn pigeonhole_bound_never_exceeds_the_exhaustive_optimum(pdg in small_pdg_strategy()) {
            let unlimited = MappingOptions {
                max_nodes: 1_000_000,
                relative_gap: 0.0,
            };
            let default = MappingOptions::default();
            for platform in oracle_platforms() {
                let all: Vec<usize> = (0..platform.gpu_count()).collect();
                let optimum = exhaustive_tmax(&pdg, &platform, &all);
                let bound = pigeonhole_bound(&pdg.times_us, &platform, &all);
                prop_assert!(bound <= optimum * (1.0 + 1e-9), "bound {bound} > optimum {optimum}");
                let original = map_greedy(&pdg, &platform);
                let mapping = check_claim(optimum, || map_ilp(&pdg, &platform, &unlimited).unwrap())?;
                check_lp_free_map(&mapping, &original.assignment, optimum)?;
                let mapping = check_claim(optimum, || map_ilp(&pdg, &platform, &default).unwrap())?;
                check_lp_free_map(&mapping, &original.assignment, optimum)?;

                for lost in all.iter().copied() {
                    let survivors: Vec<usize> = all.iter().copied().filter(|&j| j != lost).collect();
                    let optimum = exhaustive_tmax(&pdg, &platform, &survivors);
                    let bound = pigeonhole_bound(&pdg.times_us, &platform, &survivors);
                    prop_assert!(bound <= optimum * (1.0 + 1e-9),
                        "lost {lost}: bound {bound} > optimum {optimum}");
                    let greedy = map_greedy_on(&pdg, &platform, &survivors);
                    for options in [&unlimited, &default] {
                        let mapping = check_claim(optimum, || {
                            map_on_survivors(&pdg, &platform, lost, options).unwrap()
                        })?;
                        check_lp_free_map(&mapping, &greedy.assignment, optimum)?;
                    }
                    check_claim(optimum, || {
                        repair_mapping(&pdg, &platform, &original, lost).unwrap().0
                    })?;
                }
            }
        }

        /// The compute floor never cuts off an integer mapping: on every
        /// oracle platform and survivor subset it stays at or below the
        /// exhaustive optimum, and a node-budgeted search it ends claims
        /// only that optimum. A warm start the floor proves before any LP
        /// comes back unchanged.
        #[test]
        fn floor_never_exceeds_the_exhaustive_optimum(pdg in equal_time_pdg_strategy()) {
            let budget = MappingOptions {
                max_nodes: 80,
                relative_gap: 0.0,
            };
            for platform in oracle_platforms() {
                for allowed in survivor_subsets(platform.gpu_count()) {
                    let optimum = exhaustive_tmax(&pdg, &platform, &allowed);
                    let floor = makespan_floor(&pdg.times_us, &platform, &allowed);
                    let floor = floor.expect("seven partitions stay under the node cap");
                    prop_assert!(
                        floor <= optimum * (1.0 + 1e-12),
                        "{allowed:?}: floor {floor} > optimum {optimum}"
                    );
                    let greedy = map_greedy_on(&pdg, &platform, &allowed);
                    let warm = greedy.assignment.clone();
                    let mapping = check_claim(optimum, || {
                        map_ilp_on(&pdg, &platform, &budget, &allowed, || greedy).unwrap()
                    })?;
                    check_lp_free_map(&mapping, &warm, optimum)?;
                }
            }
        }

        /// The mapper builds no empty column, singleton row, repeated term or
        /// bound-fixed column on any oracle platform and survivor subset:
        /// on a subset, the links to the lost GPUs get no load column.
        #[test]
        fn mapper_model_leaves_presolve_nothing_to_do(pdg in small_pdg_strategy()) {
            for platform in oracle_platforms() {
                for allowed in survivor_subsets(platform.gpu_count()) {
                    let mm = MapperModel::build(&pdg, &platform, &allowed);
                    check_nothing_to_presolve(&mm.model, &allowed)?;
                }
            }
        }

        /// The per-cut model is an exact reformulation of the per-link one
        /// on every platform and survivor subset: the same root bound, a
        /// feasible warm start (the solver silently drops an infeasible
        /// one), and exactly one crossing column per edge and cut.
        #[test]
        fn per_cut_model_matches_the_per_link_oracle(pdg in small_pdg_strategy()) {
            let mut platforms = oracle_platforms();
            platforms.push(PlatformSpec::nvlink8_m2090().build().unwrap());
            platforms.push(PlatformSpec::cluster2x4_m2090().build().unwrap());
            // At most four partitions on eight GPUs keeps the 247 subsets cheap.
            let keep = pdg.len().min(4);
            let small = Pdg {
                times_us: pdg.times_us[..keep].to_vec(),
                edges: pdg.edges.iter().filter(|e| e.to < keep).cloned().collect(),
                primary_input_bytes: pdg.primary_input_bytes[..keep].to_vec(),
                primary_output_bytes: pdg.primary_output_bytes[..keep].to_vec(),
            };
            for platform in &platforms {
                let pdg = if platform.gpu_count() > 4 { &small } else { &pdg };
                for allowed in survivor_subsets(platform.gpu_count()) {
                    check_per_cut_model(pdg, platform, &allowed)?;
                }
            }
        }
    }
}
