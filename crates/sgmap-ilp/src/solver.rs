//! Branch-and-bound over the binary variables of a [`Model`].
//!
//! The search runs on the caller's model as built: there is no presolve, so
//! every relaxation has the model's own rows and columns, and a solution is
//! already in the model's variable space.
//!
//! All nodes share one [`LpWorkspace`]: the root relaxation is solved cold
//! by the primal simplex, and every other node starts from its *parent's*
//! final basis and reoptimises with the bounded-variable dual simplex. A
//! child only tightens its parent's bounds, so that basis stays dual
//! feasible and the child typically costs a handful of pivots. A dive child
//! finds its parent's basis still live in the workspace; a node on the
//! best-bound heap carries a snapshot of it (the basic column of each row and
//! the nonbasic columns at their upper bound, about 4 KB at 1,000 rows),
//! which is installed and refactorised when the node is popped. A heap
//! node's relaxation therefore depends on its parent's basis and its own
//! bounds, not on the order in which the search visited the tree: warm-started
//! from whichever node was solved last, the first pop after a deep dive
//! would start dozens of bounds away from its own parent.
//!
//! The search is **budget-aware**: open nodes live in a best-bound priority
//! queue, while each branching also starts a depth-first *dive* on the
//! preferred (rounded) child so an early incumbent appears even under tiny
//! node budgets. The only budget is [`SolverOptions::max_nodes`]: no clock
//! is read anywhere in the search or the simplex loops, so a solve is a
//! function of its model and options alone. When the node budget runs out,
//! or the frontier comes within [`SolverOptions::relative_gap`], the best
//! remaining open bound yields a reported [`SolveStats::optimality_gap`]
//! alongside the best incumbent, so a truncated solve still says *how good*
//! its mapping is.
//!
//! A caller that knows a bound on the optimum from outside the model gives
//! it to [`Solver::objective_bound`]: once an incumbent meets it, nothing
//! strictly better exists and the search stops, proven optimal. A warm start
//! that meets it is checked before the root relaxation and returned without
//! any LP; after the root, each new incumbent is checked. The bound never
//! enters the LP, so the nodes the search does explore are the ones it would
//! explore without it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::basis::BasisSnapshot;
use crate::error::IlpError;
use crate::model::{Model, ObjectiveSense, VarId};
use crate::simplex::{LpSolution, VarBound, TOL};
use crate::workspace::{LpOutcome, LpStats, LpWorkspace};
use crate::Result;

/// How the search terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// The search stopped on its node budget or its relative gap, or
    /// skipped a subtree for numerical trouble; the returned solution is the
    /// best integer-feasible solution found so far.
    Feasible,
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose relaxation was (re)optimised.
    pub nodes: u64,
    /// Simplex iterations (pivots and bound flips) across all nodes.
    pub lp_iterations: u64,
    /// Node relaxations answered by warm-started dual reoptimisation.
    pub lp_warm_starts: u64,
    /// Node relaxations that ran the primal simplex from a cold basis.
    pub lp_cold_solves: u64,
    /// Basis refactorisations (periodic and stability-triggered).
    pub refactorizations: u64,
    /// Bound flips (primal flip steps and dual BFRT flips).
    pub bound_flips: u64,
    /// Always 0: the solver has no presolve; kept because `benchmark/`
    /// reads it.
    pub presolve_removed_rows: u64,
    /// Constraint rows of the LP the search solved: the model's own.
    pub rows: u64,
    /// Columns of the LP the search solved: the model's own.
    pub cols: u64,
    /// Relative gap between the returned solution and the best remaining
    /// bound: `0.0` when optimality was proven, and the gap to the best
    /// open (or numerically skipped) node's bound otherwise.
    pub optimality_gap: f64,
}

/// An integer-feasible solution of a [`Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value of each variable, indexed by [`VarId::index`](crate::VarId::index).
    pub values: Vec<f64>,
    /// Objective value in the model's sense.
    pub objective: f64,
    /// Whether optimality was proven.
    pub status: SolutionStatus,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// LP-engine counters of this solve.
    pub stats: SolveStats,
}

impl Solution {
    /// Returns the rounded 0/1 value of a binary variable.
    pub fn binary_value(&self, var: crate::VarId) -> bool {
        self.values[var.index()] > 0.5
    }

    /// Returns the value of a variable.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Budget and behaviour knobs for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum number of branch-and-bound nodes to explore: the solve's
    /// only budget.
    pub max_nodes: usize,
    /// Relative optimality gap at which the search stops early with status
    /// [`SolutionStatus::Feasible`] and that gap (or less) reported. `0.0`
    /// (the default) disables the early stop: the search only ends when the
    /// tree is exhausted or the node budget is spent.
    pub relative_gap: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_nodes: 20_000,
            relative_gap: 0.0,
        }
    }
}

/// Absolute tolerance for considering a relaxation value integral.
const INTEGRALITY_TOL: f64 = 1e-6;

/// Branch-and-bound solver for models with binary variables.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    options: SolverOptions,
    warm_start: Option<Vec<f64>>,
    objective_bound: Option<f64>,
}

/// An open node of the search tree. `bound` is the parent's LP objective —
/// a valid bound on every solution below this node — and `seq` is the
/// insertion number that makes heap order total and deterministic. A node
/// on the best-bound heap carries its parent's final `basis`, to restart
/// from when it is popped; a dive node carries none, because its parent is
/// the node solved just before it.
struct OpenNode {
    bounds: Vec<VarBound>,
    bound: f64,
    seq: u64,
    basis: Option<BasisSnapshot>,
}

/// Max-heap adapter: pops the open node with the best bound; ties pop the
/// oldest node first.
struct ByBound {
    node: OpenNode,
    /// Larger is better-to-explore: the bound negated for minimisation.
    score: f64,
}

impl PartialEq for ByBound {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ByBound {}
impl PartialOrd for ByBound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByBound {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.node.seq.cmp(&self.node.seq))
    }
}

impl Solver {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with the given options.
    pub fn with_options(options: SolverOptions) -> Self {
        Solver {
            options,
            warm_start: None,
            objective_bound: None,
        }
    }

    /// Supplies an integer-feasible starting point used as the initial
    /// incumbent (it is validated and ignored if infeasible).
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Supplies a bound on the optimal objective known from outside the
    /// model: a value no integer-feasible solution beats (a lower bound for
    /// minimisation, an upper bound for maximisation). The search stops,
    /// [`SolutionStatus::Optimal`], as soon as its incumbent is within the
    /// tolerance that decides whether one objective is better than another
    /// (`1e-12`) of it. A feasible, integral warm start is checked before
    /// the root relaxation: one that meets the bound is returned with no LP
    /// solved (0 nodes, 0 LP iterations, gap 0). After the root, every new
    /// incumbent is checked. The bound never enters the LP, so every
    /// relaxation, and the tree up to the stop, is the one the search would
    /// explore without it. A bound that is not valid can make the search
    /// claim an optimum it does not have.
    pub fn objective_bound(mut self, bound: f64) -> Self {
        self.objective_bound = Some(bound);
        self
    }

    /// Solves `model` to (proven or budget-limited) optimality.
    ///
    /// With a trace collector ambient, the whole solve runs under an
    /// `ilp.solve` span (with the solved LP's `rows` and `cols` as args),
    /// every branch-and-bound relaxation under an `ilp.node` span, and the
    /// [`SolveStats`] of each successful solve are accumulated into the
    /// `ilp.nodes` / `ilp.lp_iterations` / `ilp.lp_warm_starts` /
    /// `ilp.lp_cold_solves` / `ilp.refactorizations` / `ilp.bound_flips`
    /// counters; a search that its [objective bound](Solver::objective_bound)
    /// ended counts in `ilp.bound_stops`. The collector is write-only: it
    /// cannot change the solution.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::EmptyModel`] / [`IlpError::UnknownVariable`] for a
    /// model [`Model::validate`] rejects, [`IlpError::Infeasible`] /
    /// [`IlpError::Unbounded`] when the root relaxation already fails, and
    /// [`IlpError::NoIntegerSolution`] when the budget is exhausted without
    /// any integer-feasible point.
    pub fn solve(&self, model: &Model) -> Result<Solution> {
        let mut solve_span = sgmap_trace::span("ilp.solve");
        let result = self.solve_inner(model);
        if let Ok(s) = &result {
            solve_span.arg("rows", s.stats.rows);
            solve_span.arg("cols", s.stats.cols);
            sgmap_trace::add("ilp.nodes", s.stats.nodes);
            sgmap_trace::add("ilp.lp_iterations", s.stats.lp_iterations);
            sgmap_trace::add("ilp.lp_warm_starts", s.stats.lp_warm_starts);
            sgmap_trace::add("ilp.lp_cold_solves", s.stats.lp_cold_solves);
            sgmap_trace::add("ilp.refactorizations", s.stats.refactorizations);
            sgmap_trace::add("ilp.bound_flips", s.stats.bound_flips);
        }
        result
    }

    fn solve_inner(&self, model: &Model) -> Result<Solution> {
        model.validate()?;
        let minimize = model.objective_sense() == ObjectiveSense::Minimize;
        let better = |a: f64, b: f64| is_better(minimize, a, b);
        // Whether an incumbent objective meets the caller's bound, so that no
        // solution is better by more than rounding noise.
        let at_bound = |obj: f64| self.objective_bound.is_some_and(|b| !better(b, obj));
        // The branching candidates, listed once for the warm start's and
        // every node's integrality test, branching choice and rounding.
        let binaries = model.binary_vars();

        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        if let Some(ws) = &self.warm_start {
            if ws.len() == model.num_vars()
                && model.is_feasible(ws, 1e-6)
                && is_integral(&binaries, ws)
            {
                incumbent = Some((ws.clone(), model.evaluate_objective(ws)));
            }
        }
        let finish_stats = |nodes_explored: usize, lp: LpStats, gap: f64| SolveStats {
            nodes: nodes_explored as u64,
            lp_iterations: lp.iterations,
            lp_warm_starts: lp.warm_starts,
            lp_cold_solves: lp.cold_solves,
            refactorizations: lp.refactorizations,
            bound_flips: lp.bound_flips,
            presolve_removed_rows: 0,
            rows: model.num_constraints() as u64,
            cols: model.num_vars() as u64,
            optimality_gap: gap,
        };
        // A warm start that meets the objective bound is optimal as it
        // stands: nothing to relax, nothing to branch on.
        if let Some((values, objective)) = incumbent.take_if(|(_, obj)| at_bound(*obj)) {
            sgmap_trace::add("ilp.bound_stops", 1);
            return Ok(Solution {
                values,
                objective,
                status: SolutionStatus::Optimal,
                nodes_explored: 0,
                stats: finish_stats(0, LpStats::default(), 0.0),
            });
        }

        // The LP workspace every node shares: one sparse matrix, one basis
        // warm-started from node to node.
        let mut lp = LpWorkspace::new(model);
        let mut nodes_explored = 0usize;
        // Best bound among the nodes dropped for numerical trouble: their
        // subtrees were never searched.
        let mut dropped: Option<f64> = None;

        // Open nodes: a best-bound heap plus a dive stack holding the
        // preferred child of the last branching, so the search plunges for an
        // early incumbent and then continues from the best bound.
        let mut heap: BinaryHeap<ByBound> = BinaryHeap::new();
        let mut dive: Vec<OpenNode> = Vec::new();
        let mut seq = 0u64;
        let score_of = |bound: f64| if minimize { -bound } else { bound };

        // Root relaxation (cold primal solve).
        nodes_explored += 1;
        let root_outcome = {
            let _node_span = sgmap_trace::span("ilp.node");
            lp.solve(&[])
        };
        let root = match root_outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible => return Err(IlpError::Infeasible),
            LpOutcome::Unbounded => return Err(IlpError::Unbounded),
            LpOutcome::Numerical(msg) => return Err(IlpError::Numerical(msg)),
        };
        if is_integral(&binaries, &root.values) {
            let values = round_binaries(&binaries, root.values);
            let objective = model.evaluate_objective(&values);
            return Ok(Solution {
                values,
                objective,
                status: SolutionStatus::Optimal,
                nodes_explored,
                stats: finish_stats(nodes_explored, lp.stats, 0.0),
            });
        }
        push_children(
            &mut heap,
            &mut dive,
            &mut seq,
            score_of,
            &binaries,
            &root,
            root.objective,
            &[],
            lp.basis.snapshot(),
        );
        // Whether a new incumbent met the objective bound and ended the
        // search.
        let mut proven = false;

        // Best remaining bound among the open nodes,
        // optionally also covering one just-popped node.
        let peek_bound = |heap: &BinaryHeap<ByBound>, dive: &[OpenNode], extra: Option<f64>| {
            let mut best: Option<f64> = extra;
            if let Some(top) = heap.peek() {
                best = Some(best_of(minimize, best, top.node.bound));
            }
            for n in dive {
                best = Some(best_of(minimize, best, n.bound));
            }
            best
        };

        loop {
            // Dive first (plunge towards an incumbent), then best bound.
            let node = match dive.pop() {
                Some(n) => n,
                None => match heap.pop() {
                    Some(b) => b.node,
                    None => break,
                },
            };
            if nodes_explored >= self.options.max_nodes {
                // Keep the node's bound visible to the gap computation.
                let score = score_of(node.bound);
                heap.push(ByBound { node, score });
                break;
            }
            // Bound pruning against the incumbent, and the optional early
            // stop once the whole frontier is within `relative_gap`.
            if let Some((_, inc_obj)) = &incumbent {
                if !better(node.bound, *inc_obj) {
                    continue;
                }
                if self.options.relative_gap > 0.0 {
                    if let Some(frontier) = peek_bound(&heap, &dive, Some(node.bound)) {
                        if gap_between(minimize, *inc_obj, frontier) <= self.options.relative_gap {
                            let score = score_of(node.bound);
                            heap.push(ByBound { node, score });
                            break;
                        }
                    }
                }
            }
            nodes_explored += 1;
            let outcome = {
                let mut node_span = sgmap_trace::span("ilp.node");
                node_span.arg("depth", node.bounds.len());
                // A heap node restarts from its parent's basis: the live one
                // belongs to whichever node was solved last, possibly far
                // away in the tree.
                if let Some(basis) = &node.basis {
                    lp.restore(basis);
                }
                lp.solve(&node.bounds)
            };
            let relax = match outcome {
                LpOutcome::Optimal(s) => s,
                LpOutcome::Infeasible => continue,
                // A numerically troubled node is skipped rather than
                // aborting the whole search; the incumbent stays valid, but
                // the unsearched subtree's bound stays in the gap.
                LpOutcome::Numerical(_) => {
                    dropped = Some(best_of(minimize, dropped, node.bound));
                    continue;
                }
                LpOutcome::Unbounded => return Err(IlpError::Unbounded),
            };
            if let Some((_, inc_obj)) = &incumbent {
                if !better(relax.objective, *inc_obj) {
                    continue;
                }
            }
            if is_integral(&binaries, &relax.values) {
                // Integer feasible: candidate incumbent.
                let values = round_binaries(&binaries, relax.values);
                let obj = model.evaluate_objective(&values);
                let accept = match &incumbent {
                    None => true,
                    Some((_, inc_obj)) => better(obj, *inc_obj),
                };
                if accept {
                    incumbent = Some((values, obj));
                    if at_bound(obj) {
                        proven = true;
                        break;
                    }
                }
            } else {
                push_children(
                    &mut heap,
                    &mut dive,
                    &mut seq,
                    score_of,
                    &binaries,
                    &relax,
                    relax.objective,
                    &node.bounds,
                    lp.basis.snapshot(),
                );
            }
        }

        match incumbent {
            Some((values, objective)) => {
                let (status, gap) = if proven {
                    sgmap_trace::add("ilp.bound_stops", 1);
                    (SolutionStatus::Optimal, 0.0)
                } else {
                    search_end(minimize, objective, peek_bound(&heap, &dive, None), dropped)
                };
                Ok(Solution {
                    values,
                    objective,
                    status,
                    nodes_explored,
                    stats: finish_stats(nodes_explored, lp.stats, gap),
                })
            }
            None => Err(IlpError::NoIntegerSolution),
        }
    }
}

/// Whether objective value `a` is better than `b`: smaller for minimisation,
/// larger for maximisation, by more than rounding noise.
fn is_better(minimize: bool, a: f64, b: f64) -> bool {
    if minimize {
        a < b - 1e-12
    } else {
        a > b + 1e-12
    }
}

/// The better of an optional bound and another one.
fn best_of(minimize: bool, current: Option<f64>, bound: f64) -> f64 {
    match current {
        Some(cur) if is_better(minimize, cur, bound) => cur,
        _ => bound,
    }
}

/// Status and gap of a search that ends with an incumbent. `frontier` is the
/// best bound still open: none once the tree is exhausted, some after a
/// node-budget or relative-gap stop (either pushes the popped node back).
/// `dropped` is the best bound of the nodes skipped for numerical trouble.
///
/// Optimality needs every subtree searched or pruned: an open node, or a
/// dropped one whose bound still beats the incumbent, may hide a better
/// solution, so it makes the result [`SolutionStatus::Feasible`] and the
/// better of those bounds enters the gap.
fn search_end(
    minimize: bool,
    incumbent: f64,
    frontier: Option<f64>,
    dropped: Option<f64>,
) -> (SolutionStatus, f64) {
    let dropped = dropped.filter(|&b| is_better(minimize, b, incumbent));
    match frontier.map(|f| best_of(minimize, dropped, f)).or(dropped) {
        Some(bound) => (
            SolutionStatus::Feasible,
            gap_between(minimize, incumbent, bound),
        ),
        None => (SolutionStatus::Optimal, 0.0),
    }
}

/// Relative gap between an incumbent objective and a valid bound, clamped at
/// zero (an already-pruned frontier can trail the incumbent).
fn gap_between(minimize: bool, incumbent: f64, bound: f64) -> f64 {
    let diff = if minimize {
        incumbent - bound
    } else {
        bound - incumbent
    };
    diff.max(0.0) / incumbent.abs().max(1e-9)
}

/// Branches on the most fractional binary of `relax`: the preferred
/// ("rounded") child goes on the dive stack so it is explored next, from
/// the live basis; the other child enters the best-bound heap under the
/// parent's bound, carrying the parent's final `basis`.
#[allow(clippy::too_many_arguments)]
fn push_children(
    heap: &mut BinaryHeap<ByBound>,
    dive: &mut Vec<OpenNode>,
    seq: &mut u64,
    score_of: impl Fn(f64) -> f64,
    binaries: &[VarId],
    relax: &LpSolution,
    bound: f64,
    bounds: &[VarBound],
    basis: BasisSnapshot,
) {
    let branch_var = match most_fractional(binaries, relax) {
        Some(v) => v,
        None => return,
    };
    let frac = relax.values[branch_var];
    let mut lo_bounds = Vec::with_capacity(bounds.len() + 1);
    lo_bounds.extend_from_slice(bounds);
    lo_bounds.push(VarBound {
        var: branch_var,
        lo: 0.0,
        hi: 0.0,
    });
    let mut hi_bounds = Vec::with_capacity(bounds.len() + 1);
    hi_bounds.extend_from_slice(bounds);
    hi_bounds.push(VarBound {
        var: branch_var,
        lo: 1.0,
        hi: 1.0,
    });
    let mut node_of = |bounds: Vec<VarBound>| {
        *seq += 1;
        OpenNode {
            bounds,
            bound,
            seq: *seq,
            basis: None,
        }
    };
    let (preferred, mut other) = if frac >= 0.5 {
        (node_of(hi_bounds), node_of(lo_bounds))
    } else {
        (node_of(lo_bounds), node_of(hi_bounds))
    };
    other.basis = Some(basis);
    let score = score_of(other.bound);
    heap.push(ByBound { node: other, score });
    dive.push(preferred);
}

/// Returns the index of the binary variable whose relaxation value is the
/// most fractional, or `None` if all binaries are integral.
fn most_fractional(binaries: &[VarId], relax: &LpSolution) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for var in binaries {
        let v = relax.values[var.index()];
        let frac = (v - v.round()).abs();
        if frac > INTEGRALITY_TOL {
            let dist_to_half = (0.5 - (v - v.floor())).abs();
            match best {
                None => best = Some((var.index(), dist_to_half)),
                Some((_, d)) if dist_to_half < d => best = Some((var.index(), dist_to_half)),
                _ => {}
            }
        }
    }
    best.map(|(i, _)| i)
}

fn is_integral(binaries: &[VarId], values: &[f64]) -> bool {
    binaries
        .iter()
        .all(|v| (values[v.index()] - values[v.index()].round()).abs() <= INTEGRALITY_TOL)
}

fn round_binaries(binaries: &[VarId], mut values: Vec<f64>) -> Vec<f64> {
    for v in binaries {
        values[v.index()] = values[v.index()].round().clamp(0.0, 1.0);
    }
    for v in values.iter_mut() {
        if v.abs() < TOL {
            *v = 0.0;
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense};

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // max 10a + 13b + 7c + 5d  s.t. 3a + 4b + 2c + 1d <= 6.
        // Optimum: a + c + d = 22 with weight 6 (b + c = 20 at weight 6).
        let mut m = Model::new(ObjectiveSense::Maximize);
        let a = m.add_binary(10.0);
        let b = m.add_binary(13.0);
        let c = m.add_binary(7.0);
        let d = m.add_binary(5.0);
        m.add_constraint_le(vec![(a, 3.0), (b, 4.0), (c, 2.0), (d, 1.0)], 6.0);
        let s = Solver::new().solve(&m).unwrap();
        assert_eq!(s.status, SolutionStatus::Optimal);
        assert!((s.objective - 22.0).abs() < 1e-6);
        assert!(s.binary_value(a) && s.binary_value(c) && s.binary_value(d));
        assert!(!s.binary_value(b));
        assert!(s.stats.nodes >= 1);
        assert!(s.stats.lp_iterations >= 1);
        assert_eq!(s.stats.optimality_gap, 0.0);
    }

    #[test]
    fn assignment_problem_with_equalities() {
        // Assign 3 jobs to 3 machines, minimise cost.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new(ObjectiveSense::Minimize);
        let mut x = vec![vec![]; 3];
        for (i, xi) in x.iter_mut().enumerate() {
            for &c in &cost[i] {
                xi.push(m.add_binary(c));
            }
        }
        for xi in &x {
            m.add_constraint_eq(xi.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
        for j in 0..3 {
            m.add_constraint_eq(x.iter().map(|xi| (xi[j], 1.0)).collect(), 1.0);
        }
        let s = Solver::new().solve(&m).unwrap();
        // Best permutations reach 12 (e.g. job0->m1, job1->m0, job2->m2).
        assert!((s.objective - 12.0).abs() < 1e-6);
        assert_eq!(s.status, SolutionStatus::Optimal);
    }

    #[test]
    fn mixed_integer_min_max_structure() {
        // Mimics the mapping formulation: minimise t with t >= load of each
        // of 2 bins, items {5, 4, 3, 2} assigned to exactly one bin.
        let w = [5.0, 4.0, 3.0, 2.0];
        let mut m = Model::new(ObjectiveSense::Minimize);
        let t = m.add_continuous(1.0);
        let mut x = Vec::new();
        for _ in &w {
            x.push([m.add_binary(0.0), m.add_binary(0.0)]);
        }
        for xs in &x {
            m.add_constraint_eq(vec![(xs[0], 1.0), (xs[1], 1.0)], 1.0);
        }
        for bin in 0..2 {
            let mut terms: Vec<_> = x
                .iter()
                .enumerate()
                .map(|(i, xs)| (xs[bin], w[i]))
                .collect();
            terms.push((t, -1.0));
            m.add_constraint_le(terms, 0.0);
        }
        let s = Solver::new().solve(&m).unwrap();
        // Perfect split: {5,2} and {4,3} -> makespan 7.
        assert!((s.objective - 7.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_is_used_as_incumbent() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_constraint_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let s = Solver::new().warm_start(vec![1.0, 0.0]).solve(&m).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_model_is_reported() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_constraint_ge(vec![(a, 1.0), (b, 1.0)], 3.0);
        assert!(matches!(
            Solver::new().solve(&m),
            Err(IlpError::Infeasible) | Err(IlpError::NoIntegerSolution)
        ));
    }

    #[test]
    fn tight_budget_still_returns_a_feasible_solution() {
        // A slightly larger knapsack with a tiny node budget: the solver
        // should still return something feasible via the root or warm start
        // rather than erroring, or report NoIntegerSolution cleanly.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_binary(1.0 + (i as f64) * 0.3))
            .collect();
        m.add_constraint_le(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
        let opts = SolverOptions {
            max_nodes: 2,
            ..SolverOptions::default()
        };
        let warm: Vec<f64> = (0..8).map(|i| if i < 3 { 1.0 } else { 0.0 }).collect();
        let s = Solver::with_options(opts)
            .warm_start(warm)
            .solve(&m)
            .unwrap();
        assert!(s.objective >= 3.0 - 1e-6);
    }

    #[test]
    fn pure_lp_model_is_answered_by_the_root_relaxation() {
        // min x with x >= 2.5: no binaries, so the cold root solve is the
        // whole search.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        m.add_constraint_ge(vec![(x, 1.0)], 2.5);
        let s = Solver::new().solve(&m).unwrap();
        assert_eq!(s.status, SolutionStatus::Optimal);
        assert!((s.objective - 2.5).abs() < 1e-6);
        assert_eq!(s.nodes_explored, 1);
        assert_eq!(s.stats.lp_cold_solves, 1);
        assert_eq!(s.stats.lp_warm_starts, 0);
        assert_eq!(s.stats.optimality_gap, 0.0);
    }

    #[test]
    fn deeper_searches_warm_start_their_nodes() {
        // An assignment-flavoured model big enough to branch several times.
        let cost = [
            [4.0, 2.0, 8.0, 5.0],
            [4.0, 3.0, 7.0, 6.0],
            [3.0, 1.0, 6.0, 4.0],
            [5.0, 2.0, 3.0, 7.0],
        ];
        let mut m = Model::new(ObjectiveSense::Minimize);
        let mut x = vec![vec![]; 4];
        for (i, xi) in x.iter_mut().enumerate() {
            for &c in &cost[i] {
                xi.push(m.add_binary(c));
            }
        }
        for xi in &x {
            m.add_constraint_eq(xi.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
        for j in 0..4 {
            m.add_constraint_eq(x.iter().map(|xi| (xi[j], 1.0)).collect(), 1.0);
        }
        // Couple the assignments so the LP relaxation is fractional.
        let all: Vec<_> = x
            .iter()
            .flat_map(|xi| xi.iter().map(|&v| (v, 1.0)))
            .collect();
        m.add_constraint_le(all, 4.0);
        let s = Solver::new().solve(&m).unwrap();
        assert_eq!(s.status, SolutionStatus::Optimal);
        if s.nodes_explored > 1 {
            assert!(
                s.stats.lp_warm_starts > 0,
                "every non-root node should try the dual warm start: {:?}",
                s.stats
            );
        }
    }

    #[test]
    fn node_budget_reports_the_frontier_gap() {
        // Stop right after the root relaxation, or a couple of nodes later:
        // open nodes remain, the warm-start incumbent (or a better one) comes
        // back Feasible, and the frontier's best bound yields a finite gap.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(3.0 + ((i * 7) % 5) as f64))
            .collect();
        m.add_constraint_le(vars.iter().map(|&v| (v, 2.0)).collect(), 9.0);
        for pair in vars.chunks(2) {
            m.add_constraint_le(pair.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
        let warm: Vec<f64> = (0..10)
            .map(|i| if i == 0 || i == 2 { 1.0 } else { 0.0 })
            .collect();
        let warm_objective = m.evaluate_objective(&warm);
        for max_nodes in [1, 3] {
            let opts = SolverOptions {
                max_nodes,
                ..SolverOptions::default()
            };
            let s = Solver::with_options(opts)
                .warm_start(warm.clone())
                .solve(&m)
                .unwrap();
            assert_eq!(s.status, SolutionStatus::Feasible, "{max_nodes} nodes");
            assert!(s.objective >= warm_objective - 1e-9);
            let gap = s.stats.optimality_gap;
            assert!(gap.is_finite() && gap > 0.0, "{max_nodes} nodes: gap {gap}");
        }
    }

    #[test]
    fn an_objective_bound_ends_the_search_at_an_incumbent_that_meets_it() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(3.0 + ((i * 7) % 5) as f64))
            .collect();
        m.add_constraint_le(vars.iter().map(|&v| (v, 2.0)).collect(), 9.0);
        for pair in vars.chunks(2) {
            m.add_constraint_le(pair.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
        let exact = Solver::new().solve(&m).unwrap();
        assert!(exact.nodes_explored > 1, "the root LP is fractional");

        // An optimal warm start at the bound: proven before any LP.
        let s = Solver::new()
            .warm_start(exact.values.clone())
            .objective_bound(exact.objective)
            .solve(&m)
            .unwrap();
        assert_eq!(s.status, SolutionStatus::Optimal);
        assert_eq!((s.nodes_explored, s.stats.nodes), (0, 0));
        assert_eq!(s.stats.lp_iterations, 0);
        assert_eq!(s.stats.optimality_gap, 0.0);
        assert_eq!(s.values, exact.values);

        // Without a warm start the first incumbent at the bound ends it.
        let s = Solver::new()
            .objective_bound(exact.objective)
            .solve(&m)
            .unwrap();
        assert_eq!(s.status, SolutionStatus::Optimal);
        assert_eq!(s.objective, exact.objective);
        assert!(s.nodes_explored <= exact.nodes_explored);

        // A bound no solution meets leaves the search as it was.
        let s = Solver::new()
            .objective_bound(exact.objective + 1.0)
            .solve(&m)
            .unwrap();
        assert_eq!(s.values, exact.values);
        assert_eq!(s.stats, exact.stats);
    }

    #[test]
    fn a_warm_start_at_the_bound_is_proven_before_any_lp() {
        // min t with t >= 2a + 2b and a + b = 1: every feasible point, the
        // fractional ones included, has t = 2, the bound.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let t = m.add_continuous(1.0);
        let a = m.add_binary(0.0);
        let b = m.add_binary(0.0);
        m.add_constraint_eq(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.add_constraint_le(vec![(a, 2.0), (b, 2.0), (t, -1.0)], 0.0);
        let solve = |warm: Vec<f64>| {
            let collector = std::sync::Arc::new(sgmap_trace::Collector::new());
            let s = sgmap_trace::scope(Some(&collector), || {
                Solver::new()
                    .warm_start(warm)
                    .objective_bound(2.0)
                    .solve(&m)
                    .unwrap()
            });
            let lp_nodes = collector
                .span_totals()
                .get("ilp.node")
                .map_or(0, |n| n.count);
            (s, lp_nodes, collector.counter("ilp.bound_stops"))
        };

        let (s, lp_nodes, bound_stops) = solve(vec![2.0, 1.0, 0.0]);
        assert_eq!(s.status, SolutionStatus::Optimal);
        assert_eq!(s.values, [2.0, 1.0, 0.0]);
        assert_eq!(s.objective, 2.0);
        assert_eq!((s.nodes_explored, s.stats.nodes, lp_nodes), (0, 0, 0));
        assert_eq!(s.stats.lp_iterations, 0);
        assert_eq!(s.stats.lp_cold_solves, 0);
        assert_eq!(s.stats.optimality_gap, 0.0);
        assert_eq!((s.stats.rows, s.stats.cols), (2, 3));
        assert_eq!(bound_stops, 1);

        // An infeasible warm start and a fractional one, both with the
        // bound's objective, are dropped, and the root LP answers the model.
        for warm in [vec![2.0, 1.0, 1.0], vec![2.0, 0.5, 0.5]] {
            let (s, lp_nodes, bound_stops) = solve(warm.clone());
            assert_eq!(s.status, SolutionStatus::Optimal, "{warm:?}");
            assert!((s.objective - 2.0).abs() < 1e-9, "{warm:?}");
            assert_eq!((s.stats.nodes, lp_nodes), (1, 1), "{warm:?}");
            assert_eq!(s.stats.lp_cold_solves, 1, "{warm:?}");
            assert!(s.stats.lp_iterations > 0, "{warm:?}");
            assert_eq!(bound_stops, 0, "{warm:?}");
        }
    }

    #[test]
    fn a_node_dropped_for_numerical_trouble_forbids_an_optimal_claim() {
        // Tree exhausted, nothing dropped: proven optimal.
        assert_eq!(
            search_end(true, 10.0, None, None),
            (SolutionStatus::Optimal, 0.0)
        );
        // A dropped subtree whose bound beats the incumbent may hide a
        // better solution: feasible, with that bound in the gap.
        assert_eq!(
            search_end(true, 10.0, None, Some(8.0)),
            (SolutionStatus::Feasible, 0.2)
        );
        assert_eq!(
            search_end(false, 10.0, None, Some(12.0)),
            (SolutionStatus::Feasible, 0.2)
        );
        // One the incumbent prunes anyway hides nothing.
        assert_eq!(
            search_end(true, 10.0, None, Some(10.0)),
            (SolutionStatus::Optimal, 0.0)
        );
        assert_eq!(
            search_end(false, 10.0, None, Some(9.0)),
            (SolutionStatus::Optimal, 0.0)
        );
        // A node-budget or relative-gap stop leaves a frontier open: feasible,
        // with the better of the frontier and the dropped bounds in the gap.
        assert_eq!(
            search_end(true, 10.0, Some(9.5), None),
            (SolutionStatus::Feasible, 0.05)
        );
        assert_eq!(
            search_end(true, 10.0, Some(9.5), Some(9.0)),
            (SolutionStatus::Feasible, 0.1)
        );
        assert_eq!(
            search_end(true, 10.0, Some(9.5), Some(7.5)),
            (SolutionStatus::Feasible, 0.25)
        );
        assert_eq!(
            search_end(true, 10.0, Some(9.0), Some(9.5)),
            (SolutionStatus::Feasible, 0.1)
        );
        // A frontier the incumbent already prunes still was not searched.
        assert_eq!(
            search_end(true, 10.0, Some(10.0), None),
            (SolutionStatus::Feasible, 0.0)
        );
    }

    #[test]
    fn relative_gap_early_stop_reports_feasible_within_the_gap() {
        // With a huge allowed gap the search stops at the first incumbent
        // without proving it optimal: Feasible, with the frontier gap
        // reported and within the requested one.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(5.0 + ((i * 3) % 7) as f64))
            .collect();
        m.add_constraint_le(vars.iter().map(|&v| (v, 3.0)).collect(), 10.0);
        for pair in vars.chunks(2) {
            m.add_constraint_le(pair.iter().map(|&v| (v, 1.0)).collect(), 1.0);
        }
        let opts = SolverOptions {
            relative_gap: 0.9,
            ..SolverOptions::default()
        };
        let s = Solver::with_options(opts).solve(&m).unwrap();
        assert_eq!(s.status, SolutionStatus::Feasible);
        assert!(
            s.stats.optimality_gap <= 0.9,
            "gap {} exceeds the requested 0.9",
            s.stats.optimality_gap
        );
        // The exact solve must never be worse than the gap-limited one.
        let exact = Solver::new().solve(&m).unwrap();
        assert!(exact.objective >= s.objective - 1e-9);
    }
}
