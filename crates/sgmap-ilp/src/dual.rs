//! Bounded-variable dual simplex — the warm-start engine.
//!
//! Starts from a dual-feasible basis (the node's parent's optimal basis —
//! still live for a dive child, restored from a snapshot for a best-bound
//! pop — after the nonbasic-state remap in [`LpWorkspace::solve`]) whose
//! basic values may violate the new bounds, and restores primal feasibility
//! while keeping the reduced costs sign-consistent.
//!
//! Each iteration:
//!
//! 1. picks the leaving row by **devex pricing** — the violated basic with
//!    the largest `violation²/γ_i` reference-weight score
//!    ([`crate::pricing::DevexWeights`]) — instead of raw most-violated,
//! 2. computes the pivot row `ρ = e_r'B⁻¹` by one btran and `α_j = ρ·a_j`,
//! 3. runs the **bound-flipping ratio test** (longest-step rule): the dual
//!    ratio-test breakpoints are sorted by ratio, and *boxed* candidates
//!    strictly below the blocking breakpoint flip to their opposite bound —
//!    absorbing part of the row's infeasibility without a pivot — while the
//!    entering variable is the largest-|α| candidate of the blocking tier
//!    (the stable pivot, decisive on degenerate all-zero-ratio rows),
//! 4. pivots, updates the reduced costs incrementally from the pivot row
//!    (`d ← d − (d_q/α_q)·α`), applies the accumulated flips to `xb` with a
//!    single ftran, and updates the devex weights.
//!
//! Selection rules are deterministic: highest devex score with lowest basic
//! variable index on ties, breakpoints ordered by `(ratio, column index)`,
//! and Bland-style lowest-index selection (no flips) past the stall
//! threshold.

use crate::basis::VarState;
use crate::workspace::{LoopEnd, LpWorkspace, PIVOT_TOL, PRIMAL_TOL, STABLE_PIVOT_REL};

/// Tolerance that groups dual ratio-test breakpoints into one tier: ratios
/// (and |α| magnitudes) closer than this are treated as ties.
const RATIO_TIE: f64 = 1e-12;

impl LpWorkspace {
    /// Runs the dual simplex to primal feasibility. Expects `self.d` to hold
    /// the reduced costs of the current basis (see
    /// [`LpWorkspace::compute_reduced_costs`]).
    pub(crate) fn dual_simplex(&mut self) -> LoopEnd {
        let m = self.cols.m;
        let n_total = self.cols.n_total();
        let cap = self.iteration_cap();
        let bland_after = self.bland_threshold();
        self.devex.reset(m);
        let mut breakpoints: Vec<(f64, u32)> = Vec::new();
        let mut flips: Vec<u32> = Vec::new();

        for iter in 0..cap {
            if self.basis.wants_refactor() {
                if !self.refactor_and_sync() {
                    return LoopEnd::Stalled;
                }
                self.compute_reduced_costs();
            }
            let use_bland = iter > bland_after;

            // Leaving row: the violated basic with the best devex score
            // (plain worst violation under Bland's rule).
            let mut leaving: Option<(usize, f64, bool)> = None; // (row, viol, below)
            let mut leaving_bv = usize::MAX;
            let mut best_score = 0.0f64;
            for i in 0..m {
                let bv = self.basis.basic[i] as usize;
                let v = self.xb[i];
                let (viol, below) = if v < self.lo[bv] - PRIMAL_TOL {
                    (self.lo[bv] - v, true)
                } else if v > self.hi[bv] + PRIMAL_TOL {
                    (v - self.hi[bv], false)
                } else {
                    continue;
                };
                let score = self.devex.score(i, viol);
                let take = match leaving {
                    None => true,
                    Some(_) if use_bland => bv < leaving_bv,
                    Some(_) => {
                        score > best_score + 1e-12
                            || (score > best_score - 1e-12 && bv < leaving_bv)
                    }
                };
                if take {
                    leaving = Some((i, viol, below));
                    leaving_bv = bv;
                    best_score = score;
                }
            }
            let (r, viol, below) = match leaving {
                Some(l) => l,
                None => return LoopEnd::Done, // primal feasible: optimal
            };

            // Pivot row of the tableau: α_j = ρ·a_j with ρ = e_r'B⁻¹.
            let mut rho = std::mem::take(&mut self.rho);
            self.basis.btran_unit(r, &mut rho);
            let mut alpha = std::mem::take(&mut self.alpha);
            alpha.clear();
            alpha.resize(n_total, 0.0);
            // Collect the dual ratio-test breakpoints: columns that move the
            // leaving variable towards its violated bound, ordered by the
            // ratio at which their reduced cost hits zero.
            breakpoints.clear();
            let mut bland_entering: Option<usize> = None;
            for (j, slot) in alpha.iter_mut().enumerate() {
                match self.basis.state[j] {
                    VarState::Basic(_) => continue,
                    _ if self.lo[j] == self.hi[j] => continue, // fixed
                    _ => {}
                }
                let a = self.cols.dot_col(&rho, j);
                *slot = a;
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let eligible = match (below, self.basis.state[j]) {
                    (true, VarState::AtLower) => a < 0.0,
                    (true, VarState::AtUpper) => a > 0.0,
                    (false, VarState::AtLower) => a > 0.0,
                    (false, VarState::AtUpper) => a < 0.0,
                    (_, VarState::Basic(_)) => false,
                };
                if !eligible {
                    continue;
                }
                if use_bland {
                    if bland_entering.is_none() {
                        bland_entering = Some(j);
                    }
                    continue;
                }
                breakpoints.push((self.d[j].abs() / a.abs(), j as u32));
            }
            self.rho = rho;

            // Bound-flipping ratio test: walk the breakpoints in ratio
            // order; a boxed candidate whose whole step still leaves the row
            // infeasible absorbs it by flipping to its other bound, the
            // first blocking breakpoint sets the dual step. Only candidates
            // *strictly* below the step actually flip — their reduced costs
            // cross zero, so staying put would break dual feasibility;
            // candidates at the step land on `d = 0` and stay. The entering
            // variable is the largest-|α| member of the blocking tier
            // (ratios within `RATIO_TIE` of the step): on the massively
            // degenerate mapper LPs every ratio is zero, and a tiny pivot
            // there means a huge primal swing that trades one violation for
            // several new ones.
            flips.clear();
            let entering = if use_bland {
                bland_entering
            } else {
                breakpoints.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut residual = viol;
                let mut block = None;
                for (k, &(_, ju)) in breakpoints.iter().enumerate() {
                    let j = ju as usize;
                    let span = self.hi[j] - self.lo[j];
                    let gain = alpha[j].abs() * span;
                    if span.is_finite() && residual - gain > PRIMAL_TOL {
                        residual -= gain;
                    } else {
                        block = Some(k);
                        break;
                    }
                }
                block.map(|k| {
                    let theta = breakpoints[k].0;
                    let mut q = breakpoints[k].1 as usize;
                    for &(ratio, ju) in &breakpoints[k + 1..] {
                        if ratio > theta + RATIO_TIE {
                            break;
                        }
                        let j = ju as usize;
                        if alpha[j].abs() > alpha[q].abs() + RATIO_TIE {
                            q = j;
                        }
                    }
                    for &(ratio, ju) in &breakpoints[..k] {
                        if ratio < theta - RATIO_TIE && ju as usize != q {
                            flips.push(ju);
                        }
                    }
                    q
                })
            };
            let q = match entering {
                Some(q) => q,
                // Dual ray: the violated row cannot be repaired even with
                // every boxed candidate pushed to its far bound.
                None => {
                    self.alpha = alpha;
                    return LoopEnd::Infeasible;
                }
            };

            let mut w = std::mem::take(&mut self.w);
            self.basis.ftran(&self.cols, q, &mut w);
            let stable = w[r].abs() > PIVOT_TOL && {
                // A pivot that is tiny relative to its direction is only
                // trustworthy from fresh factors; through an eta file it may
                // be drift masking a true zero, and accepting it would make
                // the recorded basis singular.
                self.basis.is_fresh() || {
                    let winf = w.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                    w[r].abs() >= STABLE_PIVOT_REL * winf
                }
            };
            if !stable {
                self.w = w;
                self.alpha = alpha;
                if self.basis.is_fresh() {
                    // Fresh factors agree the pivot is unusable: the warm
                    // path is numerically lost, restart cold.
                    return LoopEnd::Stalled;
                }
                // Drifted factors: resynchronise and retry the iteration.
                if !self.refactor_and_sync() {
                    return LoopEnd::Stalled;
                }
                self.compute_reduced_costs();
                continue;
            }

            // Dual update of the reduced costs from the pivot row. Flipped
            // columns are updated too: their reduced cost crosses zero,
            // matching the bound they land on.
            let theta_d = self.d[q] / alpha[q];
            for (j, &a) in alpha.iter().enumerate() {
                if j == q || a == 0.0 {
                    continue;
                }
                if let VarState::Basic(_) = self.basis.state[j] {
                    continue;
                }
                self.d[j] -= theta_d * a;
            }

            // Primal update: the leaving variable lands on its violated
            // bound, the entering one moves off its bound by the matching
            // step.
            let leaving = self.basis.basic[r] as usize;
            let bound = if below {
                self.lo[leaving]
            } else {
                self.hi[leaving]
            };
            let entering_from = self.nb_value(q);

            // Apply the accumulated bound flips with a single ftran of the
            // summed flip directions against the *pre-pivot* basis:
            // xb ← xb − B⁻¹·(Σ δ_j a_j).
            if !flips.is_empty() {
                let mut acc = std::mem::take(&mut self.y);
                acc.clear();
                acc.resize(m, 0.0);
                for &ju in &flips {
                    let j = ju as usize;
                    let (delta, to) = match self.basis.state[j] {
                        VarState::AtLower => (self.hi[j] - self.lo[j], VarState::AtUpper),
                        VarState::AtUpper => (self.lo[j] - self.hi[j], VarState::AtLower),
                        VarState::Basic(_) => unreachable!("flip candidates are nonbasic"),
                    };
                    self.basis.state[j] = to;
                    match self.cols.logical_row(j) {
                        Some(row) => acc[row] += delta,
                        None => {
                            for (row, a) in self.cols.col(j) {
                                acc[row] += delta * a;
                            }
                        }
                    }
                }
                let mut shift = std::mem::take(&mut self.rho);
                self.basis.ftran_dense(&acc, &mut shift);
                for (i, &s) in shift.iter().enumerate() {
                    if s != 0.0 {
                        self.xb[i] -= s;
                    }
                }
                self.y = acc;
                self.rho = shift;
                self.stats.bound_flips += flips.len() as u64;
                self.stats.iterations += flips.len() as u64;
            }

            if !self.basis.pivot(m, r, q, &w) {
                // Unreachable in practice (the |w_r| > PIVOT_TOL check above
                // subsumes the factor update's tolerance); reduced costs and
                // flip states are already mutated, so the only safe recovery
                // is the caller's cold restart.
                self.w = w;
                self.alpha = alpha;
                return LoopEnd::Stalled;
            }
            self.devex.update(r, &w);

            let t_p = (self.xb[r] - bound) / w[r];
            let entering_value = entering_from + t_p;
            for (i, &wi) in w.iter().enumerate() {
                if i != r && wi != 0.0 {
                    self.xb[i] -= t_p * wi;
                }
            }
            self.xb[r] = entering_value;
            self.basis.state[leaving] = if below {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            self.d[leaving] = -theta_d;
            self.d[q] = 0.0;
            self.stats.iterations += 1;
            self.w = w;
            self.alpha = alpha;
        }
        LoopEnd::Stalled
    }
}
