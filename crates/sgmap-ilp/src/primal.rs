//! Bounded-variable primal simplex with a composite phase 1.
//!
//! One loop serves both phases: while any basic variable violates its
//! bounds, pricing uses the phase-1 costs (−1 for a basic below its lower
//! bound, +1 above its upper — the gradient of the total violation); once
//! the basis is feasible, pricing switches to the true costs. The ratio test
//! follows the textbook composite rules: a feasible basic blocks at either
//! bound, a violated basic blocks at the bound it is approaching (where it
//! turns feasible), the entering variable blocks at its own opposite bound
//! (a *bound flip* that leaves the basis unchanged).
//!
//! Pricing is Dantzig's rule with lowest-index tie-breaking and a switch to
//! Bland's rule after a stall threshold, so the pivot sequence is fully
//! deterministic.

use crate::basis::VarState;
use crate::workspace::{LoopEnd, LpWorkspace, DUAL_TOL, PIVOT_TOL, PRIMAL_TOL, STABLE_PIVOT_REL};

/// What blocks the entering variable's march.
enum Block {
    /// Nothing does: the problem is unbounded along this direction.
    None,
    /// Its own opposite bound: flip states, keep the basis.
    Flip,
    /// A basic variable reaches a bound: pivot on this row, leaving towards
    /// the given state.
    Row(usize, VarState),
}

impl LpWorkspace {
    /// Runs the composite primal simplex to optimality.
    pub(crate) fn primal_simplex(&mut self) -> LoopEnd {
        let m = self.cols.m;
        let n_total = self.cols.n_total();
        let cap = self.iteration_cap();
        let bland_after = self.bland_threshold();

        for iter in 0..cap {
            if self.basis.wants_refactor() && !self.refactor_and_sync() {
                return LoopEnd::Stalled;
            }

            // Phase-1 costs from the current bound violations: one btran of
            // the violation-sign vector yields the phase-1 simplex
            // multipliers.
            let mut infeasible = false;
            let mut sign = std::mem::take(&mut self.rho);
            sign.clear();
            sign.resize(m, 0.0);
            for (i, s) in sign.iter_mut().enumerate() {
                let bv = self.basis.basic[i] as usize;
                let v = self.xb[i];
                if v < self.lo[bv] - PRIMAL_TOL {
                    *s = -1.0;
                    infeasible = true;
                } else if v > self.hi[bv] + PRIMAL_TOL {
                    *s = 1.0;
                    infeasible = true;
                }
            }
            let mut y = std::mem::take(&mut self.y);
            if infeasible {
                self.basis.btran_dense(&sign, &mut y);
            } else {
                self.basis.btran_costs(&self.cost, &mut y);
            }
            self.rho = sign;

            // Price the nonbasic columns.
            let use_bland = iter > bland_after;
            let mut entering: Option<(usize, f64, f64)> = None; // (col, d, score)
            for j in 0..n_total {
                if let VarState::Basic(_) = self.basis.state[j] {
                    continue;
                }
                if self.lo[j] == self.hi[j] {
                    continue; // fixed: can never move
                }
                let cj = if infeasible {
                    0.0
                } else {
                    self.cost.get(j).copied().unwrap_or(0.0)
                };
                let dj = cj - self.cols.dot_col(&y, j);
                let improving = match self.basis.state[j] {
                    VarState::AtLower => dj < -DUAL_TOL,
                    VarState::AtUpper => dj > DUAL_TOL,
                    VarState::Basic(_) => false,
                };
                if !improving {
                    continue;
                }
                if use_bland {
                    entering = Some((j, dj, 0.0));
                    break;
                }
                let score = dj.abs();
                match entering {
                    Some((_, _, best)) if score <= best => {}
                    _ => entering = Some((j, dj, score)),
                }
            }
            self.y = y;

            let (q, _dq) = match entering {
                Some((j, dj, _)) => (j, dj),
                None => {
                    return if infeasible {
                        LoopEnd::Infeasible
                    } else {
                        LoopEnd::Done
                    };
                }
            };
            // +1 when the entering variable increases off its lower bound.
            let sigma = match self.basis.state[q] {
                VarState::AtLower => 1.0,
                _ => -1.0,
            };

            let mut w = std::mem::take(&mut self.w);
            self.basis.ftran(&self.cols, q, &mut w);

            // Ratio test.
            let span = self.hi[q] - self.lo[q];
            let mut t_best = if span.is_finite() {
                span
            } else {
                f64::INFINITY
            };
            let mut block = if span.is_finite() {
                Block::Flip
            } else {
                Block::None
            };
            let mut block_bv = usize::MAX;
            for (i, &wi) in w.iter().enumerate() {
                if wi.abs() <= PIVOT_TOL {
                    continue;
                }
                let rate = -sigma * wi; // d(xb_i)/dt
                let bv = self.basis.basic[i] as usize;
                let (l, h) = (self.lo[bv], self.hi[bv]);
                let v = self.xb[i];
                let (t_i, to) = if v < l - PRIMAL_TOL {
                    if rate > 0.0 {
                        ((l - v) / rate, VarState::AtLower)
                    } else {
                        continue;
                    }
                } else if v > h + PRIMAL_TOL {
                    if rate < 0.0 {
                        ((h - v) / rate, VarState::AtUpper)
                    } else {
                        continue;
                    }
                } else if rate > 0.0 && h.is_finite() {
                    (((h - v) / rate).max(0.0), VarState::AtUpper)
                } else if rate < 0.0 && l.is_finite() {
                    (((l - v) / rate).max(0.0), VarState::AtLower)
                } else {
                    continue;
                };
                let better = t_i < t_best - 1e-9
                    || (t_i < t_best + 1e-9 && matches!(block, Block::Row(..)) && bv < block_bv)
                    || (t_i <= t_best && matches!(block, Block::Flip | Block::None));
                if better {
                    t_best = t_i;
                    block = Block::Row(i, to);
                    block_bv = bv;
                }
            }

            self.stats.iterations += 1;
            match block {
                Block::None => {
                    self.w = w;
                    // A violated basic always blocks an infeasibility-
                    // reducing direction, so an unbounded ray in phase 1 is
                    // numerical breakdown, not a certificate.
                    return if infeasible {
                        LoopEnd::Stalled
                    } else {
                        LoopEnd::Unbounded
                    };
                }
                Block::Flip => {
                    let delta = sigma * span;
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            self.xb[i] -= delta * wi;
                        }
                    }
                    self.basis.state[q] = match self.basis.state[q] {
                        VarState::AtLower => VarState::AtUpper,
                        _ => VarState::AtLower,
                    };
                    self.stats.bound_flips += 1;
                    self.w = w;
                }
                Block::Row(r, leave_to) => {
                    if !self.basis.is_fresh() {
                        // A pivot that is tiny relative to its direction may
                        // be eta-file drift masking a true zero; refactorise
                        // and re-price before trusting it (see
                        // [`STABLE_PIVOT_REL`]).
                        let winf = w.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
                        if w[r].abs() < STABLE_PIVOT_REL * winf {
                            self.w = w;
                            if !self.refactor_and_sync() {
                                return LoopEnd::Stalled;
                            }
                            continue;
                        }
                    }
                    let entering_value = self.nb_value(q) + sigma * t_best;
                    let leaving = self.basis.basic[r] as usize;
                    if !self.basis.pivot(m, r, q, &w) {
                        self.w = w;
                        // The pivot element collapsed: resynchronise and try
                        // a different path next iteration.
                        if !self.refactor_and_sync() {
                            return LoopEnd::Stalled;
                        }
                        continue;
                    }
                    for (i, &wi) in w.iter().enumerate() {
                        if i != r && wi != 0.0 {
                            self.xb[i] -= sigma * t_best * wi;
                        }
                    }
                    self.xb[r] = entering_value;
                    self.basis.state[leaving] = leave_to;
                    self.w = w;
                }
            }
        }
        LoopEnd::Stalled
    }
}
