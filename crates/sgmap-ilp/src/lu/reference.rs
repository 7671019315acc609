//! Test oracles of the LU factor: the original full-scan pivot search, with
//! a property test that the bucketed search picks the same pivots and so
//! builds bit-identical factors, and the original dense solves, with
//! property tests that the sparse btran computes every nonzero bit for bit
//! alike and the ftran over the non-empty L steps every bit.

use proptest::prelude::*;

use super::{LuFactor, ABS_PIVOT_TOL, DROP_TOL, ETA_LIMIT, MARKOWITZ_TAU};
use crate::model::{Model, ObjectiveSense};
use crate::sparse::SparseCols;

impl LuFactor {
    /// The full-scan Markowitz refactorisation the bucketed
    /// [`LuFactor::refactorize`] replaced, kept verbatim as its oracle:
    /// every step scans all columns for the minimum count, then rescans the
    /// minimum-count columns (or, when none passes the threshold test, all
    /// of them) for the lowest (cost, column, row) candidate.
    pub(super) fn refactorize_reference(&mut self, cols: &SparseCols, basic: &[u32]) -> bool {
        let m = self.m;
        debug_assert_eq!(basic.len(), m);
        self.perm_row.clear();
        self.perm_col.clear();
        self.udiag.clear();
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_ix.clear();
        self.l_val.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_ix.clear();
        self.u_val.clear();
        self.etas.clear();
        self.force_refactor = false;

        // Gather B by rows: rows[i] = sorted (position, value) entries.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for (t, &bv) in basic.iter().enumerate() {
            match cols.logical_row(bv as usize) {
                Some(r) => rows[r].push((t as u32, 1.0)),
                None => {
                    for (r, v) in cols.col(bv as usize) {
                        rows[r].push((t as u32, v));
                    }
                }
            }
        }
        // Column → candidate row lists (kept sorted/compact lazily) and
        // exact active-entry counts per column.
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut col_count = vec![0u32; m];
        for (i, row) in rows.iter().enumerate() {
            for &(t, _) in row {
                col_rows[t as usize].push(i as u32);
                col_count[t as usize] += 1;
            }
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut merged: Vec<(u32, f64)> = Vec::new();

        for _step in 0..m {
            // Minimum active column count (structural singularity when an
            // active column has no entries left).
            let mut cmin = u32::MAX;
            for t in 0..m {
                if col_active[t] {
                    if col_count[t] == 0 {
                        return false;
                    }
                    if col_count[t] < cmin {
                        cmin = col_count[t];
                    }
                }
            }
            // Pivot search: the min-count columns first, everything on the
            // rare second pass where none of them is numerically usable.
            let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, t, i, val)
            'pass: for pass in 0..2 {
                for t in 0..m {
                    if !col_active[t] || (pass == 0 && col_count[t] != cmin) {
                        continue;
                    }
                    // Compact the candidate list: drop rows that went
                    // inactive or whose entry cancelled out, and dedup —
                    // an entry that cancelled and was later refilled leaves
                    // its row in the list twice.
                    let list = &mut col_rows[t];
                    list.retain(|&i| {
                        row_active[i as usize]
                            && rows[i as usize]
                                .binary_search_by_key(&(t as u32), |e| e.0)
                                .is_ok()
                    });
                    list.sort_unstable();
                    list.dedup();
                    col_count[t] = list.len() as u32;
                    let mut cmax = 0.0f64;
                    for &i in list.iter() {
                        let row = &rows[i as usize];
                        let v = row[row.binary_search_by_key(&(t as u32), |e| e.0).unwrap()].1;
                        if v.abs() > cmax {
                            cmax = v.abs();
                        }
                    }
                    for &i in col_rows[t].iter() {
                        let row = &rows[i as usize];
                        let v = row[row.binary_search_by_key(&(t as u32), |e| e.0).unwrap()].1;
                        if v.abs() < ABS_PIVOT_TOL || v.abs() < MARKOWITZ_TAU * cmax {
                            continue;
                        }
                        let cost = (rows[i as usize].len() as u64 - 1) * (col_count[t] as u64 - 1);
                        let take = match best {
                            None => true,
                            Some((bc, bt, bi, _)) => {
                                cost < bc
                                    || (cost == bc
                                        && ((t as u32) < bt || ((t as u32) == bt && i < bi)))
                            }
                        };
                        if take {
                            best = Some((cost, t as u32, i, v));
                        }
                    }
                    if matches!(best, Some((0, ..))) {
                        // Zero fill and lowest column index: can't improve.
                        break 'pass;
                    }
                }
                if best.is_some() {
                    break;
                }
            }
            let (_, tq, p, pivot) = match best {
                Some(b) => b,
                None => return false, // numerically singular
            };
            let (t, p) = (tq as usize, p as usize);
            self.perm_row.push(p as u32);
            self.perm_col.push(t as u32);
            self.udiag.push(pivot);
            row_active[p] = false;
            col_active[t] = false;
            // Record the pivot row as a U row and take it out of the
            // active column counts.
            for &(c, v) in &rows[p] {
                if c as usize != t {
                    self.u_ix.push(c);
                    self.u_val.push(v);
                    col_count[c as usize] -= 1;
                }
            }
            self.u_ptr.push(self.u_ix.len() as u32);
            col_count[t] = 0;
            // Eliminate the pivot column from the remaining active rows.
            let elim: Vec<u32> = col_rows[t]
                .iter()
                .copied()
                .filter(|&i| i as usize != p)
                .collect();
            let pivot_row = std::mem::take(&mut rows[p]);
            for &iu in &elim {
                let i = iu as usize;
                let e = rows[i]
                    .binary_search_by_key(&(t as u32), |e| e.0)
                    .expect("candidate lists were just compacted");
                let factor = rows[i][e].1 / pivot;
                self.l_ix.push(iu);
                self.l_val.push(factor);
                // rows[i] ← rows[i] − factor·pivot_row, dropping column t.
                merged.clear();
                let (a, b) = (&rows[i], &pivot_row);
                let (mut ia, mut ib) = (0, 0);
                while ia < a.len() || ib < b.len() {
                    let ca = a.get(ia).map_or(u32::MAX, |e| e.0);
                    let cb = b.get(ib).map_or(u32::MAX, |e| e.0);
                    if ca < cb {
                        merged.push(a[ia]);
                        ia += 1;
                    } else if cb < ca {
                        // Fill-in: register the new entry's row candidacy.
                        let v = -factor * b[ib].1;
                        if cb as usize != t && v.abs() > DROP_TOL {
                            merged.push((cb, v));
                            col_rows[cb as usize].push(iu);
                            col_count[cb as usize] += 1;
                        }
                        ib += 1;
                    } else {
                        if ca as usize != t {
                            let v = a[ia].1 - factor * b[ib].1;
                            if v.abs() > DROP_TOL {
                                merged.push((ca, v));
                            } else {
                                col_count[ca as usize] -= 1;
                            }
                        }
                        ia += 1;
                        ib += 1;
                    }
                }
                std::mem::swap(&mut rows[i], &mut merged);
            }
            self.l_ptr.push(self.l_ix.len() as u32);
        }
        true
    }

    /// The dense btran the sparse [`LuFactor::btran`] replaced, kept as its
    /// oracle: every eta is gathered whole and every Uᵀ and Lᵀ step runs.
    fn btran_reference(&self, x: &mut [f64]) {
        let m = self.m;
        for eta in self.etas.iter().rev() {
            let r = eta.r as usize;
            let mut acc = x[r];
            for (ix, wv) in eta.ix.iter().zip(&eta.val) {
                acc -= wv * x[*ix as usize];
            }
            x[r] = acc / eta.pivot;
        }
        let mut work = vec![0.0; m];
        for k in 0..m {
            let vk = x[self.perm_col[k] as usize] / self.udiag[k];
            work[self.perm_row[k] as usize] = vk;
            if vk != 0.0 {
                let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
                for (ix, uv) in self.u_ix[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                    x[*ix as usize] -= uv * vk;
                }
            }
        }
        x.copy_from_slice(&work);
        for k in (0..m).rev() {
            let (lo, hi) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
            let mut acc = x[self.perm_row[k] as usize];
            for (ix, lv) in self.l_ix[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                acc -= lv * x[*ix as usize];
            }
            x[self.perm_row[k] as usize] = acc;
        }
    }

    /// The ftran whose L solve visits every step, kept as the oracle of
    /// [`LuFactor::ftran`], which visits only the steps with multipliers.
    fn ftran_reference(&self, x: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let xp = x[self.perm_row[k] as usize];
            if xp != 0.0 {
                let (lo, hi) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                for (ix, lv) in self.l_ix[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                    x[*ix as usize] -= lv * xp;
                }
            }
        }
        let mut work = vec![0.0; m];
        for k in (0..m).rev() {
            let mut v = x[self.perm_row[k] as usize];
            let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
            for (ix, uv) in self.u_ix[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                v -= uv * work[*ix as usize];
            }
            work[self.perm_col[k] as usize] = v / self.udiag[k];
        }
        x.copy_from_slice(&work);
        for eta in &self.etas {
            let r = eta.r as usize;
            let xr = x[r] / eta.pivot;
            x[r] = xr;
            if xr != 0.0 {
                for (ix, wv) in eta.ix.iter().zip(&eta.val) {
                    x[*ix as usize] -= wv * xr;
                }
            }
        }
    }
}

/// Deterministic mini-RNG (SplitMix64): a whole basis derives from one seed,
/// so a failing case is reproducible from the seed alone.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random sparse `m × n` matrix and `count` bases over its structural and
/// logical columns.
///
/// Small integer entries make eliminations cancel exactly (and later fills
/// refill the cancelled entry, leaving its row in a candidate list twice);
/// copied columns and repeated basic columns make bases singular; entries
/// of `1e-3` fail the relative threshold test next to larger ones, and
/// entries below the absolute pivot tolerance make whole minimum-count
/// columns unusable, which forces the full-scan second pass.
fn random_bases(seed: u64, count: usize) -> (SparseCols, Vec<Vec<u32>>) {
    const VALUES: [f64; 10] = [1.0, -1.0, 1.0, 2.0, -2.0, 0.5, 3.0, 1e-3, 1e-13, 5e-12];
    let mut g = Gen(seed);
    let m = 1 + g.below(16);
    let n = 1 + g.below(2 * m);
    let density = 20 + g.below(50);
    let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    for j in 0..n {
        let column = if j > 0 && g.chance(10) {
            // A copy (possibly rescaled) of an earlier column.
            let scale = if g.chance(50) { 1.0 } else { -2.0 };
            let src = &columns[g.below(j)];
            src.iter().map(|&(r, v)| (r, scale * v)).collect()
        } else {
            let mut column = Vec::new();
            for r in 0..m {
                if g.chance(density) {
                    column.push((r, VALUES[g.below(VALUES.len())]));
                }
            }
            column
        };
        columns.push(column);
    }
    let mut model = Model::new(ObjectiveSense::Minimize);
    let vars: Vec<_> = (0..n).map(|_| model.add_continuous(0.0)).collect();
    for r in 0..m {
        let terms = columns
            .iter()
            .enumerate()
            .filter_map(|(j, col)| col.iter().find(|e| e.0 == r).map(|e| (vars[j], e.1)))
            .collect();
        model.add_constraint_le(terms, 0.0);
    }
    let cols = SparseCols::from_model(&model);
    let bases = (0..count)
        .map(|_| {
            let logical_share = g.below(101);
            let mut pool: Vec<u32> = (0..(n + m) as u32).collect();
            (0..m)
                .map(|_| {
                    if g.chance(3) {
                        // Any column again, even one already basic.
                        return g.below(n + m) as u32;
                    }
                    let pick = if g.chance(logical_share) {
                        pool.iter().position(|&j| j as usize >= n)
                    } else {
                        pool.iter().position(|&j| (j as usize) < n)
                    };
                    let k = pick.unwrap_or_else(|| g.below(pool.len()));
                    pool.swap_remove(k)
                })
                .collect()
        })
        .collect();
    (cols, bases)
}

/// Bit patterns of a float slice, so `-0.0` and NaN payloads compare too.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn refactorize_matches_the_full_scan_reference(seed in any::<u64>()) {
        // One factor object reused across several bases, as in a solve, so
        // state left in its workspace by one rebuild cannot leak into the
        // next.
        let (cols, bases) = random_bases(seed, 3);
        let m = cols.m;
        let mut fast = LuFactor::identity(m);
        for basic in &bases {
            let mut oracle = LuFactor::identity(m);
            let want = oracle.refactorize_reference(&cols, basic);
            let got = fast.refactorize(&cols, basic);
            prop_assert_eq!(got, want);
            prop_assert_eq!(&fast.perm_row, &oracle.perm_row);
            prop_assert_eq!(&fast.perm_col, &oracle.perm_col);
            prop_assert_eq!(bits(&fast.udiag), bits(&oracle.udiag));
            prop_assert_eq!(&fast.l_ptr, &oracle.l_ptr);
            prop_assert_eq!(&fast.l_ix, &oracle.l_ix);
            prop_assert_eq!(bits(&fast.l_val), bits(&oracle.l_val));
            prop_assert_eq!(&fast.u_ptr, &oracle.u_ptr);
            prop_assert_eq!(&fast.u_ix, &oracle.u_ix);
            prop_assert_eq!(bits(&fast.u_val), bits(&oracle.u_val));
        }
    }
}

/// A factor of a random sparse basis of 20–120 rows with small dyadic
/// entries, carrying up to [`ETA_LIMIT`] long random etas, plus `count`
/// right-hand sides: unit vectors, a few nonzeros, dense ones and zero ones
/// with `-0.0` entries.
///
/// Dyadic values keep the arithmetic exact, so positions cancel to exactly
/// zero and etas that reuse a pivot position refill them.
fn random_eta_file(seed: u64, count: usize) -> (LuFactor, Vec<Vec<f64>>) {
    const VALUES: [f64; 7] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.0];
    let mut g = Gen(seed);
    let m = 20 + g.below(101);
    let mut model = Model::new(ObjectiveSense::Minimize);
    let vars: Vec<_> = (0..m).map(|_| model.add_continuous(0.0)).collect();
    for r in 0..m {
        let mut terms = Vec::new();
        for (j, &v) in vars.iter().enumerate() {
            if j == r || g.chance(4) {
                terms.push((v, VALUES[g.below(VALUES.len())]));
            }
        }
        model.add_constraint_le(terms, 0.0);
    }
    let cols = SparseCols::from_model(&model);
    // Mostly structural columns, in random order.
    let mut basic: Vec<u32> = (0..m as u32)
        .map(|j| if g.chance(20) { j + m as u32 } else { j })
        .collect();
    for i in (1..m).rev() {
        basic.swap(i, g.below(i + 1));
    }
    let mut lu = LuFactor::identity(m);
    if !lu.refactorize(&cols, &basic) {
        lu.reset_identity();
    }
    // Few distinct pivot positions, so positions cancel and refill.
    let pivots: Vec<usize> = (0..1 + g.below(6)).map(|_| g.below(m)).collect();
    for _ in 0..g.below(ETA_LIMIT) {
        let r = pivots[g.below(pivots.len())];
        let density = 10 + g.below(90);
        let mut w: Vec<f64> = (0..m)
            .map(|_| {
                if g.chance(density) {
                    VALUES[g.below(VALUES.len())]
                } else {
                    0.0
                }
            })
            .collect();
        w[r] = [1.0, -1.0, 2.0, 0.5][g.below(4)];
        assert!(lu.update(r, &w));
    }
    let rhs = (0..count)
        .map(|_| {
            let mut x = vec![0.0; m];
            match g.below(4) {
                0 => x[g.below(m)] = 1.0,
                1 => {
                    for _ in 0..1 + g.below(4) {
                        x[g.below(m)] = VALUES[g.below(VALUES.len())];
                    }
                }
                2 => {
                    for v in &mut x {
                        *v = VALUES[g.below(VALUES.len())];
                    }
                }
                _ => {
                    for v in &mut x {
                        *v = if g.chance(50) { -0.0 } else { 0.0 };
                    }
                }
            }
            x
        })
        .collect();
    (lu, rhs)
}

/// Asserts that `got` and `want` have the same zero pattern and
/// bit-identical nonzeros (a zero's sign may differ).
fn assert_same_nonzeros(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(*a == 0.0, *b == 0.0, "zero pattern at {}", i);
        if *a != 0.0 {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "value at {}: {} vs {}", i, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn sparse_btran_matches_the_dense_reference(seed in any::<u64>()) {
        // One factor serves every rhs, as in a solve, so state left in the
        // sparse workspace by one btran cannot leak into the next.
        let (mut lu, rhs) = random_eta_file(seed, 8);
        for x in &rhs {
            let mut got = x.clone();
            lu.btran(&mut got);
            let mut want = x.clone();
            lu.btran_reference(&mut want);
            assert_same_nonzeros(&got, &want)?;
        }
    }

    #[test]
    fn ftran_over_nonempty_l_steps_matches_the_reference(seed in any::<u64>()) {
        let (mut lu, rhs) = random_eta_file(seed, 4);
        for x in &rhs {
            let mut got = x.clone();
            lu.ftran(&mut got);
            let mut want = x.clone();
            lu.ftran_reference(&mut want);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}

#[test]
fn a_position_that_cancels_and_refills_is_counted_once() {
    // Identity factors with three long etas, applied newest first to
    // x = e_0 + e_1: the newest cancels x_0 to exactly zero, the middle one
    // refills it to 1, and the oldest sums every position into x_2 = -2.
    // Position 0 must stay listed once throughout (the Uᵀ phase asserts
    // the list strictly ascending in debug builds).
    let m = 40;
    let mut lu = LuFactor::identity(m);
    let long_eta = |w1: f64| {
        let mut w = vec![1.0; m];
        w[1] = w1;
        w
    };
    assert!(lu.update(2, &long_eta(1.0)));
    assert!(lu.update(0, &long_eta(-1.0)));
    assert!(lu.update(0, &long_eta(1.0)));
    let mut x = vec![0.0; m];
    x[0] = 1.0;
    x[1] = 1.0;
    let mut want = x.clone();
    lu.btran_reference(&mut want);
    lu.btran(&mut x);
    assert_eq!(bits(&x), bits(&want));
    assert_eq!(&x[..3], &[1.0, 1.0, -2.0]);
}
