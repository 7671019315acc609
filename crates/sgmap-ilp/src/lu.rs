//! Sparse LU factorisation of the simplex basis with Markowitz pivoting.
//!
//! The basis matrix `B` (columns gathered from the shared [`SparseCols`]
//! store according to the current `basic[]` assignment) is factorised by
//! Gaussian elimination with Markowitz-style pivot selection: at each step
//! the pivot minimises the fill-in estimate `(r_i − 1)·(c_j − 1)` among
//! entries that pass a relative column-threshold stability test. The pivot
//! is the lowest `(cost, column, row)` among the minimum-count columns,
//! widening to all active columns only when none of those is numerically
//! usable.
//!
//! The search never sweeps the matrix (see `Markowitz`): exact column
//! counts live in per-count buckets, the lowest single-entry column comes
//! from a bitset scan, and each column caches its best candidate until a
//! pivot changes its entries or count. A step therefore costs the entries
//! its elimination touches, the re-pricing of the columns it changed and,
//! while the minimum count is 2 or more, one walk over that count's bucket
//! reading cached candidates, plus an `m/64`-word bitset scan. On the
//! mapper's near-triangular bases a refactorisation is close to linear in
//! the nonzeros of `B` and of the factors; only the rare full-scan fallback
//! step costs `O(nnz)` on its own.
//!
//! Between refactorisations, basis changes are absorbed as *eta updates*
//! (product-form): replacing the basic variable of row `r` by a column with
//! ftran direction `w` appends the eta `(r, w)`, so
//! `B_k = B_0 · E_1 ⋯ E_k` and
//!
//! * **ftran** (`B w = a`) runs the LU solve then applies `E_i⁻¹` oldest to
//!   newest,
//! * **btran** (`Bᵀ y = c`) applies the transposed `E_i⁻¹` newest to oldest,
//!   then runs the LU-transpose solve.
//!
//! Both L solves visit only the steps that have L multipliers. Most btrans
//! solve for a unit vector (the dual pivot row, and the basic costs when
//! the objective's only cost is basic) and stay sparse throughout, so a
//! sparse right-hand side runs btran on a nonzero list instead of over all
//! of `m`:
//!
//! * the **eta phase** keeps an ascending list of the positions that may be
//!   nonzero and sums each transposed eta over the listed positions only,
//!   finding each one's entry in constant time through the eta's position
//!   bitset and the per-word entry counts before it (one bit per position
//!   and a count per 64 positions, a fraction of the eta's own storage at
//!   the densities that take this path), unless the eta is short next to
//!   the list and is cheaper to gather whole;
//! * the **Uᵀ phase** solves only the steps reachable from the listed
//!   positions, in ascending step order from a bitset.
//!
//! A right-hand side with more than `m / HYPERSPARSE_SHARE` nonzeros, or a
//! list that fills in past that share, takes the dense loops instead. The
//! sparse path is exact, not approximate: every term it skips is a product
//! with an exact zero, and adding or subtracting a zero can change only
//! the sign of a zero result, so every nonzero comes out bit for bit as
//! the dense loops compute it and in the same summation order. A position
//! that cancels to exactly zero stays listed, so if a later eta refills it
//! it is still listed once.
//!
//! The factorisation is rebuilt every [`ETA_LIMIT`] updates, or earlier when
//! an update shows large pivot growth (`|w_r|` tiny against `‖w‖∞`), which
//! is the classical stability trigger for product-form files.
//!
//! All tie-breaks (pivot choice, candidate order) are by lowest index, so a
//! given basis always factorises the same way — part of the crate-wide
//! determinism contract.

use crate::sparse::SparseCols;

/// Refactorise after this many eta updates.
const ETA_LIMIT: usize = 64;
/// Relative Markowitz threshold: a pivot must be at least this fraction of
/// the largest entry in its column.
const MARKOWITZ_TAU: f64 = 0.01;
/// Smallest pivot magnitude usable at all.
const ABS_PIVOT_TOL: f64 = 1e-11;
/// Pivot-growth trigger: an eta pivot below this fraction of the direction's
/// max-norm forces an early refactorisation.
const GROWTH_TOL: f64 = 1e-7;
/// Entries cancelled below this magnitude during elimination are dropped.
const DROP_TOL: f64 = 1e-12;
/// A btran vector with more than `m / HYPERSPARSE_SHARE` nonzeros takes the
/// dense loops.
const HYPERSPARSE_SHARE: usize = 10;
/// Looking a listed position up in an eta costs about as much as gathering
/// this many of its entries: an eta shorter than this multiple of the
/// listed positions is gathered whole.
const ETA_LOOKUP_COST: usize = 4;

/// One product-form update: the basic variable of position `r` was replaced
/// by a column whose ftran direction had pivot `pivot` at `r` and the stored
/// off-pivot entries elsewhere, ascending by position.
#[derive(Debug, Clone)]
struct Eta {
    r: u32,
    pivot: f64,
    ix: Vec<u32>,
    val: Vec<f64>,
    /// Bit `i` is set when the eta has an entry at position `i`, and
    /// `before[w]` counts the entries below position `64·w`, so the entry
    /// of a set bit sits at offset `before[w]` + the set bits below it.
    bits: Vec<u64>,
    before: Vec<u32>,
}

impl Eta {
    /// The eta's value at position `i`, if it has an entry there.
    fn get(&self, i: usize) -> Option<f64> {
        let (w, b) = (i / 64, i % 64);
        let word = self.bits[w];
        (word >> b & 1 != 0)
            .then(|| self.val[(self.before[w] + (word & ((1 << b) - 1)).count_ones()) as usize])
    }
}

/// Sparse LU factors of the basis plus the eta file of updates since the
/// last refactorisation.
///
/// Row/column conventions: the basis matrix has *constraint rows* as matrix
/// rows and *basis positions* as matrix columns, so ftran maps row space to
/// position space and btran the other way around (matching the dense
/// inverse, whose rows are positions and columns are constraint rows).
#[derive(Debug, Clone)]
pub(crate) struct LuFactor {
    m: usize,
    /// Constraint row pivoted at elimination step `k`.
    perm_row: Vec<u32>,
    /// Basis position pivoted at elimination step `k`.
    perm_col: Vec<u32>,
    /// Elimination step of each basis position (the inverse of `perm_col`).
    col_step: Vec<u32>,
    /// Pivot values `u_kk`.
    udiag: Vec<f64>,
    // L multipliers of each step: `(row, l)` means that row was reduced by
    // `l ×` the step's pivot row.
    l_ptr: Vec<u32>,
    l_ix: Vec<u32>,
    l_val: Vec<f64>,
    /// The steps with at least one L multiplier, ascending.
    l_steps: Vec<u32>,
    // Off-diagonal U entries of each step's pivot row: `(position, u)`.
    u_ptr: Vec<u32>,
    u_ix: Vec<u32>,
    u_val: Vec<f64>,
    etas: Vec<Eta>,
    force_refactor: bool,
    work: Vec<f64>,
    /// Sparse-btran workspace, left clear between calls.
    sparse: SparseBtran,
    /// Elimination workspace, reused by every refactorisation.
    ws: Markowitz,
}

/// Workspace of the sparse btran: all flags and bits are clear between
/// calls.
#[derive(Debug, Clone, Default)]
struct SparseBtran {
    /// Ascending positions that may hold a nonzero, each listed once.
    nz: Vec<u32>,
    listed: Vec<bool>,
    /// Uᵀ steps reached but not yet solved, one bit each.
    reach: Vec<u64>,
    /// The solved Uᵀ steps with their values, in step order.
    solved: Vec<(u32, f64)>,
}

impl LuFactor {
    /// The identity factorisation (all-logical basis in natural order).
    pub(crate) fn identity(m: usize) -> LuFactor {
        let mut f = LuFactor {
            m,
            perm_row: Vec::new(),
            perm_col: Vec::new(),
            col_step: Vec::new(),
            udiag: Vec::new(),
            l_ptr: Vec::new(),
            l_ix: Vec::new(),
            l_val: Vec::new(),
            l_steps: Vec::new(),
            u_ptr: Vec::new(),
            u_ix: Vec::new(),
            u_val: Vec::new(),
            etas: Vec::new(),
            force_refactor: false,
            work: Vec::new(),
            sparse: SparseBtran {
                listed: vec![false; m],
                reach: vec![0; m.div_ceil(64)],
                ..SparseBtran::default()
            },
            ws: Markowitz::default(),
        };
        f.reset_identity();
        f
    }

    /// Resets to the identity factorisation in place.
    pub(crate) fn reset_identity(&mut self) {
        let m = self.m;
        self.perm_row.clear();
        self.perm_col.clear();
        self.col_step.clear();
        self.udiag.clear();
        for k in 0..m {
            self.perm_row.push(k as u32);
            self.perm_col.push(k as u32);
            self.col_step.push(k as u32);
            self.udiag.push(1.0);
        }
        self.l_ptr.clear();
        self.l_ptr.resize(m + 1, 0);
        self.l_ix.clear();
        self.l_val.clear();
        self.l_steps.clear();
        self.u_ptr.clear();
        self.u_ptr.resize(m + 1, 0);
        self.u_ix.clear();
        self.u_val.clear();
        self.etas.clear();
        self.force_refactor = false;
    }

    /// Whether the eta file is long (or unstable) enough to warrant a
    /// rebuild.
    pub(crate) fn wants_refactor(&self) -> bool {
        self.force_refactor || self.etas.len() >= ETA_LIMIT
    }

    /// Whether the factors carry no updates since the last rebuild (so the
    /// directions they produce are as accurate as a fresh factorisation).
    pub(crate) fn is_fresh(&self) -> bool {
        self.etas.is_empty()
    }

    /// Appends the eta update for a pivot at position `r` with ftran
    /// direction `w`. Returns `false` (factors untouched) when the pivot
    /// element is numerically unusable.
    pub(crate) fn update(&mut self, r: usize, w: &[f64]) -> bool {
        let pivot = w[r];
        if pivot.abs() < ABS_PIVOT_TOL {
            return false;
        }
        // Sized exactly: the file holds up to `ETA_LIMIT` of these at a time.
        let nnz = w.iter().filter(|&&wi| wi != 0.0).count() - 1;
        let mut eta = Eta {
            r: r as u32,
            pivot,
            ix: Vec::with_capacity(nnz),
            val: Vec::with_capacity(nnz),
            bits: vec![0; self.m.div_ceil(64)],
            before: Vec::with_capacity(self.m.div_ceil(64)),
        };
        let mut wmax = pivot.abs();
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                eta.bits[i / 64] |= 1 << (i % 64);
                eta.ix.push(i as u32);
                eta.val.push(wi);
                if wi.abs() > wmax {
                    wmax = wi.abs();
                }
            }
        }
        if pivot.abs() < GROWTH_TOL * wmax {
            // Large pivot growth: accept the update but rebuild soon.
            self.force_refactor = true;
        }
        let mut count = 0;
        for word in &eta.bits {
            eta.before.push(count);
            count += word.count_ones();
        }
        self.etas.push(eta);
        true
    }

    /// Factorises the basis selected by `basic` from scratch, emptying the
    /// eta file. Returns `false` when the basis matrix is (numerically)
    /// singular; the factors are unusable then and the caller must restart
    /// from a logical basis.
    pub(crate) fn refactorize(&mut self, cols: &SparseCols, basic: &[u32]) -> bool {
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
        self.l_steps.clear();
        self.etas.clear();
        self.force_refactor = false;

        let ws = &mut self.ws;
        ws.load(cols, basic);
        for _step in 0..m {
            let Some((t, p)) = ws.select_pivot() else {
                return false; // structurally or numerically singular
            };
            let pivot = ws.value(p, t).expect("the pivot is an active entry");
            self.perm_row.push(p as u32);
            self.perm_col.push(t as u32);
            self.udiag.push(pivot);
            ws.eliminate(
                t,
                p,
                pivot,
                &mut self.u_ix,
                &mut self.u_val,
                &mut self.l_ix,
                &mut self.l_val,
            );
            self.u_ptr.push(self.u_ix.len() as u32);
            if self.l_ix.len() as u32 > *self.l_ptr.last().unwrap() {
                self.l_steps.push(self.perm_row.len() as u32 - 1);
            }
            self.l_ptr.push(self.l_ix.len() as u32);
        }
        self.col_step.clear();
        self.col_step.resize(m, 0);
        for (k, &t) in self.perm_col.iter().enumerate() {
            self.col_step[t as usize] = k as u32;
        }
        true
    }

    /// Solves `B w = a` in place: on entry `x` holds the right-hand side
    /// indexed by constraint row, on exit the solution indexed by basis
    /// position.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(x.len(), m);
        // L solve (apply the elimination steps to the rhs).
        for &k in &self.l_steps {
            let k = k as usize;
            let xp = x[self.perm_row[k] as usize];
            if xp != 0.0 {
                let (lo, hi) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                for (ix, lv) in self.l_ix[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                    x[*ix as usize] -= lv * xp;
                }
            }
        }
        // U back-substitution into position space.
        self.work.clear();
        self.work.resize(m, 0.0);
        for k in (0..m).rev() {
            let mut v = x[self.perm_row[k] as usize];
            let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
            for (ix, uv) in self.u_ix[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                v -= uv * self.work[*ix as usize];
            }
            self.work[self.perm_col[k] as usize] = v / self.udiag[k];
        }
        x.copy_from_slice(&self.work);
        // Eta file, oldest to newest.
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

    /// Solves `Bᵀ y = c` in place: on entry `x` holds the right-hand side
    /// indexed by basis position, on exit the solution indexed by
    /// constraint row.
    ///
    /// A sparse `x` (at most `m / HYPERSPARSE_SHARE` nonzeros) takes the
    /// sparse path: the eta and Uᵀ phases visit only what its nonzeros
    /// reach, and the vector falls back to the dense loops for the rest of
    /// the solve once it fills in past that share. Both paths compute every
    /// nonzero bit for bit alike (see the module docs).
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        let mut sparse = self.list_nonzeros(x);
        // Eta file transposed, newest to oldest.
        for e in (0..self.etas.len()).rev() {
            sparse = self.btran_eta(e, x, sparse);
        }
        if sparse {
            self.btran_u_sparse(x);
        } else {
            self.btran_u_dense(x);
        }
        // Lᵀ solve (apply the transposed elimination steps in reverse).
        for &k in self.l_steps.iter().rev() {
            let k = k as usize;
            let (lo, hi) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
            let mut acc = x[self.perm_row[k] as usize];
            for (ix, lv) in self.l_ix[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                acc -= lv * x[*ix as usize];
            }
            x[self.perm_row[k] as usize] = acc;
        }
    }

    /// Lists the nonzero positions of `x` for the sparse btran; returns
    /// `false` (nothing listed) when there are too many for it.
    fn list_nonzeros(&mut self, x: &[f64]) -> bool {
        let m = self.m;
        debug_assert_eq!(x.len(), m);
        let sp = &mut self.sparse;
        // Skip all-zero blocks with a branch-free test: shifting out the
        // sign bit maps exactly `±0.0` to zero bits.
        for (b, block) in x.chunks(16).enumerate() {
            if block.iter().fold(0, |acc, xi| acc | xi.to_bits() << 1) == 0 {
                continue;
            }
            for (j, &xi) in block.iter().enumerate() {
                if xi != 0.0 {
                    if sp.nz.len() == m / HYPERSPARSE_SHARE {
                        sp.unlist();
                        return false;
                    }
                    sp.nz.push((b * 16 + j) as u32);
                }
            }
        }
        for &i in &sp.nz {
            sp.listed[i as usize] = true;
        }
        true
    }

    /// Applies the transpose of eta `e`: `x_r ← (x_r − Σ w_i·x_i) / pivot`
    /// over the eta's entries in ascending position order. On the sparse
    /// path only the listed positions can contribute a nonzero term, so
    /// when they are few next to the eta's length each is looked up in it
    /// instead of gathering the whole eta. Returns whether the solve is
    /// still on the sparse path.
    fn btran_eta(&mut self, e: usize, x: &mut [f64], sparse: bool) -> bool {
        let eta = &self.etas[e];
        let r = eta.r as usize;
        let sp = &mut self.sparse;
        let mut acc = x[r];
        if sparse && sp.nz.len() * ETA_LOOKUP_COST < eta.ix.len() {
            for &i in &sp.nz {
                if let Some(wv) = eta.get(i as usize) {
                    acc -= wv * x[i as usize];
                }
            }
        } else {
            for (ix, wv) in eta.ix.iter().zip(&eta.val) {
                acc -= wv * x[*ix as usize];
            }
        }
        let xr = acc / eta.pivot;
        x[r] = xr;
        // A listed position stays listed when it cancels to zero, so one
        // that refills is never listed twice.
        if !sparse || xr == 0.0 || sp.listed[r] {
            return sparse;
        }
        if sp.nz.len() == self.m / HYPERSPARSE_SHARE {
            sp.unlist();
            return false;
        }
        sp.listed[r] = true;
        let at = sp.nz.partition_point(|&i| (i as usize) < r);
        sp.nz.insert(at, r as u32);
        true
    }

    /// The Uᵀ forward solve over the reach of the listed positions: a step
    /// whose position holds zero scatters nothing, so only the steps of
    /// nonzero positions and of positions they scatter into are solved, in
    /// ascending step order (every U entry of a step lies in a later step's
    /// position). Clears the list.
    fn btran_u_sparse(&mut self, x: &mut [f64]) {
        let sp = &mut self.sparse;
        debug_assert!(
            sp.nz.windows(2).all(|w| w[0] < w[1]),
            "each position is listed once, in ascending order"
        );
        for &p in &sp.nz {
            let p = p as usize;
            sp.listed[p] = false;
            if x[p] != 0.0 {
                let k = self.col_step[p] as usize;
                sp.reach[k / 64] |= 1 << (k % 64);
            }
        }
        sp.nz.clear();
        sp.solved.clear();
        let mut w = 0;
        while w < sp.reach.len() {
            let bits = sp.reach[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            sp.reach[w] = bits & (bits - 1);
            let k = w * 64 + bits.trailing_zeros() as usize;
            let vk = x[self.perm_col[k] as usize] / self.udiag[k];
            sp.solved.push((k as u32, vk));
            if vk != 0.0 {
                let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
                for (ix, uv) in self.u_ix[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                    x[*ix as usize] -= uv * vk;
                    let s = self.col_step[*ix as usize] as usize;
                    debug_assert!(s > k, "U entries lie in later steps");
                    sp.reach[s / 64] |= 1 << (s % 64);
                }
            }
        }
        // Every nonzero of `x` sits at a solved step's position: clear those
        // and write the solution into row space.
        for &(k, _) in &sp.solved {
            x[self.perm_col[k as usize] as usize] = 0.0;
        }
        for &(k, vk) in &sp.solved {
            x[self.perm_row[k as usize] as usize] = vk;
        }
    }

    /// The Uᵀ forward solve over every step (scatter form over the U rows).
    fn btran_u_dense(&mut self, x: &mut [f64]) {
        let m = self.m;
        self.work.clear();
        self.work.resize(m, 0.0);
        for k in 0..m {
            let vk = x[self.perm_col[k] as usize] / self.udiag[k];
            self.work[self.perm_row[k] as usize] = vk;
            if vk != 0.0 {
                let (lo, hi) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
                for (ix, uv) in self.u_ix[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                    x[*ix as usize] -= uv * vk;
                }
            }
        }
        x.copy_from_slice(&self.work);
    }
}

impl SparseBtran {
    /// Clears the list and its flags.
    fn unlist(&mut self) {
        for &i in &self.nz {
            self.listed[i as usize] = false;
        }
        self.nz.clear();
    }
}

/// Cost of a column none of whose entries passes the threshold test.
const NO_CANDIDATE: u64 = u64::MAX;

/// The pivot stability test: `v` is neither below the absolute pivot
/// tolerance nor below [`MARKOWITZ_TAU`] times its column's largest
/// magnitude `cmax`.
fn passes_threshold(v: f64, cmax: f64) -> bool {
    !(v.abs() < ABS_PIVOT_TOL || v.abs() < MARKOWITZ_TAU * cmax)
}
/// End of a bucket list.
const NIL: u32 = u32::MAX;
/// Exact active-entry counts of the columns, with the active columns
/// grouped by count: one doubly linked list per count, plus a bitset of the
/// single-entry columns so the lowest-index one is found by a word scan.
#[derive(Debug, Clone, Default)]
struct ColumnCounts {
    count: Vec<u32>,
    /// First column of each count's list, and each column's neighbours.
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Bit `t` is set while active column `t` has exactly one entry.
    singles: Vec<u64>,
}

impl ColumnCounts {
    /// Buckets every column as active, counting the entries of its
    /// candidate list.
    fn load(&mut self, col_rows: &[Vec<u32>]) {
        let m = col_rows.len();
        self.count.clear();
        self.count
            .extend(col_rows.iter().map(|list| list.len() as u32));
        self.head.clear();
        self.head.resize(m + 1, NIL);
        self.next.clear();
        self.next.resize(m, NIL);
        self.prev.clear();
        self.prev.resize(m, NIL);
        self.singles.clear();
        self.singles.resize(m.div_ceil(64), 0);
        for t in (0..m).rev() {
            self.link(t);
        }
    }

    fn link(&mut self, t: usize) {
        let c = self.count[t] as usize;
        let h = self.head[c];
        self.next[t] = h;
        self.prev[t] = NIL;
        if h != NIL {
            self.prev[h as usize] = t as u32;
        }
        self.head[c] = t as u32;
        if c == 1 {
            self.singles[t / 64] |= 1 << (t % 64);
        }
    }

    fn unlink(&mut self, t: usize) {
        let (p, n) = (self.prev[t], self.next[t]);
        if p == NIL {
            self.head[self.count[t] as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        if self.count[t] == 1 {
            self.singles[t / 64] &= !(1 << (t % 64));
        }
    }

    /// Adds one entry to, or removes one from, active column `t`.
    fn bump(&mut self, t: usize, up: bool) {
        self.unlink(t);
        if up {
            self.count[t] += 1;
        } else {
            self.count[t] -= 1;
        }
        self.link(t);
    }

    /// Takes column `t` out of the active set.
    fn retire(&mut self, t: usize) {
        self.unlink(t);
        self.count[t] = 0;
    }

    /// The smallest count of an active column (`None` once all retired).
    fn min(&self) -> Option<usize> {
        self.head.iter().position(|&h| h != NIL)
    }

    /// The lowest single-entry column at or above `from`.
    fn single_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.singles.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.singles.get(w)?;
        }
    }
}

/// Workspace of the Markowitz elimination, kept across refactorisations so
/// that a rebuild allocates nothing once its buffers have grown.
///
/// The pivot search never scans all columns: the minimum count comes from
/// the count buckets of [`ColumnCounts`], and each column caches its best
/// candidate until a pivot changes its entries or its count (it goes
/// *stale* then and is re-examined only when searched). A column a pivot
/// leaves alone except for the length of one of its rows reprices that one
/// row in place.
#[derive(Debug, Clone, Default)]
struct Markowitz {
    /// Active part of `B` by rows: sorted `(position, value)` entries.
    rows: Vec<Vec<(u32, f64)>>,
    /// Candidate rows of each column: a superset of its active rows that may
    /// still hold pivoted rows, cancelled entries and duplicates (an entry
    /// that cancelled and was later refilled leaves its row in the list
    /// twice). Compacted whenever the column is examined.
    col_rows: Vec<Vec<u32>>,
    counts: ColumnCounts,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Cached best `(cost, row)` candidate and largest entry magnitude of
    /// each column that is not stale.
    best: Vec<(u64, u32)>,
    col_max: Vec<f64>,
    stale: Vec<bool>,
    /// Scratch: one column's entry values, one merged row, the pivot row.
    vals: Vec<f64>,
    merged: Vec<(u32, f64)>,
    pivot_row: Vec<(u32, f64)>,
}

impl Markowitz {
    /// Gathers `B` by rows and columns and buckets every column stale.
    fn load(&mut self, cols: &SparseCols, basic: &[u32]) {
        let m = basic.len();
        self.rows.resize_with(m, Vec::new);
        self.col_rows.resize_with(m, Vec::new);
        self.rows.iter_mut().for_each(Vec::clear);
        self.col_rows.iter_mut().for_each(Vec::clear);
        for (t, &bv) in basic.iter().enumerate() {
            match cols.logical_row(bv as usize) {
                Some(r) => {
                    self.rows[r].push((t as u32, 1.0));
                    self.col_rows[t].push(r as u32);
                }
                None => {
                    for (r, v) in cols.col(bv as usize) {
                        self.rows[r].push((t as u32, v));
                        self.col_rows[t].push(r as u32);
                    }
                }
            }
        }
        self.counts.load(&self.col_rows);
        for flags in [&mut self.row_active, &mut self.col_active, &mut self.stale] {
            flags.clear();
            flags.resize(m, true);
        }
        self.best.clear();
        self.best.resize(m, (NO_CANDIDATE, u32::MAX));
        self.col_max.clear();
        self.col_max.resize(m, 0.0);
    }

    /// The active entry of row `i` in column `t`, if any.
    fn value(&self, i: usize, t: usize) -> Option<f64> {
        let row = &self.rows[i];
        row.binary_search_by_key(&(t as u32), |e| e.0)
            .ok()
            .map(|k| row[k].1)
    }

    /// Column `t`'s best threshold-passing `(cost, row)` candidate, lowest
    /// row on ties, or [`NO_CANDIDATE`]; recomputed (compacting the
    /// candidate list) when the column is stale.
    fn best_in_column(&mut self, t: usize) -> (u64, u32) {
        if !self.stale[t] {
            return self.best[t];
        }
        let Markowitz {
            rows,
            col_rows,
            counts,
            row_active,
            vals,
            ..
        } = self;
        vals.clear();
        let mut cmax = 0.0f64;
        col_rows[t].retain(|&i| {
            if !row_active[i as usize] {
                return false;
            }
            let row = &rows[i as usize];
            match row.binary_search_by_key(&(t as u32), |e| e.0) {
                Ok(k) => {
                    let v = row[k].1;
                    if v.abs() > cmax {
                        cmax = v.abs();
                    }
                    vals.push(v);
                    true
                }
                Err(_) => false,
            }
        });
        let count_less_one = counts.count[t] as u64 - 1;
        let mut best = (NO_CANDIDATE, u32::MAX);
        for (&i, &v) in col_rows[t].iter().zip(vals.iter()) {
            if passes_threshold(v, cmax) {
                let cost = (rows[i as usize].len() as u64 - 1) * count_less_one;
                best = best.min((cost, i));
            }
        }
        self.best[t] = best;
        self.col_max[t] = cmax;
        self.stale[t] = false;
        best
    }

    /// The next pivot `(column, row)`: the lowest (cost, column, row) among
    /// the threshold-passing entries of the minimum-count columns, or among
    /// all active columns when none of those passes. `None` when the basis
    /// is singular: an active column ran out of entries, or no entry at all
    /// passes.
    fn select_pivot(&mut self) -> Option<(usize, usize)> {
        let cmin = self.counts.min()?;
        if cmin == 0 {
            return None;
        }
        if cmin == 1 {
            // Every passing single entry costs 0: the lowest column wins.
            let mut from = 0;
            while let Some(t) = self.counts.single_from(from) {
                let (cost, i) = self.best_in_column(t);
                if cost != NO_CANDIDATE {
                    return Some((t, i as usize));
                }
                from = t + 1;
            }
        } else {
            let mut best = (NO_CANDIDATE, NIL, NIL);
            let mut t = self.counts.head[cmin];
            while t != NIL {
                let (cost, i) = self.best_in_column(t as usize);
                best = best.min((cost, t, i));
                t = self.counts.next[t as usize];
            }
            if best.0 != NO_CANDIDATE {
                return Some((best.1 as usize, best.2 as usize));
            }
        }
        // Rare second pass: no minimum-count column is numerically usable,
        // so take the cheapest usable entry of any active column.
        let mut best = (NO_CANDIDATE, NIL, NIL);
        for t in 0..self.col_active.len() {
            if self.col_active[t] {
                let (cost, i) = self.best_in_column(t);
                best = best.min((cost, t as u32, i));
            }
        }
        (best.0 != NO_CANDIDATE).then_some((best.1 as usize, best.2 as usize))
    }

    /// Retires pivot `(t, p)`: appends the pivot row's off-diagonal entries
    /// to U and eliminates column `t` from the other active rows, appending
    /// their multipliers to L. Columns whose entries or count change go
    /// stale; the other columns of the eliminated rows are repriced.
    #[allow(clippy::too_many_arguments)]
    fn eliminate(
        &mut self,
        t: usize,
        p: usize,
        pivot: f64,
        u_ix: &mut Vec<u32>,
        u_val: &mut Vec<f64>,
        l_ix: &mut Vec<u32>,
        l_val: &mut Vec<f64>,
    ) {
        let Markowitz {
            rows,
            col_rows,
            counts,
            row_active,
            col_active,
            best,
            col_max,
            stale,
            merged,
            pivot_row,
            ..
        } = self;
        debug_assert!(!stale[t], "the pivot column was priced by the search");
        row_active[p] = false;
        col_active[t] = false;
        counts.retire(t);
        // Record the pivot row as a U row and take it out of the active
        // column counts. Rows are copied rather than swapped between
        // buffers, so each buffer only ever grows to its own row's length.
        pivot_row.clear();
        pivot_row.extend_from_slice(&rows[p]);
        rows[p].clear();
        for &(c, v) in pivot_row.iter() {
            if c as usize != t {
                u_ix.push(c);
                u_val.push(v);
                counts.bump(c as usize, false);
                stale[c as usize] = true;
            }
        }
        // The rows to eliminate: column t's other active rows in ascending
        // order. The pivot search just priced column t, so its candidate
        // list holds exactly its active rows, up to duplicates.
        let mut elim = std::mem::take(&mut col_rows[t]);
        elim.retain(|&i| i as usize != p);
        elim.sort_unstable();
        elim.dedup();
        for &iu in &elim {
            let i = iu as usize;
            let e = rows[i]
                .binary_search_by_key(&(t as u32), |e| e.0)
                .expect("candidate lists were just compacted");
            let factor = rows[i][e].1 / pivot;
            l_ix.push(iu);
            l_val.push(factor);
            // rows[i] ← rows[i] − factor·pivot_row, dropping column t.
            merged.clear();
            let (a, b) = (&rows[i], &*pivot_row);
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
                        counts.bump(cb as usize, true);
                    }
                    ib += 1;
                } else {
                    if ca as usize != t {
                        let v = a[ia].1 - factor * b[ib].1;
                        if v.abs() > DROP_TOL {
                            merged.push((ca, v));
                        } else {
                            counts.bump(ca as usize, false);
                        }
                    }
                    ia += 1;
                    ib += 1;
                }
            }
            // The columns outside the pivot row (the ones not stale) kept
            // their entries, count and largest entry: only row i's length,
            // and with it the cost of its entry, changed.
            let len_less_one = (merged.len() as u64).saturating_sub(1);
            for &(c, v) in merged.iter() {
                let c = c as usize;
                if stale[c] {
                    continue;
                }
                let cost = len_less_one * (counts.count[c] as u64 - 1);
                let (best_cost, best_row) = best[c];
                if best_row == iu {
                    if cost <= best_cost {
                        best[c] = (cost, iu);
                    } else {
                        // Another row may be cheaper now.
                        stale[c] = true;
                    }
                } else if (cost, iu) < (best_cost, best_row) && passes_threshold(v, col_max[c]) {
                    best[c] = (cost, iu);
                }
            }
            rows[i].clear();
            rows[i].extend_from_slice(merged);
        }
        col_rows[t] = elim;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense};

    fn toy() -> SparseCols {
        // Rows: 2x + y <= 4, x + 3y <= 6 (logical cols 2 and 3).
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 2.0), (y, 1.0)], 4.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 3.0)], 6.0);
        SparseCols::from_model(&m)
    }

    #[test]
    fn factorises_and_solves_a_structural_basis() {
        let cols = toy();
        let mut lu = LuFactor::identity(2);
        // Basis = {x, y}: B = [[2, 1], [1, 3]], det 5.
        assert!(lu.refactorize(&cols, &[0, 1]));
        // ftran of b = (4, 6): solution of B w = b is (6/5, 8/5).
        let mut v = vec![4.0, 6.0];
        lu.ftran(&mut v);
        assert!((v[0] - 1.2).abs() < 1e-12 && (v[1] - 1.6).abs() < 1e-12);
        // btran of c = (1, 1): y with B'y = c is (2/5, 1/5).
        let mut c = vec![1.0, 1.0];
        lu.btran(&mut c);
        assert!((c[0] - 0.4).abs() < 1e-12 && (c[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn eta_updates_track_the_dense_product_form() {
        let cols = toy();
        let mut lu = LuFactor::identity(2);
        // Start logical (B = I), bring x into position 0: w = B⁻¹a_x = a_x.
        let w = vec![2.0, 1.0];
        assert!(lu.update(0, &w));
        // B = [[2, 0], [1, 1]] now; ftran of e_0 = first column of B⁻¹,
        // which is (0.5, -0.5).
        let mut v = vec![1.0, 0.0];
        lu.ftran(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-12 && (v[1] + 0.5).abs() < 1e-12);
        // btran of e_1 = second row of B⁻¹ = (-0.5, 1).
        let mut c = vec![0.0, 1.0];
        lu.btran(&mut c);
        assert!((c[0] + 0.5).abs() < 1e-12 && (c[1] - 1.0).abs() < 1e-12);
        // Refactorising the same basis gives identical solves.
        assert!(lu.refactorize(&cols, &[0, 3]));
        let mut v2 = vec![1.0, 0.0];
        lu.ftran(&mut v2);
        assert!((v2[0] - 0.5).abs() < 1e-12 && (v2[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn singular_basis_is_reported() {
        // Two identical columns cannot form a basis.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 1.0)], 1.0);
        m.add_constraint_le(vec![(x, 1.0)], 2.0);
        let cols = SparseCols::from_model(&m);
        let mut lu = LuFactor::identity(2);
        assert!(!lu.refactorize(&cols, &[0, 0]));
    }

    #[test]
    fn vanishing_eta_pivot_is_rejected_and_growth_triggers_refactor() {
        let mut lu = LuFactor::identity(2);
        assert!(!lu.update(0, &[0.0, 1.0]));
        assert!(!lu.wants_refactor());
        assert!(lu.update(0, &[1e-9, 1.0]));
        assert!(lu.wants_refactor(), "pivot growth must force a rebuild");
    }
}
