//! Sparse column-major storage of the constraint matrix.
//!
//! The matrix is built **once** per model from [`Model::column_views`] and
//! shared (read-only) across every LP solve of a branch-and-bound search —
//! branch bounds are native variable bounds, so the matrix never changes.
//!
//! Columns are split in two ranges:
//!
//! * `0 .. n_struct` — the model's structural variables, stored explicitly,
//! * `n_struct .. n_struct + m` — one *logical* variable per row, an
//!   implicit unit column `e_i` whose bounds encode the row sense
//!   (`<=` → `[0, ∞)`, `>=` → `(-∞, 0]`, `==` → `[0, 0]`), turning every row
//!   into the equality `a'x + s = b`.

use crate::model::Model;

/// Immutable sparse column-major constraint matrix (structural columns).
#[derive(Debug, Clone)]
pub(crate) struct SparseCols {
    /// Number of rows.
    pub(crate) m: usize,
    /// Number of structural columns.
    pub(crate) n_struct: usize,
    col_ptr: Vec<u32>,
    row_ix: Vec<u32>,
    val: Vec<f64>,
}

impl SparseCols {
    /// Builds the matrix from the model's constraint rows.
    pub(crate) fn from_model(model: &Model) -> SparseCols {
        let cols = model.column_views();
        let n_struct = cols.len();
        let nnz: usize = cols.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(n_struct + 1);
        let mut row_ix = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        col_ptr.push(0u32);
        for col in &cols {
            for &(r, v) in col {
                if v != 0.0 {
                    row_ix.push(r);
                    val.push(v);
                }
            }
            col_ptr.push(row_ix.len() as u32);
        }
        SparseCols {
            m: model.num_constraints(),
            n_struct,
            col_ptr,
            row_ix,
            val,
        }
    }

    /// Total number of columns including the logical one of each row.
    #[inline]
    pub(crate) fn n_total(&self) -> usize {
        self.n_struct + self.m
    }

    /// The non-zero `(row, value)` entries of a structural column.
    ///
    /// Logical columns (`j >= n_struct`) are the implicit unit vectors and
    /// must be special-cased by the caller (see [`SparseCols::logical_row`]).
    #[inline]
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        debug_assert!(j < self.n_struct);
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        self.row_ix[lo..hi]
            .iter()
            .zip(&self.val[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// The row of a logical column, or `None` for a structural column.
    #[inline]
    pub(crate) fn logical_row(&self, j: usize) -> Option<usize> {
        (j >= self.n_struct).then(|| j - self.n_struct)
    }

    /// Dot product of a dense row vector with column `j` (logical columns
    /// included).
    #[inline]
    pub(crate) fn dot_col(&self, row_vec: &[f64], j: usize) -> f64 {
        match self.logical_row(j) {
            Some(r) => row_vec[r],
            None => self.col(j).map(|(r, v)| row_vec[r] * v).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense};

    #[test]
    fn columns_merge_duplicates_and_keep_row_order() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        // Row 0 mentions x twice: the terms must merge.
        m.add_constraint_le(vec![(x, 1.0), (y, 2.0), (x, 3.0)], 5.0);
        m.add_constraint_ge(vec![(y, -1.0)], -2.0);
        let s = SparseCols::from_model(&m);
        assert_eq!(s.m, 2);
        assert_eq!(s.n_struct, 2);
        assert_eq!(s.n_total(), 4);
        let cx: Vec<_> = s.col(x.index()).collect();
        assert_eq!(cx, vec![(0, 4.0)]);
        let cy: Vec<_> = s.col(y.index()).collect();
        assert_eq!(cy, vec![(0, 2.0), (1, -1.0)]);
        // Logical columns are unit vectors.
        assert_eq!(s.logical_row(2), Some(0));
        assert_eq!(s.logical_row(3), Some(1));
        assert_eq!(s.logical_row(1), None);
        // dot_col sees both kinds.
        let row = [10.0, 100.0];
        assert_eq!(s.dot_col(&row, x.index()), 40.0);
        assert_eq!(s.dot_col(&row, y.index()), 20.0 - 100.0);
        assert_eq!(s.dot_col(&row, 2), 10.0);
        assert_eq!(s.dot_col(&row, 3), 100.0);
    }
}
