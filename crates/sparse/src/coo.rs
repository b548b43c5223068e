use crate::{CsrMatrix, Result, SparseError};

/// Coordinate (triplet) sparse matrix used for assembly.
///
/// Duplicate entries are allowed while building; they are summed when the
/// matrix is converted to [`CsrMatrix`] with [`CooMatrix::to_csr`]. This is
/// the usual finite-element / graph-Laplacian assembly workflow.
///
/// # Example
///
/// ```
/// use sass_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // duplicates are summed
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with space reserved for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends the triplet `(row, col, val)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        if self.try_push(row, col, val).is_err() {
            panic!(
                "coo index out of bounds: ({row}, {col}) outside {} x {}",
                self.nrows, self.ncols
            );
        }
    }

    /// Appends the triplet `(row, col, val)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the indices do not fit
    /// the matrix shape.
    fn try_push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Appends `val` at `(row, col)` **and** `(col, row)`.
    ///
    /// Convenience for building symmetric matrices from one triangle.
    /// Diagonal entries are pushed once.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push_sym(&mut self, row: usize, col: usize, val: f64) {
        self.push(row, col, val);
        if row != col {
            self.push(col, row, val);
        }
    }

    /// Iterates over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicate entries and dropping exact zeros
    /// that result from cancellation of duplicates (entries pushed as `0.0`
    /// are kept only if no duplicate merging occurs at that position).
    pub fn to_csr(&self) -> CsrMatrix {
        // Count entries per row (duplicates included) to bucket them.
        let mut row_counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut order: Vec<u32> = vec![0; self.nnz()];
        {
            let mut next = row_counts.clone();
            for (k, &r) in self.rows.iter().enumerate() {
                order[next[r]] = k as u32;
                next[r] += 1;
            }
        }

        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(self.nnz());
        let mut data: Vec<f64> = Vec::with_capacity(self.nnz());
        indptr.push(0usize);

        // Per-row: sort bucket by column, merge duplicates.
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &k in &order[row_counts[r]..row_counts[r + 1]] {
                scratch.push((self.cols[k as usize] as u32, self.vals[k as usize]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == col {
                    v += scratch[j].1;
                    j += 1;
                }
                indices.push(col);
                data.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }

        CsrMatrix::from_raw_parts(self.nrows, self.ncols, indptr, indices, data)
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_sums_duplicates() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.5);
        coo.push(0, 1, 0.5);
        coo.push(2, 0, -1.0);
        coo.push(1, 1, 4.0);
        assert_eq!(coo.nnz(), 4);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(2, 0), -1.0);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(2, 2), 0.0);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut coo = CooMatrix::new(2, 2);
        let err = coo.try_push(2, 0, 1.0).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn push_sym_mirrors() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 2, 5.0);
        coo.push_sym(1, 1, 7.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 2), 5.0);
        assert_eq!(csr.get(2, 0), 5.0);
        assert_eq!(csr.get(1, 1), 7.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(4, 4);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 4);
    }

    #[test]
    fn extend_from_iterator() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn iter_round_trips() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 3.0);
        let got: Vec<_> = coo.iter().collect();
        assert_eq!(got, vec![(0, 1, 3.0)]);
    }
}
