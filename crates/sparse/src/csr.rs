// Sparse kernels index multiple parallel arrays; explicit loops are clearer.
#![allow(clippy::needless_range_loop)]

use crate::{dense, kernel, CooMatrix};

/// Compressed sparse row matrix with `f64` values and `u32` column
/// indices.
///
/// This is the one sparse storage format of the workspace: graph
/// Laplacians, adjacency matrices and preconditioner operators are all
/// stored as `CsrMatrix`. Symmetric matrices store both triangles (full
/// storage), which keeps `y = A·x` a single forward sweep.
///
/// # Example
///
/// ```
/// use sass_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push_sym(0, 1, -1.0);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 1, 1.0);
/// let a = coo.to_csr(); // the 2-node path-graph Laplacian
/// let y = a.mul_vec(&[1.0, -1.0]);
/// assert_eq!(y, vec![2.0, -2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent (wrong `indptr`
    /// length, `indptr[0] != 0`, non-monotone `indptr`, index/data length
    /// mismatch, or a column index out of range). Rows need not be column-sorted, but all
    /// constructors in this crate produce sorted rows and several kernels
    /// ([`CsrMatrix::get`]) rely on it.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows + 1");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(indptr[nrows], indices.len(), "indptr end mismatch");
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr not monotone"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < ncols),
            "column index out of range"
        );
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
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

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row by row.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, row by row.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the stored values (pattern is immutable).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Approximate heap memory held by the matrix, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.data.len() * std::mem::size_of::<f64>()
    }

    /// The `(columns, values)` pair for row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Value at `(i, j)`, zero when not stored.
    ///
    /// Requires rows to be column-sorted (all constructors here guarantee
    /// that). Runs in `O(log nnz(row i))`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Dense matrix-vector product `y = A·x` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix-vector product into a caller-provided buffer: `y = A·x`,
    /// routed through the [`crate::kernel`] SpMV dispatcher.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "mul_vec: y length mismatch");
        kernel::spmv_range_f64(&self.indptr, &self.indices, &self.data, x, y, 0, self.nrows);
    }

    /// Matrix-vector product into a caller-provided buffer, using the
    /// threaded fast path when the matrix is large enough to amortize it.
    ///
    /// Falls back to [`CsrMatrix::mul_vec_into`] below a size crossover, and
    /// produces **bit-for-bit identical** results to it in all cases (rows
    /// are accumulated by the same loop in the same order; only the row →
    /// worker assignment is parallel). This is what
    /// [`LinearOperator::apply`](crate::LinearOperator) routes through.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn par_mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        crate::parallel::par_spmv(self, x, y);
    }

    /// The transpose `Aᵀ` as a new CSR matrix (rows come out column-sorted).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            for p in self.indptr[i]..self.indptr[i + 1] {
                let c = self.indices[p] as usize;
                let q = next[c];
                indices[q] = i as u32;
                data[q] = self.data[p];
                next[c] += 1;
            }
        }
        CsrMatrix::from_raw_parts(self.ncols, self.nrows, indptr, indices, data)
    }

    /// Dense representation, for tests and tiny matrices only.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                out[i][*c as usize] = *v;
            }
        }
        out
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            data: vec![1.0; n],
        }
    }

    /// Quadratic form `xᵀ A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or the matrix is not square.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.nrows, self.ncols, "quad_form requires a square matrix");
        let y = self.mul_vec(x);
        dense::dot(x, &y)
    }

    /// Relative residual `‖A·x − b‖₂ / ‖b‖₂` (absolute norm if `b = 0`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.nrows, "residual: b length mismatch");
        let mut r = self.mul_vec(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        let bn = dense::norm2(b);
        if bn > 0.0 {
            dense::norm2(&r) / bn
        } else {
            dense::norm2(&r)
        }
    }

    /// Checks structural and numerical symmetry to tolerance `tol`
    /// (relative to the largest matching pair magnitude).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr {
            return false;
        }
        // Both are row-sorted, so patterns and values can be compared directly.
        if t.indices != self.indices {
            return false;
        }
        self.data
            .iter()
            .zip(&t.data)
            .all(|(&a, &b)| (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0))
    }

    /// The diagonal of the matrix as a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn diagonal(&self) -> Vec<f64> {
        assert_eq!(self.nrows, self.ncols, "diagonal requires a square matrix");
        (0..self.nrows).map(|i| self.get(i, i)).collect()
    }

    /// Extracts the principal submatrix on the rows/columns for which
    /// `keep[i]` is true. Returns the submatrix and the vector mapping new
    /// indices to old ones.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != nrows` or the matrix is not square.
    pub fn principal_submatrix(&self, keep: &[bool]) -> (CsrMatrix, Vec<usize>) {
        assert_eq!(
            self.nrows, self.ncols,
            "principal submatrix of square matrix"
        );
        assert_eq!(keep.len(), self.nrows, "keep mask length mismatch");
        let mut new_of_old = vec![usize::MAX; self.nrows];
        let mut old_of_new = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                new_of_old[i] = old_of_new.len();
                old_of_new.push(i);
            }
        }
        let m = old_of_new.len();
        let mut indptr = Vec::with_capacity(m + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0usize);
        for &old_i in &old_of_new {
            let (cols, vals) = self.row(old_i);
            for (c, v) in cols.iter().zip(vals) {
                let nj = new_of_old[*c as usize];
                if nj != usize::MAX {
                    indices.push(nj as u32);
                    data.push(*v);
                }
            }
            indptr.push(indices.len());
        }
        (
            CsrMatrix::from_raw_parts(m, m, indptr, indices, data),
            old_of_new,
        )
    }

    /// Converts back to triplet form.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(i, *c as usize, *v);
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_path3() -> CsrMatrix {
        // Path graph 0-1-2 with unit weights.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(2, 2, 1.0);
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(1, 2, -1.0);
        coo.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = laplacian_path3();
        let y = a.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn quad_form_nonnegative_for_laplacian() {
        let a = laplacian_path3();
        assert!(a.quad_form(&[0.3, -1.2, 2.0]) >= 0.0);
        assert!(a.quad_form(&[1.0, 1.0, 1.0]).abs() < 1e-15);
    }

    #[test]
    fn transpose_of_symmetric_is_identity_op() {
        let a = laplacian_path3();
        let t = a.transpose();
        assert_eq!(a, t);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0);
        coo.push(1, 0, 3.0);
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 3.0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = laplacian_path3();
        assert_eq!(a.diagonal(), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn principal_submatrix_drops_row() {
        let a = laplacian_path3();
        let (sub, map) = a.principal_submatrix(&[true, true, false]);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(sub.get(0, 0), 1.0);
        assert_eq!(sub.get(1, 1), 2.0);
        assert_eq!(sub.get(0, 1), -1.0);
        assert_eq!(sub.nnz(), 4);
    }

    #[test]
    fn identity_behaves() {
        let i3 = CsrMatrix::identity(3);
        let x = [4.0, 5.0, 6.0];
        assert_eq!(i3.mul_vec(&x), x.to_vec());
    }

    #[test]
    fn get_missing_is_zero() {
        let a = laplacian_path3();
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn to_coo_round_trip() {
        let a = laplacian_path3();
        let b = a.to_coo().to_csr();
        assert_eq!(a, b);
    }

    #[test]
    fn raw_parts_round_trip() {
        let a = laplacian_path3();
        let b = CsrMatrix::from_raw_parts(
            a.nrows(),
            a.ncols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.data().to_vec(),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn bad_raw_parts_panic() {
        let _ = CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }

    /// A row pointer starting past 0 would hand row 0 fewer entries than
    /// `nnz()` counts, and `transpose` would then invent entries that no
    /// row owns.
    #[test]
    #[should_panic(expected = "indptr must start at 0")]
    fn raw_parts_with_offset_indptr_panic() {
        let _ = CsrMatrix::from_raw_parts(1, 2, vec![1, 2], vec![0, 1], vec![5.0, 7.0]);
    }
}
