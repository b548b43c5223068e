//! Column-major dense multivectors — the substrate for blocked (multiple
//! right-hand-side) solves.
//!
//! A [`DenseBlock`] holds `k` vectors of length `n` in one contiguous
//! column-major buffer, so each column is an ordinary `&[f64]` slice that
//! plugs straight into the existing per-vector kernels ([`crate::dense`],
//! [`crate::CsrMatrix::mul_vec_into`]), while column-set solves
//! ([`crate::LdlFactor::solve_columns`] over [`DenseBlock::columns`]) can
//! sweep all columns in one pass over a factor's indices.

use crate::kernel::AlignedVec;

/// A dense `nrows × ncols` multivector stored column-major.
///
/// Column `c` occupies `data[c * nrows .. (c + 1) * nrows]`; columns are
/// therefore contiguous slices, cheap to hand to single-vector kernels.
///
/// The buffer is a cache-line-aligned [`AlignedVec`]. The blocked LDLᵀ
/// sweeps never read it: [`crate::LdlFactor::solve_columns`] packs each
/// chunk into the caller's interleaved work buffer and sweeps that. Block storage is read by the per-column SpMV and dense passes of
/// the blocked power iterations, by the pack/unpack copies around the
/// blocked solves, and by [`crate::kernel::joule_heat`]'s gathers over a
/// probe embedding. Backing the block with a plain `Vec<f64>` instead
/// measured slower end to end (sparsification time +9% to +20% on the
/// served workload, +12% on the circuit PCG workload, on a 2-vCPU x86-64
/// host); the mechanism has not been established.
///
/// # Example
///
/// ```
/// use sass_sparse::DenseBlock;
///
/// let b = DenseBlock::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(b.nrows(), 2);
/// assert_eq!(b.ncols(), 2);
/// assert_eq!(b.col(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseBlock {
    nrows: usize,
    ncols: usize,
    data: AlignedVec<f64>,
}

impl DenseBlock {
    /// An `nrows × ncols` block of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseBlock {
            nrows,
            ncols,
            data: AlignedVec::from_elem(0.0, nrows * ncols),
        }
    }

    /// Builds a block whose columns are copies of the given vectors.
    ///
    /// An empty slice yields the `0 × 0` block.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have unequal lengths.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        let nrows = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == nrows),
            "from_columns: ragged columns"
        );
        let mut data = AlignedVec::with_capacity(nrows * columns.len());
        for c in columns {
            data.extend_from_slice(c);
        }
        DenseBlock {
            nrows,
            ncols: columns.len(),
            data,
        }
    }

    /// Number of rows (the length of each column).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the number of vectors in the block).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Whether the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Column `c` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.ncols, "column {c} out of range");
        &self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// Iterates over the columns as slices.
    ///
    /// Always yields exactly [`DenseBlock::ncols`] items — for a zero-row
    /// block they are empty slices, keeping column-wise `zip` loops in
    /// lockstep with a sibling block of nonzero height.
    pub fn columns(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.ncols).map(move |c| &self.data[c * self.nrows..(c + 1) * self.nrows])
    }

    /// Iterates over the columns as mutable slices (exactly
    /// [`DenseBlock::ncols`] of them, empty for a zero-row block — see
    /// [`DenseBlock::columns`]).
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let nrows = self.nrows;
        let mut rest: &mut [f64] = &mut self.data;
        (0..self.ncols).map(move |_| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(nrows);
            rest = tail;
            head
        })
    }

    /// The whole column-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The whole column-major buffer, mutably.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let b = DenseBlock::zeros(3, 2);
        assert_eq!(b.nrows(), 3);
        assert_eq!(b.ncols(), 2);
        assert!(b.data().iter().all(|&v| v == 0.0));
        assert!(!b.is_empty());
        assert!(DenseBlock::zeros(0, 0).is_empty());
    }

    #[test]
    fn columns_round_trip() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let b = DenseBlock::from_columns(&cols);
        assert_eq!(b.col(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.col(1), &[4.0, 5.0, 6.0]);
        let collected: Vec<Vec<f64>> = b.columns().map(<[f64]>::to_vec).collect();
        assert_eq!(collected, cols);
    }

    #[test]
    fn col_mut_writes_through() {
        let mut b = DenseBlock::zeros(2, 2);
        for (i, col) in b.columns_mut().enumerate() {
            col[1] = i as f64 + 7.0;
        }
        assert_eq!(b.data(), &[0.0, 7.0, 0.0, 8.0]);
    }

    #[test]
    fn empty_block_edge_cases() {
        let b = DenseBlock::from_columns(&[]);
        assert_eq!(b.ncols(), 0);
        assert_eq!(b.columns().count(), 0);
    }

    /// Regression: a zero-row block must still yield `ncols` (empty)
    /// columns so paired iteration with a nonzero-height block stays in
    /// lockstep.
    #[test]
    fn zero_row_block_yields_all_columns() {
        let mut b = DenseBlock::zeros(0, 3);
        assert_eq!(b.columns().count(), 3);
        assert!(b.columns().all(<[f64]>::is_empty));
        assert_eq!(b.columns_mut().count(), 3);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_columns() {
        DenseBlock::from_columns(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
