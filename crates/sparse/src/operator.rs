//! The [`LinearOperator`] abstraction — the primitive the whole workspace is
//! layered on.
//!
//! Matrix-vector application is what iterative solvers (`sass-solver`),
//! eigensolvers (`sass-eigen`) and graph filters (`sass-gsp`) actually
//! consume; none of them need to know whether the operator is a stored
//! [`CsrMatrix`], a factorized pseudoinverse, or a composed pencil. Keeping
//! the trait here, in the lowest-level crate, lets every layer name it
//! without depending on the solver stack.

use crate::CsrMatrix;

/// A symmetric linear operator `y = A x`, the abstraction consumed by
/// `pcg` and the eigensolvers in `sass-eigen`.
///
/// Implemented for [`CsrMatrix`] directly; matrix-free operators (e.g. the
/// generalized pencil `L_P⁺ L_G`) implement it in their own crates.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.len()` or `y.len()` differ from
    /// [`LinearOperator::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Convenience allocating form of [`LinearOperator::apply`].
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }

    /// Routes through the threaded fast path;
    /// [`CsrMatrix::par_mul_vec_into`] itself falls back to the serial
    /// kernel below its size crossover or at one pool lane, so small
    /// operators pay no thread overhead.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.par_mul_vec_into(x, y);
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn csr_is_an_operator() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let y = a.apply_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![2.0, 3.0]);
        assert_eq!(LinearOperator::dim(&a), 2);
    }

    #[test]
    fn references_are_operators() {
        let a = CsrMatrix::identity(3);
        let r: &CsrMatrix = &a;
        assert_eq!(LinearOperator::dim(&r), 3);
        let y = r.apply_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }
}
