use crate::{GroundedScratch, GroundedSolver};
use sass_sparse::CsrMatrix;
use std::cell::RefCell;

/// Application of an (approximate) inverse: `z ≈ A⁻¹ r`.
///
/// Implementations must be symmetric positive (semi-)definite operators for
/// use inside [`pcg`](crate::pcg). For Laplacian systems the convention in
/// this workspace is that `z` comes back mean-centered.
pub trait Preconditioner {
    /// Computes `z ≈ A⁻¹ r`.
    ///
    /// # Panics
    ///
    /// Implementations panic on slice-length mismatch.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner (plain conjugate gradient).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrec;

impl Preconditioner for IdentityPrec {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioner: `z = D⁻¹ r`.
#[derive(Debug, Clone)]
pub struct JacobiPrec {
    inv_diag: Vec<f64>,
}

impl JacobiPrec {
    /// Builds the preconditioner from the diagonal of `a`.
    ///
    /// Zero diagonal entries are passed through unscaled (treated as 1).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .map(|d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        JacobiPrec { inv_diag }
    }
}

impl Preconditioner for JacobiPrec {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "jacobi: length mismatch");
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Preconditioning by an exact solve with a (sparsified) Laplacian:
/// `z = L_P⁺ r`. This is the paper's use of the spectral sparsifier — the
/// PCG iteration count is then governed by the relative condition number
/// `κ(L_G, L_P) ≤ σ²`. Each application is a pair of triangular factor
/// sweeps, which run on a subtree-to-lane partition of the factor's
/// elimination tree — one pool dispatch per sweep — once the factor is
/// past the size and critical-path gates, so PCG iterations get multicore
/// preconditioner applies for free. A spanning tree's Laplacian gives the
/// classic O(n) tree preconditioner: [`GroundedSolver`] eliminates it leaf
/// to root.
#[derive(Debug, Clone)]
pub struct LaplacianPrec {
    solver: GroundedSolver,
    // Reused across applications so the PCG hot loop is allocation-free.
    // (Makes the preconditioner !Sync; clone it per thread instead of
    // sharing one across threads.)
    scratch: RefCell<GroundedScratch>,
}

impl LaplacianPrec {
    /// Wraps a grounded factorization of the preconditioning Laplacian.
    pub fn new(solver: GroundedSolver) -> Self {
        LaplacianPrec {
            solver,
            scratch: RefCell::new(GroundedScratch::new()),
        }
    }

    /// Access to the underlying grounded solver.
    pub fn solver(&self) -> &GroundedSolver {
        &self.solver
    }
}

impl Preconditioner for LaplacianPrec {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solver
            .solve_columns(&[r], &mut [z], &mut self.scratch.borrow_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::Graph;
    use sass_sparse::ordering::OrderingKind;

    #[test]
    fn identity_copies() {
        let r = [1.0, 2.0];
        let mut z = [0.0; 2];
        IdentityPrec.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_scales_by_diagonal() {
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 2.0)]).unwrap();
        let l = g.laplacian();
        let m = JacobiPrec::new(&l);
        let mut z = [0.0; 3];
        m.apply(&[2.0, 4.0, 2.0], &mut z);
        assert_eq!(z, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn laplacian_prec_is_pseudoinverse() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let l = g.laplacian();
        let m = LaplacianPrec::new(GroundedSolver::new(&l, OrderingKind::Natural).unwrap());
        let r = [1.0, 0.0, -1.0];
        let mut z = [0.0; 3];
        m.apply(&r, &mut z);
        assert!(l.residual_norm(&z, &r) < 1e-12);
        assert_eq!(m.solver().n(), 3);
    }
}
