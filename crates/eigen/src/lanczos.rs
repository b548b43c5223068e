//! Symmetric Lanczos with full reorthogonalization.
//!
//! The workspace's replacement for ARPACK/`eigs`: computes a few extreme
//! eigenpairs of a large symmetric [`LinearOperator`]. Full
//! reorthogonalization keeps the Krylov basis numerically orthogonal, which
//! is affordable here because requested subspaces are small (`k ≤ 20`,
//! Krylov dimension a few hundred).
//!
//! For the *smallest* nontrivial Laplacian eigenpairs, use
//! [`lanczos_smallest_laplacian`], which runs Lanczos on the pseudoinverse
//! operator `L⁺` (one sparse factorization + a triangular solve per step) —
//! the same shift-invert strategy `eigs(L, k, 'sm')` uses.

use crate::tridiag::tridiagonal_eig;
use crate::{EigenError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{dense, CsrMatrix, LinearOperator};
use std::cell::RefCell;

/// Options for a Lanczos run.
#[derive(Debug, Clone, PartialEq)]
pub struct LanczosOptions {
    /// Maximum Krylov dimension before giving up.
    pub max_dim: usize,
    /// Relative residual tolerance for Ritz-pair convergence.
    pub tol: f64,
    /// Seed of the random start vector.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_dim: 300,
            tol: 1e-9,
            seed: 0x1a2b,
        }
    }
}

/// Result of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Converged eigenvalues, **descending** (the operator's largest).
    pub eigenvalues: Vec<f64>,
    /// Unit Ritz vectors matching `eigenvalues`.
    pub eigenvectors: Vec<Vec<f64>>,
    /// Krylov dimension actually used.
    pub dim: usize,
    /// Whether all requested pairs met the tolerance.
    pub converged: bool,
}

/// Computes the `k` largest eigenpairs of a symmetric operator.
///
/// With `deflate_constant` set, all iterates are kept orthogonal to the
/// all-ones vector — mandatory when `op` is (built from) a singular graph
/// Laplacian whose trivial nullspace must be excluded.
///
/// # Errors
///
/// Returns [`EigenError::InvalidParameter`] when `k` is zero or exceeds the
/// available dimension. A run that exhausts `max_dim` without meeting the
/// tolerance still returns its best Ritz pairs, flagged
/// `converged = false`.
///
/// # Example
///
/// ```
/// use sass_eigen::lanczos::{lanczos_largest, LanczosOptions};
/// use sass_graph::Graph;
///
/// # fn main() -> Result<(), sass_eigen::EigenError> {
/// let g = Graph::from_edges(6, &(0..5).map(|i| (i, i + 1, 1.0)).collect::<Vec<_>>())?;
/// let l = g.laplacian();
/// let res = lanczos_largest(&l, 1, true, &LanczosOptions::default())?;
/// let exact = 2.0 - 2.0 * (5.0 * std::f64::consts::PI / 6.0).cos();
/// assert!((res.eigenvalues[0] - exact).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn lanczos_largest<A>(
    op: &A,
    k: usize,
    deflate_constant: bool,
    opts: &LanczosOptions,
) -> Result<LanczosResult>
where
    A: LinearOperator + ?Sized,
{
    let n = op.dim();
    let avail = if deflate_constant {
        n.saturating_sub(1)
    } else {
        n
    };
    if k == 0 || k > avail {
        return Err(EigenError::InvalidParameter {
            context: format!("requested {k} eigenpairs from effective dimension {avail}"),
        });
    }
    let max_dim = opts.max_dim.min(avail).max(k);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(max_dim);
    let mut alphas: Vec<f64> = Vec::with_capacity(max_dim);
    let mut betas: Vec<f64> = Vec::with_capacity(max_dim);

    let fresh_vector = |rng: &mut StdRng, vs: &[Vec<f64>]| -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        if deflate_constant {
            dense::center(&mut v);
        }
        for u in vs {
            dense::orthogonalize_against(&mut v, u);
        }
        dense::normalize(&mut v);
        v
    };
    vs.push(fresh_vector(&mut rng, &[]));

    let mut w = vec![0.0; n];
    let mut converged = false;
    let mut ritz: (Vec<f64>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());

    while vs.len() <= max_dim {
        let j = vs.len() - 1;
        op.apply(&vs[j], &mut w);
        if deflate_constant {
            dense::center(&mut w);
        }
        let alpha = dense::dot(&w, &vs[j]);
        alphas.push(alpha);
        // Full reorthogonalization (two passes of modified Gram–Schmidt).
        for _ in 0..2 {
            for u in &vs {
                dense::orthogonalize_against(&mut w, u);
            }
        }
        let beta = dense::norm2(&w);

        // Convergence check on the current tridiagonal. Diagonalizing T is
        // O(m³), so only do it periodically and at forced stops.
        let m = alphas.len();
        let must_stop = vs.len() == max_dim || beta < 1e-13;
        if m >= k && (must_stop || m.is_multiple_of(8)) {
            let (tvals, tvecs) = tridiagonal_eig(&alphas, &betas)?;
            let mut ok = true;
            for i in 0..k {
                let idx = m - 1 - i; // largest Ritz values sit at the end
                let resid = beta * tvecs[idx][m - 1].abs();
                if resid > opts.tol * tvals[idx].abs().max(1e-30) {
                    ok = false;
                    break;
                }
            }
            if ok || must_stop {
                converged = ok || beta < 1e-13;
                ritz = (tvals, tvecs);
                break;
            }
        } else if m < k && beta < 1e-13 {
            // Invariant subspace before k pairs: restart with a fresh
            // orthogonal direction (T becomes block diagonal, still valid).
            betas.push(0.0);
            vs.push(fresh_vector(&mut rng, &vs));
            continue;
        }
        betas.push(beta);
        // Push the normalized copy into the basis and keep `w` as the
        // persistent apply buffer — the only per-step allocation is the
        // stored Krylov vector itself.
        let inv_beta = 1.0 / beta;
        vs.push(w.iter().map(|&wi| wi * inv_beta).collect());
    }
    if ritz.0.is_empty() {
        let (tvals, tvecs) = tridiagonal_eig(&alphas, &betas[..alphas.len() - 1])?;
        ritz = (tvals, tvecs);
    }

    let (tvals, tvecs) = ritz;
    let m = tvals.len();
    let take = k.min(m);
    let mut eigenvalues = Vec::with_capacity(take);
    let mut eigenvectors = Vec::with_capacity(take);
    for i in 0..take {
        let idx = m - 1 - i;
        eigenvalues.push(tvals[idx]);
        let s = &tvecs[idx];
        let mut x = vec![0.0; n];
        for (vj, &sj) in vs.iter().zip(s) {
            dense::axpy(sj, vj, &mut x);
        }
        dense::normalize(&mut x);
        eigenvectors.push(x);
    }
    Ok(LanczosResult {
        eigenvalues,
        eigenvectors,
        dim: m,
        converged,
    })
}

/// The `k` smallest **nontrivial** eigenpairs of a connected-graph
/// Laplacian, by Lanczos on the pseudoinverse `L⁺` (shift-invert at 0).
///
/// Eigenvalues are returned ascending starting from `λ₂`; eigenvectors are
/// mean-zero. The cost is one grounded factorization of `L` plus one
/// triangular solve per Lanczos step — exactly the `eigs` strategy whose
/// runtime the paper's Table 4 compares between original and sparsified
/// graphs.
///
/// # Errors
///
/// Propagates factorization failure ([`EigenError::Solver`], e.g. for a
/// disconnected graph) and Lanczos parameter errors.
pub fn lanczos_smallest_laplacian(
    l: &CsrMatrix,
    k: usize,
    ordering: OrderingKind,
    opts: &LanczosOptions,
) -> Result<LanczosResult> {
    let solver = GroundedSolver::new(l, ordering)?;
    let op = PseudoinverseOp::new(&solver);
    let mut res = lanczos_largest(&op, k, true, opts)?;
    // Map μ (of L⁺) back to λ = 1/μ and re-sort ascending.
    for v in &mut res.eigenvalues {
        *v = 1.0 / *v;
    }
    // μ descending ⇒ λ ascending already; enforce anyway for safety.
    let mut order: Vec<usize> = (0..res.eigenvalues.len()).collect();
    order.sort_by(|&a, &b| {
        res.eigenvalues[a]
            .partial_cmp(&res.eigenvalues[b])
            .expect("finite eigenvalues")
    });
    res.eigenvalues = order.iter().map(|&i| res.eigenvalues[i]).collect();
    res.eigenvectors = order.iter().map(|&i| res.eigenvectors[i].clone()).collect();
    Ok(res)
}

/// The Laplacian pseudoinverse `L⁺` as a [`LinearOperator`]: one grounded
/// solve per application, against a factorization built once.
///
/// Solver scratch is reused across applications, so driving this operator
/// inside Lanczos or power iterations allocates nothing per step. The
/// interior mutability makes the operator `!Sync`; clone per thread if
/// needed.
#[derive(Debug, Clone)]
pub struct PseudoinverseOp<'a> {
    solver: &'a GroundedSolver,
    scratch: RefCell<GroundedScratch>,
}

impl<'a> PseudoinverseOp<'a> {
    /// Wraps a grounded factorization of the Laplacian to invert.
    pub fn new(solver: &'a GroundedSolver) -> Self {
        PseudoinverseOp {
            solver,
            scratch: RefCell::new(GroundedScratch::new()),
        }
    }

    /// The underlying grounded solver.
    pub fn solver(&self) -> &GroundedSolver {
        self.solver
    }
}

impl LinearOperator for PseudoinverseOp<'_> {
    fn dim(&self) -> usize {
        self.solver.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.solver
            .solve_columns(&[x], &mut [y], &mut self.scratch.borrow_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::{csr_to_dense, dense_symmetric_eig};
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::Graph;

    #[test]
    fn largest_matches_jacobi_on_mesh() {
        let g = grid2d(6, 5, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 8);
        let l = g.laplacian();
        let res = lanczos_largest(&l, 3, true, &LanczosOptions::default()).unwrap();
        let (jvals, _) = dense_symmetric_eig(&csr_to_dense(&l)).unwrap();
        for i in 0..3 {
            let exact = jvals[jvals.len() - 1 - i];
            assert!(
                (res.eigenvalues[i] - exact).abs() < 1e-6 * exact,
                "pair {i}: {} vs {exact}",
                res.eigenvalues[i]
            );
        }
        assert!(res.converged);
    }

    #[test]
    fn smallest_laplacian_matches_jacobi() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let l = g.laplacian();
        let res = lanczos_smallest_laplacian(&l, 4, OrderingKind::MinDegree, &Default::default())
            .unwrap();
        let (jvals, _) = dense_symmetric_eig(&csr_to_dense(&l)).unwrap();
        // jvals[0] ≈ 0 (trivial); compare against jvals[1..5].
        for i in 0..4 {
            assert!(
                (res.eigenvalues[i] - jvals[i + 1]).abs() < 1e-7,
                "pair {i}: {} vs {}",
                res.eigenvalues[i],
                jvals[i + 1]
            );
        }
        // Eigenvectors are mean-zero and satisfy the residual equation.
        for (lam, v) in res.eigenvalues.iter().zip(&res.eigenvectors) {
            assert!(dense::mean(v).abs() < 1e-10);
            let lv = l.mul_vec(v);
            let mut r = lv.clone();
            dense::axpy(-lam, v, &mut r);
            assert!(dense::norm2(&r) < 1e-6, "residual {}", dense::norm2(&r));
        }
    }

    #[test]
    fn ritz_vectors_are_orthonormal() {
        let g = grid2d(7, 4, WeightModel::Unit, 2);
        let l = g.laplacian();
        let res = lanczos_largest(&l, 4, true, &LanczosOptions::default()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let d = dense::dot(&res.eigenvectors[i], &res.eigenvectors[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-6, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn rejects_bad_k() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let l = g.laplacian();
        assert!(lanczos_largest(&l, 0, true, &Default::default()).is_err());
        assert!(lanczos_largest(&l, 3, true, &Default::default()).is_err()); // only n-1 available
    }

    #[test]
    fn handles_tiny_graphs() {
        let g = Graph::from_edges(2, &[(0, 1, 3.0)]).unwrap();
        let l = g.laplacian();
        let res = lanczos_largest(&l, 1, true, &Default::default()).unwrap();
        assert!((res.eigenvalues[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = grid2d(5, 5, WeightModel::Unit, 1);
        let l = g.laplacian();
        let a = lanczos_largest(&l, 2, true, &LanczosOptions::default()).unwrap();
        let b = lanczos_largest(&l, 2, true, &LanczosOptions::default()).unwrap();
        assert_eq!(a.eigenvalues, b.eigenvalues);
    }
}
