//! The generalized Laplacian pencil `L_G u = λ L_P u` as a linear operator.
//!
//! Spectral similarity between a graph `G` and its sparsifier `P` is the
//! spread of the generalized eigenvalues of the pencil `(L_G, L_P)` (paper
//! §2). This module provides:
//!
//! - [`GeneralizedPencil`]: the operator `x ↦ L_P⁺ L_G x` (one sparse solve
//!   per application) whose eigenvalues are exactly those of the pencil,
//! - [`GeneralizedPencil::power_max`]: generalized power iterations for
//!   `λ_max` (paper §3.6.1),
//! - [`dense_generalized_eigenvalues`]: a dense reference solver for
//!   validation on small graphs.

// Dense kernels read more clearly with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::jacobi::dense_symmetric_eig;
use crate::{EigenError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::{dense, CsrMatrix, DenseBlock, LinearOperator};
use std::cell::RefCell;

/// The operator `x ↦ L_P⁺ L_G x`, restricted to mean-zero vectors.
///
/// Self-adjoint in the `L_P` inner product, so power iterations with the
/// generalized Rayleigh quotient `(xᵀ L_G x)/(xᵀ L_P x)` converge to the
/// extreme generalized eigenvalues.
///
/// # Example
///
/// ```
/// use sass_eigen::pencil::GeneralizedPencil;
/// use sass_graph::Graph;
/// use sass_solver::GroundedSolver;
///
/// # fn main() -> Result<(), sass_eigen::EigenError> {
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])?;
/// let lg = g.laplacian();
/// // P = G: every generalized eigenvalue is 1.
/// let solver = GroundedSolver::new(&lg, Default::default())
///     .map_err(sass_eigen::EigenError::from)?;
/// let pencil = GeneralizedPencil::new(&lg, &lg, &solver);
/// let (lmax, _) = pencil.power_max(20, 7);
/// assert!((lmax - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GeneralizedPencil<'a> {
    lg: &'a CsrMatrix,
    lp: &'a CsrMatrix,
    solver: &'a GroundedSolver,
    // `L_G x` staging buffer plus solver scratch, reused across
    // applications so power iterations allocate nothing per step.
    scratch: RefCell<(Vec<f64>, GroundedScratch)>,
}

impl<'a> GeneralizedPencil<'a> {
    /// Builds the pencil operator from the two Laplacians and a grounded
    /// factorization of `lp`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn new(lg: &'a CsrMatrix, lp: &'a CsrMatrix, solver: &'a GroundedSolver) -> Self {
        assert_eq!(lg.nrows(), lp.nrows(), "pencil: dimension mismatch");
        assert_eq!(lg.nrows(), solver.n(), "pencil: solver dimension mismatch");
        let scratch = RefCell::new((vec![0.0; lg.nrows()], GroundedScratch::new()));
        GeneralizedPencil {
            lg,
            lp,
            solver,
            scratch,
        }
    }

    /// The original-graph Laplacian.
    pub fn lg(&self) -> &CsrMatrix {
        self.lg
    }

    /// The sparsifier Laplacian.
    pub fn lp(&self) -> &CsrMatrix {
        self.lp
    }

    /// Generalized Rayleigh quotient `(xᵀ L_G x) / (xᵀ L_P x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dimension.
    fn rayleigh(&self, x: &[f64]) -> f64 {
        let num = self.lg.quad_form(x);
        let den = self.lp.quad_form(x);
        num / den.max(f64::MIN_POSITIVE)
    }

    /// `t`-step generalized power iteration from a seeded random vector;
    /// returns the Rayleigh-quotient estimate of `λ_max` and the iterate.
    ///
    /// Fewer than ten steps already give a good estimate because the top
    /// eigenvalues of spanning-tree pencils are well separated
    /// (Spielman–Woo); the estimate is a lower bound on the true `λ_max`.
    pub fn power_max(&self, t: usize, seed: u64) -> (f64, Vec<f64>) {
        let n = self.lg.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        dense::center(&mut x);
        dense::normalize(&mut x);
        let mut y = vec![0.0; n];
        for _ in 0..t {
            self.apply(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
            if dense::normalize(&mut x) == 0.0 {
                // Nullspace hit (can only happen for degenerate inputs).
                x = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                dense::center(&mut x);
                dense::normalize(&mut x);
            }
        }
        (self.rayleigh(&x), x)
    }

    /// Multi-probe generalized power iteration: advances `probes` random
    /// start vectors *side by side* as one [`DenseBlock`], so every step
    /// streams the sparsifier factor once per block
    /// ([`GroundedSolver::solve_columns`]) instead of once per
    /// probe. Returns the best Rayleigh-quotient estimate over the probes
    /// and its iterate — still a lower bound on `λ_max`, but with the
    /// single-probe risk of starting orthogonal to the dominant eigenvector
    /// driven down exponentially in `probes`.
    ///
    /// `power_max_block(t, 1, seed)` follows the same trajectory as
    /// [`GeneralizedPencil::power_max`] `(t, seed)`.
    pub fn power_max_block(&self, t: usize, probes: usize, seed: u64) -> (f64, Vec<f64>) {
        let n = self.lg.nrows();
        let probes = probes.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = DenseBlock::zeros(n, probes);
        for col in x.columns_mut() {
            for v in col.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            dense::center(col);
            dense::normalize(col);
        }
        let mut y = DenseBlock::zeros(n, probes);
        let mut scratch = GroundedScratch::new();
        for _ in 0..t {
            for (xc, yc) in x.columns().zip(y.columns_mut()) {
                self.lg.apply(xc, yc);
            }
            let b: Vec<&[f64]> = y.columns().collect();
            let mut out: Vec<&mut [f64]> = x.columns_mut().collect();
            self.solver.solve_columns(&b, &mut out, &mut scratch);
            for col in x.columns_mut() {
                if dense::normalize(col) == 0.0 {
                    // Nullspace hit (degenerate input): restart this probe.
                    for v in col.iter_mut() {
                        *v = rng.gen_range(-1.0..1.0);
                    }
                    dense::center(col);
                    dense::normalize(col);
                }
            }
        }
        let (mut best_val, mut best_col) = (f64::NEG_INFINITY, 0);
        for (c, col) in x.columns().enumerate() {
            let r = self.rayleigh(col);
            if r > best_val {
                best_val = r;
                best_col = c;
            }
        }
        (best_val, x.col(best_col).to_vec())
    }
}

impl LinearOperator for GeneralizedPencil<'_> {
    fn dim(&self) -> usize {
        self.lg.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let (tmp, grounded) = &mut *self.scratch.borrow_mut();
        self.lg.apply(x, tmp);
        self.solver.solve_columns(&[tmp], &mut [y], grounded);
    }
}

/// All `n − 1` nontrivial generalized eigenvalues of `(L_G, L_P)` by dense
/// reduction — for validation on small graphs (`n ≲ 200`).
///
/// Both Laplacians are grounded at vertex 0 (exact for connected graphs:
/// quadratic forms are invariant along the shared all-ones nullspace), the
/// grounded `B` is Cholesky-factorized densely, and the symmetric standard
/// problem `L⁻¹ A L⁻ᵀ` is solved by Jacobi. Eigenvalues come back ascending.
///
/// # Errors
///
/// Returns [`EigenError::InvalidParameter`] for mismatched dimensions or a
/// non-positive-definite grounded `lp` (disconnected sparsifier).
pub fn dense_generalized_eigenvalues(lg: &CsrMatrix, lp: &CsrMatrix) -> Result<Vec<f64>> {
    if lg.nrows() != lp.nrows() || lg.nrows() != lg.ncols() || lp.nrows() != lp.ncols() {
        return Err(EigenError::InvalidParameter {
            context: "pencil matrices must be square with equal sizes".to_string(),
        });
    }
    let n = lg.nrows();
    if n <= 1 {
        return Ok(Vec::new());
    }
    let m = n - 1;
    // Grounded dense copies (drop row/col 0).
    let mut a = vec![vec![0.0; m]; m];
    let mut b = vec![vec![0.0; m]; m];
    for i in 1..n {
        let (cols, vals) = lg.row(i);
        for (c, v) in cols.iter().zip(vals) {
            if *c as usize >= 1 {
                a[i - 1][*c as usize - 1] = *v;
            }
        }
        let (cols, vals) = lp.row(i);
        for (c, v) in cols.iter().zip(vals) {
            if *c as usize >= 1 {
                b[i - 1][*c as usize - 1] = *v;
            }
        }
    }
    // Dense Cholesky B = L Lᵀ.
    let mut l = vec![vec![0.0; m]; m];
    for i in 0..m {
        for j in 0..=i {
            let mut s = b[i][j];
            for k in 0..j {
                s -= l[i][k] * l[j][k];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(EigenError::InvalidParameter {
                        context: "grounded L_P is not positive definite (disconnected sparsifier?)"
                            .to_string(),
                    });
                }
                l[i][j] = s.sqrt();
            } else {
                l[i][j] = s / l[j][j];
            }
        }
    }
    // C = L⁻¹ A L⁻ᵀ: first W = L⁻¹ A (forward solves per column), then
    // C = W L⁻ᵀ i.e. Cᵀ = L⁻¹ Wᵀ.
    let mut w = vec![vec![0.0; m]; m];
    for col in 0..m {
        // Solve L y = A[:, col].
        for i in 0..m {
            let mut s = a[i][col];
            for k in 0..i {
                s -= l[i][k] * w[k][col];
            }
            w[i][col] = s / l[i][i];
        }
    }
    let mut c = vec![vec![0.0; m]; m];
    for row in 0..m {
        // Solve L z = W[row, :]ᵀ; then C[row, :] = zᵀ.
        for i in 0..m {
            let mut s = w[row][i];
            for k in 0..i {
                s -= l[i][k] * c[row][k];
            }
            c[row][i] = s / l[i][i];
        }
    }
    // Symmetrize roundoff and diagonalize.
    for i in 0..m {
        for j in (i + 1)..m {
            let avg = 0.5 * (c[i][j] + c[j][i]);
            c[i][j] = avg;
            c[j][i] = avg;
        }
    }
    let (vals, _) = dense_symmetric_eig(&c)?;
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::{spanning, Graph, RootedTree};
    use sass_sparse::ordering::OrderingKind;

    #[test]
    fn identical_graphs_have_unit_spectrum() {
        let g = grid2d(4, 4, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let l = g.laplacian();
        let vals = dense_generalized_eigenvalues(&l, &l).unwrap();
        for v in vals {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subgraph_pencil_eigenvalues_at_least_one() {
        let g = grid2d(5, 4, WeightModel::Unit, 3);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids.iter().copied());
        let vals = dense_generalized_eigenvalues(&g.laplacian(), &p.laplacian()).unwrap();
        for v in &vals {
            assert!(*v >= 1.0 - 1e-9, "eigenvalue {v} below 1");
        }
    }

    #[test]
    fn trace_equals_total_stretch_for_tree() {
        // Trace(L_T^+ L_G) = st_T(G) (paper Eq. 4).
        let g = grid2d(4, 5, WeightModel::Uniform { lo: 0.3, hi: 3.0 }, 9);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let tree = RootedTree::new(&g, tree_ids.clone(), 0).unwrap();
        let stats = sass_graph::stretch::stretch_stats(&g, &tree).unwrap();
        let p = g.subgraph_with_edges(tree_ids.iter().copied());
        let vals = dense_generalized_eigenvalues(&g.laplacian(), &p.laplacian()).unwrap();
        let trace: f64 = vals.iter().sum();
        assert!(
            (trace - stats.total).abs() < 1e-7 * stats.total,
            "trace {trace} vs total stretch {}",
            stats.total
        );
    }

    #[test]
    fn power_max_approaches_dense_lambda_max() {
        let g = grid2d(5, 5, WeightModel::Unit, 2);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids.iter().copied());
        let lg = g.laplacian();
        let lp = p.laplacian();
        let solver = GroundedSolver::new(&lp, OrderingKind::MinDegree).unwrap();
        let pencil = GeneralizedPencil::new(&lg, &lp, &solver);
        let (est, _) = pencil.power_max(10, 3);
        let vals = dense_generalized_eigenvalues(&lg, &lp).unwrap();
        let exact = *vals.last().unwrap();
        assert!(est <= exact + 1e-9, "estimate must be a lower bound");
        assert!(est > 0.85 * exact, "estimate {est} too far below {exact}");
    }

    #[test]
    fn rayleigh_of_generalized_eigenvector_is_eigenvalue() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let lg = g.laplacian();
        let tree = g.subgraph_with_edges([0u32, 2, 3]);
        let lp = tree.laplacian();
        let solver = GroundedSolver::new(&lp, OrderingKind::Natural).unwrap();
        let pencil = GeneralizedPencil::new(&lg, &lp, &solver);
        let (lmax, v) = pencil.power_max(50, 1);
        assert!((pencil.rayleigh(&v) - lmax).abs() < 1e-12);
    }

    #[test]
    fn power_max_block_bounds_and_beats_single_probe() {
        let g = grid2d(6, 5, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 4);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids.iter().copied());
        let lg = g.laplacian();
        let lp = p.laplacian();
        let solver = GroundedSolver::new(&lp, OrderingKind::MinDegree).unwrap();
        let pencil = GeneralizedPencil::new(&lg, &lp, &solver);
        let vals = dense_generalized_eigenvalues(&lg, &lp).unwrap();
        let exact = *vals.last().unwrap();
        // One probe through the blocked path follows the scalar trajectory.
        let (single, _) = pencil.power_max(8, 11);
        let (block1, _) = pencil.power_max_block(8, 1, 11);
        assert!((single - block1).abs() < 1e-12, "{single} vs {block1}");
        // More probes: still a lower bound, and no worse than the best
        // probe run individually (it *is* the max over those runs).
        let (multi, v) = pencil.power_max_block(8, 6, 11);
        assert!(multi <= exact + 1e-9);
        assert!(multi >= block1 - 1e-12);
        assert!((pencil.rayleigh(&v) - multi).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_sizes() {
        let g2 = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let g3 = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(dense_generalized_eigenvalues(&g2.laplacian(), &g3.laplacian()).is_err());
    }
}
