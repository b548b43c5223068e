//! Fiedler vector computation by inverse power iteration.
//!
//! The Fiedler vector — the eigenvector of the smallest nontrivial
//! Laplacian eigenvalue `λ₂` — drives spectral partitioning (paper §4.3).
//! Each inverse power step solves `L y = x`, either **directly** (grounded
//! sparse factorization of the full graph, the paper's CHOLMOD baseline) or
//! **iteratively** (PCG preconditioned by a spectral sparsifier, the
//! paper's accelerated method).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_solver::{pcg_scratch, GroundedSolver, PcgOptions, PcgScratch, Preconditioner};
use sass_sparse::{dense, CsrMatrix};

/// Options for the inverse power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct FiedlerOptions {
    /// Maximum inverse power steps.
    pub max_iter: usize,
    /// Stop when the iterate changes by less than this (2-norm of the
    /// difference of unit vectors, sign-aligned).
    pub tol: f64,
    /// Seed of the random start vector.
    pub seed: u64,
}

impl Default for FiedlerOptions {
    fn default() -> Self {
        FiedlerOptions {
            max_iter: 60,
            tol: 1e-8,
            seed: 0xf1ed,
        }
    }
}

fn inverse_power<S>(l: &CsrMatrix, mut solve: S, opts: &FiedlerOptions) -> (f64, Vec<f64>)
where
    S: FnMut(&[f64]) -> Vec<f64>,
{
    let n = l.nrows();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut x);
    dense::normalize(&mut x);
    for _ in 0..opts.max_iter {
        let mut y = solve(&x);
        dense::center(&mut y);
        dense::normalize(&mut y);
        // Sign-align to measure the change.
        if dense::dot(&x, &y) < 0.0 {
            dense::scale(-1.0, &mut y);
        }
        let mut diff = y.clone();
        dense::axpy(-1.0, &x, &mut diff);
        let delta = dense::norm2(&diff);
        x = y;
        if delta < opts.tol {
            break;
        }
    }
    let lambda2 = l.quad_form(&x); // x is unit, so this is the Rayleigh quotient
    (lambda2, x)
}

/// Fiedler pair `(λ₂, v)` via exact (direct) solves with the caller's
/// grounded factorization of `l` — the paper's direct-solver baseline.
/// The caller factors, so it can time the factorization apart from the
/// inverse power steps.
///
/// # Panics
///
/// Panics if `solver.n()` differs from `l`'s dimension.
pub fn fiedler_vector_direct(
    l: &CsrMatrix,
    solver: &GroundedSolver,
    opts: &FiedlerOptions,
) -> (f64, Vec<f64>) {
    inverse_power(l, |x| solver.solve(x), opts)
}

/// Fiedler pair `(λ₂, v)` via PCG solves with a caller-supplied
/// preconditioner — pass a sparsifier-based
/// [`LaplacianPrec`](sass_solver::LaplacianPrec) to reproduce the paper's
/// accelerated partitioner.
///
/// Consecutive inverse power steps solve against slowly-changing right-hand
/// sides, so each PCG solve is warm-started from the previous (rescaled)
/// solution — after the first step, solves typically cost a handful of
/// iterations.
///
/// Returns the pair together with the total number of PCG iterations spent
/// across all inverse power steps.
pub fn fiedler_vector_pcg<M>(
    l: &CsrMatrix,
    prec: &M,
    pcg_opts: &PcgOptions,
    opts: &FiedlerOptions,
) -> (f64, Vec<f64>, usize)
where
    M: Preconditioner + ?Sized,
{
    let mut total_pcg = 0usize;
    // One iterate and one PCG workspace serve every step. The first solve
    // starts from zero; after it, the iterate holds the previous solution:
    // inverse power iterates are unit vectors with x_k → x_{k+1}, so
    // L⁺x_k ≈ (1/λ₂)x_k is already an excellent starting guess for
    // L⁺x_{k+1}.
    let mut y = vec![0.0; l.nrows()];
    let mut scratch = PcgScratch::new();
    let (lambda2, v) = inverse_power(
        l,
        |x| {
            total_pcg += pcg_scratch(l, x, &mut y, prec, pcg_opts, &mut scratch).iterations;
            y.clone()
        },
        opts,
    );
    (lambda2, v, total_pcg)
}

/// Fraction of vertices on which two sign vectors disagree, minimized over
/// a global sign flip — the paper's Table 3 `Rel.Err.` metric.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sign_disagreement(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sign_disagreement: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let diff = a
        .iter()
        .zip(b)
        .filter(|(x, y)| (x.is_sign_negative()) != (y.is_sign_negative()))
        .count();
    let d = diff as f64 / a.len() as f64;
    d.min(1.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, stochastic_block_model, WeightModel};
    use sass_solver::{JacobiPrec, LaplacianPrec};
    use sass_sparse::ordering::OrderingKind;

    /// [`fiedler_vector_direct`] with its own factorization of `l`.
    fn direct(l: &CsrMatrix, ordering: OrderingKind) -> (f64, Vec<f64>) {
        let solver = GroundedSolver::new(l, ordering).unwrap();
        fiedler_vector_direct(l, &solver, &Default::default())
    }

    #[test]
    fn path_graph_lambda2_is_analytic() {
        let g =
            sass_graph::Graph::from_edges(10, &(0..9).map(|i| (i, i + 1, 1.0)).collect::<Vec<_>>())
                .unwrap();
        let (l2, v) = direct(&g.laplacian(), OrderingKind::Natural);
        let exact = 2.0 - 2.0 * (std::f64::consts::PI / 10.0).cos();
        assert!((l2 - exact).abs() < 1e-7, "{l2} vs {exact}");
        // The path Fiedler vector is monotone along the path.
        let increasing = v.windows(2).all(|w| w[1] >= w[0] - 1e-9);
        let decreasing = v.windows(2).all(|w| w[1] <= w[0] + 1e-9);
        assert!(increasing || decreasing);
    }

    #[test]
    fn fiedler_separates_planted_communities() {
        let g = stochastic_block_model(&[30, 30], 0.4, 0.02, 5);
        let (_, v) = direct(&g.laplacian(), OrderingKind::MinDegree);
        // Count sign agreement with the planted partition (up to flip).
        let planted: Vec<f64> = (0..60).map(|i| if i < 30 { 1.0 } else { -1.0 }).collect();
        let err = sign_disagreement(&v, &planted);
        assert!(err < 0.1, "community recovery error {err}");
    }

    #[test]
    fn pcg_backend_matches_direct() {
        let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 6);
        let l = g.laplacian();
        let (l2_direct, v_direct) = direct(&l, OrderingKind::MinDegree);
        let prec = LaplacianPrec::new(GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap());
        let (l2_pcg, v_pcg, total) =
            fiedler_vector_pcg(&l, &prec, &PcgOptions::default(), &Default::default());
        assert!((l2_direct - l2_pcg).abs() < 1e-6 * l2_direct.max(1e-12));
        assert!(sign_disagreement(&v_direct, &v_pcg) < 0.02);
        assert!(total > 0);
    }

    #[test]
    fn jacobi_preconditioned_backend_works_too() {
        let g = grid2d(6, 6, WeightModel::Unit, 1);
        let l = g.laplacian();
        let prec = JacobiPrec::new(&l);
        let (l2, _, _) = fiedler_vector_pcg(&l, &prec, &PcgOptions::default(), &Default::default());
        let (l2_ref, _) = direct(&l, OrderingKind::MinDegree);
        assert!((l2 - l2_ref).abs() < 1e-6);
    }

    #[test]
    fn sign_disagreement_metric() {
        assert_eq!(sign_disagreement(&[1.0, -1.0], &[1.0, -1.0]), 0.0);
        assert_eq!(sign_disagreement(&[1.0, -1.0], &[-1.0, 1.0]), 0.0); // global flip
        assert_eq!(
            sign_disagreement(&[1.0, 1.0, 1.0, -1.0], &[1.0, 1.0, 1.0, 1.0]),
            0.25
        );
    }
}
