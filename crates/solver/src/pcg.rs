use crate::{LinearOperator, Preconditioner};
use sass_sparse::dense;

/// Options controlling a [`pcg`] solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PcgOptions {
    /// Convergence tolerance on the relative residual `‖r‖/‖b‖`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Whether to record the full per-iteration residual history.
    pub record_history: bool,
    /// Mean-center all iterates (set for singular Laplacian systems; the
    /// default). Harmless for non-singular SPD systems whose solution is
    /// wanted in full space — disable there.
    pub center: bool,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tol: 1e-10,
            max_iter: 5000,
            record_history: false,
            center: true,
        }
    }
}

impl PcgOptions {
    /// The paper's Table 2 setting: `‖Ax − b‖ < 10⁻³ ‖b‖`.
    pub fn paper_accuracy() -> Self {
        PcgOptions {
            tol: 1e-3,
            ..Self::default()
        }
    }
}

/// Outcome statistics of a [`pcg`] solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖` (recurrence residual).
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
    /// Per-iteration relative residuals (empty unless requested).
    pub residual_history: Vec<f64>,
}

/// Reusable workspace for [`pcg_scratch`].
///
/// A PCG solve needs five working vectors; callers that solve repeatedly
/// with operators of the same dimension (inverse iterations, embeddings
/// over many right-hand sides) hand the same scratch back in and the hot
/// loop performs **no allocation at all**. Buffers are lazily resized, so
/// one scratch can serve operators of different sizes too.
#[derive(Debug, Clone, Default)]
pub struct PcgScratch {
    b: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl PcgScratch {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        self.b.resize(n, 0.0);
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Preconditioned conjugate gradient for symmetric positive
/// (semi-)definite systems, starting from the zero vector.
///
/// For singular-but-consistent Laplacian systems, keep
/// [`PcgOptions::center`] enabled and pass a mean-zero `b`; all iterates
/// then stay in `range(A)` where the operator is positive definite.
///
/// Returns the solution and [`SolveStats`].
///
/// # Panics
///
/// Panics if `b.len()` differs from the operator dimension.
pub fn pcg<A, M>(a: &A, b: &[f64], m: &M, opts: &PcgOptions) -> (Vec<f64>, SolveStats)
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let mut x = vec![0.0; b.len()];
    let stats = pcg_scratch(a, b, &mut x, m, opts, &mut PcgScratch::new());
    (x, stats)
}

/// The allocation-free core of [`pcg`]: `x` carries the starting guess in
/// and the solution out, and all working vectors live in `scratch`.
///
/// Apart from the optional residual history, the solve performs no
/// allocation once `scratch` has reached the right dimension.
///
/// # Panics
///
/// Panics if `b.len()` or `x.len()` differ from the operator dimension.
pub fn pcg_scratch<A, M>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &PcgOptions,
    scratch: &mut PcgScratch,
) -> SolveStats
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let n = a.dim();
    assert_eq!(b.len(), n, "pcg: b length mismatch");
    assert_eq!(x.len(), n, "pcg: x length mismatch");
    scratch.resize(n);
    let PcgScratch { b: bc, r, z, p, ap } = scratch;

    bc.copy_from_slice(b);
    if opts.center {
        dense::center(bc);
    }
    let bnorm = dense::norm2(bc).max(f64::MIN_POSITIVE);

    a.apply(x, r);
    for (ri, bi) in r.iter_mut().zip(bc.iter()) {
        *ri = bi - *ri;
    }
    if opts.center {
        dense::center(r);
    }

    m.apply(r, z);
    if opts.center {
        dense::center(z);
    }
    p.copy_from_slice(z);
    let mut rz = dense::dot(r, z);
    let mut history = Vec::new();

    let mut rel = dense::norm2(r) / bnorm;
    if opts.record_history {
        history.push(rel);
    }
    let mut iterations = 0;
    while rel > opts.tol && iterations < opts.max_iter {
        a.apply(p, ap);
        let pap = dense::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Breakdown: operator not SPD on this subspace; stop with what
            // we have rather than dividing by zero.
            break;
        }
        let alpha = rz / pap;
        dense::axpy(alpha, p, x);
        dense::axpy(-alpha, ap, r);
        if opts.center {
            dense::center(r);
        }
        iterations += 1;
        rel = dense::norm2(r) / bnorm;
        if opts.record_history {
            history.push(rel);
        }
        if rel <= opts.tol {
            break;
        }
        m.apply(r, z);
        if opts.center {
            dense::center(z);
        }
        let rz_new = dense::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }
    if opts.center {
        dense::center(x);
    }
    SolveStats {
        iterations,
        relative_residual: rel,
        converged: rel <= opts.tol,
        residual_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroundedSolver, IdentityPrec, JacobiPrec, LaplacianPrec};
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::spanning;
    use sass_sparse::ordering::OrderingKind;
    use sass_sparse::CooMatrix;

    #[test]
    fn solves_spd_system_without_centering() {
        // Diagonally dominant SPD 2x2.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 3.0);
        coo.push_sym(0, 1, 1.0);
        let a = coo.to_csr();
        let opts = PcgOptions {
            center: false,
            ..Default::default()
        };
        // Solution of [[4,1],[1,3]] x = [6, 7] is x = [1, 2].
        let (x, stats) = pcg(&a, &[6.0, 7.0], &IdentityPrec, &opts);
        assert!(stats.converged);
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn laplacian_system_with_jacobi() {
        let g = grid2d(10, 10, WeightModel::Unit, 0);
        let l = g.laplacian();
        let mut b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        sass_sparse::dense::center(&mut b);
        let m = JacobiPrec::new(&l);
        let (x, stats) = pcg(&l, &b, &m, &PcgOptions::default());
        assert!(stats.converged, "stats: {stats:?}");
        assert!(l.residual_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn exact_preconditioner_converges_immediately() {
        let g = grid2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let l = g.laplacian();
        let m = LaplacianPrec::new(GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap());
        let mut b: Vec<f64> = (0..36).map(|i| i as f64).collect();
        sass_sparse::dense::center(&mut b);
        let (_, stats) = pcg(&l, &b, &m, &PcgOptions::default());
        assert!(
            stats.iterations <= 2,
            "took {} iterations",
            stats.iterations
        );
    }

    #[test]
    fn tree_preconditioner_beats_identity_on_ill_conditioned_graph() {
        // Tree preconditioning pays off when edge weights span orders of
        // magnitude (circuit-style graphs): the max-weight tree soaks up the
        // weight spread, while plain CG's iteration count scales with it.
        // (On *unit-weight* grids the tree preconditioner loses — the total
        // stretch exceeds the grid's condition number — which is exactly why
        // the paper recovers off-tree edges.)
        let g = sass_graph::generators::circuit_grid(16, 16, 0.1, 2);
        let l = g.laplacian();
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let lt = g.laplacian_of_edges(&tree_ids);
        let tp = LaplacianPrec::new(GroundedSolver::new(&lt, OrderingKind::MinDegree).unwrap());
        assert!(tp.solver().factor().is_none(), "a tree takes the O(n) path");
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i % 17) as f64) - 8.0).collect();
        sass_sparse::dense::center(&mut b);
        let opts = PcgOptions {
            tol: 1e-8,
            max_iter: 20_000,
            ..Default::default()
        };
        let (_, s_tree) = pcg(&l, &b, &tp, &opts);
        let (_, s_id) = pcg(&l, &b, &IdentityPrec, &opts);
        assert!(s_tree.converged && s_id.converged);
        assert!(
            s_tree.iterations * 2 < s_id.iterations,
            "tree {} vs identity {}",
            s_tree.iterations,
            s_id.iterations
        );
    }

    #[test]
    fn history_is_monotone_enough_and_recorded() {
        let g = grid2d(8, 8, WeightModel::Unit, 0);
        let l = g.laplacian();
        let mut b = vec![0.0; 64];
        b[0] = 1.0;
        b[63] = -1.0;
        let opts = PcgOptions {
            record_history: true,
            ..Default::default()
        };
        let (_, stats) = pcg(&l, &b, &JacobiPrec::new(&l), &opts);
        assert_eq!(stats.residual_history.len(), stats.iterations + 1);
        assert!(stats.residual_history.last().unwrap() <= &opts.tol);
    }

    #[test]
    fn respects_iteration_cap() {
        let g = grid2d(12, 12, WeightModel::Unit, 0);
        let l = g.laplacian();
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64).sin()).collect();
        sass_sparse::dense::center(&mut b);
        let opts = PcgOptions {
            max_iter: 3,
            tol: 1e-14,
            ..Default::default()
        };
        let (_, stats) = pcg(&l, &b, &IdentityPrec, &opts);
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        let l = g.laplacian();
        let (x, stats) = pcg(&l, &[0.0; 16], &IdentityPrec, &PcgOptions::default());
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_helps() {
        let g = grid2d(10, 10, WeightModel::Unit, 0);
        let l = g.laplacian();
        let mut b: Vec<f64> = (0..100).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        sass_sparse::dense::center(&mut b);
        let m = JacobiPrec::new(&l);
        let (mut x, _) = pcg(&l, &b, &m, &PcgOptions::default());
        let stats = pcg_scratch(
            &l,
            &b,
            &mut x,
            &m,
            &PcgOptions::default(),
            &mut PcgScratch::new(),
        );
        assert!(stats.iterations <= 1);
    }
}
