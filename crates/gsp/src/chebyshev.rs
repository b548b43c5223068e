//! Chebyshev-polynomial graph filters.
//!
//! The graph-signal-processing view of sparsification (paper §3.4) treats a
//! sparsifier as an implicit low-pass filter. This module provides the
//! *explicit* counterpart — polynomial approximations `p(L)x` of ideal
//! spectral filters `h(λ)` — both as a reference to compare sparsifiers
//! against and as a generally useful GSP primitive (it is the standard
//! trick behind fast spectral clustering and graph CNNs, paper ref \[7\]).
//!
//! The filter is evaluated with the three-term Chebyshev recurrence on the
//! spectrum-normalized operator `2L/λmax − I`; Jackson damping suppresses
//! the Gibbs oscillation of the truncated expansion.

use sass_sparse::{dense, LinearOperator};

/// A Chebyshev polynomial approximation of a spectral transfer function
/// `h : [0, λmax] → R`.
///
/// # Example
///
/// ```
/// use sass_gsp::chebyshev::ChebyshevFilter;
///
/// // Ideal low-pass on [0, 4] keeping lambda < 1, degree-48 approximation.
/// let f = ChebyshevFilter::low_pass(4.0, 1.0, 48);
/// assert!((f.response(0.2) - 1.0).abs() < 0.05); // pass band
/// assert!(f.response(3.5).abs() < 0.05);         // stop band
/// ```
#[derive(Debug, Clone)]
pub struct ChebyshevFilter {
    /// Chebyshev coefficients `c_0 .. c_K` (Jackson-damped).
    coeffs: Vec<f64>,
    /// Upper end of the spectral interval (`λmax` bound of the operator).
    lambda_max: f64,
}

impl ChebyshevFilter {
    /// Builds a degree-`degree` approximation of an arbitrary transfer
    /// function `h` on `[0, lambda_max]` (plain Chebyshev expansion —
    /// near-machine accuracy for smooth `h`; chain
    /// [`ChebyshevFilter::with_jackson_damping`] for discontinuous ones).
    ///
    /// # Panics
    ///
    /// Panics if `lambda_max <= 0` or `degree == 0`.
    fn from_response<H: Fn(f64) -> f64>(lambda_max: f64, degree: usize, h: H) -> Self {
        assert!(lambda_max > 0.0, "lambda_max must be positive");
        assert!(degree > 0, "degree must be positive");
        let k = degree;
        // Chebyshev-Gauss quadrature for the expansion coefficients of
        // h(lambda(t)), t in [-1, 1], lambda = (t + 1) * lambda_max / 2.
        let quad_points = 4 * (k + 1);
        let mut coeffs = vec![0.0f64; k + 1];
        for (j, c) in coeffs.iter_mut().enumerate() {
            let mut acc = 0.0;
            for q in 0..quad_points {
                let theta = std::f64::consts::PI * (q as f64 + 0.5) / quad_points as f64;
                let t = theta.cos();
                let lambda = (t + 1.0) * lambda_max / 2.0;
                acc += h(lambda) * (j as f64 * theta).cos();
            }
            *c = 2.0 * acc / quad_points as f64;
            if j == 0 {
                *c /= 2.0;
            }
        }
        ChebyshevFilter { coeffs, lambda_max }
    }

    /// Applies Jackson damping to the coefficients, trading approximation
    /// accuracy for suppression of Gibbs oscillation around jumps in the
    /// transfer function. Essential for the ideal low-pass; harmful for
    /// smooth responses like the heat kernel.
    fn with_jackson_damping(mut self) -> Self {
        let kp1 = self.coeffs.len() as f64;
        let a = std::f64::consts::PI / kp1;
        for (j, c) in self.coeffs.iter_mut().enumerate() {
            let g = ((kp1 - j as f64) * (a * j as f64).cos() * a.sin()
                + (a * j as f64).sin() * a.cos())
                / (kp1 * a.sin());
            *c *= g;
        }
        self
    }

    /// Ideal low-pass filter: `h(λ) = 1` for `λ ≤ cutoff`, else `0`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is outside `(0, lambda_max]`.
    pub fn low_pass(lambda_max: f64, cutoff: f64, degree: usize) -> Self {
        assert!(
            cutoff > 0.0 && cutoff <= lambda_max,
            "cutoff must lie in (0, lambda_max]"
        );
        Self::from_response(lambda_max, degree, |l| if l <= cutoff { 1.0 } else { 0.0 })
            .with_jackson_damping()
    }

    /// Polynomial degree of the filter.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the scalar transfer function the filter realizes at `λ`.
    pub fn response(&self, lambda: f64) -> f64 {
        let t = 2.0 * lambda / self.lambda_max - 1.0;
        let mut t_prev = 1.0;
        let mut t_cur = t;
        let mut acc = self.coeffs[0];
        for &c in &self.coeffs[1..] {
            acc += c * t_cur;
            let t_next = 2.0 * t * t_cur - t_prev;
            t_prev = t_cur;
            t_cur = t_next;
        }
        acc
    }

    /// Applies the filter to a signal: `y = p(L) x`.
    ///
    /// `op` must have spectrum within `[0, lambda_max]` (use a safe upper
    /// bound such as twice the maximum weighted degree). Any
    /// [`LinearOperator`] works — a [`sass_sparse::CsrMatrix`] or a
    /// matrix-free operator.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the operator dimension.
    pub fn apply<L: LinearOperator + ?Sized>(&self, op: &L, x: &[f64]) -> Vec<f64> {
        let n = op.dim();
        assert_eq!(x.len(), n, "signal length mismatch");
        // Three-term recurrence: w_j = T_j(S)x with S = 2L/lmax − I:
        //   w_0 = x,  w_1 = S x,  w_{j+1} = 2 S w_j − w_{j−1}.
        let scale = 2.0 / self.lambda_max;
        let shifted = |v: &[f64], out: &mut [f64]| {
            op.apply(v, out);
            for (o, vi) in out.iter_mut().zip(v) {
                *o = scale * *o - vi;
            }
        };
        let mut w_prev = x.to_vec();
        let mut w_cur = vec![0.0; n];
        shifted(x, &mut w_cur);

        let mut y: Vec<f64> = x.iter().map(|v| self.coeffs[0] * v).collect();
        if self.coeffs.len() > 1 {
            dense::axpy(self.coeffs[1], &w_cur, &mut y);
        }
        let mut s_cur = vec![0.0; n];
        for &c in &self.coeffs[2..] {
            shifted(&w_cur, &mut s_cur);
            // w_next = 2 * s_cur - w_prev, reusing w_prev's storage.
            for (pv, sv) in w_prev.iter_mut().zip(&s_cur) {
                *pv = 2.0 * sv - *pv;
            }
            std::mem::swap(&mut w_prev, &mut w_cur);
            dense::axpy(c, &w_cur, &mut y);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_eigen::jacobi::{csr_to_dense, dense_symmetric_eig};
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::Graph;

    /// Safe spectral upper bound: 2 * max weighted degree.
    fn lmax_bound(g: &Graph) -> f64 {
        (0..g.n()).map(|v| g.weighted_degree(v)).fold(0.0, f64::max) * 2.0
    }

    #[test]
    fn matches_exact_spectral_filter() {
        // Compare p(L)x against the exact h(L)x computed by dense
        // eigendecomposition; with a smooth response (heat kernel) the
        // Chebyshev approximation is very accurate.
        let g = grid2d(5, 4, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let l = g.laplacian();
        let lmax = lmax_bound(&g);
        let tau = 0.7;
        let filter = ChebyshevFilter::from_response(lmax, 40, |l| (-tau * l).exp());
        let (vals, vecs) = dense_symmetric_eig(&csr_to_dense(&l)).unwrap();
        let x: Vec<f64> = (0..g.n()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        // Exact: y = sum_i exp(-tau*lam_i) <u_i, x> u_i.
        let mut exact = vec![0.0; g.n()];
        for (lam, u) in vals.iter().zip(&vecs) {
            let coef = (-tau * lam).exp() * dense::dot(u, &x);
            dense::axpy(coef, u, &mut exact);
        }
        let approx = filter.apply(&l, &x);
        assert!(
            dense::rel_diff(&approx, &exact) < 1e-3,
            "rel diff {}",
            dense::rel_diff(&approx, &exact)
        );
    }

    #[test]
    fn low_pass_attenuates_high_frequencies() {
        let g = grid2d(8, 8, WeightModel::Unit, 2);
        let l = g.laplacian();
        let lmax = lmax_bound(&g);
        let filter = ChebyshevFilter::low_pass(lmax, 0.5, 32);
        let smooth = crate::signal::smooth_signal(
            &sass_solver::GroundedSolver::new(&l, Default::default()).unwrap(),
            3,
            1,
        );
        let rough = crate::signal::oscillatory_signal(&l, 3, 1);
        let keep = |x: &[f64]| {
            let y = filter.apply(&l, x);
            dense::dot(&y, &y) / dense::dot(x, x)
        };
        let ks = keep(&smooth);
        let kr = keep(&rough);
        assert!(ks > 0.5, "smooth signal kept only {ks}");
        assert!(kr < 0.2, "rough signal kept {kr}");
    }

    #[test]
    fn response_matches_transfer_function() {
        let filter = ChebyshevFilter::from_response(8.0, 48, |l| (-0.5 * l).exp());
        for lambda in [0.0f64, 0.5, 2.0, 5.0, 8.0] {
            let want = (-0.5 * lambda).exp();
            let got = filter.response(lambda);
            assert!(
                (got - want).abs() < 1e-3,
                "h({lambda}) = {got}, want {want}"
            );
        }
        assert_eq!(filter.degree(), 48);
    }

    #[test]
    fn constant_signal_passes_low_pass_unchanged() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        let l = g.laplacian();
        let filter = ChebyshevFilter::low_pass(lmax_bound(&g), 1.0, 32);
        let x = vec![1.0; 16];
        let y = filter.apply(&l, &x);
        // The constant vector has frequency 0: response ~ 1.
        for v in &y {
            assert!((v - 1.0).abs() < 0.05, "constant component distorted: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        ChebyshevFilter::low_pass(4.0, 5.0, 8);
    }
}
