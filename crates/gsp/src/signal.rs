//! Synthetic graph signals of controlled smoothness (the Laplacian
//! quadratic form `xᵀLx`; smaller is smoother).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::{dense, CsrMatrix};

/// A random "white" signal: i.i.d. uniform, mean-centered, unit norm —
/// energy spread over the whole spectrum.
fn white_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut x);
    dense::normalize(&mut x);
    x
}

/// A smooth ("low-frequency") signal: white noise passed through `L⁺`
/// `passes` times, which damps eigencomponents by `1/λ^passes`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn smooth_signal(solver: &GroundedSolver, passes: usize, seed: u64) -> Vec<f64> {
    let mut x = white_signal(solver.n(), seed);
    let mut y = vec![0.0; solver.n()];
    let mut scratch = GroundedScratch::new();
    for _ in 0..passes {
        solver.solve_columns(&[&x], &mut [&mut y], &mut scratch);
        std::mem::swap(&mut x, &mut y);
        dense::normalize(&mut x);
    }
    x
}

/// An oscillatory ("high-frequency") signal: white noise passed through
/// `L` `passes` times, amplifying eigencomponents by `λ^passes`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn oscillatory_signal(l: &CsrMatrix, passes: usize, seed: u64) -> Vec<f64> {
    let mut x = white_signal(l.nrows(), seed);
    let mut y = vec![0.0; l.nrows()];
    for _ in 0..passes {
        l.mul_vec_into(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
        dense::center(&mut x);
        dense::normalize(&mut x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_sparse::ordering::OrderingKind;

    #[test]
    fn smooth_signals_are_smoother_than_white() {
        let g = grid2d(12, 12, WeightModel::Unit, 0);
        let l = g.laplacian();
        let solver = GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap();
        let white = white_signal(g.n(), 1);
        let smooth = smooth_signal(&solver, 3, 1);
        let rough = oscillatory_signal(&l, 3, 1);
        // Unit signals: the quadratic form is the Rayleigh quotient.
        let (sw, ss, sr) = (
            l.quad_form(&white),
            l.quad_form(&smooth),
            l.quad_form(&rough),
        );
        assert!(ss < sw, "smooth {ss} vs white {sw}");
        assert!(sw < sr, "white {sw} vs rough {sr}");
    }

    #[test]
    fn signals_are_unit_and_centered() {
        let x = white_signal(100, 3);
        assert!((dense::norm2(&x) - 1.0).abs() < 1e-12);
        assert!(dense::mean(&x).abs() < 1e-12);
    }
}
