//! Dense vector kernels shared by every iterative method in the workspace.
//!
//! These are deliberately plain, allocation-free slice operations; all the
//! iterative solvers and eigensolvers are built on top of them so that the
//! numerical conventions (in particular mean-centering against the Laplacian
//! nullspace) live in exactly one place.

/// Dot product `xᵀ y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha · x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha · x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Arithmetic mean of `x` (0.0 for an empty slice).
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Subtracts the mean from `x`, making it orthogonal to the all-ones vector.
///
/// This is how every Laplacian-adjacent iteration in the workspace stays in
/// the range of the (singular) graph Laplacian.
#[inline]
pub fn center(x: &mut [f64]) {
    let m = mean(x);
    for xi in x.iter_mut() {
        *xi -= m;
    }
}

/// Normalizes `x` to unit Euclidean norm, returning the prior norm.
///
/// Leaves `x` untouched (and returns 0.0) if its norm is zero.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Makes `x` orthogonal to the (not necessarily normalized) vector `q`.
///
/// Computes `x ← x − ((qᵀx)/(qᵀq)) q`. No-op when `q` is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn orthogonalize_against(x: &mut [f64], q: &[f64]) {
    let qq = dot(q, q);
    if qq > 0.0 {
        let c = dot(q, x) / qq;
        axpy(-c, q, x);
    }
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, ε)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_diff: length mismatch");
    let mut num = 0.0;
    for (a, b) in x.iter().zip(y) {
        num += (a - b) * (a - b);
    }
    let den = norm2(y).max(f64::EPSILON);
    num.sqrt() / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn axpy_scale_copy() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn center_removes_mean() {
        let mut x = [1.0, 2.0, 3.0, 6.0];
        center(&mut x);
        assert!(mean(&x).abs() < 1e-15);
    }

    #[test]
    fn center_empty_is_noop() {
        let mut x: [f64; 0] = [];
        center(&mut x);
        assert_eq!(mean(&x), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = [3.0, 4.0];
        let prior = normalize(&mut x);
        assert_eq!(prior, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn orthogonalize_makes_perpendicular() {
        let q = [1.0, 1.0, 1.0];
        let mut x = [1.0, 2.0, 3.0];
        orthogonalize_against(&mut x, &q);
        assert!(dot(&x, &q).abs() < 1e-12);
    }

    #[test]
    fn rel_diff_zero_for_equal() {
        let x = [1.0, -2.0, 0.5];
        assert_eq!(rel_diff(&x, &x), 0.0);
        assert!(rel_diff(&[1.0], &[2.0]) > 0.0);
    }
}
