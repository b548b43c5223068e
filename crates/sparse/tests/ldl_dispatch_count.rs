//! Pool dispatch budget of the partitioned LDLᵀ phases.
//!
//! Each phase of the factorization runs on a subtree-to-lane partition of
//! the elimination tree, so it wakes the pool once: the numeric phase
//! makes one dispatch, and a solve makes one per sweep direction — per
//! right-hand side, or per 8-column chunk of a blocked solve. A
//! level-by-level schedule would instead pay one dispatch per etree level
//! wider than one column, dozens on the mesh below.
//!
//! The counts read the global pool's monotone [`Pool::dispatch_count`],
//! so this file holds a single test: no other test in this binary can
//! dispatch between the reads. The test forces two lanes, so it counts
//! real fan-outs under any `SASS_THREADS` setting.

use sass_sparse::ordering::{self, OrderingKind};
use sass_sparse::pool::{self, Pool};
use sass_sparse::{CooMatrix, CsrMatrix, LdlFactor, RefactorOutcome};

/// A `side × side` grid Laplacian plus `shift · I` (SPD).
fn shifted_grid(side: usize, shift: f64) -> CsrMatrix {
    let n = side * side;
    let mut coo = CooMatrix::new(n, n);
    let mut degree = vec![0.0f64; n];
    let mut edge = |coo: &mut CooMatrix, u: usize, v: usize| {
        coo.push_sym(u, v, -1.0);
        degree[u] += 1.0;
        degree[v] += 1.0;
    };
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edge(&mut coo, v, v + 1);
            }
            if r + 1 < side {
                edge(&mut coo, v, v + side);
            }
        }
    }
    for (v, &d) in degree.iter().enumerate() {
        coo.push(v, v, d + shift);
    }
    coo.to_csr()
}

/// Dispatches `f` issues on the global pool.
fn dispatches<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let p = Pool::global();
    let before = p.dispatch_count();
    let out = f();
    (out, p.dispatch_count() - before)
}

#[test]
fn every_ldl_phase_dispatches_once_per_direction() {
    pool::set_threads(2);
    let a = shifted_grid(24, 0.1);
    let n = a.nrows();
    let perm = ordering::compute(&a, OrderingKind::MinDegree).unwrap();

    let (f, numeric) = dispatches(|| LdlFactor::with_permutation(&a, perm).unwrap());
    assert_eq!(f.partition_shape().lanes, 2, "a mesh etree splits two ways");
    assert_eq!(numeric, 1, "numeric phase");

    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let (x, solve) = dispatches(|| f.solve(&b));
    assert_eq!(solve, 2, "single-RHS solve: one forward, one backward");
    assert!(a.residual_norm(&x, &b) < 1e-10);

    for (ncols, chunks) in [(8usize, 1usize), (20, 3)] {
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * (c + 2)) as f64 * 0.13).cos())
                    .collect()
            })
            .collect();
        let mut x = vec![vec![0.0; n]; ncols];
        let (_, blocked) = dispatches(|| {
            let b = cols.iter().map(|c| &c[..]);
            f.solve_columns(b, x.iter_mut().map(|c| &mut c[..]), &mut Vec::new())
        });
        assert_eq!(blocked, 2 * chunks, "{ncols}-column block solve");
    }

    // A value-only change deep in the etree re-runs its ancestor closure
    // in at most one dispatch.
    let mut f = f;
    let (outcome, masked) = dispatches(|| f.refactor_partial(&a, &[0], 1.0).unwrap());
    assert!(matches!(outcome, RefactorOutcome::Patched(_)));
    assert!(masked <= 1, "masked numeric phase: {masked} dispatches");
    pool::set_threads(0);
}
