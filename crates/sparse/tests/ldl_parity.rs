//! Cross-worker-count parity for the partitioned LDLᵀ kernels.
//!
//! The numeric factorization and both triangular-solve shapes (single
//! vector and interleaved block) must produce **bit-for-bit identical**
//! results at any worker count: every column's output is computed by the
//! same operation sequence reading the same finalized inputs, whichever
//! pool lane runs it. `pool::set_threads` is a standing override that
//! skips the work and critical-path gates, so even the small matrices
//! generated here run on real multi-lane subtree partitions.
//!
//! Pathological elimination trees ride along: a path etree (no
//! independent subtrees), a star (independent leaves under one hub),
//! singleton and empty matrices, and mid-factorization `ZeroPivot`s under
//! forced fan-out.

use proptest::prelude::*;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{pool, CooMatrix, CsrMatrix, LdlFactor, SparseError};

/// Serializes every test in this binary that overrides the global pool's
/// lane count: the serial reference must really be computed at one lane,
/// not under a concurrent test's forced fan-out. (`unwrap_or_else` keeps
/// the guard usable after a poisoning assertion failure.)
fn pool_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` once serially and once per forced worker count (repo
/// convention: 1/2/3/8), asserting every forced result equals the serial
/// reference bit for bit; returns the serial reference.
fn assert_parity_across_workers<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let _guard = pool_guard();
    pool::set_threads(1);
    let serial = f();
    for workers in [2usize, 3, 8] {
        pool::set_threads(workers);
        let got = f();
        pool::set_threads(0);
        assert_eq!(got, serial, "workers = {workers}");
    }
    pool::set_threads(0);
    serial
}

/// Everything a factorization computes, extracted through the public API
/// so parity checks cover the pivots, the factor application (both solve
/// shapes), and the schedule metadata.
fn factor_fingerprint(a: &CsrMatrix, kind: OrderingKind) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let f = LdlFactor::new(a, kind).unwrap();
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64 * 0.37).sin()).collect();
    let x = f.solve(&b);
    let cols: Vec<Vec<f64>> = (0..11)
        .map(|c| {
            (0..n)
                .map(|i| ((i * (2 * c + 5)) as f64 * 0.19).cos())
                .collect()
        })
        .collect();
    let mut blocked = vec![vec![0.0; n]; cols.len()];
    let b = cols.iter().map(|c| &c[..]);
    f.solve_columns(b, blocked.iter_mut().map(|c| &mut c[..]), &mut Vec::new());
    (f.d(), x, blocked)
}

/// Random sparse SPD matrix (diagonally dominant), `n in [2, 40]`.
fn spd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..40).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(4 * n));
        (Just(n), entries).prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            let mut row_abs = vec![0.0f64; n];
            for &(i, j, v) in &entries {
                if i != j {
                    coo.push_sym(i.min(j), i.max(j), v);
                    row_abs[i] += v.abs();
                    row_abs[j] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate() {
                coo.push(i, i, ra + 1.0);
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Factorization + single solve + blocked solve (full and tail
    /// chunks), bit-identical across forced worker counts and orderings.
    #[test]
    fn factor_and_solves_bit_identical(a in spd_matrix(), kind_ix in 0usize..3) {
        let kind = [OrderingKind::Natural, OrderingKind::MinDegree, OrderingKind::Rcm][kind_ix];
        let _guard = pool_guard();
        pool::set_threads(1);
        let serial = factor_fingerprint(&a, kind);
        for workers in [2usize, 3, 8] {
            pool::set_threads(workers);
            let got = factor_fingerprint(&a, kind);
            pool::set_threads(0);
            prop_assert_eq!(&got, &serial, "workers = {}", workers);
        }
        pool::set_threads(0);
    }
}

/// Path etree: in a natural-order tridiagonal factor every column depends
/// on the one before, so the partition is all trunk and the phases run
/// serially at every forced width.
#[test]
fn path_etree_parity() {
    let n = 60;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0);
        }
    }
    let a = coo.to_csr();
    assert_parity_across_workers(|| {
        let shape = LdlFactor::new(&a, OrderingKind::Natural)
            .unwrap()
            .partition_shape();
        assert_eq!((shape.lanes, shape.trunk_cols), (0, n));
        factor_fingerprint(&a, OrderingKind::Natural)
    });
}

/// Star etree with the hub ordered last: the leaves are independent
/// subtrees the lanes share, and the dense hub column is the trunk.
#[test]
fn star_etree_parity() {
    let n = 40;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n - 1 {
        coo.push(i, i, 2.0);
        coo.push_sym(i, n - 1, -1.0);
    }
    coo.push(n - 1, n - 1, n as f64);
    let a = coo.to_csr();
    assert_parity_across_workers(|| {
        let shape = LdlFactor::new(&a, OrderingKind::Natural)
            .unwrap()
            .partition_shape();
        let lanes = pool::threads().min(n - 1);
        let want = if lanes < 2 { (0, n) } else { (lanes, 1) };
        assert_eq!((shape.lanes, shape.trunk_cols), want);
        factor_fingerprint(&a, OrderingKind::Natural)
    });
}

/// Degenerate shapes must survive forced fan-out: a singleton system and
/// an empty (0×0) matrix.
#[test]
fn singleton_and_empty_parity() {
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 3.0);
    let one = coo.to_csr();
    assert_parity_across_workers(|| {
        let f = LdlFactor::new(&one, OrderingKind::Natural).unwrap();
        (f.d(), f.solve(&[6.0]), f.partition_shape().lanes)
    });

    let empty = CooMatrix::new(0, 0).to_csr();
    assert_parity_across_workers(|| {
        let f = LdlFactor::new(&empty, OrderingKind::Natural).unwrap();
        let shape = f.partition_shape();
        assert_eq!((shape.lanes, shape.trunk_cols, shape.total_work), (0, 0, 0));
        let x = f.solve(&[]);
        let mut bx = vec![Vec::new(); 3];
        let b = [&[][..]; 3];
        f.solve_columns(b, bx.iter_mut().map(|c| &mut c[..]), &mut Vec::new());
        (x, bx)
    });
}

/// A pivot breakdown in the middle of the elimination sequence must
/// surface as a clean `ZeroPivot` (no hang, no panic) at every forced
/// worker count, reporting the same original column everywhere: the
/// column the flat serial sweep stops at.
#[test]
fn zero_pivot_mid_factorization_under_fan_out() {
    // A healthy tridiagonal block [0, 20), a singular 2-vertex Laplacian
    // {20, 21} (pivot dies at its second column), another healthy block.
    let n = 40;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..20 {
        coo.push(i, i, 4.0);
        if i + 1 < 20 {
            coo.push_sym(i, i + 1, -1.0);
        }
    }
    coo.push(20, 20, 1.0);
    coo.push(21, 21, 1.0);
    coo.push_sym(20, 21, -1.0);
    for i in 22..n {
        coo.push(i, i, 4.0);
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0);
        }
    }
    let a = coo.to_csr();
    assert_parity_across_workers(|| {
        let err = LdlFactor::new(&a, OrderingKind::Natural).unwrap_err();
        match err {
            SparseError::ZeroPivot { column } => column,
            other => panic!("expected ZeroPivot, got {other:?}"),
        }
    });
}

/// Several singular blocks at once: lanes that hit a breakdown stop at
/// their own first failure, and the trunk runs only below the smallest
/// one, so every width reports the flat serial sweep's stop column — the
/// first failing block's — not whichever lane failed first in time.
#[test]
fn zero_pivot_reports_flat_stop_column_across_lanes() {
    // Healthy tridiagonal runs separated by singular 2-vertex Laplacians
    // at {9, 10}, {25, 26} and {41, 42}, all joined by a dense last column
    // so the failures sit in different subtrees below one trunk.
    let n = 50;
    let singular = [9usize, 25, 41];
    let mut coo = CooMatrix::new(n, n);
    let mut i = 0;
    while i < n - 1 {
        if singular.contains(&i) {
            coo.push(i, i, 1.0);
            coo.push(i + 1, i + 1, 1.0);
            coo.push_sym(i, i + 1, -1.0);
            i += 2;
            continue;
        }
        coo.push(i, i, 4.0);
        if i + 1 < n - 1 && !singular.contains(&(i + 1)) {
            coo.push_sym(i, i + 1, -1.0);
        }
        coo.push_sym(i, n - 1, -0.01);
        i += 1;
    }
    coo.push(n - 1, n - 1, 4.0);
    let a = coo.to_csr();
    let column = assert_parity_across_workers(|| {
        match LdlFactor::new(&a, OrderingKind::Natural).unwrap_err() {
            SparseError::ZeroPivot { column } => column,
            other => panic!("expected ZeroPivot, got {other:?}"),
        }
    });
    assert_eq!(column, 10, "the first singular block's second column");
}
