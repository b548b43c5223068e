//! SIMD-vs-scalar parity for the dispatched microkernels in
//! [`sass_sparse::kernel`].
//!
//! Every level the running CPU supports is forced in turn through
//! [`kernel::set_level`] and held to the module's parity contract,
//! **bit-identity with the scalar oracle**: CSR products (serial and
//! threaded at forced worker counts 1/2/3/8), the LDLᵀ factorization and
//! both solve shapes, Joule-heat scoring and the heat-filter scan all
//! `assert_eq!` against the `Scalar` level.
//!
//! Ragged tails (`nnz % lane width ≠ 0`) and empty rows are pinned by a
//! deterministic matrix whose row lengths sweep `0..=17`, on top of the
//! randomized coverage. `kernel::set_level` and `pool::set_threads` are
//! both process-global, so every test here serializes on one guard mutex.

use proptest::prelude::*;
use sass_sparse::kernel::{self, SimdLevel};
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{pool, CooMatrix, CsrMatrix, LdlFactor};

/// Serializes tests that override the global SIMD level or the global
/// pool's lane count. (`unwrap_or_else` keeps the guard usable after a
/// poisoning assertion failure.)
fn state_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every level this process can actually run: only tiers whose kernels
/// are compiled for this target (`set_level` rejects the rest), at or
/// below the detected tier (`set_level` clamps above it) — anything else
/// would silently alias another level instead of testing a distinct
/// kernel.
fn levels() -> Vec<SimdLevel> {
    [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Neon,
    ]
    .into_iter()
    .filter(|&l| l.compiled() && l <= kernel::detected())
    .collect()
}

/// Runs `f` with the dispatch level forced to `level`, restoring the
/// detected level afterwards. Callers hold [`state_guard`].
fn at_level<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    kernel::set_level(Some(level));
    let out = f();
    kernel::set_level(None);
    out
}

/// Strategy: a random symmetric matrix of size `n in [1, 48]` whose
/// stored values are all nonzero.
fn symmetric_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..48).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..2.0), 0..(4 * n));
        (Just(n), entries).prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0 + (i % 7) as f64);
            }
            for &(i, j, mag) in &entries {
                if i != j {
                    let (a, b) = (i.min(j), i.max(j));
                    let v = if (a + b) % 2 == 0 { mag } else { -mag };
                    coo.push_sym(a, b, v);
                }
            }
            coo.to_csr()
        })
    })
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

/// A deterministic probe vector with varied magnitudes.
fn probe(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 + 11) % 101) as f64 * 0.04 - 2.0)
        .collect()
}

/// Deterministic CSR matrix whose row lengths sweep `0..=17`: every
/// `nnz % lane-width` residue for 2-, 4- and 8-wide kernels, plus empty
/// rows, in one fixed pattern.
fn ragged_matrix() -> CsrMatrix {
    let ncols = 40usize;
    let mut coo = CooMatrix::new(18, ncols);
    for (i, len) in (0usize..=17).enumerate() {
        for k in 0..len {
            let j = (i * 7 + k * 3) % ncols;
            coo.push(i, j, ((i * 19 + k * 5) % 13) as f64 * 0.3 - 1.7);
        }
    }
    coo.to_csr()
}

/// Everything an LDLᵀ factorization computes, through the public API: the
/// pivots, a single-vector solve and an 11-column blocked solve (11 = one
/// full 8-wide chunk through the SIMD sweeps plus a ragged 3-wide chunk
/// through the generic ones).
fn ldl_fingerprint(a: &CsrMatrix) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let f = LdlFactor::new(a, OrderingKind::MinDegree).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every SIMD tier reproduces the scalar f64 product bit for bit,
    /// serial and threaded at forced worker counts 1/2/3/8.
    #[test]
    fn f64_products_bitwise_across_levels_and_workers(a in symmetric_matrix()) {
        let _guard = state_guard();
        let x = probe(a.ncols());
        pool::set_threads(1);
        let want = at_level(SimdLevel::Scalar, || a.mul_vec(&x));
        for level in levels() {
            kernel::set_level(Some(level));
            prop_assert_eq!(&a.mul_vec(&x), &want, "serial, {:?}", level);
            let mut y = vec![0.0; a.nrows()];
            for workers in [1usize, 2, 3, 8] {
                pool::set_threads(workers);
                a.par_mul_vec_into(&x, &mut y);
                prop_assert_eq!(&y, &want, "par, {:?}, workers {}", level, workers);
            }
            pool::set_threads(1);
        }
        kernel::set_level(None);
        pool::set_threads(0);
    }

    /// Every SIMD tier reproduces the scalar LDLᵀ pipeline bit for bit —
    /// pivots, single-vector solve, 11-column blocked solve — at forced
    /// worker counts 1/2/3/8.
    #[test]
    fn ldl_pipeline_bitwise_across_levels_and_workers(a in spd_matrix()) {
        let _guard = state_guard();
        pool::set_threads(1);
        let want = at_level(SimdLevel::Scalar, || ldl_fingerprint(&a));
        for level in levels() {
            kernel::set_level(Some(level));
            for workers in [1usize, 2, 3, 8] {
                pool::set_threads(workers);
                let got = ldl_fingerprint(&a);
                prop_assert_eq!(&got, &want, "{:?}, workers {}", level, workers);
            }
            pool::set_threads(1);
        }
        kernel::set_level(None);
        pool::set_threads(0);
    }

    /// Joule-heat scoring is bit-identical to scalar at every tier, for
    /// random embeddings and edge endpoint patterns.
    #[test]
    fn joule_heat_bitwise_across_levels(
        n in 1usize..32,
        r in 1usize..4,
        edges in proptest::collection::vec((0u32..1024, 0u32..1024, 0.1f64..2.0), 0..40),
    ) {
        let _guard = state_guard();
        let h: Vec<f64> = (0..n * r).map(|k| ((k * 29 + 7) % 61) as f64 * 0.05 - 1.4).collect();
        let us: Vec<u32> = edges.iter().map(|&(u, _, _)| u % n as u32).collect();
        let vs: Vec<u32> = edges.iter().map(|&(_, v, _)| v % n as u32).collect();
        let ws: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        let mut want = vec![0.0; edges.len()];
        at_level(SimdLevel::Scalar, || kernel::joule_heat(&us, &vs, &ws, &h, n, &mut want));
        let mut got = vec![0.0; edges.len()];
        for level in levels() {
            got.iter_mut().for_each(|g| *g = -1.0);
            at_level(level, || kernel::joule_heat(&us, &vs, &ws, &h, n, &mut got));
            prop_assert_eq!(&got, &want, "{:?}", level);
        }
    }

    /// The heat-filter scan selects the same `(id, heat)` pairs in the
    /// same order at every tier, with NaN/∞/zero heats salted in.
    #[test]
    fn heat_scan_bitwise_across_levels(
        mut heats in proptest::collection::vec(-0.5f64..2.0, 0..80),
        cutoff in 0.0f64..1.5,
    ) {
        let _guard = state_guard();
        for (k, h) in heats.iter_mut().enumerate() {
            match k % 11 {
                3 => *h = f64::NAN,
                5 => *h = f64::INFINITY,
                7 => *h = f64::NEG_INFINITY,
                9 => *h = 0.0,
                _ => {}
            }
        }
        let ids: Vec<u32> = (0..heats.len() as u32).map(|k| k * 3 + 1).collect();
        let want = at_level(SimdLevel::Scalar, || kernel::scan_heat_candidates(&ids, &heats, cutoff));
        for level in levels() {
            let got = at_level(level, || kernel::scan_heat_candidates(&ids, &heats, cutoff));
            prop_assert_eq!(&got, &want, "{:?}", level);
        }
    }
}

/// Ragged row tails (`nnz % lane width` sweeping every residue) and empty
/// rows are bit-exact at every tier, including offset sub-ranges as the
/// pool hands them out.
#[test]
fn ragged_and_empty_rows_bitwise_across_levels() {
    let _guard = state_guard();
    let a = ragged_matrix();
    let x = probe(a.ncols());
    let want = at_level(SimdLevel::Scalar, || a.mul_vec(&x));
    for level in levels() {
        kernel::set_level(Some(level));
        assert_eq!(a.mul_vec(&x), want, "{level:?} full");
        // Offset sub-range straight through the dispatcher, as
        // `par_spmv` chunks it.
        let mut part = vec![0.0; 7];
        kernel::spmv_range_f64(a.indptr(), a.indices(), a.data(), &x, &mut part, 5, 12);
        assert_eq!(part, want[5..12], "{level:?} subrange");
        kernel::set_level(None);
    }
}

/// The `SASS_NO_SIMD` escape hatch pins the detected level; CI runs the
/// whole suite once with the variable set to prove the forced-scalar
/// path end to end.
#[test]
fn sass_no_simd_env_is_respected() {
    // The sanctioned read path: kernel::detect consults the same cached
    // config::no_simd value, so the two can never disagree mid-process.
    let forced = sass_sparse::config::no_simd();
    if forced {
        assert_eq!(kernel::detected(), SimdLevel::Scalar);
        assert_eq!(levels(), vec![SimdLevel::Scalar]);
    } else {
        #[cfg(target_arch = "x86_64")]
        assert!(kernel::detected() >= SimdLevel::Sse2);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(kernel::detected(), SimdLevel::Neon);
    }
    // `active` can only sit at or below `detected`, whatever overrides
    // other tests installed before this one took the guard.
    let _guard = state_guard();
    assert!(kernel::active() <= kernel::detected());
}
