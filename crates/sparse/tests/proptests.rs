//! Property-based tests for the sparse-matrix substrate: factorization
//! correctness against a dense reference, format round-trips, and
//! permutation algebra — over randomized inputs.

#![allow(clippy::needless_range_loop)] // the dense reference reads best with indices

use proptest::prelude::*;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{CooMatrix, CsrMatrix, LdlFactor, Permutation};

/// Strategy: a random sparse SPD matrix (diagonally dominant) of size
/// `n in [2, 24]` with `k` random symmetric off-diagonal entries.
fn spd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..24).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(3 * n));
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
            // Strict diagonal dominance makes it SPD.
            for (i, &ra) in row_abs.iter().enumerate() {
                coo.push(i, i, ra + 1.0);
            }
            coo.to_csr()
        })
    })
}

/// Strategy: an SPD matrix with the pattern of a random forest on
/// `n in [2, 400)` vertices: vertex `i > 0` hangs off a uniformly random
/// earlier vertex, or starts a new tree with probability 1/8.
fn forest_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..400).prop_flat_map(|n| {
        let picks = proptest::collection::vec((0.0f64..1.0, 0u32..8), n);
        (Just(n), picks).prop_map(|(n, picks)| {
            let mut coo = CooMatrix::new(n, n);
            for (i, &(u, link)) in picks.iter().enumerate() {
                coo.push(i, i, 4.0);
                if i > 0 && link != 0 {
                    let parent = ((u * i as f64) as usize).min(i - 1);
                    coo.push_sym(parent, i, -1.0);
                }
            }
            coo.to_csr()
        })
    })
}

/// Dense Gaussian elimination with partial pivoting (test reference).
fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut m = a.to_dense();
    let mut x = b.to_vec();
    for col in 0..n {
        let piv = (col..n)
            .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
            .unwrap();
        m.swap(col, piv);
        x.swap(col, piv);
        for row in (col + 1)..n {
            let f = m[row][col] / m[col][col];
            for k in col..n {
                m[row][k] -= f * m[col][k];
            }
            x[row] -= f * x[col];
        }
    }
    for col in (0..n).rev() {
        x[col] /= m[col][col];
        for row in 0..col {
            x[row] -= m[row][col] * x[col];
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ldl_matches_dense_reference(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let reference = dense_solve(&a, &b);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let f = LdlFactor::new(&a, kind).unwrap();
            let x = f.solve(&b);
            for (xi, ri) in x.iter().zip(&reference) {
                prop_assert!((xi - ri).abs() < 1e-7 * ri.abs().max(1.0),
                             "{kind:?}: {xi} vs {ri}");
            }
        }
    }

    /// Minimum degree orders a forest without fill: the factor keeps
    /// exactly the pattern's strict lower triangle.
    #[test]
    fn min_degree_orders_forests_fill_free(a in forest_matrix()) {
        let strict_lower: usize = (0..a.nrows())
            .map(|i| a.row(i).0.iter().filter(|&&c| (c as usize) < i).count())
            .sum();
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        prop_assert_eq!(f.nnz_l(), strict_lower);
    }

    #[test]
    fn ldl_diagonal_positive_for_spd(a in spd_matrix()) {
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        prop_assert!(f.d().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn coo_csr_round_trip(a in spd_matrix()) {
        let back = a.to_coo().to_csr();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn transpose_is_involution(a in spd_matrix()) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn spmv_matches_dense(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y = a.mul_vec(&x);
        let dense = a.to_dense();
        for i in 0..n {
            let want: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-10 * want.abs().max(1.0));
        }
    }

    #[test]
    fn permutation_inverse_composes_to_identity(n in 1usize..64, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        order.sort_by_key(|&i| keys[i]);
        let p = Permutation::from_new_of_old(order).unwrap();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        prop_assert_eq!(p.apply_inverse(&p.apply(&x)), x.clone());
        let double_inverse = p.inverse().inverse();
        prop_assert_eq!(double_inverse.new_of_old(), p.new_of_old());
    }

    #[test]
    fn parallel_spmv_is_bit_for_bit_serial(a in spd_matrix(), seed in 0u64..1000) {
        // The threaded fast path must be *exactly* the serial kernel's
        // result — same per-row accumulation order — on any input, not
        // merely close. (Matrices this size take the serial fallback; the
        // unit tests in `parallel.rs` pin the same property above the
        // crossover.)
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut serial = vec![0.0; n];
        let mut parallel = vec![0.0; n];
        a.mul_vec_into(&x, &mut serial);
        a.par_mul_vec_into(&x, &mut parallel);
        prop_assert_eq!(&serial, &parallel);
        // And the LinearOperator route resolves to the same bits.
        use sass_sparse::LinearOperator;
        prop_assert_eq!(a.apply_vec(&x), serial);
    }

    /// Pool-based SpMV must be bit-identical to the serial kernel at every
    /// worker count. `pool::set_threads` is a standing override that skips
    /// the size crossover, so even these small matrices go through real
    /// multi-lane dispatch on the persistent pool.
    #[test]
    fn pool_spmv_bit_identical_across_worker_counts(a in spd_matrix(), seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::pool;
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut serial = vec![0.0; n];
        a.mul_vec_into(&x, &mut serial);
        for workers in [1usize, 2, 3, 8] {
            pool::set_threads(workers);
            let mut parallel = vec![0.0; n];
            a.par_mul_vec_into(&x, &mut parallel);
            pool::set_threads(0);
            prop_assert_eq!(&parallel, &serial, "workers = {}", workers);
        }
    }

    /// The blocked multi-RHS solve must agree with the per-column solve on
    /// any SPD input, across full and partial block widths — the LDL
    /// counterpart of the serial/parallel SpMV equivalence above.
    #[test]
    fn ldl_block_solve_matches_per_column(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::{LdlFactor, LDL_BLOCK_WIDTH};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        for ncols in [1usize, LDL_BLOCK_WIDTH - 1, LDL_BLOCK_WIDTH, LDL_BLOCK_WIDTH + 3] {
            let cols: Vec<Vec<f64>> = (0..ncols)
                .map(|_| (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect())
                .collect();
            let mut blocked = vec![vec![0.0; n]; ncols];
            let b = cols.iter().map(|c| &c[..]);
            f.solve_columns(b, blocked.iter_mut().map(|c| &mut c[..]), &mut Vec::new());
            for (c, col) in cols.iter().enumerate() {
                let single = f.solve(col);
                for (bx, sx) in blocked[c].iter().zip(&single) {
                    prop_assert!(
                        (bx - sx).abs() <= 1e-14 * sx.abs().max(1.0),
                        "ncols={} col={}: {} vs {}", ncols, c, bx, sx
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_market_round_trip(a in spd_matrix()) {
        let text = sass_sparse::mmio::write_string(&a).unwrap();
        let back = sass_sparse::mmio::read_str(&text).unwrap().to_csr();
        prop_assert_eq!(a, back);
    }
}
