//! Property-based tests for the eigensolvers: agreement between the
//! independent algorithms (Jacobi, tridiagonal QL, Lanczos) over
//! randomized symmetric operators.

use proptest::prelude::*;
use sass_eigen::jacobi::dense_symmetric_eig;
use sass_eigen::lanczos::{lanczos_largest, LanczosOptions};
use sass_eigen::tridiag::tridiagonal_eig;
use sass_sparse::{CooMatrix, CsrMatrix};

/// Random dense symmetric matrix of size `n in [2, 16]` as CSR.
fn symmetric_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..16).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * (n + 1) / 2).prop_map(move |vals| {
            let mut coo = CooMatrix::new(n, n);
            let mut k = 0;
            for i in 0..n {
                for j in i..n {
                    let v = vals[k];
                    k += 1;
                    if v.abs() > 0.05 {
                        coo.push_sym(i, j, v);
                    } else if i == j {
                        coo.push(i, i, 0.0);
                    }
                }
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn jacobi_eigenvalues_sum_to_trace(a in symmetric_matrix()) {
        let dense = a.to_dense();
        let trace: f64 = (0..a.nrows()).map(|i| dense[i][i]).sum();
        let (vals, _) = dense_symmetric_eig(&dense).unwrap();
        let sum: f64 = vals.iter().sum();
        prop_assert!((sum - trace).abs() < 1e-9 * trace.abs().max(1.0),
                     "eigenvalue sum {} vs trace {}", sum, trace);
    }

    #[test]
    fn jacobi_eigenvectors_diagonalize(a in symmetric_matrix()) {
        let dense = a.to_dense();
        let n = a.nrows();
        let (vals, vecs) = dense_symmetric_eig(&dense).unwrap();
        for (lam, v) in vals.iter().zip(&vecs) {
            for i in 0..n {
                let avi: f64 = (0..n).map(|j| dense[i][j] * v[j]).sum();
                prop_assert!((avi - lam * v[i]).abs() < 1e-8,
                             "residual at row {}: {} vs {}", i, avi, lam * v[i]);
            }
        }
    }

    #[test]
    fn tridiagonal_matches_jacobi(
        alpha in proptest::collection::vec(-2.0f64..2.0, 2..20),
    ) {
        let n = alpha.len();
        let beta: Vec<f64> = (0..n - 1).map(|i| 0.5 + 0.1 * (i as f64)).collect();
        let (tvals, _) = tridiagonal_eig(&alpha, &beta).unwrap();
        let mut dense = vec![vec![0.0; n]; n];
        for i in 0..n {
            dense[i][i] = alpha[i];
            if i + 1 < n {
                dense[i][i + 1] = beta[i];
                dense[i + 1][i] = beta[i];
            }
        }
        let (jvals, _) = dense_symmetric_eig(&dense).unwrap();
        for (t, j) in tvals.iter().zip(&jvals) {
            prop_assert!((t - j).abs() < 1e-8, "{} vs {}", t, j);
        }
    }

    #[test]
    fn lanczos_top_pair_matches_jacobi_on_psd(a in symmetric_matrix()) {
        // Shift to PSD so the largest eigenvalue is also the largest in
        // magnitude: B = A + (|A|_inf + 1) I.
        let n = a.nrows();
        let dense = a.to_dense();
        let shift = dense.iter().flatten().map(|v| v.abs()).fold(0.0, f64::max) * n as f64 + 1.0;
        let mut coo = a.to_coo();
        for i in 0..n {
            coo.push(i, i, shift);
        }
        let b = coo.to_csr();
        let (jvals, _) = dense_symmetric_eig(&b.to_dense()).unwrap();
        let exact = *jvals.last().unwrap();
        let res = lanczos_largest(&b, 1, false, &LanczosOptions::default()).unwrap();
        prop_assert!((res.eigenvalues[0] - exact).abs() < 1e-6 * exact.abs().max(1.0),
                     "lanczos {} vs jacobi {}", res.eigenvalues[0], exact);
    }
}
