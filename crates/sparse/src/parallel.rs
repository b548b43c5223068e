//! Threaded SpMV fast path behind [`CsrMatrix::par_mul_vec_into`].
//!
//! Rows are partitioned into contiguous, nnz-balanced spans
//! ([`pool::balanced_spans`] over the CSR row pointer — an exact
//! prefix-sum of work) and dispatched over the persistent worker pool
//! ([`pool::Pool::global`]); each span owns a disjoint slice of the output
//! vector, so the kernel needs no synchronization beyond the dispatch
//! barrier. Every row is accumulated by exactly the same loop as the
//! serial kernel, in the same order — the parallel product is
//! **bit-for-bit identical** to [`CsrMatrix::mul_vec_into`] at every
//! worker count (a property the sparse proptests pin down at forced
//! counts 1/2/3/8).
//!
//! The first threaded SpMV spawned fresh `std::thread::scope` threads on
//! every call, which put the profitable-size crossover at 8,192 rows / 100k
//! stored entries — high enough that most pipeline stages never went
//! parallel. Pool dispatch is a wake of parked threads, not a spawn
//! (`BENCH_POOL.json` records the difference), so the crossover now sits
//! ~10× lower. An explicit `SASS_THREADS` / [`pool::set_threads`]
//! override skips the crossover entirely (forcing or denying the threaded
//! path), which is how single-core CI exercises real fan-out.

use crate::{kernel, pool, CsrMatrix};

/// Below this many rows the serial kernel wins under automatic sizing.
const MIN_PAR_ROWS: usize = 1_024;
/// Below this many stored entries the serial kernel wins.
const MIN_PAR_NNZ: usize = 10_000;
/// Stored entries per pool lane; caps lane count for matrices barely
/// above the crossover.
const NNZ_PER_WORKER: usize = 4_096;

/// Number of lanes to use for a matrix, `1` meaning "stay serial".
fn worker_count(nrows: usize, nnz: usize) -> usize {
    let p = pool::Pool::global();
    if nrows < MIN_PAR_ROWS && !p.is_forced() {
        return 1;
    }
    p.workers_for(nnz, MIN_PAR_NNZ, NNZ_PER_WORKER).min(nrows)
}

pub(crate) fn par_spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    let workers = worker_count(a.nrows(), a.nnz());
    par_spmv_on(pool::Pool::global(), a, x, y, workers);
}

/// [`par_spmv`] over an explicit pool and lane count. The unit tests hand
/// in a `Pool::with_threads(workers)` instance so multi-worker execution
/// is pinned with *real* thread fan-out even where the global pool sizes
/// to one lane (single-core CI).
fn par_spmv_on(p: &pool::Pool, a: &CsrMatrix, x: &[f64], y: &mut [f64], workers: usize) {
    assert_eq!(x.len(), a.ncols(), "mul_vec: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "mul_vec: y length mismatch");
    if workers <= 1 {
        a.mul_vec_into(x, y);
        return;
    }
    let indptr = a.indptr();
    let indices = a.indices();
    let data = a.data();
    let spans = pool::balanced_spans(indptr, workers);
    p.parallel_for_disjoint_mut(y, &spans, |s, chunk| {
        let (lo, hi) = spans[s];
        // Same kernel dispatcher as the serial path, per span — parallel
        // stays bit-identical to serial at every SIMD level.
        kernel::spmv_range_f64(indptr, indices, data, x, chunk, lo, hi);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn random_ish_matrix(n: usize, per_row: usize) -> CsrMatrix {
        // Deterministic scatter without an RNG dependency.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, per_row as f64 + 1.0);
            for k in 0..per_row {
                let j = (i * 31 + k * 97 + 13) % n;
                if j != i {
                    coo.push(i, j, ((i + k) % 7) as f64 * 0.25 - 0.5);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn spans_cover_all_rows_disjointly_and_nonempty() {
        let a = random_ish_matrix(10_001, 5);
        for k in 1..=7 {
            let spans = pool::balanced_spans(a.indptr(), k);
            assert!(spans.len() <= k);
            assert!(spans.iter().all(|&(lo, hi)| lo < hi));
            assert_eq!(spans[0].0, 0);
            assert_eq!(spans.last().unwrap().1, a.nrows());
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit_above_crossover() {
        // Big enough to take the threaded path under auto worker counting.
        let a = random_ish_matrix(MIN_PAR_ROWS * 2, 8);
        assert!(a.nnz() >= MIN_PAR_NNZ);
        let x: Vec<f64> = (0..a.nrows())
            .map(|i| ((i % 1_000) as f64) * 0.001 - 0.5)
            .collect();
        let mut serial = vec![0.0; a.nrows()];
        let mut parallel = vec![0.0; a.nrows()];
        a.mul_vec_into(&x, &mut serial);
        par_spmv(&a, &x, &mut parallel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn forced_multi_worker_matches_serial_bit_for_bit() {
        // `available_parallelism` may be 1 on CI machines, which would turn
        // the test above into a serial-vs-serial comparison; force real
        // thread fan-out to exercise the pool kernel itself.
        let a = random_ish_matrix(4_096, 6);
        let x: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 17 % 301) as f64) * 0.01 - 1.5)
            .collect();
        let mut serial = vec![0.0; a.nrows()];
        a.mul_vec_into(&x, &mut serial);
        for workers in [2, 3, 5, 8] {
            let p = pool::Pool::with_threads(workers);
            let mut parallel = vec![0.0; a.nrows()];
            par_spmv_on(&p, &a, &x, &mut parallel, workers);
            assert!(p.worker_count() >= 1, "dispatch must really fan out");
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn small_matrices_stay_serial_and_correct() {
        let a = random_ish_matrix(64, 3);
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut y = vec![0.0; 64];
        par_spmv(&a, &x, &mut y);
        assert_eq!(y, a.mul_vec(&x));
    }

    /// A hub matrix (one row holding most of the nnz) used to produce
    /// empty spans the kernel had to skip; the merged spans must still
    /// cover every row and reproduce the serial product exactly.
    #[test]
    fn hub_matrix_with_more_workers_than_useful_spans() {
        let n = 2_000;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, (j % 13) as f64 * 0.5 + 1.0);
        }
        for i in 1..n {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut serial = vec![0.0; n];
        a.mul_vec_into(&x, &mut serial);
        for workers in [2, 4, 8] {
            let p = pool::Pool::with_threads(workers);
            let mut parallel = vec![0.0; n];
            par_spmv_on(&p, &a, &x, &mut parallel, workers);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }
}
