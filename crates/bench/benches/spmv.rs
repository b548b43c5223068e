//! Serial vs parallel SpMV on the workspace's two canonical workload
//! shapes: regular 2-D grids (bounded degree, cache-friendly rows) and
//! scale-free graphs (hub rows orders of magnitude heavier than the tail).
//!
//! `CsrMatrix::mul_vec_into` is the serial kernel; `par_mul_vec_into` is the
//! threaded fast path that every `LinearOperator` application routes
//! through — rows dispatched over the persistent worker pool
//! (`sass_sparse::pool`), with the crossover at 1,024 rows / 10k nnz now
//! that dispatch is a wake, not a spawn (see the `pool_dispatch` bench for
//! the dispatch-latency comparison). This bench records the
//! `BENCH_SPMV.json` baseline; re-record with
//!
//! ```text
//! CRITERION_JSON=BENCH_SPMV.json cargo bench -p sass-bench --bench spmv
//! ```
//!
//! On a single-core machine (like the container the baselines so far were
//! recorded on) automatic pool sizing resolves to one lane and the fast
//! path is the serial kernel, so the two rows coincide — the comparison
//! is only meaningful on multi-core hardware (or under a forced
//! `SASS_THREADS` override, which skips the crossover).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sass_graph::generators::{barabasi_albert, grid2d, WeightModel};
use sass_sparse::CsrMatrix;

fn workloads() -> Vec<(String, CsrMatrix)> {
    let mut out = Vec::new();
    for side in [64usize, 256, 512] {
        let g = grid2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        out.push((format!("grid_{}x{}", side, side), g.laplacian()));
    }
    for (n, attach) in [(10_000usize, 4usize), (100_000, 8)] {
        let g = barabasi_albert(n, attach, 7);
        out.push((format!("scale_free_n{}_m{}", n, attach), g.laplacian()));
    }
    out
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    group.sample_size(30);
    for (name, l) in workloads() {
        let x: Vec<f64> = (0..l.nrows())
            .map(|i| ((i * 37 % 101) as f64) - 50.0)
            .collect();
        let mut y = vec![0.0; l.nrows()];
        group.bench_with_input(BenchmarkId::new("serial", &name), &l, |b, l| {
            b.iter(|| l.mul_vec_into(&x, &mut y))
        });
        group.bench_with_input(BenchmarkId::new("parallel", &name), &l, |b, l| {
            b.iter(|| l.par_mul_vec_into(&x, &mut y))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
