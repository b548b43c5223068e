//! Per-RHS loop vs blocked `solve_many` against one grounded LDLᵀ
//! factorization — the paper's Table 2 "many right-hand sides" scenario.
//!
//! The per-RHS row streams the factor once per right-hand side (one
//! `GroundedSolver::solve_columns` call per column); the blocked row
//! streams it once per `LDL_BLOCK_WIDTH`-column chunk (one
//! `GroundedSolver::solve_columns` call for every column), so the factor's index/value arrays
//! are read 8× less often while the arithmetic count is identical. Both
//! rows run at the pool's automatic width.
//!
//! Workloads: full grid and circuit Laplacians with 32 right-hand sides
//! (four full chunks), and the heat embedding's real shape — the σ² = 50
//! sparsifier of the 180 × 180 circuit grid with 15 columns (one full
//! chunk and a 7-wide tail), the factor every densification round solves
//! against.
//!
//! After the timed rows, a `solve_many/speedup/<workload>` record per
//! workload holds the per-RHS loop's median over the blocked median, both
//! measured interleaved in this run, and the bench fails if any is below
//! 1.0 — a ratio taken within one run, so the gate holds on any host.
//! Record the baseline with
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_SOLVE_MANY.json cargo bench -p sass-bench --bench solve_many
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sass_bench::record_provenance;
use sass_core::{sparsify, SparsifyConfig};
use sass_graph::generators::{circuit_grid, grid2d, WeightModel};
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::ordering::OrderingKind;

/// Right-hand sides of the full-Laplacian workloads: four full 8-column
/// blocks.
const N_RHS: usize = 32;

/// Probe vectors of the heat embedding on the 180 × 180 circuit grid
/// (`SparsifyConfig::resolved_num_vectors`).
const PROBE_RHS: usize = 15;

/// Interleaved samples per side of a speedup record.
const SPEEDUP_SAMPLES: usize = 15;

fn workloads() -> Vec<(String, GroundedSolver, usize)> {
    let mut out = Vec::new();
    for side in [48usize, 96] {
        let g = grid2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
        out.push((format!("grid_{side}x{side}"), s, N_RHS));
    }
    let g = circuit_grid(64, 64, 0.1, 9);
    let s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
    out.push(("circuit_64x64".to_string(), s, N_RHS));
    let g = circuit_grid(180, 180, 0.1, 21);
    let sp = sparsify(&g, &SparsifyConfig::new(50.0)).unwrap();
    let s = sp.grounded_solver().unwrap().clone();
    out.push(("probe_circuit_180x180".to_string(), s, PROBE_RHS));
    out
}

fn bench_solve_many(c: &mut Criterion) {
    record_provenance("solve_many");
    let mut group = c.benchmark_group("solve_many");
    group.sample_size(20);
    let mut speedups = Vec::new();
    for (name, solver, ncols) in workloads() {
        let n = solver.n();
        let rhs: Vec<Vec<f64>> = (0..ncols)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * (k + 2)) as f64 * 0.13).sin())
                    .collect()
            })
            .collect();
        let mut scratch = GroundedScratch::new();
        let mut x = vec![0.0; n];
        let mut out = vec![vec![0.0; n]; ncols];
        let mut per_rhs = |scratch: &mut GroundedScratch| {
            for b in &rhs {
                solver.solve_columns(&[b], &mut [&mut x], scratch);
            }
            black_box(x[0])
        };
        group.bench_with_input(BenchmarkId::new("per_rhs_loop", &name), &(), |b, ()| {
            b.iter(|| per_rhs(&mut scratch))
        });
        let mut blocked = |scratch: &mut GroundedScratch| {
            solver.solve_columns(&rhs, &mut out, scratch);
            black_box(out[0][0])
        };
        group.bench_with_input(BenchmarkId::new("blocked", &name), &(), |b, ()| {
            b.iter(|| blocked(&mut scratch))
        });
        let (mut t_rhs, mut t_blk) = (Vec::new(), Vec::new());
        for _ in 0..SPEEDUP_SAMPLES {
            let t0 = std::time::Instant::now();
            per_rhs(&mut scratch);
            t_rhs.push(t0.elapsed().as_nanos());
            let t0 = std::time::Instant::now();
            blocked(&mut scratch);
            t_blk.push(t0.elapsed().as_nanos());
        }
        t_rhs.sort_unstable();
        t_blk.sort_unstable();
        let (m_rhs, m_blk) = (
            t_rhs[SPEEDUP_SAMPLES / 2],
            t_blk[SPEEDUP_SAMPLES / 2].max(1),
        );
        let speedup = m_rhs as f64 / m_blk as f64;
        eprintln!("[solve_many] {name}: per-RHS loop over blocked {speedup:.2}x ({ncols} columns)");
        sass_bench::append_json_record(&format!(
            "{{\"id\":\"solve_many/speedup/{name}\",\"columns\":{ncols},\
             \"per_rhs_ns\":{m_rhs},\"blocked_ns\":{m_blk},\
             \"per_rhs_over_blocked\":{speedup:.2}}}"
        ));
        speedups.push((name, speedup));
    }
    group.finish();
    // Gate after every record is written: blocking a solve must never be
    // slower than looping over its columns.
    for (name, speedup) in speedups {
        assert!(
            speedup >= 1.0,
            "{name}: blocked solve is slower than the per-RHS loop: {speedup:.2}x"
        );
    }
}

criterion_group!(benches, bench_solve_many);
criterion_main!(benches);
