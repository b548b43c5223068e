//! Subtree-partitioned LDLᵀ: ordering, numeric factorization and
//! triangular-solve latency, serial vs forced pool widths.
//!
//! Three workload shapes, chosen for their elimination-tree profiles:
//!
//! - `mesh`: a 2-D grid Laplacian under min-degree — bushy etree with a
//!   separator trunk, balanced lanes below it;
//! - `scale_free`: a Barabási–Albert graph — the hubs pile up in a heavy
//!   trunk, the case the critical-path gate keeps on the flat serial
//!   sweeps under automatic sizing;
//! - `sparsifier`: the near-tree output of the paper's own pipeline
//!   (σ² = 200 on a circuit grid) — deep etree, light trunk, many small
//!   subtrees for the lanes.
//!
//! Two more shapes time [`GroundedSolver`] itself at the automatic pool
//! width — `grounded_new` (construction from the Laplacian: the peel of
//! every degree-≤2 vertex, then the ordering and LDLᵀ of the core),
//! `grounded_solve` (one right-hand side) and `grounded_solve8` (one
//! 8-column block):
//!
//! - `tree_grid_140x140`, the spanning-tree round's matrix: the canonical
//!   max-weight spanning tree of serve-mixed's 140² grid, peeled whole,
//!   leaf to root, with an empty core;
//! - `served_grid_140x140`, the sparsifier serve-mixed serves on that
//!   grid: the selection [`IncrementalSparsifier::new`] makes at σ² = 100
//!   with the workload's seed, about two thirds peeled.
//!
//! One serial `order` row per workload times the fill-reducing ordering
//! alone ([`ordering::compute`], approximate minimum degree). Then three
//! kernels per workload — `numeric` ([`LdlFactor::with_permutation`]
//! with that precomputed ordering), `solve` (one right-hand side through
//! [`LdlFactor::solve_columns`]) and `solve_block8` (one full 8-column
//! chunk through the same call) — each at `serial` (`set_threads(1)`),
//! `w2` and `w4` forced pool widths. The forced rows engage the
//! partitioned path regardless of the gates (one dispatch per phase); on
//! a single-core host they measure pure dispatch overhead (the speedup
//! needs real cores), so the provenance record carries
//! `available_parallelism`. Record the
//! baseline from the repository root with (cargo runs benches from
//! `crates/bench`, so the path must be absolute; records are appended,
//! so delete the old file first)
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_FACTOR.json cargo bench -p sass-bench --bench factor
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sass_bench::record_provenance;
use sass_core::{sparsify, IncrementalSparsifier, SparsifyConfig};
use sass_graph::generators::{barabasi_albert, circuit_grid, grid2d, WeightModel};
use sass_graph::spanning;
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::ordering::{self, OrderingKind};
use sass_sparse::{pool, CsrMatrix, DenseBlock, LdlFactor, LDL_BLOCK_WIDTH};

/// Grounded (SPD) principal submatrix of a Laplacian, vertex 0 deleted.
fn grounded(l: &CsrMatrix) -> CsrMatrix {
    let mut keep = vec![true; l.nrows()];
    keep[0] = false;
    l.principal_submatrix(&keep).0
}

fn workloads() -> Vec<(String, CsrMatrix)> {
    let mesh = grid2d(56, 56, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
    let sf = barabasi_albert(3000, 3, 11);
    let g = circuit_grid(48, 48, 0.1, 9);
    let sp = sparsify(&g, &SparsifyConfig::new(200.0).with_seed(1)).expect("sparsify");
    vec![
        ("mesh_56x56".to_string(), grounded(&mesh.laplacian())),
        ("scale_free_3000".to_string(), grounded(&sf.laplacian())),
        (
            "sparsifier_48x48".to_string(),
            grounded(&sp.graph().laplacian()),
        ),
    ]
}

fn bench_factor(c: &mut Criterion) {
    record_provenance("factor");
    let mut group = c.benchmark_group("factor");
    group.sample_size(10);
    for (name, a) in workloads() {
        // The ordering is serial: one row. The numeric rows below reuse its
        // result, so they measure the symbolic + numeric phases alone.
        group.bench_with_input(BenchmarkId::new("order", &name), &(), |bch, ()| {
            bch.iter(|| black_box(ordering::compute(&a, OrderingKind::MinDegree).unwrap()))
        });
        let perm = ordering::compute(&a, OrderingKind::MinDegree).unwrap();
        let n = a.nrows();
        let shape = LdlFactor::with_permutation(&a, perm.clone())
            .unwrap()
            .partition_shape();
        eprintln!(
            "[{name}] n = {n}, lanes = {}, trunk = {} cols, critical path = {:.1}% \
             (automatic pool width)",
            shape.lanes,
            shape.trunk_cols,
            100.0 * shape.critical_fraction()
        );
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.23).sin()).collect();
        let cols: Vec<Vec<f64>> = (0..LDL_BLOCK_WIDTH)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * (k + 2)) as f64 * 0.13).cos())
                    .collect()
            })
            .collect();
        let rhs = DenseBlock::from_columns(&cols);
        let mut x = vec![0.0; n];
        let mut xb = DenseBlock::zeros(n, LDL_BLOCK_WIDTH);
        let mut work = Vec::new();
        for (label, width) in [("serial", 1usize), ("w2", 2), ("w4", 4)] {
            pool::set_threads(width);
            // The partition is built for the pool width at
            // factorization time, so each width solves with its own.
            let f = LdlFactor::with_permutation(&a, perm.clone()).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("numeric/{label}"), &name),
                &(),
                |bch, ()| {
                    bch.iter(|| {
                        black_box(
                            LdlFactor::with_permutation(&a, perm.clone())
                                .unwrap()
                                .nnz_l(),
                        )
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("solve/{label}"), &name),
                &(),
                |bch, ()| {
                    bch.iter(|| {
                        f.solve_columns([&b[..]], [&mut x[..]], &mut work);
                        black_box(x[0])
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("solve_block8/{label}"), &name),
                &(),
                |bch, ()| {
                    bch.iter(|| {
                        f.solve_columns(rhs.columns(), xb.columns_mut(), &mut work);
                        black_box(xb.col(0)[0])
                    })
                },
            );
            pool::set_threads(0);
        }
    }
    group.finish();
}

fn bench_grounded(c: &mut Criterion) {
    let g = grid2d(140, 140, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 140);
    let tree = spanning::max_weight_spanning_tree(&g).expect("connected grid");
    let served = IncrementalSparsifier::new(&g, &SparsifyConfig::new(100.0).with_seed(0x5a55_c0de))
        .expect("served sparsifier");
    let mut group = c.benchmark_group("factor");
    group.sample_size(10);
    for (name, ids) in [
        ("tree_grid_140x140", &tree[..]),
        ("served_grid_140x140", served.selected_edge_ids()),
    ] {
        grounded_rows(&mut group, name, &g.laplacian_of_edges(ids));
    }
    group.finish();
}

/// The `grounded_{new,solve,solve8}` rows of one Laplacian.
fn grounded_rows(group: &mut criterion::BenchmarkGroup<'_>, name: &str, l: &CsrMatrix) {
    let n = l.nrows();
    group.bench_with_input(BenchmarkId::new("grounded_new", name), &(), |bch, ()| {
        bch.iter(|| {
            black_box(
                GroundedSolver::new(l, OrderingKind::MinDegree)
                    .unwrap()
                    .nnz_factor(),
            )
        })
    });
    let s = GroundedSolver::new(l, OrderingKind::MinDegree).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.23).sin()).collect();
    let cols: Vec<Vec<f64>> = (0..LDL_BLOCK_WIDTH)
        .map(|k| {
            (0..n)
                .map(|i| ((i * (k + 2)) as f64 * 0.13).cos())
                .collect()
        })
        .collect();
    let mut x = vec![0.0; n];
    let mut xb = vec![vec![0.0; n]; LDL_BLOCK_WIDTH];
    let mut scratch = GroundedScratch::new();
    group.bench_with_input(BenchmarkId::new("grounded_solve", name), &(), |bch, ()| {
        bch.iter(|| {
            s.solve_columns(&[&b], &mut [&mut x], &mut scratch);
            black_box(x[0])
        })
    });
    group.bench_with_input(BenchmarkId::new("grounded_solve8", name), &(), |bch, ()| {
        bch.iter(|| {
            s.solve_columns(&cols, &mut xb, &mut scratch);
            black_box(xb[0][0])
        })
    });
}

criterion_group!(benches, bench_factor, bench_grounded);
criterion_main!(benches);
