//! Preconditioner ablation: everything in the workspace that can
//! precondition a Laplacian PCG solve, on one ill-conditioned circuit
//! graph. This is the quantitative version of the paper's core pitch —
//! where the similarity-aware sparsifier sits between "cheap but weak"
//! (Jacobi/tree) and "strong but expensive" (exact factorization).
//!
//! Iteration counts per preconditioner are printed once to the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_core::{sparsify, SparsifyConfig};
use sass_graph::generators::circuit_grid;
use sass_graph::spanning;
use sass_solver::{
    pcg, AmgPrec, GroundedSolver, IdentityPrec, JacobiPrec, LaplacianPrec, PcgOptions,
    Preconditioner,
};
use sass_sparse::dense;
use sass_sparse::ordering::OrderingKind;

fn bench_preconditioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_preconditioners");
    group.sample_size(10);
    let g = circuit_grid(56, 56, 0.1, 17);
    let l = g.laplacian();
    let mut rng = StdRng::seed_from_u64(1);
    let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut b);
    let opts = PcgOptions {
        tol: 1e-8,
        max_iter: 100_000,
        ..Default::default()
    };

    let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
    let tree_prec = LaplacianPrec::new(
        GroundedSolver::new(&g.laplacian_of_edges(&tree_ids), OrderingKind::MinDegree).unwrap(),
    );
    let amg = AmgPrec::new(&l, &Default::default()).unwrap();
    let sp50 = sparsify(&g, &SparsifyConfig::new(50.0).with_seed(2)).unwrap();
    let prec50 = LaplacianPrec::new(
        GroundedSolver::new(&sp50.graph().laplacian(), OrderingKind::MinDegree).unwrap(),
    );
    let sp200 = sparsify(&g, &SparsifyConfig::new(200.0).with_seed(2)).unwrap();
    let prec200 = LaplacianPrec::new(
        GroundedSolver::new(&sp200.graph().laplacian(), OrderingKind::MinDegree).unwrap(),
    );
    let exact = LaplacianPrec::new(GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap());

    let jacobi = JacobiPrec::new(&l);
    let cases: Vec<(&str, &dyn Preconditioner)> = vec![
        ("identity", &IdentityPrec),
        ("jacobi", &jacobi),
        ("tree", &tree_prec),
        ("amg", &amg),
        ("sparsifier_s200", &prec200),
        ("sparsifier_s50", &prec50),
        ("exact_factor", &exact),
    ];
    for (name, prec) in cases {
        let (_, stats) = pcg(&l, &b, prec, &opts);
        eprintln!("[prec ablation] {name}: {} iterations", stats.iterations);
        group.bench_with_input(BenchmarkId::new("pcg", name), &(), |bch, ()| {
            bch.iter(|| {
                let (_, s) = pcg(&l, &b, prec, &opts);
                assert!(s.converged);
                s.iterations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preconditioners);
criterion_main!(benches);
