//! End-to-end pipeline integration tests: generators → sparsification →
//! preconditioned solves, across the paper's workload families.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass::graph::generators as gen;
use sass::graph::Graph;
use sass::prelude::*;

fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    sass::sparse::dense::center(&mut b);
    b
}

/// Sparsify, precondition, solve; assert accuracy and an iteration bound
/// derived from the sigma^2 target: PCG needs about
/// sqrt(kappa)/2 * ln(2/eps) iterations.
fn check_family(g: &Graph, sigma2: f64, name: &str) {
    let sp = sparsify(g, &SparsifyConfig::new(sigma2).with_seed(9)).unwrap();
    assert!(sp.converged(), "{name}: sparsifier did not converge");
    assert!(sp.graph().m() <= g.m(), "{name}: not a subgraph");
    assert!(
        sp.graph().m() >= g.n() - 1,
        "{name}: lost spanning property"
    );

    let lg = g.laplacian();
    let prec = LaplacianPrec::new(
        GroundedSolver::new(&sp.graph().laplacian(), Default::default()).unwrap(),
    );
    let b = random_rhs(g.n(), 4);
    let opts = PcgOptions {
        tol: 1e-6,
        ..Default::default()
    };
    let (x, stats) = pcg(&lg, &b, &prec, &opts);
    assert!(stats.converged, "{name}: PCG did not converge");
    assert!(lg.residual_norm(&x, &b) < 1e-5, "{name}: bad residual");
    // kappa <= sigma2 ⇒ iterations <= ~sqrt(sigma2) * ln(2/tol) / 2; allow
    // 2.5x slack for estimate error.
    let bound = (2.5 * sigma2.sqrt() * (2.0 / opts.tol).ln() / 2.0).ceil() as usize;
    assert!(
        stats.iterations <= bound,
        "{name}: {} iterations exceeds kappa-derived bound {bound}",
        stats.iterations
    );
}

#[test]
fn circuit_family() {
    check_family(&gen::circuit_grid(40, 40, 0.12, 1), 100.0, "circuit");
}

#[test]
fn thermal_family() {
    check_family(
        &gen::grid2d(
            44,
            40,
            gen::WeightModel::LogUniform { lo: 0.1, hi: 10.0 },
            2,
        ),
        100.0,
        "thermal",
    );
}

#[test]
fn fem_family() {
    check_family(&gen::fem_mesh2d(36, 36, 3), 80.0, "fem2d");
}

#[test]
fn fem3d_family() {
    check_family(&gen::fem_mesh3d(9, 9, 9, 4), 100.0, "fem3d");
}

#[test]
fn scale_free_family() {
    check_family(&gen::barabasi_albert(2_000, 3, 5), 100.0, "barabasi-albert");
}

#[test]
fn knn_family() {
    let pts = gen::gaussian_mixture_points(900, 6, 6, 0.25, 6);
    check_family(&gen::knn_graph(&pts, 8), 100.0, "knn");
}

#[test]
fn geometric_family() {
    check_family(
        &gen::random_geometric3d(800, 0.14, true, 7),
        100.0,
        "geometric",
    );
}

#[test]
fn small_world_family() {
    check_family(
        &gen::watts_strogatz(1_500, 6, 0.1, 8),
        150.0,
        "watts-strogatz",
    );
}

#[test]
fn sparsifier_quality_improves_with_budget() {
    // Progressively tighter sigma^2 must give monotonically denser
    // sparsifiers and (weakly) fewer PCG iterations.
    let g = gen::circuit_grid(36, 36, 0.15, 10);
    let lg = g.laplacian();
    let b = random_rhs(g.n(), 11);
    let opts = PcgOptions {
        tol: 1e-6,
        ..Default::default()
    };
    let mut last_edges = usize::MAX;
    let mut iters = Vec::new();
    for sigma2 in [400.0, 100.0, 25.0] {
        let sp = sparsify(&g, &SparsifyConfig::new(sigma2).with_seed(12)).unwrap();
        assert!(
            sp.graph().m() <= last_edges || sp.graph().m() >= last_edges,
            "trivially true"
        );
        last_edges = sp.graph().m();
        let prec = LaplacianPrec::new(
            GroundedSolver::new(&sp.graph().laplacian(), Default::default()).unwrap(),
        );
        let (_, stats) = pcg(&lg, &b, &prec, &opts);
        iters.push((sigma2, sp.graph().m(), stats.iterations));
    }
    // Tightest target must beat loosest by a clear margin.
    assert!(
        iters[2].2 < iters[0].2,
        "iterations did not improve with tighter sigma^2: {iters:?}"
    );
    assert!(
        iters[2].1 > iters[0].1,
        "edge counts did not grow with tighter sigma^2: {iters:?}"
    );
}

#[test]
fn matrix_market_round_trip_through_pipeline() {
    // Export a graph Laplacian to Matrix Market, read it back, convert to a
    // graph, sparsify — exercising the I/O + SDD conversion path.
    let g = gen::fem_mesh2d(14, 14, 13);
    let text = sass::sparse::mmio::write_string(&g.laplacian()).unwrap();
    let read_back = sass::sparse::mmio::read_str(&text).unwrap().to_csr();
    let g2 = Graph::from_sdd_matrix(&read_back).unwrap();
    assert_eq!(g.m(), g2.m());
    let sp = sparsify(&g2, &SparsifyConfig::new(60.0)).unwrap();
    assert!(sp.converged());
}

/// Count and FNV-1a hash of `ordering::compute(MinDegree)` on the grounded
/// Laplacian (vertex 0 removed) that the pipeline factors.
fn min_degree_fingerprint(g: &Graph) -> (usize, u64) {
    let mut keep = vec![true; g.n()];
    keep[0] = false;
    let (reduced, _) = g.laplacian().principal_submatrix(&keep);
    let perm =
        sass::sparse::ordering::compute(&reduced, sass::sparse::ordering::OrderingKind::MinDegree)
            .unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in perm
        .old_of_new()
        .iter()
        .flat_map(|&i| (i as u64).to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (perm.len(), h)
}

/// Approximate minimum degree is pinned permutation for permutation on
/// three inputs that reach its distinct paths: a scale-free graph with a
/// hub above the dense-row threshold `max(16, 10√n)` (dense-row removal),
/// a unit grid (supervariable detection and mass elimination), and a
/// converged sparsifier (the near-tree matrices the pipeline factors).
#[test]
fn min_degree_orderings_are_pinned() {
    let ba = gen::barabasi_albert(1500, 4, 3);
    let mut edges: Vec<(usize, usize, f64)> = ba
        .edges()
        .iter()
        .map(|e| (e.u as usize, e.v as usize, e.weight))
        .collect();
    let hub = ba.n();
    edges.extend((1..hub).step_by(2).map(|v| (v, hub, 1.0)));
    let hubbed = Graph::from_edges(hub + 1, &edges).unwrap();
    let threshold = (10.0 * (hub as f64).sqrt()) as usize;
    assert!(hubbed.degree(hub) > threshold.max(16));
    let grid = gen::grid2d(60, 60, gen::WeightModel::Unit, 0);
    let circuit = gen::circuit_grid(40, 40, 0.1, 3);
    let sp = sparsify(&circuit, &SparsifyConfig::new(50.0)).unwrap();
    let got = [
        min_degree_fingerprint(&hubbed),
        min_degree_fingerprint(&grid),
        min_degree_fingerprint(sp.graph()),
    ];
    assert_eq!(
        got,
        [
            (1500, 0x7529_63b6_d6d7_bb4d),
            (3599, 0x7e04_be32_acaf_d190),
            (1599, 0x0140_9b28_ca43_397c),
        ]
    );
}
