//! Cross-worker-count parity for the pool-routed pipeline kernels.
//!
//! Every parallel kernel in the sparsification pipeline — Joule-heat
//! embedding, heat filtering, and the grounded solver's blocked column
//! passes — must produce **bit-for-bit identical** results at any worker
//! count. `pool::set_threads` is a standing override that skips the
//! per-kernel size crossovers, so even the small graphs generated here go
//! through real multi-lane dispatch on the persistent pool.

use proptest::prelude::*;
use sass_core::embedding::off_tree_heat;
use sass_core::filter::select_edges;
use sass_core::{sparsify, SparsifierSolver, SparsifyConfig};
use sass_graph::generators::{circuit_grid, grid2d, WeightModel};
use sass_graph::{spanning, Graph, RootedTree};
use sass_solver::GroundedSolver;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{pool, DenseBlock};

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

/// Runs `f` once per forced worker count and once serially, asserting the
/// forced results equal the serial reference.
fn assert_parity_across_workers<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
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
}

fn heat_setup(side: usize, seed: u64) -> (Graph, Vec<u32>, GroundedSolver) {
    let g = grid2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
    let tree = RootedTree::new(&g, tree_ids.clone(), 0).unwrap();
    let off = tree.off_tree_edges(&g);
    let p = g.subgraph_with_edges(tree_ids);
    let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::MinDegree).unwrap();
    (g, off, solver)
}

#[test]
fn off_tree_heat_bit_identical_across_worker_counts() {
    let (g, off, solver) = heat_setup(9, 5);
    let lg = g.laplacian();
    assert_parity_across_workers(|| off_tree_heat(&g, &off, &lg, &solver, 2, 6, 42).heat);
}

#[test]
fn grounded_solve_block_bit_identical_across_worker_counts() {
    let g = grid2d(7, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 11);
    let solver = GroundedSolver::with_ground(&g.laplacian(), 13, OrderingKind::MinDegree).unwrap();
    for ncols in [1usize, 3, 9] {
        let cols: Vec<Vec<f64>> = (0..ncols)
            .map(|c| {
                (0..g.n())
                    .map(|i| ((i * (3 * c + 2)) as f64 * 0.23).sin())
                    .collect()
            })
            .collect();
        let b = DenseBlock::from_columns(&cols);
        assert_parity_across_workers(|| solver.solve_block(&b));
    }
}

/// The factor a sparsifier carries out of densification, and the solves
/// `build_solver` serves from it, do not depend on the pool width.
#[test]
fn carried_factor_solves_bit_identical_across_worker_counts() {
    let g = circuit_grid(16, 16, 0.15, 3);
    let cols: Vec<Vec<f64>> = (0..3)
        .map(|c| {
            let mut b: Vec<f64> = (0..g.n())
                .map(|i| ((i * (2 * c + 3)) as f64 * 0.19).sin())
                .collect();
            sass_sparse::dense::center(&mut b);
            b
        })
        .collect();
    assert_parity_across_workers(|| {
        let sp = sparsify(&g, &SparsifyConfig::new(40.0)).unwrap();
        let SparsifierSolver::Grounded(solver) = sp.build_solver().unwrap();
        (
            sp.edge_ids(),
            solver.solve(&cols[0]),
            solver.solve_many(&cols),
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heat scoring (the pipeline's dominant per-edge stage) across
    /// random probe/step counts and seeds.
    #[test]
    fn off_tree_heat_parity_randomized(
        side in 4usize..9, t in 1usize..3, r in 1usize..8, seed in 0u64..200
    ) {
        let (g, off, solver) = heat_setup(side, seed);
        let lg = g.laplacian();
        let _guard = pool_guard();
        pool::set_threads(1);
        let serial = off_tree_heat(&g, &off, &lg, &solver, t, r, seed).heat;
        for workers in [2usize, 3, 8] {
            pool::set_threads(workers);
            let got = off_tree_heat(&g, &off, &lg, &solver, t, r, seed).heat;
            pool::set_threads(0);
            prop_assert_eq!(&got, &serial, "workers = {}", workers);
        }
        pool::set_threads(0);
    }

    /// Edge selection: span-ordered concatenation must reproduce the
    /// serial filter's candidate order (and thus the identical final
    /// selection) at every worker count, including with non-finite heats
    /// in the mix.
    #[test]
    fn select_edges_parity_randomized(
        m in 1usize..400, theta in 0.0f64..1.0, max_count in 1usize..64, seed in 0u64..200
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ids: Vec<u32> = (0..m as u32).collect();
        let heats: Vec<f64> = (0..m)
            .map(|_| match rng.gen_range(0u32..20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => rng.gen_range(0.0f64..2.0),
            })
            .collect();
        let heat_max = heats.iter().copied().filter(|h| h.is_finite()).fold(0.0, f64::max);
        let _guard = pool_guard();
        pool::set_threads(1);
        let serial = select_edges(&ids, &heats, heat_max, theta, max_count);
        for workers in [2usize, 3, 8] {
            pool::set_threads(workers);
            let got = select_edges(&ids, &heats, heat_max, theta, max_count);
            pool::set_threads(0);
            prop_assert_eq!(&got, &serial, "workers = {}", workers);
        }
        pool::set_threads(0);
    }
}
