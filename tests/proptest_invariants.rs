//! Property-based tests over randomly generated connected weighted graphs:
//! the structural and spectral invariants every sparsifier run must uphold.

use proptest::prelude::*;
use sass::core::{sparsify, SparsifyConfig};
use sass::graph::{spanning, Graph, GraphBuilder, LcaIndex, RootedTree};
use sass::prelude::*;
use sass::sparse::{dense, LdlFactor};

/// Strategy: a connected weighted graph with `n in [3, 24]` vertices —
/// a random spanning-tree skeleton plus random extra edges.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..24).prop_flat_map(|n| {
        let tree_weights = proptest::collection::vec(0.1f64..10.0, n - 1);
        let extra = proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..10.0), 0..(2 * n));
        (Just(n), tree_weights, extra).prop_map(|(n, tw, extra)| {
            let mut b = GraphBuilder::new(n);
            // Random-ish tree: attach vertex i to a pseudo-random earlier one.
            for (i, w) in tw.iter().enumerate() {
                let v = i + 1;
                let parent = (v * 7 + 3) % (v.max(1));
                b.add_edge(v, parent, *w);
            }
            for (u, v, w) in extra {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparsifier_structural_invariants(g in connected_graph(), sigma2 in 5.0f64..500.0) {
        let sp = sparsify(&g, &SparsifyConfig::new(sigma2).with_seed(1)).unwrap();
        // Subgraph on the same vertex set, spanning, no new edges.
        prop_assert_eq!(sp.graph().n(), g.n());
        prop_assert!(sp.graph().m() <= g.m());
        prop_assert!(sp.graph().m() >= g.n() - 1);
        prop_assert!(sass::graph::traverse::is_connected(sp.graph()));
        // Every sparsifier edge exists in G with the same weight.
        for e in sp.graph().edges() {
            let id = g.find_edge(e.u as usize, e.v as usize);
            prop_assert!(id.is_some());
            let orig = g.edge(id.unwrap() as usize);
            prop_assert!((orig.weight - e.weight).abs() < 1e-12);
        }
        // Tree/added provenance partitions the edge set.
        prop_assert_eq!(
            sp.tree_edge_ids().len() + sp.added_edge_ids().len(),
            sp.graph().m()
        );
    }

    #[test]
    fn stretch_of_tree_edges_is_one_and_total_matches_trace(g in connected_graph()) {
        let ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let tree = RootedTree::new(&g, ids.clone(), 0).unwrap();
        let lca = LcaIndex::new(&tree);
        let stretches = sass::graph::stretch::all_stretches(&g, &tree, &lca);
        for &id in &ids {
            prop_assert!((stretches[id as usize] - 1.0).abs() < 1e-9);
        }
        // Trace identity (paper Eq. 4): st_T(G) = Trace(L_T^+ L_G).
        let p = g.subgraph_with_edges(ids.iter().copied());
        let vals = sass::eigen::pencil::dense_generalized_eigenvalues(
            &g.laplacian(), &p.laplacian()).unwrap();
        let trace: f64 = vals.iter().sum();
        let total: f64 = stretches.iter().sum();
        prop_assert!((trace - total).abs() < 1e-6 * total.max(1.0),
                     "trace {} vs stretch {}", trace, total);
    }

    /// Two independent eliminations of one tree: the grounded solver's
    /// leaf-to-root pass on a BFS spanning tree, against an LDLᵀ of the
    /// explicitly grounded principal submatrix.
    #[test]
    fn tree_solver_agrees_with_direct(g in connected_graph(), seed in 0u64..100) {
        let ids = spanning::bfs_spanning_tree(&g, 0).unwrap();
        let lt = g.laplacian_of_edges(&ids);
        let ts = GroundedSolver::new(&lt, Default::default()).unwrap();
        prop_assert!(ts.factor().is_none());
        let mut keep = vec![true; g.n()];
        keep[0] = false;
        let (reduced, _) = lt.principal_submatrix(&keep);
        let direct = LdlFactor::new(&reduced, Default::default()).unwrap();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        dense::center(&mut b);
        let x1 = ts.solve(&b);
        let mut x2 = direct.solve(&b[1..]);
        x2.insert(0, 0.0);
        dense::center(&mut x2);
        prop_assert!(dense::rel_diff(&x1, &x2) < 1e-8);
    }

    #[test]
    fn pcg_solves_random_laplacian_systems(g in connected_graph(), seed in 0u64..50) {
        let l = g.laplacian();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        dense::center(&mut b);
        let (x, stats) = pcg(&l, &b, &JacobiPrec::new(&l),
                             &PcgOptions { tol: 1e-9, max_iter: 10_000, ..Default::default() });
        prop_assert!(stats.converged);
        prop_assert!(l.residual_norm(&x, &b) < 1e-7);
    }

    #[test]
    fn lca_matches_naive_on_random_trees(g in connected_graph()) {
        let ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let tree = RootedTree::new(&g, ids, 0).unwrap();
        let lca = LcaIndex::new(&tree);
        let naive = |mut u: usize, mut v: usize| {
            while tree.depth(u) > tree.depth(v) { u = tree.parent(u).unwrap(); }
            while tree.depth(v) > tree.depth(u) { v = tree.parent(v).unwrap(); }
            while u != v { u = tree.parent(u).unwrap(); v = tree.parent(v).unwrap(); }
            u
        };
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert_eq!(lca.lca(u, v), naive(u, v));
            }
        }
    }

    #[test]
    fn grounded_solver_is_pseudoinverse(g in connected_graph(), seed in 0u64..50) {
        let l = g.laplacian();
        let solver = GroundedSolver::new(&l, Default::default()).unwrap();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        dense::center(&mut b);
        let x = solver.solve(&b);
        // L x = b and mean(x) = 0.
        prop_assert!(l.residual_norm(&x, &b) < 1e-8);
        prop_assert!(dense::mean(&x).abs() < 1e-10);
    }

    #[test]
    fn laplacian_quadratic_form_is_weighted_edge_sum(g in connected_graph(), seed in 0u64..50) {
        let l = g.laplacian();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let manual: f64 = g.edges().iter()
            .map(|e| e.weight * (x[e.u as usize] - x[e.v as usize]).powi(2))
            .sum();
        let q = l.quad_form(&x);
        prop_assert!((q - manual).abs() < 1e-9 * manual.max(1.0));
    }
}
