//! The iterative graph densification driver (paper §3.7).
//!
//! Each round: factor the current sparsifier, estimate the extreme
//! generalized eigenvalues, stop if `λmax/λmin ≤ σ²`, otherwise embed the
//! remaining off-tree edges, filter them by normalized Joule heat against
//! `θσ`, prune mutually-similar candidates, add the survivors, repeat.
//! Every round's factor comes from [`GroundedSolver`], which peels every
//! vertex of degree at most two in `O(n + nnz)` and orders and factors
//! only the remaining core with the sparse LDLᵀ. Round 1's sparsifier,
//! the bare spanning tree, peels whole, leaf to root; in later rounds the
//! tree's pendant branches and the chains between recovered edges peel
//! away, and the core is what the configured ordering sees.
//!
//! Each round's sparsifier Laplacian comes straight from
//! [`Graph::laplacian_of_edges`] over the current edge ids in selection
//! order — the tree, then every round's survivors in heat order — so each
//! diagonal entry sums its weights in that order. The tree's
//! [`LcaIndex`](sass_graph::LcaIndex) is built only for
//! [`SimilarityPolicy::PathOverlap`](crate::SimilarityPolicy::PathOverlap),
//! the one policy that queries it.

use crate::embedding::off_tree_heat;
use crate::extremes::{estimate_lambda_max, estimate_lambda_min};
use crate::filter::{heat_threshold, select_edges};
use crate::similarity::prune;
use crate::{Result, RoundStats, Sparsifier, SparsifyConfig};
use sass_graph::{spanning, Graph, RootedTree};
use sass_solver::GroundedSolver;
use sass_sparse::CsrMatrix;

/// Runs similarity-aware spectral sparsification on a connected graph.
///
/// Returns a [`Sparsifier`] whose relative condition number against `g` is
/// estimated to be at most `config.sigma2`. The guarantee is as strong as
/// the paper's: `λmax` is a power-iteration lower bound and `λmin` a
/// degree-ratio upper bound, so the reported condition estimate can
/// understate the truth by a modest factor (validated against dense
/// eigensolves in this crate's tests).
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig) if
///   `σ² ≤ 1`, `max_add_frac ≤ 0`, or `t_steps`, `lambda_max_iters` or
///   `max_rounds` is zero,
/// - [`CoreError::Graph`](crate::CoreError::Graph) if `g` is disconnected
///   (no spanning tree),
/// - [`CoreError::Solver`](crate::CoreError::Solver) on factorization
///   failure.
///
/// # Example
///
/// ```
/// use sass_core::{sparsify, SparsifyConfig};
/// use sass_graph::generators::{grid2d, WeightModel};
///
/// # fn main() -> Result<(), sass_core::CoreError> {
/// let g = grid2d(16, 16, WeightModel::Unit, 1);
/// let sp = sparsify(&g, &SparsifyConfig::new(200.0))?;
/// assert!(sp.converged());
/// assert!(sp.graph().m() <= g.m());
/// # Ok(())
/// # }
/// ```
pub fn sparsify(g: &Graph, config: &SparsifyConfig) -> Result<Sparsifier> {
    config.validate()?;
    let n = g.n();
    if n <= 1 {
        return Ok(Sparsifier {
            graph: g.clone(),
            tree_edges: Vec::new(),
            added_edges: Vec::new(),
            rounds: Vec::new(),
            converged: true,
            config: config.clone(),
            solver: None,
        });
    }

    let tree_ids = spanning::spanning_tree(g, config.tree)?;
    let rooted = RootedTree::new(g, tree_ids.clone(), 0)?;
    let lca = config.similarity.lca_index(&rooted);
    let lg = g.laplacian();

    let mut current: Vec<u32> = tree_ids.clone();
    let mut off_tree: Vec<u32> = rooted.off_tree_edges(g);
    let mut added: Vec<u32> = Vec::new();
    // Weighted degrees of the sparsifier, maintained incrementally for the
    // λmin degree-ratio estimate.
    let mut p_wdeg = vec![0.0f64; n];
    for &id in &current {
        let e = g.edge(id as usize);
        p_wdeg[e.u as usize] += e.weight;
        p_wdeg[e.v as usize] += e.weight;
    }

    let r = config.resolved_num_vectors(n);
    let budget = ((config.max_add_frac * n as f64).ceil() as usize).max(1);
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut converged = false;
    // The factor of the final edge set, kept for `build_solver`: every
    // exit below measures that set and leaves its solver here.
    let mut final_solver = None;

    for round in 1..=config.max_rounds {
        let round_seed = config.seed ^ (round as u64) << 8;
        let (solver, lambda_max, lambda_min) =
            measure(g, &lg, &current, &p_wdeg, config, round_seed)?;
        let condition = lambda_max / lambda_min;

        if condition <= config.sigma2 || off_tree.is_empty() {
            converged = condition <= config.sigma2;
            rounds.push(RoundStats {
                round,
                edges: current.len(),
                lambda_max,
                lambda_min,
                condition,
                threshold: 1.0,
                candidates: 0,
                added: 0,
            });
            final_solver = Some(solver);
            break;
        }

        let heat = off_tree_heat(
            g,
            &off_tree,
            &lg,
            &solver,
            config.t_steps,
            r,
            config.seed ^ 0x9e37_79b9 ^ (round as u64),
        );
        let theta = heat_threshold(config.sigma2, lambda_min, lambda_max, config.t_steps);
        let candidates = select_edges(&off_tree, &heat.heat, heat.heat_max, theta, budget);
        let accepted = prune(config.similarity, g, &rooted, lca.as_ref(), &candidates);

        rounds.push(RoundStats {
            round,
            edges: current.len(),
            lambda_max,
            lambda_min,
            condition,
            threshold: theta,
            candidates: candidates.len(),
            added: accepted.len(),
        });

        if accepted.is_empty() {
            // Cannot happen while off-tree edges remain (the max-heat edge
            // always passes and the first candidate is always accepted),
            // but guard against stalling anyway.
            final_solver = Some(solver);
            break;
        }
        for &id in &accepted {
            let e = g.edge(id as usize);
            p_wdeg[e.u as usize] += e.weight;
            p_wdeg[e.v as usize] += e.weight;
        }
        current.extend_from_slice(&accepted);
        let accepted_set: std::collections::HashSet<u32> = accepted.iter().copied().collect();
        off_tree.retain(|id| !accepted_set.contains(id));

        if round == config.max_rounds {
            // Final round used its budget; measure once more for the books.
            let (solver, lambda_max, lambda_min) =
                measure(g, &lg, &current, &p_wdeg, config, config.seed ^ 0xdead)?;
            let condition = lambda_max / lambda_min;
            converged = condition <= config.sigma2;
            rounds.push(RoundStats {
                round: round + 1,
                edges: current.len(),
                lambda_max,
                lambda_min,
                condition,
                threshold: 1.0,
                candidates: 0,
                added: 0,
            });
            final_solver = Some(solver);
        }
    }

    current.sort_unstable();
    // tree_ids comes back sorted from spanning_tree(); binary search keeps
    // this provenance split O(m log n) instead of O(m n).
    added.extend(
        current
            .iter()
            .copied()
            .filter(|id| tree_ids.binary_search(id).is_err()),
    );
    Ok(Sparsifier {
        graph: g.subgraph_with_edges(current.iter().copied()),
        tree_edges: tree_ids,
        added_edges: added,
        rounds,
        converged,
        config: config.clone(),
        solver: final_solver,
    })
}

/// Measures the sparsifier on `edge_ids`: factors its Laplacian and
/// estimates λmax of the pencil against `lg` (power iterations seeded by
/// `seed`) and λmin from the sparsifier's weighted degrees `p_wdeg`.
/// Returns the factor with both estimates.
fn measure(
    g: &Graph,
    lg: &CsrMatrix,
    edge_ids: &[u32],
    p_wdeg: &[f64],
    config: &SparsifyConfig,
    seed: u64,
) -> Result<(GroundedSolver, f64, f64)> {
    let lp = g.laplacian_of_edges(edge_ids);
    let solver = GroundedSolver::new(&lp, config.ordering)?;
    let lambda_max = estimate_lambda_max(lg, &lp, &solver, config.lambda_max_iters, seed);
    Ok((solver, lambda_max, estimate_lambda_min(g, p_wdeg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, SimilarityPolicy, SparsifierSolver};
    use sass_eigen::pencil::dense_generalized_eigenvalues;
    use sass_graph::generators::{circuit_grid, fem_mesh2d, grid2d, WeightModel};

    #[test]
    fn meets_sigma2_certified_by_dense_eigensolve() {
        // Small enough for the dense generalized eigensolver to check the
        // actual condition number, not just our estimates.
        let g = fem_mesh2d(9, 9, 5);
        let sigma2 = 30.0;
        let sp = sparsify(&g, &SparsifyConfig::new(sigma2).with_seed(3)).unwrap();
        assert!(sp.converged());
        let vals = dense_generalized_eigenvalues(&g.laplacian(), &sp.graph().laplacian()).unwrap();
        let exact_cond = vals.last().unwrap() / vals.first().unwrap();
        // The estimates can understate the truth (λmax is a lower bound);
        // allow 2x slack on the certified target.
        assert!(
            exact_cond <= 2.0 * sigma2,
            "exact condition {exact_cond} far above target {sigma2}"
        );
    }

    #[test]
    fn tighter_target_keeps_more_edges() {
        let g = circuit_grid(20, 20, 0.15, 11);
        let tight = sparsify(&g, &SparsifyConfig::new(20.0)).unwrap();
        let loose = sparsify(&g, &SparsifyConfig::new(500.0)).unwrap();
        assert!(
            tight.edge_count() > loose.edge_count(),
            "tight {} vs loose {}",
            tight.edge_count(),
            loose.edge_count()
        );
        // Both contain at least the spanning tree.
        assert!(loose.edge_count() >= g.n() - 1);
    }

    #[test]
    fn condition_estimates_decrease_across_rounds() {
        let g = grid2d(24, 24, WeightModel::Unit, 2);
        let sp = sparsify(&g, &SparsifyConfig::new(30.0).with_max_add_frac(0.05)).unwrap();
        let conds: Vec<f64> = sp.rounds().iter().map(|r| r.condition).collect();
        assert!(conds.len() >= 2, "expected multiple rounds, got {conds:?}");
        assert!(
            conds.last().unwrap() < conds.first().unwrap(),
            "conditions did not improve: {conds:?}"
        );
    }

    #[test]
    fn loose_target_returns_tree_only() {
        // With a huge sigma2 the spanning tree alone suffices.
        let g = grid2d(10, 10, WeightModel::Unit, 0);
        let sp = sparsify(&g, &SparsifyConfig::new(1e9)).unwrap();
        assert!(sp.converged());
        assert_eq!(sp.edge_count(), g.n() - 1);
        assert!(sp.added_edge_ids().is_empty());
    }

    #[test]
    fn rejects_bad_configs_and_graphs() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        assert!(matches!(
            sparsify(&g, &SparsifyConfig::new(0.5)),
            Err(CoreError::InvalidConfig { .. })
        ));
        let disconnected = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            sparsify(&disconnected, &SparsifyConfig::new(100.0)),
            Err(CoreError::Graph(_))
        ));
    }

    /// With zero power steps `λmax` would be the Rayleigh quotient of the
    /// random start vector, which certifies the bare spanning tree
    /// (κ ≈ 1.21) here; with zero rounds nothing is measured at all.
    #[test]
    fn rejects_unmeasured_configs() {
        let g = circuit_grid(12, 12, 0.2, 4);
        let mut zero_steps = SparsifyConfig::new(20.0);
        zero_steps.lambda_max_iters = 0;
        assert!(matches!(
            sparsify(&g, &zero_steps),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sparsify(&g, &SparsifyConfig::new(20.0).with_max_rounds(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        // Zero probe vectors would silently run one.
        assert!(matches!(
            sparsify(&g, &SparsifyConfig::new(20.0).with_num_vectors(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn every_exit_carries_the_final_factor() {
        let g = circuit_grid(12, 12, 0.2, 4);
        for config in [
            SparsifyConfig::new(20.0),                    // converges
            SparsifyConfig::new(1e9),                     // the tree suffices
            SparsifyConfig::new(1.05).with_max_rounds(1), // capped: re-measured
        ] {
            let sp = sparsify(&g, &config).unwrap();
            let solver = sp.grounded_solver().expect("a factor for n > 1");
            assert_eq!(solver.n(), g.n());
        }
    }

    #[test]
    fn factor_bench_sparsifier_fill_stays_near_exact_minimum_degree() {
        // 6,741 is this sparsifier's nnz(L) under an exact minimum degree
        // ordering; approximate degrees may cost at most 10% more fill.
        let g = circuit_grid(48, 48, 0.1, 9);
        let sp = sparsify(&g, &SparsifyConfig::new(200.0).with_seed(1)).unwrap();
        let solver = GroundedSolver::new(&sp.graph().laplacian(), sp.config().ordering).unwrap();
        let nnz = solver.nnz_factor();
        assert!(nnz as f64 <= 1.10 * 6741.0, "nnz(L) = {nnz}");
    }

    #[test]
    fn trivial_graphs() {
        let single = Graph::from_edges(1, &[]).unwrap();
        let sp = sparsify(&single, &SparsifyConfig::new(10.0)).unwrap();
        assert!(sp.converged());
        assert_eq!(sp.edge_count(), 0);
        assert!(sp.grounded_solver().is_none());
        // No carried factor: `build_solver` factors `graph().laplacian()`.
        let SparsifierSolver::Grounded(solver) = sp.build_solver().unwrap();
        assert_eq!(solver.n(), 1);
        let empty = Graph::from_edges(0, &[]).unwrap();
        let sp = sparsify(&empty, &SparsifyConfig::new(10.0)).unwrap();
        assert!(matches!(sp.build_solver(), Err(CoreError::Solver(_))));
    }

    #[test]
    fn deterministic_for_seed() {
        let g = circuit_grid(12, 12, 0.2, 4);
        let a = sparsify(&g, &SparsifyConfig::new(50.0).with_seed(7)).unwrap();
        let b = sparsify(&g, &SparsifyConfig::new(50.0).with_seed(7)).unwrap();
        assert_eq!(a.edge_ids(), b.edge_ids());
    }

    #[test]
    fn all_similarity_policies_converge() {
        let g = circuit_grid(14, 14, 0.1, 9);
        for policy in [
            SimilarityPolicy::None,
            SimilarityPolicy::EndpointMark,
            SimilarityPolicy::PathOverlap { max_overlap: 0.5 },
        ] {
            let sp = sparsify(&g, &SparsifyConfig::new(80.0).with_similarity(policy)).unwrap();
            assert!(sp.converged(), "{policy:?} failed to converge");
        }
    }

    /// `sparsify` on a fixed circuit grid, pinned bit for bit: every
    /// `RoundStats` field (floats by bit pattern) and the selected edge
    /// ids (count and FNV-1a hash of their little-endian `u64` bytes).
    ///
    /// Round 1 runs against the bare spanning tree. Its λmax, condition
    /// and threshold were re-recorded when tree-patterned matrices moved
    /// from AMD plus the sparse LDLᵀ to the leaf-to-root elimination: the
    /// two eliminations round differently, so those three values moved by
    /// about 1e-13 relative. `SPARSE_TREE_ROUND` keeps the values the
    /// sparse LDLᵀ gave, and the test bounds the drift from them.
    ///
    /// Rounds 2–6's λmax, condition and threshold were re-recorded when
    /// the grounded solver began peeling every degree-≤2 vertex before
    /// factoring the core: the peel eliminates in a different order than
    /// AMD over the whole matrix, so those values moved by rounding (about
    /// 1e-13 relative). `WHOLE_MATRIX_ROUNDS` keeps the values the
    /// whole-matrix LDLᵀ gave, and the test bounds the drift from them.
    /// Every other value — the counts, every λmin, round 1 (the tree peels
    /// exactly as the leaf-to-root elimination did) and the edge set — is
    /// unchanged by either move, and nothing else may move it.
    #[test]
    fn golden_rounds_and_edges_on_circuit_grid() {
        let g = circuit_grid(24, 24, 0.1, 3);
        let sp = sparsify(&g, &SparsifyConfig::new(50.0)).unwrap();
        let counts: Vec<_> = sp
            .rounds()
            .iter()
            .map(|r| (r.edges, r.candidates, r.added))
            .collect();
        let floats: Vec<_> = sp
            .rounds()
            .iter()
            .map(|r| [r.lambda_max, r.lambda_min, r.condition, r.threshold].map(f64::to_bits))
            .collect();
        // (edges, candidates, added), then λmax, λmin, condition and
        // threshold bits, per round.
        #[rustfmt::skip]
        const GOLDEN_COUNTS: [(usize, usize, usize); 6] =
            [(575, 144, 123), (698, 4, 4), (702, 1, 1), (703, 1, 1), (704, 1, 1), (705, 0, 0)];
        #[rustfmt::skip]
        const GOLDEN_FLOATS: [[u64; 4]; 6] = [
            [0x4099975635ebb07b, 0x3ff0000000000000, 0x4099975635ebb07b, 0x3e5c7888bdbcb474],
            [0x40501057afe939f8, 0x3fefffffffffffff, 0x40501057afe939f9, 0x3fd2425fa7ef2a13],
            [0x404a08b1f1c2a408, 0x3fefffffffffffff, 0x404a08b1f1c2a409, 0x3fea216b35d65a42],
            [0x4049b7a65c3f2e4a, 0x3fefffffffffffff, 0x4049b7a65c3f2e4b, 0x3febc76af09270dd],
            [0x4049a6dac27bb323, 0x3fefffffffffffff, 0x4049a6dac27bb324, 0x3fec22d313c3bdf1],
            [0x403ed192d642dcf1, 0x3fefffffffffffff, 0x403ed192d642dcf2, 0x3ff0000000000000],
        ];
        // Round 1's λmax, condition and threshold under AMD plus the
        // sparse LDLᵀ of the tree.
        const SPARSE_TREE_ROUND: [u64; 3] =
            [0x4099975635ebac32, 0x4099975635ebac32, 0x3e5c7888bdbccc4a];
        // Rounds 2–6's λmax, condition and threshold under the LDLᵀ of the
        // whole grounded matrix.
        #[rustfmt::skip]
        const WHOLE_MATRIX_ROUNDS: [[u64; 3]; 5] = [
            [0x40501057afe93a1f, 0x40501057afe93a20, 0x3fd2425fa7ef2936],
            [0x404a08b1f1c2a1dd, 0x404a08b1f1c2a1de, 0x3fea216b35d66523],
            [0x4049b7a65c3f2f93, 0x4049b7a65c3f2f94, 0x3febc76af09269ec],
            [0x4049a6dac27bb4a5, 0x4049a6dac27bb4a6, 0x3fec22d313c3b5aa],
            [0x403ed192d642dd2f, 0x403ed192d642dd30, 0x3ff0000000000000],
        ];
        assert_eq!(counts, GOLDEN_COUNTS);
        assert_eq!(floats, GOLDEN_FLOATS);
        let round1 = [floats[0][0], floats[0][2], floats[0][3]];
        for ((new, old), tol) in round1.iter().zip(SPARSE_TREE_ROUND).zip([1e-9, 1e-9, 1e-8]) {
            let (new, old) = (f64::from_bits(*new), f64::from_bits(old));
            assert!((new - old).abs() <= tol * old.abs(), "{new} vs {old}");
        }
        for (round, old) in floats[1..].iter().zip(WHOLE_MATRIX_ROUNDS) {
            for (&new, old) in [round[0], round[2], round[3]].iter().zip(old) {
                let (new, old) = (f64::from_bits(new), f64::from_bits(old));
                assert!((new - old).abs() <= 1e-9 * old.abs(), "{new} vs {old}");
            }
        }
        assert!(sp.rounds().iter().map(|r| r.round).eq(1..=6));
        assert!(sp.converged());
        let ids = sp.edge_ids();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in ids.iter().flat_map(|&id| u64::from(id).to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!((ids.len(), h), (705, 0x1ddf_822c_6df5_c781));
    }

    #[test]
    fn provenance_partitions_edges() {
        let g = circuit_grid(10, 10, 0.2, 1);
        let sp = sparsify(&g, &SparsifyConfig::new(30.0)).unwrap();
        let total = sp.tree_edge_ids().len() + sp.added_edge_ids().len();
        assert_eq!(total, sp.edge_count());
        // Tree and added sets are disjoint.
        for id in sp.added_edge_ids() {
            assert!(!sp.tree_edge_ids().contains(id));
        }
    }
}
