//! The iterative graph densification driver (paper §3.7).
//!
//! Each round: factor the current sparsifier, estimate the extreme
//! generalized eigenvalues, stop if `λmax/λmin ≤ σ²`, otherwise embed the
//! remaining off-tree edges, filter them by normalized Joule heat against
//! `θσ`, prune mutually-similar candidates, add the survivors, repeat.

use crate::embedding::off_tree_heat;
use crate::extremes::{estimate_lambda_max, estimate_lambda_min};
use crate::filter::{heat_threshold, select_edges};
use crate::similarity::filter_similar;
use crate::{Result, RoundStats, Sparsifier, SparsifyConfig};
use sass_graph::{spanning, Graph, LcaIndex, RootedTree};
use sass_solver::GroundedSolver;
use sass_sparse::{CooMatrix, CsrMatrix};

/// Builds the Laplacian of the subgraph of `g` given by `edge_ids` without
/// materializing the subgraph.
fn laplacian_of_edges(g: &Graph, edge_ids: &[u32]) -> CsrMatrix {
    let n = g.n();
    let mut coo = CooMatrix::with_capacity(n, n, n + 2 * edge_ids.len());
    let mut diag = vec![0.0f64; n];
    for &id in edge_ids {
        let e = g.edge(id as usize);
        coo.push(e.u as usize, e.v as usize, -e.weight);
        coo.push(e.v as usize, e.u as usize, -e.weight);
        diag[e.u as usize] += e.weight;
        diag[e.v as usize] += e.weight;
    }
    for (v, &d) in diag.iter().enumerate() {
        coo.push(v, v, d);
    }
    coo.to_csr()
}

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
    let lca = LcaIndex::new(&rooted);
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
        let lp = laplacian_of_edges(g, &current);
        let solver = GroundedSolver::new(&lp, config.ordering)?;
        let lambda_max = estimate_lambda_max(
            &lg,
            &lp,
            &solver,
            config.lambda_max_iters,
            config.seed ^ (round as u64) << 8,
        );
        let lambda_min = estimate_lambda_min(g, &p_wdeg);
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
        let accepted = filter_similar(config.similarity, g, &rooted, &lca, &candidates);

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
            let lp = laplacian_of_edges(g, &current);
            let solver = GroundedSolver::new(&lp, config.ordering)?;
            let lambda_max = estimate_lambda_max(
                &lg,
                &lp,
                &solver,
                config.lambda_max_iters,
                config.seed ^ 0xdead,
            );
            let lambda_min = estimate_lambda_min(g, &p_wdeg);
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
