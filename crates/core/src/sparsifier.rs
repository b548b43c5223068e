use crate::SparsifyConfig;
use sass_graph::Graph;
use sass_solver::GroundedSolver;

/// Telemetry of one densification round (paper §3.7).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Edges in the sparsifier when the round started.
    pub edges: usize,
    /// `λmax` estimate at the start of the round.
    pub lambda_max: f64,
    /// `λmin` estimate at the start of the round.
    pub lambda_min: f64,
    /// Condition estimate `λmax/λmin` at the start of the round.
    pub condition: f64,
    /// Heat threshold `θσ` used for filtering (1.0 when already converged).
    pub threshold: f64,
    /// Off-tree edges passing the heat filter.
    pub candidates: usize,
    /// Edges actually added after similarity pruning.
    pub added: usize,
}

/// The result of similarity-aware sparsification: the sparsified subgraph
/// plus full provenance (tree backbone, recovered edges, per-round stats).
///
/// Edge ids refer to the *original* graph's edge list.
///
/// A sparsifier of more than one vertex also carries the grounded LDLᵀ
/// factor of its Laplacian, the one its last densification round built
/// to measure the final edge set. [`Sparsifier::build_solver`] hands out
/// that factor instead of factoring again. The factor is held for the
/// sparsifier's lifetime: about 8 MB for the 32,400-vertex circuit-grid
/// sparsifier at σ² = 50 ([`GroundedSolver::memory_bytes`] on
/// [`Sparsifier::grounded_solver`]).
#[derive(Debug, Clone)]
pub struct Sparsifier {
    pub(crate) graph: Graph,
    pub(crate) tree_edges: Vec<u32>,
    pub(crate) added_edges: Vec<u32>,
    pub(crate) rounds: Vec<RoundStats>,
    pub(crate) converged: bool,
    pub(crate) config: SparsifyConfig,
    pub(crate) solver: Option<GroundedSolver>,
}

impl Sparsifier {
    /// The sparsified graph `P` (same vertex set as the input).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the sparsifier, returning the subgraph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Host-graph ids of the spanning-tree backbone edges.
    pub fn tree_edge_ids(&self) -> &[u32] {
        &self.tree_edges
    }

    /// Host-graph ids of the off-tree edges recovered by filtering.
    pub fn added_edge_ids(&self) -> &[u32] {
        &self.added_edges
    }

    /// Host-graph ids of all sparsifier edges (tree + recovered), sorted.
    pub fn edge_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .tree_edges
            .iter()
            .chain(&self.added_edges)
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Per-round telemetry, in order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Whether the `σ²` target was certified met by the estimates.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The final condition estimate `λmax/λmin` (from the last round's
    /// measurement).
    pub fn condition_estimate(&self) -> f64 {
        self.rounds.last().map_or(1.0, |r| r.condition)
    }

    /// Edge count of the sparsifier.
    pub fn edge_count(&self) -> usize {
        self.graph.m()
    }

    /// Density `|Es| / |V|` — the paper's Table 2 metric.
    pub fn density(&self) -> f64 {
        if self.graph.n() == 0 {
            0.0
        } else {
            self.graph.m() as f64 / self.graph.n() as f64
        }
    }

    /// The configuration that produced this sparsifier.
    pub fn config(&self) -> &SparsifyConfig {
        &self.config
    }

    /// The grounded factor of this sparsifier's Laplacian that the last
    /// densification round built, or `None` for a graph of at most one
    /// vertex.
    ///
    /// It factors `L_P` as the round assembled it: each weighted degree
    /// summed in edge-selection order, where [`Graph::laplacian`] on
    /// [`Sparsifier::graph`] sums in edge-id order. The two agree except
    /// for last-bit rounding on some diagonal entries, so solves agree to
    /// rounding (not bit for bit) with a factor of `graph().laplacian()`.
    /// [`GroundedSolver::memory_bytes`] reports what it holds.
    pub fn grounded_solver(&self) -> Option<&GroundedSolver> {
        self.solver.as_ref()
    }
}

impl std::fmt::Display for Sparsifier {
    /// Renders a human-readable run report: summary line plus the
    /// per-round densification table.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sparsifier: {} vertices, {} edges ({} tree + {} recovered), \
             target sigma^2 = {}, condition ~{:.1}, {}",
            self.graph.n(),
            self.graph.m(),
            self.tree_edges.len(),
            self.added_edges.len(),
            self.config.sigma2,
            self.condition_estimate(),
            if self.converged {
                "converged"
            } else {
                "NOT converged"
            },
        )?;
        writeln!(
            f,
            "{:>5} {:>8} {:>12} {:>10} {:>10} {:>10} {:>6}",
            "round", "edges", "lambda_max", "lambda_min", "condition", "candidates", "added"
        )?;
        for r in &self.rounds {
            writeln!(
                f,
                "{:>5} {:>8} {:>12.2} {:>10.4} {:>10.1} {:>10} {:>6}",
                r.round, r.edges, r.lambda_max, r.lambda_min, r.condition, r.candidates, r.added
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_are_consistent() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let sp = Sparsifier {
            graph: g.clone(),
            tree_edges: vec![0, 1],
            added_edges: vec![],
            rounds: vec![RoundStats {
                round: 1,
                edges: 2,
                lambda_max: 3.0,
                lambda_min: 1.5,
                condition: 2.0,
                threshold: 1.0,
                candidates: 0,
                added: 0,
            }],
            converged: true,
            config: SparsifyConfig::default(),
            solver: None,
        };
        assert_eq!(sp.edge_count(), 2);
        assert_eq!(sp.edge_ids(), vec![0, 1]);
        assert!((sp.density() - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(sp.condition_estimate(), 2.0);
        assert!(sp.converged());
        assert_eq!(sp.rounds().len(), 1);
        assert_eq!(sp.config().sigma2, 100.0);
        let report = sp.to_string();
        assert!(report.contains("converged"));
        assert!(report.contains("round"));
        assert_eq!(sp.into_graph().m(), 2);
    }
}
