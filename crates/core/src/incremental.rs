//! Incremental sparsification under edge churn: localized re-filtering
//! plus elimination-tree-subtree factor patching.
//!
//! The batch pipeline ([`sparsify`](crate::sparsify)) recomputes
//! everything from scratch; for workloads that edit a handful of edges
//! between solves (circuit back-annotation, interactive partitioning,
//! streaming graphs) that is almost entirely wasted work. This module
//! maintains a live sparsifier across edits by splitting the pipeline
//! into a **frozen scoring basis** and the cheap per-edit work that
//! re-evaluates against it:
//!
//! - The probe iterates ([`probe_embedding`]) and the heat threshold
//!   `θσ` are computed once at construction and then **frozen**. Both run
//!   against the spanning-tree backbone, whose Laplacian the grounded
//!   solver peels whole, leaf to root in `O(n)`, with an empty core and no
//!   ordering or LDLᵀ factor. The served factor of the selection peels
//!   its degree-≤2 vertices the same way and factors only the core;
//!   value-only edits replay the peel and patch the core's
//!   elimination-tree closure. Joule heat under a fixed embedding is a pure function of each
//!   edge's endpoints and weight, so an edit dirties exactly the edited
//!   edges' heats and no others.
//! - The spanning-tree backbone is the **canonical** maximum-weight
//!   tree, maintained by matroid exchange rules
//!   ([`DynamicTree`]) — bit-identical after every edit to what
//!   from-scratch Kruskal on the edited graph would build.
//! - The grounded LDLᵀ factor of the selected subgraph is **patched**:
//!   numeric factorization re-runs only on the elimination-tree
//!   ancestor closure of the changed columns
//!   ([`sass_solver::GroundedSolver::refactor`]), falling back to a
//!   full numeric pass past a fill-ratio crossover and to a full
//!   rebuild on a sparsity-pattern change.
//!
//! The maintained invariant, pinned by [`IncrementalSparsifier::oracle_rebuild`]
//! and the crate's proptests: after any edit sequence, the selected
//! edge set and the factor are **identical** — bit for bit — to
//! re-running selection and factorization from scratch on the current
//! graph with the same frozen basis.

use std::collections::{BTreeMap, BTreeSet};

use crate::embedding::{heat_from_embedding, probe_embedding};
use crate::extremes::{estimate_lambda_max, estimate_lambda_min};
use crate::filter::{heat_threshold, select_edges};
use crate::similarity::prune;
use crate::{CoreError, Result, SparsifyConfig};
use sass_graph::spanning::{max_weight_spanning_tree, DynamicTree};
use sass_graph::{Graph, GraphEdit, LcaIndex, RootedTree};
use sass_solver::GroundedSolver;
use sass_sparse::{DenseBlock, RefactorStats};

/// Affected-fraction threshold past which a partial numeric
/// refactorization gives up and re-runs every column (the ancestor
/// closure has grown so large that masking overhead outweighs the skip).
const REFACTOR_CROSSOVER: f64 = 0.25;

/// What one [`IncrementalSparsifier::apply_edits`] batch did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnReport {
    /// Off-tree/edge heats re-scored against the frozen embedding (the
    /// dirty set: exactly the edited edges plus any new ids).
    pub dirty_edges: usize,
    /// Whether the selected edge set (as vertex pairs) changed.
    pub selection_changed: bool,
    /// Factor maintenance performed: `None` when the selected subgraph
    /// was untouched (zero factor work), otherwise the partial/full
    /// refactorization statistics.
    pub refactor: Option<RefactorStats>,
}

/// Accumulated schedule-reuse statistics over the lifetime of an
/// [`IncrementalSparsifier`] — the `table2` diagnostics report these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnTotals {
    /// Edit batches applied.
    pub batches: usize,
    /// Individual edits across all batches.
    pub edits: usize,
    /// Columns whose numeric factorization re-ran (partial or full).
    pub cols_refactored: usize,
    /// Total factor columns across all refactorizations (the
    /// denominator of the reuse ratio).
    pub cols_total: usize,
    /// Batches that fell back to a full numeric pass or rebuild.
    pub full_refactors: usize,
    /// Batches where the selected subgraph was untouched and the factor
    /// was reused without any numeric work.
    pub factors_skipped: usize,
}

/// A live sparsifier maintained across edge edits.
///
/// Construction runs one full scoring pass (canonical tree, probe
/// embedding, threshold, filter, factor) and freezes the scoring basis;
/// [`IncrementalSparsifier::apply_edits`] then keeps the selection and
/// the grounded factor exactly in sync with the evolving graph at a
/// fraction of the from-scratch cost. To re-freeze the basis once the
/// graph has drifted far from the one it was scored on, construct a new
/// sparsifier on the current graph.
///
/// # Example
///
/// ```
/// use sass_core::incremental::IncrementalSparsifier;
/// use sass_core::SparsifyConfig;
/// use sass_graph::generators::{grid2d, WeightModel};
///
/// # fn main() -> Result<(), sass_core::CoreError> {
/// let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
/// let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(100.0))?;
/// let report = inc.add_edge(0, 63, 1.25)?;
/// assert_eq!(report.dirty_edges, 1);
/// // The maintained state equals a from-scratch recompute, bit for bit.
/// let oracle = inc.oracle_rebuild()?;
/// assert_eq!(inc.selected_edge_ids(), oracle.selected_edge_ids());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSparsifier {
    g: Graph,
    config: SparsifyConfig,
    // Frozen scoring basis.
    embedding: DenseBlock,
    theta: f64,
    // Maintained structures.
    tree: DynamicTree,
    tree_ids: Vec<u32>,
    rooted: RootedTree,
    /// The tree's LCA index, built only for a similarity policy that
    /// queries it.
    lca: Option<LcaIndex>,
    heats: Vec<f64>,
    selected: Vec<u32>,
    solver: GroundedSolver,
    totals: ChurnTotals,
}

impl IncrementalSparsifier {
    /// Builds the sparsifier and freezes the scoring basis.
    ///
    /// The spanning-tree backbone is always the canonical maximum-weight
    /// tree (`config.tree` is ignored): incremental maintenance needs a
    /// tree that is a *unique, deterministic* function of the edge set,
    /// which the randomized/heuristic constructions are not.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for nonsensical knobs or a graph
    /// with fewer than two vertices, [`CoreError::Graph`] if `g` is
    /// disconnected, [`CoreError::Solver`] on factorization failure.
    pub fn new(g: &Graph, config: &SparsifyConfig) -> Result<Self> {
        config.validate()?;
        let n = g.n();
        if n < 2 {
            return Err(CoreError::InvalidConfig {
                context: format!("incremental sparsification needs at least 2 vertices, got {n}"),
            });
        }

        let tree_ids = max_weight_spanning_tree(g)?;
        let rooted = RootedTree::new(g, tree_ids.clone(), 0)?;
        let lp = g.laplacian_of_edges(&tree_ids);
        let tree_solver = GroundedSolver::new(&lp, config.ordering)?;
        let lg = g.laplacian();

        // The frozen basis: probe iterates against the tree backbone, and
        // the threshold from the backbone's condition estimate.
        let r = config.resolved_num_vectors(n);
        let embedding = probe_embedding(&lg, &tree_solver, config.t_steps, r, config.seed);
        let lambda_max = estimate_lambda_max(
            &lg,
            &lp,
            &tree_solver,
            config.lambda_max_iters,
            config.seed ^ 0x1e7,
        );
        let mut p_wdeg = vec![0.0f64; n];
        for &id in &tree_ids {
            let e = g.edge(id as usize);
            p_wdeg[e.u as usize] += e.weight;
            p_wdeg[e.v as usize] += e.weight;
        }
        let lambda_min = estimate_lambda_min(g, &p_wdeg);
        let theta = heat_threshold(config.sigma2, lambda_min, lambda_max, config.t_steps);
        Self::from_basis(g, config, tree_ids, rooted, embedding, theta)
    }

    /// The maintained state on `g` under a frozen basis (`embedding` and
    /// θ) with `tree_ids` as the canonical backbone, rooted at vertex 0 in
    /// `rooted`: the tree's LCA index, every edge's heat, the selection,
    /// its factor and the dynamic tree. [`IncrementalSparsifier::new`] and
    /// [`IncrementalSparsifier::oracle_rebuild`] both build through here.
    fn from_basis(
        g: &Graph,
        config: &SparsifyConfig,
        tree_ids: Vec<u32>,
        rooted: RootedTree,
        embedding: DenseBlock,
        theta: f64,
    ) -> Result<Self> {
        let lca = config.similarity.lca_index(&rooted);
        // Score every edge once; heat under a frozen embedding is a pure
        // per-edge function, so tree/off-tree status can change later
        // without invalidating these values.
        let all_ids: Vec<u32> = (0..g.m() as u32).collect();
        let heats = heat_from_embedding(g, &all_ids, &embedding).heat;
        let selected = Self::select(g, &tree_ids, &rooted, lca.as_ref(), &heats, theta, config);
        let solver = GroundedSolver::new(&g.laplacian_of_edges(&selected), config.ordering)?;
        let tree = DynamicTree::new(g, &tree_ids);
        Ok(IncrementalSparsifier {
            g: g.clone(),
            config: config.clone(),
            embedding,
            theta,
            tree,
            tree_ids,
            rooted,
            lca,
            heats,
            selected,
            solver,
            totals: ChurnTotals::default(),
        })
    }

    /// The frozen filter: selection on `g` given tree, heats and θ. Both
    /// the incremental path and the oracle call exactly this.
    fn select(
        g: &Graph,
        tree_ids: &[u32],
        rooted: &RootedTree,
        lca: Option<&LcaIndex>,
        heats: &[f64],
        theta: f64,
        config: &SparsifyConfig,
    ) -> Vec<u32> {
        // Off-tree ids are the complement of the (sorted) tree ids — a
        // single merge-scan, cheaper than masking the whole edge set.
        let mut off = Vec::with_capacity(g.m() - tree_ids.len());
        let mut next_tree = tree_ids.iter().copied().peekable();
        for id in 0..g.m() as u32 {
            if next_tree.peek() == Some(&id) {
                next_tree.next();
            } else {
                off.push(id);
            }
        }
        let off_heats: Vec<f64> = off.iter().map(|&id| heats[id as usize]).collect();
        let heat_max = off_heats.iter().copied().fold(0.0, f64::max);
        let budget = ((config.max_add_frac * g.n() as f64).ceil() as usize).max(1);
        let candidates = select_edges(&off, &off_heats, heat_max, theta, budget);
        let mut accepted = prune(config.similarity, g, rooted, lca, &candidates);
        // Merge of two sorted disjoint id lists (tree ∪ accepted).
        accepted.sort_unstable();
        let mut selected = Vec::with_capacity(tree_ids.len() + accepted.len());
        let (mut i, mut j) = (0, 0);
        while i < tree_ids.len() && j < accepted.len() {
            if tree_ids[i] < accepted[j] {
                selected.push(tree_ids[i]);
                i += 1;
            } else {
                selected.push(accepted[j]);
                j += 1;
            }
        }
        selected.extend_from_slice(&tree_ids[i..]);
        selected.extend_from_slice(&accepted[j..]);
        selected
    }

    /// Applies a batch of edits, updating the graph, the canonical tree,
    /// the dirty heats, the selection and the factor — everything a
    /// from-scratch recompute with the same frozen basis would produce,
    /// at localized cost.
    ///
    /// Edits apply sequentially with [`Graph::apply_edits`] semantics
    /// (`AddEdge` merges by weight summation, `RemoveEdge` deletes the
    /// edge entirely). On error nothing is modified.
    ///
    /// # Errors
    ///
    /// [`CoreError::Graph`] for invalid edits or an edit that
    /// disconnects the graph, [`CoreError::Solver`] if the patched
    /// factorization hits a zero pivot.
    pub fn apply_edits(&mut self, edits: &[GraphEdit]) -> Result<ChurnReport> {
        if edits.is_empty() {
            return Ok(ChurnReport {
                dirty_edges: 0,
                selection_changed: false,
                refactor: None,
            });
        }
        // The graph first: validates the whole batch atomically.
        let (g2, map) = self.g.apply_edits(edits)?;

        // Replay the edits on a scratch copy of the tree under the
        // matroid exchange rules, tracking the dirty vertex pairs and
        // whether the tree's pair set changed. A small overlay over the
        // base edge list supplies merged weights for offers and the
        // current edge set for cut repair; `DynamicTree::remove` only
        // consumes that set on a genuine tree-edge cut, so off-tree
        // removals never pay for the scan.
        let mut dt = self.tree.clone();
        let mut overlay: BTreeMap<(u32, u32), Option<f64>> = BTreeMap::new();
        let mut dirty_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut topo_changed = false;
        for edit in edits {
            match *edit {
                GraphEdit::AddEdge { u, v, weight } => {
                    let (a, b) = (u.min(v) as u32, u.max(v) as u32);
                    let base = match overlay.get(&(a, b)) {
                        Some(&state) => state,
                        None => self
                            .g
                            .find_edge(a as usize, b as usize)
                            .map(|id| self.g.edge(id as usize).weight),
                    };
                    let w = base.unwrap_or(0.0) + weight;
                    overlay.insert((a, b), Some(w));
                    if dt.offer(a, b, w).is_some() {
                        topo_changed = true;
                    }
                    dirty_pairs.insert((a, b));
                }
                GraphEdit::RemoveEdge { u, v } => {
                    let (a, b) = (u.min(v) as u32, u.max(v) as u32);
                    overlay.insert((a, b), None);
                    // Pairs born inside this batch (absent from the base
                    // edge list) chained after the overlay-filtered base.
                    let born: Vec<(u32, u32, f64)> = overlay
                        .iter()
                        .filter_map(|(&(x, y), &state)| match state {
                            Some(w) if self.g.find_edge(x as usize, y as usize).is_none() => {
                                Some((x, y, w))
                            }
                            _ => None,
                        })
                        .collect();
                    let current = self
                        .g
                        .edges()
                        .iter()
                        .filter_map(|e| match overlay.get(&(e.u, e.v)) {
                            Some(&Some(w)) => Some((e.u, e.v, w)),
                            Some(&None) => None,
                            None => Some((e.u, e.v, e.weight)),
                        })
                        .chain(born);
                    if dt.remove(a, b, current)?.is_some() {
                        topo_changed = true;
                    }
                    dirty_pairs.insert((a, b));
                }
            }
        }
        // Tree edge ids in the edited graph. A topology-preserving batch
        // keeps every tree pair, so the old ids remap through the edit
        // map (which is monotone — the result stays sorted); otherwise
        // rebuild from the maintained pair set.
        let tree_ids: Vec<u32> = if topo_changed {
            let mut ids: Vec<u32> = dt
                .pairs()
                .iter()
                .map(|&(u, v)| {
                    g2.find_edge(u as usize, v as usize)
                        .expect("maintained tree edge must exist in the edited graph")
                })
                .collect();
            ids.sort_unstable();
            ids
        } else {
            self.tree_ids
                .iter()
                .map(|&id| {
                    map.new_id(id)
                        .expect("a topology-preserving batch keeps every tree edge")
                })
                .collect()
        };
        // Rooted view and LCA index: when the topology survived, remap
        // the existing rooted structure (recomputing path resistances
        // from the edited weights) and keep the LCA index, which depends
        // only on parent/depth topology; otherwise rebuild both.
        let remapped = if topo_changed {
            None
        } else {
            self.rooted.remapped(&g2, |id| map.new_id(id))
        };
        let (rooted, lca_new) = match remapped {
            Some(r) => (r, None),
            None => {
                let r = RootedTree::new(&g2, tree_ids.clone(), 0)?;
                let l = self.config.similarity.lca_index(&r);
                (r, Some(l))
            }
        };
        let lca = lca_new.as_ref().unwrap_or(&self.lca).as_ref();

        // Heat maintenance: carry clean heats across the id renumbering;
        // re-score exactly the dirty set against the frozen embedding.
        let m2 = g2.m();
        let mut heats = vec![f64::NAN; m2];
        for old_id in 0..map.old_m() {
            if let Some(nid) = map.new_id(old_id as u32) {
                heats[nid as usize] = self.heats[old_id];
            }
        }
        let mut dirty: Vec<u32> = Vec::new();
        for (id, heat) in heats.iter().enumerate() {
            let e = g2.edge(id);
            if dirty_pairs.contains(&(e.u, e.v)) || !heat.is_finite() {
                dirty.push(id as u32);
            }
        }
        let rescored = heat_from_embedding(&g2, &dirty, &self.embedding);
        for (k, &id) in dirty.iter().enumerate() {
            heats[id as usize] = rescored.heat[k];
        }

        let selected = Self::select(
            &g2,
            &tree_ids,
            &rooted,
            lca,
            &heats,
            self.theta,
            &self.config,
        );

        // Factor maintenance: diff the selected subgraphs as weighted
        // vertex pairs (ids are renumbered, pairs are stable). Identical
        // pairs and weights ⇒ zero factor work; otherwise the endpoints
        // of every differing pair seed the subtree refactorization. Both
        // selections ascend by edge id and edge lists are pair-sorted,
        // so one merge pass finds every difference.
        let mut changed: Vec<usize> = Vec::new();
        let mut selection_changed = false;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.selected.len() || j < selected.len() {
            let oe = (i < self.selected.len()).then(|| self.g.edge(self.selected[i] as usize));
            let ne = (j < selected.len()).then(|| g2.edge(selected[j] as usize));
            // An exhausted side never advances: its sentinel pair sorts
            // after every real pair.
            let op = oe.map_or((u32::MAX, u32::MAX), |e| (e.u, e.v));
            let np = ne.map_or((u32::MAX, u32::MAX), |e| (e.u, e.v));
            match op.cmp(&np) {
                std::cmp::Ordering::Equal => {
                    let (oe, ne) = (oe.expect("both present"), ne.expect("both present"));
                    if oe.weight != ne.weight {
                        changed.push(oe.u as usize);
                        changed.push(oe.v as usize);
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    selection_changed = true;
                    changed.push(op.0 as usize);
                    changed.push(op.1 as usize);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    selection_changed = true;
                    changed.push(np.0 as usize);
                    changed.push(np.1 as usize);
                    j += 1;
                }
            }
        }
        changed.sort_unstable();
        changed.dedup();
        let refactor = if changed.is_empty() {
            None
        } else {
            let l_new = g2.laplacian_of_edges(&selected);
            Some(self.solver.refactor(&l_new, &changed, REFACTOR_CROSSOVER)?)
        };

        // Commit (everything fallible is behind us).
        self.g = g2;
        self.tree = dt;
        self.tree_ids = tree_ids;
        self.rooted = rooted;
        if let Some(l) = lca_new {
            self.lca = l;
        }
        self.heats = heats;
        self.selected = selected;
        self.totals.batches += 1;
        self.totals.edits += edits.len();
        match &refactor {
            Some(s) => {
                self.totals.cols_refactored += s.cols_refactored;
                self.totals.cols_total += s.total_cols;
                if s.full {
                    self.totals.full_refactors += 1;
                }
            }
            None => self.totals.factors_skipped += 1,
        }
        Ok(ChurnReport {
            dirty_edges: dirty.len(),
            selection_changed,
            refactor,
        })
    }

    /// Single-edge convenience: `AddEdge { u, v, weight }` (merges with
    /// an existing edge by weight summation).
    ///
    /// # Errors
    ///
    /// As [`IncrementalSparsifier::apply_edits`].
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<ChurnReport> {
        self.apply_edits(&[GraphEdit::AddEdge { u, v, weight }])
    }

    /// Single-edge convenience: `RemoveEdge { u, v }` (deletes the edge
    /// entirely).
    ///
    /// # Errors
    ///
    /// As [`IncrementalSparsifier::apply_edits`].
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<ChurnReport> {
        self.apply_edits(&[GraphEdit::RemoveEdge { u, v }])
    }

    /// Ground truth for the maintained contract: re-derives tree,
    /// selection and factor **from scratch** on the current graph with
    /// the same frozen basis. After any edit sequence,
    /// `self.selected_edge_ids() == oracle.selected_edge_ids()` and the
    /// two factors produce bit-identical solves.
    ///
    /// # Errors
    ///
    /// [`CoreError::Graph`] / [`CoreError::Solver`] if the current graph
    /// no longer admits a spanning tree or a factorization (cannot
    /// happen after successful edits).
    pub fn oracle_rebuild(&self) -> Result<IncrementalSparsifier> {
        let tree_ids = max_weight_spanning_tree(&self.g)?;
        let rooted = RootedTree::new(&self.g, tree_ids.clone(), 0)?;
        let embedding = self.embedding.clone();
        Self::from_basis(
            &self.g,
            &self.config,
            tree_ids,
            rooted,
            embedding,
            self.theta,
        )
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Sorted edge ids (in the current graph) of the maintained
    /// selection: spanning tree plus filter survivors.
    pub fn selected_edge_ids(&self) -> &[u32] {
        &self.selected
    }

    /// Sorted edge ids of the canonical spanning-tree backbone.
    pub fn tree_edge_ids(&self) -> &[u32] {
        &self.tree_ids
    }

    /// The maintained grounded factorization of the selected subgraph's
    /// Laplacian.
    pub fn solver(&self) -> &GroundedSolver {
        &self.solver
    }

    /// The frozen normalized-heat threshold `θσ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The configuration this sparsifier was built with.
    pub fn config(&self) -> &SparsifyConfig {
        &self.config
    }

    /// Accumulated schedule-reuse statistics.
    pub fn totals(&self) -> &ChurnTotals {
        &self.totals
    }

    /// Approximate resident bytes held by the maintained state: the
    /// grounded factorization, the frozen probe embedding, the cached
    /// heats, the graph's edge list, and the tree/selection structures.
    ///
    /// This is the accounting unit of the `sass-serve` cache's LRU byte
    /// budget — an estimate of the dominant allocations, not an exact
    /// allocator measurement.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let embedding = self.embedding.nrows() * self.embedding.ncols() * size_of::<f64>();
        let heats = self.heats.len() * size_of::<f64>();
        let edges = self.g.m() * size_of::<sass_graph::Edge>();
        let ids = (self.tree_ids.len() + self.selected.len()) * size_of::<u32>();
        // DynamicTree / RootedTree / LcaIndex are O(n) word structures:
        // parent, depth, weight, and the LCA jump table (~log n levels),
        // which exists only for a policy that queries it.
        let n = self.g.n();
        let lca_levels = match self.lca {
            Some(_) => usize::BITS as usize - n.leading_zeros() as usize,
            None => 0,
        };
        let tree_structs = n * size_of::<u64>() * (4 + lca_levels);
        self.solver.memory_bytes() + embedding + heats + edges + ids + tree_structs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{barabasi_albert, grid2d, WeightModel};
    use sass_sparse::dense;

    fn check_matches_oracle(inc: &IncrementalSparsifier) {
        let oracle = inc.oracle_rebuild().unwrap();
        assert_eq!(
            inc.selected_edge_ids(),
            oracle.selected_edge_ids(),
            "selected edge set drifted from the from-scratch recompute"
        );
        assert_eq!(inc.tree_edge_ids(), oracle.tree_edge_ids());
        // The factor contract: bit-identical solves on shared RHS.
        let n = inc.graph().n();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
        dense::center(&mut b);
        assert_eq!(
            inc.solver().solve(&b),
            oracle.solver().solve(&b),
            "patched factor diverged from the from-scratch factor"
        );
    }

    #[test]
    fn single_add_matches_oracle() {
        let g = grid2d(9, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(50.0)).unwrap();
        check_matches_oracle(&inc);
        let report = inc.add_edge(0, 80, 1.4).unwrap();
        assert_eq!(report.dirty_edges, 1);
        check_matches_oracle(&inc);
    }

    #[test]
    fn single_remove_matches_oracle() {
        let g = grid2d(9, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(50.0)).unwrap();
        // Remove an off-tree edge (always safe for connectivity).
        let off = inc.rooted.off_tree_edges(&g);
        let e = g.edge(off[off.len() / 2] as usize);
        inc.remove_edge(e.u as usize, e.v as usize).unwrap();
        check_matches_oracle(&inc);
    }

    #[test]
    fn tree_edge_removal_matches_oracle() {
        let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 9);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(80.0)).unwrap();
        // Remove a spanning-tree edge: the exchange rules must adopt the
        // strongest cut-crossing replacement (the grid stays connected).
        let tid = inc.tree_edge_ids()[10];
        let e = g.edge(tid as usize);
        let report = inc.remove_edge(e.u as usize, e.v as usize).unwrap();
        assert!(report.selection_changed);
        check_matches_oracle(&inc);
    }

    #[test]
    fn batched_edits_match_oracle_on_scale_free() {
        let g = barabasi_albert(300, 3, 43);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(60.0)).unwrap();
        let edits = vec![
            GraphEdit::AddEdge {
                u: 0,
                v: 299,
                weight: 0.8,
            },
            GraphEdit::AddEdge {
                u: 5,
                v: 250,
                weight: 1.6,
            },
            GraphEdit::RemoveEdge { u: 0, v: 299 },
            GraphEdit::AddEdge {
                u: 1,
                v: 2,
                weight: 0.5,
            }, // likely a merge
        ];
        let report = inc.apply_edits(&edits).unwrap();
        assert!(report.dirty_edges >= 2);
        check_matches_oracle(&inc);
        // And again on top — churn compounds.
        inc.apply_edits(&[GraphEdit::AddEdge {
            u: 10,
            v: 200,
            weight: 2.2,
        }])
        .unwrap();
        check_matches_oracle(&inc);
    }

    #[test]
    fn disconnecting_edit_fails_atomically() {
        // A path graph: removing any interior edge disconnects it.
        let g =
            Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]).unwrap();
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(50.0)).unwrap();
        let before = inc.clone();
        let err = inc.remove_edge(1, 2).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)));
        assert_eq!(inc.selected_edge_ids(), before.selected_edge_ids());
        assert_eq!(inc.graph().m(), before.graph().m());
        // Still fully usable afterwards.
        inc.add_edge(0, 4, 2.0).unwrap();
        check_matches_oracle(&inc);
    }

    #[test]
    fn untouched_selection_skips_factor_work() {
        let g = grid2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(30.0)).unwrap();
        // A feather-weight off-tree edge far below the threshold: scored,
        // rejected, selection unchanged, factor untouched.
        let report = inc.add_edge(0, 99, 1e-9).unwrap();
        if !report.selection_changed {
            assert_eq!(report.refactor, None);
            assert_eq!(inc.totals().factors_skipped, 1);
        }
        check_matches_oracle(&inc);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let tiny = Graph::from_edges(1, &[]).unwrap();
        assert!(matches!(
            IncrementalSparsifier::new(&tiny, &SparsifyConfig::new(50.0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        assert!(matches!(
            IncrementalSparsifier::new(&g, &SparsifyConfig::new(0.5)),
            Err(CoreError::InvalidConfig { .. })
        ));
        // The same validation as `sparsify`: a zero-step λmax estimate
        // sets θ from a random Rayleigh quotient.
        let mut zero_steps = SparsifyConfig::new(50.0);
        zero_steps.lambda_max_iters = 0;
        assert!(matches!(
            IncrementalSparsifier::new(&g, &zero_steps),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            IncrementalSparsifier::new(&g, &SparsifyConfig::new(50.0).with_max_rounds(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            IncrementalSparsifier::new(&g, &SparsifyConfig::new(50.0).with_num_vectors(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        for w in words {
            h.write(&w.to_le_bytes());
        }
        h.finish()
    }

    /// The served construction pinned bit for bit: θ, the selection
    /// (count and hash of its ids), the factor's fill, and one solve's
    /// bits, on a mesh and on a scale-free graph at σ² = 100. The values
    /// were recorded before `new` and `oracle_rebuild` shared one
    /// constructor. The fill and the solve's bits were re-recorded when
    /// the grounded solver began peeling every degree-≤2 vertex before
    /// factoring the core (mesh fill 1412 → 1408; solve hashes
    /// 0xf8fe76e5e2ebb29c and 0xd38f1ca5cebe8f92 before); θ and the
    /// selection did not move.
    #[test]
    fn golden_construction_on_grid_and_scale_free() {
        let cases = [
            (
                grid2d(24, 24, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3),
                (
                    0x3f07d1624dd9858e,
                    704,
                    0x5c7b4f7f023aed5d,
                    1408,
                    0xefbdfd8dddc9616f,
                ),
            ),
            (
                barabasi_albert(600, 3, 5),
                (
                    0x3ee6e4f046b6a24a,
                    729,
                    0x6da7d208ba982d82,
                    919,
                    0x652010f0641f06ae,
                ),
            ),
        ];
        for (g, golden) in &cases {
            let inc = IncrementalSparsifier::new(g, &SparsifyConfig::new(100.0)).unwrap();
            let ids = inc.selected_edge_ids();
            let n = g.n();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
            let x = inc.solver().solve(&b);
            let got = (
                inc.theta().to_bits(),
                ids.len(),
                fnv(ids.iter().map(|&id| u64::from(id))),
                inc.solver().nnz_factor(),
                fnv(x.iter().map(|v| v.to_bits())),
            );
            assert_eq!(&got, golden, "n = {n}");
        }
    }

    #[test]
    fn churn_totals_accumulate() {
        let g = grid2d(9, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 13);
        let mut inc = IncrementalSparsifier::new(&g, &SparsifyConfig::new(40.0)).unwrap();
        inc.add_edge(0, 80, 1.7).unwrap();
        inc.add_edge(3, 77, 1.3).unwrap();
        let t = inc.totals();
        assert_eq!(t.batches, 2);
        assert_eq!(t.edits, 2);
        assert!(t.cols_total == 0 || t.cols_refactored <= t.cols_total);
    }
}
