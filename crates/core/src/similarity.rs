//! Similarity-aware pruning of candidate off-tree edges (paper §3.7 step 6).
//!
//! Two off-tree edges are *spectrally similar* when they fix the same large
//! generalized eigenvalue — adding both wastes budget. The paper prescribes
//! "check the similarity of each selected off-tree edge and only add
//! dissimilar edges" without fixing the test, so this module offers three
//! policies of increasing fidelity/cost (ablated in `sass-bench`):
//!
//! - [`SimilarityPolicy::None`]: accept everything the filter passed,
//! - [`SimilarityPolicy::EndpointMark`] *(default)*: accept an edge only if
//!   at least one endpoint is untouched by a previously accepted edge this
//!   round — a cheap proxy for "fixes a different eigenvector",
//! - [`SimilarityPolicy::PathOverlap`]: accept an edge only if at most a
//!   fraction of its tree path is already covered by accepted edges — the
//!   closest to the spectral meaning (overlapping tree paths ⇒ overlapping
//!   heat), at the cost of walking tree paths.
//!
//! Unlike the heat scoring and filtering stages, nothing here routes
//! through the SIMD kernel layer ([`sass_sparse::kernel`]): the policies
//! are boolean endpoint marking and tree-path walks with no
//! floating-point inner loops for a vector unit to help with.

use sass_graph::{Graph, LcaIndex, RootedTree};

/// Policy deciding which filtered candidate edges are mutually redundant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum SimilarityPolicy {
    /// No pruning.
    None,
    /// Skip edges whose both endpoints were already touched this round.
    #[default]
    EndpointMark,
    /// Skip edges whose tree path is more than `max_overlap` covered by
    /// previously accepted edges this round (`0.0 ⇒ disjoint paths only`).
    PathOverlap {
        /// Maximum tolerated covered fraction of the candidate's tree path.
        max_overlap: f64,
    },
}

/// Applies the policy to heat-descending candidates, returning the accepted
/// edge ids (still heat-descending).
///
/// `candidates` must be sorted by descending heat (as produced by
/// [`crate::filter::select_edges`]) so that the highest-impact edge of each
/// similarity class is the one kept.
///
/// # Panics
///
/// Panics if an edge id is out of range for `g`.
///
/// # Example
///
/// ```
/// use sass_core::similarity::{filter_similar, SimilarityPolicy};
/// use sass_graph::{spanning, Graph, LcaIndex, RootedTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
///                                (0, 2, 1.0), (0, 3, 1.0)])?;
/// let tree = RootedTree::new(&g, spanning::bfs_spanning_tree(&g, 0)?, 0)?;
/// let lca = LcaIndex::new(&tree);
/// let candidates: Vec<(u32, f64)> =
///     tree.off_tree_edges(&g).into_iter().map(|id| (id, 1.0)).collect();
/// let kept = filter_similar(SimilarityPolicy::EndpointMark, &g, &tree, &lca, &candidates);
/// assert!(!kept.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn filter_similar(
    policy: SimilarityPolicy,
    g: &Graph,
    tree: &RootedTree,
    lca: &LcaIndex,
    candidates: &[(u32, f64)],
) -> Vec<u32> {
    prune(policy, g, tree, Some(lca), candidates)
}

impl SimilarityPolicy {
    /// The tree's [`LcaIndex`] if the policy queries lowest common
    /// ancestors — only [`SimilarityPolicy::PathOverlap`] does — and `None`
    /// otherwise, so the other policies never pay for the index.
    pub(crate) fn lca_index(self, tree: &RootedTree) -> Option<LcaIndex> {
        matches!(self, SimilarityPolicy::PathOverlap { .. }).then(|| LcaIndex::new(tree))
    }
}

/// [`filter_similar`] with the LCA index optional: `lca` may be `None`
/// unless `policy.lca_index` builds one.
///
/// # Panics
///
/// Panics if the policy needs the index and `lca` is `None`, or if an
/// edge id is out of range for `g`.
pub(crate) fn prune(
    policy: SimilarityPolicy,
    g: &Graph,
    tree: &RootedTree,
    lca: Option<&LcaIndex>,
    candidates: &[(u32, f64)],
) -> Vec<u32> {
    match policy {
        SimilarityPolicy::None => candidates.iter().map(|&(id, _)| id).collect(),
        SimilarityPolicy::EndpointMark => {
            let mut touched = vec![false; g.n()];
            let mut accepted = Vec::new();
            for &(id, _) in candidates {
                let e = g.edge(id as usize);
                let (u, v) = (e.u as usize, e.v as usize);
                if touched[u] && touched[v] {
                    continue;
                }
                touched[u] = true;
                touched[v] = true;
                accepted.push(id);
            }
            accepted
        }
        SimilarityPolicy::PathOverlap { max_overlap } => {
            let lca = lca.expect("PathOverlap needs the tree's LCA index");
            let mut covered = vec![false; g.m()];
            let mut accepted = Vec::new();
            let mut path: Vec<u32> = Vec::new();
            for &(id, _) in candidates {
                let e = g.edge(id as usize);
                let (u, v) = (e.u as usize, e.v as usize);
                let l = lca.lca(u, v);
                path.clear();
                let mut walk = |mut x: usize| {
                    while x != l {
                        let pe = tree.parent_edge(x).expect("non-root on path has parent");
                        path.push(pe);
                        x = tree.parent(x).expect("non-root on path has parent");
                    }
                };
                walk(u);
                walk(v);
                let overlap = path.iter().filter(|&&pe| covered[pe as usize]).count() as f64;
                if path.is_empty() || overlap / path.len() as f64 <= max_overlap {
                    for &pe in &path {
                        covered[pe as usize] = true;
                    }
                    accepted.push(id);
                }
            }
            accepted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::spanning;

    /// Ladder graph: two rails 0-1-2-3 and 4-5-6-7 plus rungs.
    fn ladder() -> (Graph, RootedTree, LcaIndex) {
        let mut edges = Vec::new();
        for i in 0..3 {
            edges.push((i, i + 1, 1.0));
            edges.push((i + 4, i + 5, 1.0));
        }
        for i in 0..4 {
            edges.push((i, i + 4, 1.0));
        }
        let g = Graph::from_edges(8, &edges).unwrap();
        let ids = spanning::bfs_spanning_tree(&g, 0).unwrap();
        let tree = RootedTree::new(&g, ids, 0).unwrap();
        let lca = LcaIndex::new(&tree);
        (g, tree, lca)
    }

    fn off_tree_candidates(g: &Graph, tree: &RootedTree) -> Vec<(u32, f64)> {
        tree.off_tree_edges(g)
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, 100.0 - i as f64)) // fake descending heats
            .collect()
    }

    #[test]
    fn none_accepts_all() {
        let (g, tree, lca) = ladder();
        let cands = off_tree_candidates(&g, &tree);
        let got = filter_similar(SimilarityPolicy::None, &g, &tree, &lca, &cands);
        assert_eq!(got.len(), cands.len());
    }

    #[test]
    fn endpoint_mark_rejects_shared_endpoints() {
        let g = Graph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
            ],
        )
        .unwrap();
        let ids = spanning::bfs_spanning_tree(&g, 0).unwrap();
        let tree = RootedTree::new(&g, ids, 0).unwrap();
        let lca = LcaIndex::new(&tree);
        // Candidates share endpoint 0; with both endpoints already marked
        // after the first acceptance the second must check (0 marked,
        // 3 or 2 fresh) — so both are accepted (only *both*-marked skips).
        let cands: Vec<(u32, f64)> = tree
            .off_tree_edges(&g)
            .into_iter()
            .map(|id| (id, 1.0))
            .collect();
        let got = filter_similar(SimilarityPolicy::EndpointMark, &g, &tree, &lca, &cands);
        assert_eq!(got.len(), 2);
        // But a third edge whose endpoints are both already touched is
        // dropped: simulate by repeating the candidate list.
        let doubled: Vec<(u32, f64)> = cands.iter().chain(&cands).copied().collect();
        let got2 = filter_similar(SimilarityPolicy::EndpointMark, &g, &tree, &lca, &doubled);
        assert_eq!(got2.len(), 2);
    }

    #[test]
    fn path_overlap_zero_keeps_disjoint_paths() {
        let (g, tree, lca) = ladder();
        let cands = off_tree_candidates(&g, &tree);
        let strict = filter_similar(
            SimilarityPolicy::PathOverlap { max_overlap: 0.0 },
            &g,
            &tree,
            &lca,
            &cands,
        );
        let lax = filter_similar(
            SimilarityPolicy::PathOverlap { max_overlap: 1.0 },
            &g,
            &tree,
            &lca,
            &cands,
        );
        assert!(strict.len() <= lax.len());
        assert_eq!(lax.len(), cands.len());
        assert!(!strict.is_empty());
    }

    #[test]
    fn first_candidate_always_accepted() {
        let (g, tree, lca) = ladder();
        let cands = off_tree_candidates(&g, &tree);
        for policy in [
            SimilarityPolicy::None,
            SimilarityPolicy::EndpointMark,
            SimilarityPolicy::PathOverlap { max_overlap: 0.0 },
        ] {
            let got = filter_similar(policy, &g, &tree, &lca, &cands);
            assert_eq!(got.first(), Some(&cands[0].0), "{policy:?}");
        }
    }

    #[test]
    fn empty_candidates() {
        let (g, tree, lca) = ladder();
        let got = filter_similar(SimilarityPolicy::EndpointMark, &g, &tree, &lca, &[]);
        assert!(got.is_empty());
    }
}
