//! Incremental maintenance of the canonical maximum spanning tree.
//!
//! [`DynamicTree`] holds the canonical tree of an evolving graph as a
//! mutable adjacency structure keyed by vertex pairs (pairs survive the
//! edge-id renumbering of [`Graph::apply_edits`](crate::Graph::apply_edits);
//! ids do not) and applies the classic matroid exchange rules per edit:
//!
//! - **offer** (edge inserted, or an existing edge's weight merged up):
//!   a tree edge only gets stronger, so the tree is unchanged; an
//!   off-tree edge is swapped in iff it beats the weakest edge on its
//!   tree path under the canonical order;
//! - **remove** of an off-tree edge: tree unchanged;
//! - **remove** of a tree edge: the strongest edge crossing the severed
//!   cut is swapped in (or the graph is now disconnected).
//!
//! Because the canonical order ("weight descending, `(u, v)` ascending")
//! is *strict*, the maximum spanning tree is unique, and each exchange
//! step lands exactly on the canonical tree of the edited graph — the
//! incremental tree is bit-identical to a from-scratch
//! [`max_weight_spanning_tree`](super::max_weight_spanning_tree) after
//! every edit. Proptests in `sass-core` pin this across randomized
//! edit sequences.

use super::kruskal::canonical_beats;
use crate::{Graph, GraphError, Result};

/// A mutable spanning tree tracking the canonical maximum spanning tree
/// of a graph under edge churn.
///
/// Stores tree adjacency as `(neighbor, weight)` lists; all queries and
/// updates are pair-keyed. Each update is `O(n)` (a tree path walk or a
/// component marking pass) plus, for tree-edge removals, one `O(m)` scan
/// over the caller-supplied current edge set.
#[derive(Debug, Clone)]
pub struct DynamicTree {
    n: usize,
    adj: Vec<Vec<(u32, f64)>>,
}

impl DynamicTree {
    /// Wraps an existing spanning tree of `g` (edge ids as produced by the
    /// `spanning` constructors).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of bounds or the ids do not form a tree
    /// (|ids| must be `n − 1` for `n > 0`).
    pub fn new(g: &Graph, tree_ids: &[u32]) -> Self {
        let n = g.n();
        assert_eq!(
            tree_ids.len(),
            n.saturating_sub(1),
            "spanning tree of {n} vertices needs {} edges",
            n.saturating_sub(1)
        );
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &id in tree_ids {
            let e = g.edge(id as usize);
            adj[e.u as usize].push((e.v, e.weight));
            adj[e.v as usize].push((e.u, e.weight));
        }
        DynamicTree { n, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `{u, v}` is currently a tree edge.
    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].iter().any(|&(nbr, _)| nbr == v)
    }

    /// The sorted list of tree edges as canonical `(u, v)` pairs.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.n.saturating_sub(1));
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, _) in nbrs {
                if (u as u32) < v {
                    out.push((u as u32, v));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn unlink(&mut self, u: u32, v: u32) {
        self.adj[u as usize].retain(|&(nbr, _)| nbr != v);
        self.adj[v as usize].retain(|&(nbr, _)| nbr != u);
    }

    fn link(&mut self, u: u32, v: u32, w: f64) {
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
    }

    /// The tree path from `u` to `v` as a list of `(a, b, w)` tree edges.
    /// `O(n)`: a parent-recording BFS from `u`, then a parent walk from `v`.
    fn path(&self, u: u32, v: u32) -> Vec<(u32, u32, f64)> {
        let mut parent: Vec<u32> = vec![u32::MAX; self.n];
        let mut pw: Vec<f64> = vec![0.0; self.n];
        let mut queue = vec![u];
        parent[u as usize] = u;
        let mut head = 0;
        'bfs: while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &(nbr, w) in &self.adj[x as usize] {
                if parent[nbr as usize] == u32::MAX {
                    parent[nbr as usize] = x;
                    pw[nbr as usize] = w;
                    if nbr == v {
                        break 'bfs;
                    }
                    queue.push(nbr);
                }
            }
        }
        assert_ne!(parent[v as usize], u32::MAX, "tree is not connected");
        let mut path = Vec::new();
        let mut x = v;
        while x != u {
            let p = parent[x as usize];
            path.push((p.min(x), p.max(x), pw[x as usize]));
            x = p;
        }
        path
    }

    /// Reacts to the graph gaining edge `{u, v}` with (merged) weight `w`
    /// — a brand-new edge or an existing one whose weight increased.
    ///
    /// Returns the swap performed, if any: `(dropped_pair, adopted_pair)`.
    /// A tree edge that merged up only has its stored weight refreshed
    /// (a heavier tree edge still wins every cut it wins today).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds or `u == v`.
    pub fn offer(&mut self, u: u32, v: u32, w: f64) -> Option<((u32, u32), (u32, u32))> {
        assert!(u != v, "self loop offered to the tree");
        assert!((u as usize) < self.n && (v as usize) < self.n);
        let (u, v) = (u.min(v), u.max(v));
        if self.contains(u, v) {
            // Weight refresh: update both directions, keep the edge set.
            for &(a, b) in &[(u, v), (v, u)] {
                for slot in &mut self.adj[a as usize] {
                    if slot.0 == b {
                        slot.1 = w;
                    }
                }
            }
            return None;
        }
        // Weakest edge on the tree path under the canonical order.
        let path = self.path(u, v);
        let &(mu, mv, mw) = path
            .iter()
            .reduce(|min, e| {
                if canonical_beats(min.2, min.0, min.1, e.2, e.0, e.1) {
                    e
                } else {
                    min
                }
            })
            .expect("path between distinct vertices is non-empty");
        if canonical_beats(w, u, v, mw, mu, mv) {
            self.unlink(mu, mv);
            self.link(u, v, w);
            Some(((mu, mv), (u, v)))
        } else {
            None
        }
    }

    /// Reacts to the graph losing edge `{u, v}` entirely.
    ///
    /// Off-tree removals leave the tree unchanged (`Ok(None)`). Removing a
    /// tree edge severs the tree into two components; the strongest edge
    /// crossing the cut — found by scanning `current_edges`, the edge set
    /// of the graph *after* the removal — is swapped in and returned as
    /// `Ok(Some(adopted_pair))`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if no edge crosses the cut
    /// (the edit disconnected the graph); the tree is left unchanged.
    pub fn remove<I>(&mut self, u: u32, v: u32, current_edges: I) -> Result<Option<(u32, u32)>>
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
    {
        let (u, v) = (u.min(v), u.max(v));
        let Some(&(_, w_orig)) = self.adj[u as usize].iter().find(|&&(nbr, _)| nbr == v) else {
            return Ok(None);
        };
        self.unlink(u, v);
        // Mark the component containing u.
        let mut side = vec![false; self.n];
        let mut queue = vec![u];
        side[u as usize] = true;
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &(nbr, _) in &self.adj[x as usize] {
                if !side[nbr as usize] {
                    side[nbr as usize] = true;
                    queue.push(nbr);
                }
            }
        }
        let mut best: Option<(u32, u32, f64)> = None;
        for (a, b, w) in current_edges {
            if side[a as usize] != side[b as usize] {
                let (a, b) = (a.min(b), a.max(b));
                best = match best {
                    Some((ba, bb, bw)) if canonical_beats(bw, ba, bb, w, a, b) => best,
                    _ => Some((a, b, w)),
                };
            }
        }
        match best {
            Some((a, b, w)) => {
                self.link(a, b, w);
                Ok(Some((a, b)))
            }
            None => {
                self.link(u, v, w_orig); // restore the tree exactly as it was
                Err(GraphError::Disconnected { components: 2 })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanning::max_weight_spanning_tree;

    fn pairs_of(g: &Graph, ids: &[u32]) -> Vec<(u32, u32)> {
        let mut p: Vec<(u32, u32)> = ids
            .iter()
            .map(|&id| {
                let e = g.edge(id as usize);
                (e.u, e.v)
            })
            .collect();
        p.sort_unstable();
        p
    }

    #[test]
    fn offer_swaps_in_a_stronger_edge() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        // A strong chord 0-3 displaces the weakest path edge (0, 1).
        let swap = dt.offer(0, 3, 10.0).unwrap();
        assert_eq!(swap, ((0, 1), (0, 3)));
        // Oracle: canonical tree of the edited graph.
        let g2 =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 10.0)]).unwrap();
        let oracle = max_weight_spanning_tree(&g2).unwrap();
        assert_eq!(dt.pairs(), pairs_of(&g2, &oracle));
    }

    #[test]
    fn weak_offer_is_rejected() {
        let g = Graph::from_edges(3, &[(0, 1, 5.0), (1, 2, 5.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        assert!(dt.offer(0, 2, 1.0).is_none());
        assert_eq!(dt.pairs(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn tie_break_matches_canonical_order() {
        // Equal weights everywhere: the chord (0, 2) ties the path edges,
        // beats (1, 2) lexicographically, and loses to (0, 1) — exactly
        // what from-scratch canonical Kruskal picks (ids 0 and 1).
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        assert_eq!(dt.offer(0, 2, 1.0), Some(((1, 2), (0, 2))));
        let g2 = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let oracle = max_weight_spanning_tree(&g2).unwrap();
        assert_eq!(oracle, vec![0, 1]);
        assert_eq!(dt.pairs(), pairs_of(&g2, &oracle));
    }

    #[test]
    fn tree_edge_removal_repairs_across_the_cut() {
        let g =
            Graph::from_edges(4, &[(0, 1, 4.0), (1, 2, 3.0), (2, 3, 2.0), (0, 3, 1.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        assert!(dt.contains(1, 2));
        // Remove tree edge (1, 2); the only crossing edge left is (0, 3).
        let remaining = [(0u32, 1u32, 4.0), (2u32, 3u32, 2.0), (0u32, 3u32, 1.0)];
        let adopted = dt.remove(1, 2, remaining.iter().copied()).unwrap();
        assert_eq!(adopted, Some((0, 3)));
        let g2 = Graph::from_edges(4, &[(0, 1, 4.0), (2, 3, 2.0), (0, 3, 1.0)]).unwrap();
        let oracle = max_weight_spanning_tree(&g2).unwrap();
        assert_eq!(dt.pairs(), pairs_of(&g2, &oracle));
    }

    #[test]
    fn disconnecting_removal_errors_and_preserves_tree() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        let err = dt.remove(0, 1, [(1u32, 2u32, 1.0)].iter().copied());
        assert!(matches!(err, Err(GraphError::Disconnected { .. })));
        assert!(dt.contains(0, 1), "failed removal must not lose the edge");
    }

    #[test]
    fn off_tree_removal_is_a_no_op() {
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 2.0), (0, 2, 1.0)]).unwrap();
        let ids = max_weight_spanning_tree(&g).unwrap();
        let mut dt = DynamicTree::new(&g, &ids);
        let r = dt
            .remove(0, 2, [(0u32, 1u32, 2.0), (1u32, 2u32, 2.0)].iter().copied())
            .unwrap();
        assert_eq!(r, None);
        assert_eq!(dt.pairs(), vec![(0, 1), (1, 2)]);
    }
}
