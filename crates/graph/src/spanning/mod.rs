//! Spanning-tree extraction algorithms.
//!
//! The sparsifier's backbone is a spanning tree; the paper calls for a
//! low-stretch / "spectrally critical" one. Several constructions are offered:
//!
//! - [`max_weight_spanning_tree`]: Kruskal on descending weight — the
//!   practical default of Feng's GRASS line of work (heavy edges are the
//!   spectrally important ones) — under a *strict* total order (weight
//!   descending, `(u, v)` ascending), which makes it unique: the backbone
//!   contract [`DynamicTree`] maintains incrementally under edge churn,
//! - [`akpw_spanning_tree`]: an AKPW-style low-stretch tree via repeated
//!   bounded-radius clustering over growing weight classes,
//! - [`bfs_spanning_tree`]: hop-BFS tree, a cheap baseline,
//! - [`random_spanning_tree`]: Wilson's loop-erased random walk (exact
//!   weighted uniform spanning tree), useful for tests and ablations.
//!
//! All functions return host-graph edge ids; wrap them in
//! [`RootedTree`](crate::RootedTree) for path queries.

mod akpw;
mod dynamic;
mod kruskal;
mod wilson;

pub use akpw::{akpw_spanning_tree, AkpwParams};
pub use dynamic::DynamicTree;
pub use kruskal::max_weight_spanning_tree;
pub use wilson::random_spanning_tree;

use crate::{Graph, GraphError, Result};

/// Which spanning-tree construction to use (for config plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum TreeKind {
    /// Kruskal maximum-weight spanning tree.
    MaxWeight,
    /// AKPW-style low-stretch spanning tree (default).
    #[default]
    Akpw,
    /// Breadth-first-search tree from vertex 0.
    Bfs,
    /// Wilson's uniform random spanning tree with the given seed.
    Random(u64),
}

/// Extracts a spanning tree of the requested kind.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if `g` has no spanning tree.
pub fn spanning_tree(g: &Graph, kind: TreeKind) -> Result<Vec<u32>> {
    match kind {
        TreeKind::MaxWeight => max_weight_spanning_tree(g),
        TreeKind::Akpw => akpw_spanning_tree(g, &AkpwParams::default()),
        TreeKind::Bfs => bfs_spanning_tree(g, 0),
        TreeKind::Random(seed) => random_spanning_tree(g, seed),
    }
}

/// Breadth-first spanning tree from `root`.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if the graph is not connected, or
/// [`GraphError::VertexOutOfBounds`] for a bad root.
pub fn bfs_spanning_tree(g: &Graph, root: usize) -> Result<Vec<u32>> {
    if g.n() == 0 {
        return Ok(Vec::new());
    }
    if root >= g.n() {
        return Err(GraphError::VertexOutOfBounds {
            vertex: root,
            n: g.n(),
        });
    }
    let mut visited = vec![false; g.n()];
    let mut queue = vec![root];
    visited[root] = true;
    let mut head = 0;
    let mut tree = Vec::with_capacity(g.n().saturating_sub(1));
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for (nbr, id, _) in g.neighbors(u) {
            let v = nbr as usize;
            if !visited[v] {
                visited[v] = true;
                tree.push(id);
                queue.push(v);
            }
        }
    }
    if queue.len() != g.n() {
        return Err(GraphError::Disconnected {
            components: count_components(g),
        });
    }
    Ok(tree)
}

pub(crate) fn count_components(g: &Graph) -> usize {
    crate::traverse::connected_components(g).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RootedTree;

    fn cycle(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, 1.0 + i as f64)).collect();
        edges.push((n - 1, 0, 0.5));
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn every_kind_yields_valid_spanning_tree() {
        let g = cycle(12);
        for kind in [
            TreeKind::MaxWeight,
            TreeKind::Akpw,
            TreeKind::Bfs,
            TreeKind::Random(42),
        ] {
            let ids = spanning_tree(&g, kind).unwrap();
            assert_eq!(ids.len(), g.n() - 1, "{kind:?}");
            // RootedTree::new validates spanning-ness.
            RootedTree::new(&g, ids, 0).unwrap();
        }
    }

    #[test]
    fn bfs_tree_from_any_root() {
        let g = cycle(7);
        for root in 0..7 {
            let ids = bfs_spanning_tree(&g, root).unwrap();
            RootedTree::new(&g, ids, root).unwrap();
        }
    }

    #[test]
    fn disconnected_is_rejected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        for kind in [
            TreeKind::MaxWeight,
            TreeKind::Akpw,
            TreeKind::Bfs,
            TreeKind::Random(1),
        ] {
            assert!(
                matches!(
                    spanning_tree(&g, kind),
                    Err(GraphError::Disconnected { .. })
                ),
                "{kind:?} should reject a disconnected graph"
            );
        }
    }

    #[test]
    fn empty_graph_gives_empty_tree() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(spanning_tree(&g, TreeKind::Bfs).unwrap().is_empty());
    }
}
