use super::count_components;
use crate::{Graph, GraphError, Result, UnionFind};

/// Kruskal spanning tree taking edges in descending weight order.
fn kruskal(g: &Graph) -> Result<Vec<u32>> {
    if g.n() == 0 {
        return Ok(Vec::new());
    }
    let mut ids: Vec<u32> = (0..g.m() as u32).collect();
    ids.sort_unstable_by(|&a, &b| {
        g.edge(b as usize)
            .weight
            .partial_cmp(&g.edge(a as usize).weight)
            .expect("edge weights are finite")
    });
    let mut uf = UnionFind::new(g.n());
    let mut tree = Vec::with_capacity(g.n() - 1);
    for id in ids {
        let e = g.edge(id as usize);
        if uf.union(e.u as usize, e.v as usize) {
            tree.push(id);
            if tree.len() == g.n() - 1 {
                break;
            }
        }
    }
    if tree.len() != g.n() - 1 {
        return Err(GraphError::Disconnected {
            components: count_components(g),
        });
    }
    tree.sort_unstable();
    Ok(tree)
}

/// Maximum-weight spanning tree (Kruskal, descending weights).
///
/// Heavy edges are the spectrally critical ones for Laplacian pencils, so
/// this is the practical "spectrally critical tree" backbone used by the
/// GRASS family of sparsifiers.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if `g` has no spanning tree.
///
/// # Example
///
/// ```
/// use sass_graph::{Graph, spanning};
///
/// # fn main() -> Result<(), sass_graph::GraphError> {
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 5.0), (0, 2, 5.0)])?;
/// let tree = spanning::max_weight_spanning_tree(&g)?;
/// // The weight-1 edge is excluded.
/// assert!(!tree.contains(&g.find_edge(0, 1).unwrap()));
/// # Ok(())
/// # }
/// ```
pub fn max_weight_spanning_tree(g: &Graph) -> Result<Vec<u32>> {
    kruskal(g)
}

/// The strict total order behind the canonical tree: heavier wins, and
/// weight ties break toward the lexicographically smaller `(u, v)` pair.
/// Because [`Graph`] stores its edge list sorted by `(u, v)`, ascending
/// edge id *is* ascending `(u, v)` — so the order is stable across graph
/// rebuilds that renumber edge ids.
pub(crate) fn canonical_beats(wa: f64, ua: u32, va: u32, wb: f64, ub: u32, vb: u32) -> bool {
    match wa.total_cmp(&wb) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => (ua, va) < (ub, vb),
    }
}

/// Canonical maximum-weight spanning tree: Kruskal under the *strict*
/// total order "weight descending, then `(u, v)` ascending".
///
/// [`max_weight_spanning_tree`] leaves weight ties in unspecified order,
/// which is fine for one-shot sparsification but fatal for incremental
/// maintenance: the tree produced by exchange rules after an edit must be
/// bit-identical to the tree a from-scratch run would pick. A strict
/// total order makes the maximum spanning tree *unique*, so both
/// procedures land on the same edge set by construction. The tie-break is
/// a function of endpoints, not edge ids, so it survives the edge-id
/// renumbering of [`Graph::apply_edits`](crate::Graph::apply_edits).
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if `g` has no spanning tree.
pub fn canonical_max_weight_spanning_tree(g: &Graph) -> Result<Vec<u32>> {
    if g.n() == 0 {
        return Ok(Vec::new());
    }
    let mut ids: Vec<u32> = (0..g.m() as u32).collect();
    // Weight descending, id ascending: ids are already ascending, so a
    // stable sort on descending weight alone realizes the canonical order.
    ids.sort_by(|&a, &b| {
        g.edge(b as usize)
            .weight
            .total_cmp(&g.edge(a as usize).weight)
    });
    let mut uf = UnionFind::new(g.n());
    let mut tree = Vec::with_capacity(g.n() - 1);
    for id in ids {
        let e = g.edge(id as usize);
        if uf.union(e.u as usize, e.v as usize) {
            tree.push(id);
            if tree.len() == g.n() - 1 {
                break;
            }
        }
    }
    if tree.len() != g.n() - 1 {
        return Err(GraphError::Disconnected {
            components: count_components(g),
        });
    }
    tree.sort_unstable();
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_tree_prefers_heavy_edges() {
        // Triangle with one light edge: max tree keeps the two heavy ones.
        let g = Graph::from_edges(3, &[(0, 1, 0.1), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let t = max_weight_spanning_tree(&g).unwrap();
        let light = g.find_edge(0, 1).unwrap();
        assert!(!t.contains(&light));
    }

    #[test]
    fn canonical_tree_is_deterministic_under_ties() {
        // Four vertices in a cycle of equal weights: the unordered Kruskal
        // may pick any 3 of the 4 edges; the canonical tree must always
        // pick the lexicographically smallest ids.
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let t = canonical_max_weight_spanning_tree(&g).unwrap();
        assert_eq!(t, vec![0, 1, 2]);
        // Idempotent across calls.
        assert_eq!(t, canonical_max_weight_spanning_tree(&g).unwrap());
    }

    #[test]
    fn canonical_tree_weight_matches_unordered_kruskal() {
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 2.0),
                (1, 2, 2.0),
                (2, 3, 5.0),
                (3, 4, 1.0),
                (0, 4, 2.0),
                (1, 3, 2.0),
            ],
        )
        .unwrap();
        let w = |ids: &[u32]| -> f64 { ids.iter().map(|&id| g.edge(id as usize).weight).sum() };
        let a = max_weight_spanning_tree(&g).unwrap();
        let b = canonical_max_weight_spanning_tree(&g).unwrap();
        assert!((w(&a) - w(&b)).abs() < 1e-12);
    }

    #[test]
    fn tree_weight_is_maximal() {
        // Brute-force check on a small graph: compare against all spanning
        // trees enumerated by edge subsets.
        let g = Graph::from_edges(
            4,
            &[
                (0, 1, 4.0),
                (1, 2, 3.0),
                (2, 3, 2.0),
                (3, 0, 1.0),
                (0, 2, 5.0),
                (1, 3, 0.5),
            ],
        )
        .unwrap();
        let best = max_weight_spanning_tree(&g).unwrap();
        let best_w: f64 = best.iter().map(|&id| g.edge(id as usize).weight).sum();
        let m = g.m();
        let mut brute_best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != g.n() - 1 {
                continue;
            }
            let ids: Vec<u32> = (0..m as u32).filter(|&i| mask & (1 << i) != 0).collect();
            let mut uf = UnionFind::new(g.n());
            let mut ok = true;
            for &id in &ids {
                let e = g.edge(id as usize);
                if !uf.union(e.u as usize, e.v as usize) {
                    ok = false;
                    break;
                }
            }
            if ok && uf.components() == 1 {
                let w: f64 = ids.iter().map(|&id| g.edge(id as usize).weight).sum();
                brute_best = brute_best.max(w);
            }
        }
        assert!((best_w - brute_best).abs() < 1e-12);
    }
}
