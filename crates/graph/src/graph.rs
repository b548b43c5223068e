use crate::{GraphError, Result};
use sass_sparse::CsrMatrix;

/// A weighted undirected edge with canonical endpoint order `u < v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// Positive edge weight (conductance in the circuit analogy).
    pub weight: f64,
}

impl Edge {
    /// The endpoint opposite to `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: u32) -> u32 {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint");
            self.u
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// Self-loops are silently dropped; parallel edges are merged by summing
/// their weights at [`GraphBuilder::build`] time (the natural behaviour for
/// conductances in parallel).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with edge capacity reserved.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// Self-loops (`u == v`) are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of bounds or `w` is not strictly
    /// positive and finite. [`Graph::from_edges`] is the fallible
    /// constructor.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        self.try_add_edge(u, v, w).expect("invalid edge");
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] or
    /// [`GraphError::NonPositiveWeight`] (non-finite weights included).
    fn try_add_edge(&mut self, u: usize, v: usize, w: f64) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfBounds {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfBounds {
                vertex: v,
                n: self.n,
            });
        }
        // The negated comparison is deliberate: it rejects NaN as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(w > 0.0) || !w.is_finite() {
            return Err(GraphError::NonPositiveWeight { u, v, weight: w });
        }
        if u == v {
            return Ok(());
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32, w));
        Ok(())
    }

    /// Finalizes the builder into an immutable [`Graph`], merging parallel
    /// edges by weight summation.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges.drain(..) {
            if let Some(last) = edges.last_mut() {
                if last.u == u && last.v == v {
                    last.weight += w;
                    continue;
                }
            }
            edges.push(Edge { u, v, weight: w });
        }
        Graph::from_sorted_edges(self.n, edges)
    }
}

/// One edge mutation for [`Graph::apply_edits`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphEdit {
    /// Insert edge `{u, v}` with weight `w`. If the edge already exists
    /// the weights merge by summation — the same parallel-conductance rule
    /// as [`GraphBuilder::build`].
    AddEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// Positive, finite weight to add.
        weight: f64,
    },
    /// Remove edge `{u, v}` entirely (whatever its merged weight).
    RemoveEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
}

/// Mapping from a graph's edge ids to the ids of its edited successor,
/// returned by [`Graph::apply_edits`].
///
/// Edge ids index the canonical sorted edge list, so any structural edit
/// renumbers the ids of every edge sorting after it; callers holding
/// per-edge caches (heat scores, tree memberships) use this map to carry
/// them across the rebuild.
#[derive(Debug, Clone)]
pub struct EditMap {
    old_to_new: Vec<Option<u32>>,
}

impl EditMap {
    /// The new id of old edge `id`, or `None` if the edit removed it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for the pre-edit graph.
    pub fn new_id(&self, id: u32) -> Option<u32> {
        self.old_to_new[id as usize]
    }

    /// Number of edges in the pre-edit graph.
    pub fn old_m(&self) -> usize {
        self.old_to_new.len()
    }
}

/// An immutable weighted undirected graph.
///
/// Stores a canonical edge list (endpoints ordered, sorted, parallel edges
/// merged) plus a CSR adjacency structure mapping each vertex to its
/// incident `(neighbor, edge id)` pairs. Edge ids index into
/// [`Graph::edges`] and are the currency used by spanning-tree and
/// sparsification code throughout the workspace.
///
/// # Example
///
/// ```
/// use sass_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 2.0);
/// b.add_edge(1, 2, 3.0);
/// let g = b.build();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.weighted_degree(1), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    xadj: Vec<usize>,
    /// `(neighbor, edge id)` pairs, grouped by vertex.
    adj: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph from canonical (sorted, deduplicated) edges.
    fn from_sorted_edges(n: usize, edges: Vec<Edge>) -> Graph {
        let mut deg = vec![0usize; n + 1];
        for e in &edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let xadj = deg.clone();
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        let mut next = deg;
        for (id, e) in edges.iter().enumerate() {
            adj[next[e.u as usize]] = (e.v, id as u32);
            next[e.u as usize] += 1;
            adj[next[e.v as usize]] = (e.u, id as u32);
            next[e.v as usize] += 1;
        }
        Graph {
            n,
            edges,
            xadj,
            adj,
        }
    }

    /// Builds a graph directly from an edge list (convenience constructor).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] or
    /// [`GraphError::NonPositiveWeight`] (non-finite weights included).
    pub fn from_edges(n: usize, list: &[(usize, usize, f64)]) -> Result<Graph> {
        let mut b = GraphBuilder::with_capacity(n, list.len());
        for &(u, v, w) in list {
            b.try_add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (merged, undirected) edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list, sorted by `(u, v)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= m()`.
    pub fn edge(&self, id: usize) -> Edge {
        self.edges[id]
    }

    /// Iterates over `(neighbor, edge id, weight)` for vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()`.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.adj[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .map(move |&(nbr, id)| (nbr, id, self.edges[id as usize].weight))
    }

    /// Unweighted degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Weighted degree of `v` — the Laplacian diagonal entry `L(v, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n()`.
    pub fn weighted_degree(&self, v: usize) -> f64 {
        self.adj[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .map(|&(_, id)| self.edges[id as usize].weight)
            .sum()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Looks up the id of edge `{u, v}`, if present.
    pub fn find_edge(&self, u: usize, v: usize) -> Option<u32> {
        if u >= self.n || v >= self.n || u == v {
            return None;
        }
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[self.xadj[a]..self.xadj[a + 1]]
            .iter()
            .find(|&&(nbr, _)| nbr as usize == b)
            .map(|&(_, id)| id)
    }

    /// The graph Laplacian `L = D − W` as a CSR matrix:
    /// [`Graph::laplacian_of_edges`] over every edge id, so each diagonal
    /// entry is [`Graph::weighted_degree`] bit for bit.
    pub fn laplacian(&self) -> CsrMatrix {
        let all: Vec<u32> = (0..self.m() as u32).collect();
        self.laplacian_of_edges(&all)
    }

    /// The Laplacian of the subgraph keeping only the edges with the
    /// given ids, on the full vertex set, assembled directly in CSR form
    /// without building the intermediate graph or a COO staging buffer.
    ///
    /// Ids may come in any order. Every row is column-sorted and holds its
    /// diagonal even for a vertex no selected edge touches. Each diagonal
    /// entry is the sum of its selected incident weights, added in the
    /// given id order starting from `−0.0` as `f64::sum` does. So ascending
    /// ids reproduce `subgraph_with_edges(ids).laplacian()` bit for bit,
    /// isolated vertices included, and any other order reproduces the same
    /// COO assembly in that order. Costs `O(n + m)` for the id mask.
    ///
    /// # Panics
    ///
    /// Panics if an id repeats or is out of bounds.
    pub fn laplacian_of_edges(&self, edge_ids: &[u32]) -> CsrMatrix {
        let n = self.n;
        // Row k holds its diagonal plus one entry per selected incident
        // edge; `lo[k]` counts the incident edges whose other endpoint is
        // smaller than k, which is where the diagonal slot sits in the
        // column-sorted row. Only the diagonal depends on the id order.
        let mut picked = vec![false; self.m()];
        let mut count = vec![1usize; n];
        let mut lo = vec![0usize; n];
        let mut diag = vec![-0.0f64; n];
        for &id in edge_ids {
            let seen = std::mem::replace(&mut picked[id as usize], true);
            assert!(!seen, "edge id {id} appears twice");
            let e = self.edges[id as usize];
            let (u, v) = (e.u as usize, e.v as usize);
            count[u] += 1;
            count[v] += 1;
            lo[v] += 1;
            diag[u] += e.weight;
            diag[v] += e.weight;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut total = 0usize;
        for &c in &count {
            total += c;
            indptr.push(total);
        }
        let mut indices = vec![0u32; total];
        let mut data = vec![0.0f64; total];
        // Edge ids ascend in (u, v) pair order, so walking the mask in id
        // order brings each row's smaller neighbors ascending before its
        // larger neighbors — two cursors per row produce column-sorted
        // rows directly.
        let mut next_lo: Vec<usize> = indptr[..n].to_vec();
        let mut next_hi: Vec<usize> = (0..n).map(|k| indptr[k] + lo[k] + 1).collect();
        for (e, _) in self.edges.iter().zip(&picked).filter(|&(_, &p)| p) {
            let (u, v) = (e.u as usize, e.v as usize);
            indices[next_hi[u]] = e.v;
            data[next_hi[u]] = -e.weight;
            next_hi[u] += 1;
            indices[next_lo[v]] = e.u;
            data[next_lo[v]] = -e.weight;
            next_lo[v] += 1;
        }
        for k in 0..n {
            let p = indptr[k] + lo[k];
            indices[p] = k as u32;
            data[p] = diag[k];
        }
        CsrMatrix::from_raw_parts(n, n, indptr, indices, data)
    }

    /// Builds the subgraph on the same vertex set containing only the edges
    /// with the given ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of bounds.
    pub fn subgraph_with_edges<I: IntoIterator<Item = u32>>(&self, edge_ids: I) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for id in edge_ids {
            let e = self.edges[id as usize];
            b.add_edge(e.u as usize, e.v as usize, e.weight);
        }
        b.build()
    }

    /// The subgraph induced by a vertex subset: vertices are renumbered
    /// `0..vertices.len()` in the given order; edges with both endpoints in
    /// the subset survive. Returns the subgraph and the mapping from new
    /// vertex ids back to the originals.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` contains an out-of-range or duplicate id.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        let mut new_of_old = vec![usize::MAX; self.n];
        for (new, &old) in vertices.iter().enumerate() {
            assert!(old < self.n, "vertex {old} out of range");
            assert_eq!(new_of_old[old], usize::MAX, "duplicate vertex {old}");
            new_of_old[old] = new;
        }
        let mut b = GraphBuilder::new(vertices.len());
        for e in &self.edges {
            let (u, v) = (new_of_old[e.u as usize], new_of_old[e.v as usize]);
            if u != usize::MAX && v != usize::MAX {
                b.add_edge(u, v, e.weight);
            }
        }
        (b.build(), vertices.to_vec())
    }

    /// Interprets a symmetric SDD matrix as a graph Laplacian, following the
    /// paper's conversion rule: each strictly-lower-triangular nonzero
    /// becomes an edge whose weight is the entry's absolute value; the
    /// diagonal is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotLaplacian`] if the matrix is not square.
    pub fn from_sdd_matrix(a: &CsrMatrix) -> Result<Graph> {
        if a.nrows() != a.ncols() {
            return Err(GraphError::NotLaplacian {
                context: format!("matrix is {}x{}", a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let j = *c as usize;
                if j < i && *v != 0.0 {
                    b.add_edge(i, j, v.abs());
                }
            }
        }
        Ok(b.build())
    }

    /// Applies a batch of edge mutations, returning the edited graph and
    /// the old→new edge-id mapping.
    ///
    /// Edits apply sequentially against the evolving edge-weight state:
    /// adding an existing edge merges weights by summation (the
    /// parallel-conductance rule), removing deletes the merged edge
    /// entirely, and a remove-then-add sequence behaves as a weight
    /// replacement. Only the touched pairs are tracked individually; the
    /// graph is rebuilt by one merge pass over the sorted edge list, so a
    /// `k`-edit batch costs `O(m + k log k)`, not `k` rebuilds.
    ///
    /// # Errors
    ///
    /// - [`GraphError::VertexOutOfBounds`] for a bad endpoint,
    /// - [`GraphError::NonPositiveWeight`] for a non-positive/non-finite
    ///   added weight,
    /// - [`GraphError::InvalidParameter`] for a self-loop edit or removal
    ///   of an absent edge.
    ///
    /// On error the original graph is untouched (this method takes
    /// `&self`) and no partial batch is observable.
    pub fn apply_edits(&self, edits: &[GraphEdit]) -> Result<(Graph, EditMap)> {
        use std::collections::BTreeMap;
        // Sequential edit state for the touched pairs only: `Some(w)` is
        // the pair's merged weight so far, `None` a removal. Untouched
        // pairs never enter the overlay.
        let mut overlay: BTreeMap<(u32, u32), Option<f64>> = BTreeMap::new();
        for edit in edits {
            let (u, v) = match *edit {
                GraphEdit::AddEdge { u, v, .. } | GraphEdit::RemoveEdge { u, v } => (u, v),
            };
            for x in [u, v] {
                if x >= self.n {
                    return Err(GraphError::VertexOutOfBounds {
                        vertex: x,
                        n: self.n,
                    });
                }
            }
            if u == v {
                return Err(GraphError::InvalidParameter {
                    context: format!("edit touches self-loop ({u}, {v})"),
                });
            }
            let key = (u.min(v) as u32, u.max(v) as u32);
            let current = match overlay.get(&key) {
                Some(&state) => state,
                None => self
                    .find_edge(u, v)
                    .map(|id| self.edges[id as usize].weight),
            };
            match *edit {
                GraphEdit::AddEdge { weight, .. } => {
                    // The negated comparison also rejects NaN.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    if !(weight > 0.0) || !weight.is_finite() {
                        return Err(GraphError::NonPositiveWeight { u, v, weight });
                    }
                    overlay.insert(key, Some(current.unwrap_or(0.0) + weight));
                }
                GraphEdit::RemoveEdge { .. } => {
                    if current.is_none() {
                        return Err(GraphError::InvalidParameter {
                            context: format!("remove of absent edge ({u}, {v})"),
                        });
                    }
                    overlay.insert(key, None);
                }
            }
        }
        // Merge the sorted edge list with the (sorted) overlay, producing
        // the new canonical edge list and the id map in one pass.
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edges.len() + overlay.len());
        let mut old_to_new = vec![None; self.edges.len()];
        let mut ov = overlay.iter().peekable();
        for (old_id, e) in self.edges.iter().enumerate() {
            // Overlay keys sorting before this edge are brand-new pairs
            // (keys for existing pairs are consumed at their edge below).
            while let Some(&(&(u, v), &state)) = ov.peek() {
                if (u, v) >= (e.u, e.v) {
                    break;
                }
                ov.next();
                if let Some(weight) = state {
                    edges.push(Edge { u, v, weight });
                }
            }
            let state = match ov.peek() {
                Some(&(&key, &state)) if key == (e.u, e.v) => {
                    ov.next();
                    state
                }
                _ => Some(e.weight),
            };
            if let Some(weight) = state {
                old_to_new[old_id] = Some(edges.len() as u32);
                edges.push(Edge {
                    u: e.u,
                    v: e.v,
                    weight,
                });
            }
        }
        for (&(u, v), &state) in ov {
            if let Some(weight) = state {
                edges.push(Edge { u, v, weight });
            }
        }
        Ok((
            Graph::from_sorted_edges(self.n, edges),
            EditMap { old_to_new },
        ))
    }

    /// Single-edge convenience wrapper over [`Graph::apply_edits`]:
    /// inserts `{u, v}` with weight `w` (merging with an existing edge).
    ///
    /// # Errors
    ///
    /// Same as [`Graph::apply_edits`].
    pub fn add_edge(&self, u: usize, v: usize, weight: f64) -> Result<(Graph, EditMap)> {
        self.apply_edits(&[GraphEdit::AddEdge { u, v, weight }])
    }

    /// Single-edge convenience wrapper over [`Graph::apply_edits`]:
    /// removes edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::apply_edits`].
    pub fn remove_edge(&self, u: usize, v: usize) -> Result<(Graph, EditMap)> {
        self.apply_edits(&[GraphEdit::RemoveEdge { u, v }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_sparse::CooMatrix;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn builder_canonicalizes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0, 1.0); // reversed endpoints
        b.add_edge(0, 2, 0.5); // parallel edge: merged
        b.add_edge(1, 1, 9.0); // self loop: dropped
        let g = b.build();
        assert_eq!(g.m(), 1);
        let e = g.edge(0);
        assert_eq!((e.u, e.v), (0, 2));
        assert_eq!(e.weight, 1.5);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(1), 3.0);
        let nbrs: Vec<u32> = g.neighbors(1).map(|(n, _, _)| n).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&0) && nbrs.contains(&2));
    }

    #[test]
    fn laplacian_row_sums_are_zero() {
        let g = triangle();
        let l = g.laplacian();
        let ones = vec![1.0; 3];
        let y = l.mul_vec(&ones);
        assert!(y.iter().all(|v| v.abs() < 1e-14));
        assert!(l.is_symmetric(1e-14));
    }

    #[test]
    fn laplacian_quad_form_is_edge_sum() {
        // x^T L x = sum_e w_e (x_u - x_v)^2.
        let g = triangle();
        let l = g.laplacian();
        let x = [1.0, -1.0, 2.0];
        let manual: f64 = g
            .edges()
            .iter()
            .map(|e| {
                e.weight * (x[e.u as usize] - x[e.v as usize]) * (x[e.u as usize] - x[e.v as usize])
            })
            .sum();
        assert!((l.quad_form(&x) - manual).abs() < 1e-12);
    }

    #[test]
    fn find_edge_works_both_directions() {
        let g = triangle();
        assert_eq!(g.find_edge(2, 1), g.find_edge(1, 2));
        assert!(g.find_edge(0, 0).is_none());
        let id = g.find_edge(0, 2).unwrap();
        assert_eq!(g.edge(id as usize).weight, 3.0);
    }

    #[test]
    fn subgraph_keeps_vertex_set() {
        let g = triangle();
        let sub = g.subgraph_with_edges([0u32, 2u32]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 4, 4.0),
                (0, 4, 5.0),
            ],
        )
        .unwrap();
        let (sub, back) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2); // (1,2) and (2,3) survive
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(
            sub.find_edge(0, 1).map(|id| sub.edge(id as usize).weight),
            Some(2.0)
        );
        assert_eq!(
            sub.find_edge(1, 2).map(|id| sub.edge(id as usize).weight),
            Some(3.0)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    fn sdd_round_trip() {
        let g = triangle();
        let l = g.laplacian();
        let g2 = Graph::from_sdd_matrix(&l).unwrap();
        assert_eq!(g.m(), g2.m());
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.weight - b.weight).abs() < 1e-15);
        }
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.try_add_edge(0, 5, 1.0),
            Err(GraphError::VertexOutOfBounds { .. })
        ));
        assert!(matches!(
            b.try_add_edge(0, 1, 0.0),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert!(matches!(
            b.try_add_edge(0, 1, f64::NAN),
            Err(GraphError::NonPositiveWeight { .. })
        ));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge {
            u: 3,
            v: 7,
            weight: 1.0,
        };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    fn laplacian_of_edges_matches_subgraph_laplacian_bitwise() {
        // Includes an isolated vertex (4) and a vertex with both smaller
        // and larger selected neighbors (2).
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 1.5),
                (0, 2, 0.75),
                (1, 2, 2.25),
                (2, 3, 0.3),
                (1, 3, 4.0),
            ],
        )
        .unwrap();
        for ids in [vec![], vec![1u32, 2, 3], (0..g.m() as u32).collect()] {
            let direct = g.laplacian_of_edges(&ids);
            let via_subgraph = g.subgraph_with_edges(ids.iter().copied()).laplacian();
            assert_eq!(direct.indptr(), via_subgraph.indptr());
            assert_eq!(direct.indices(), via_subgraph.indices());
            assert_eq!(direct.data(), via_subgraph.data());
        }
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn laplacian_of_edges_rejects_duplicate_ids() {
        let g = triangle();
        let _ = g.laplacian_of_edges(&[2, 0, 2]);
    }

    /// The COO assembly of the subgraph Laplacian over `ids` in the given
    /// order: each diagonal summed in that order from `−0.0`, as
    /// `f64::sum` starts.
    fn coo_laplacian_of_edges(g: &Graph, ids: &[u32]) -> CsrMatrix {
        let n = g.n();
        let mut coo = CooMatrix::with_capacity(n, n, n + 2 * ids.len());
        let mut diag = vec![-0.0f64; n];
        for &id in ids {
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

    /// Pattern and value bits of two CSR matrices (`==` on `f64` would
    /// equate `0.0` with `−0.0`).
    fn assert_same_bits(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
        assert_eq!(a.indptr(), b.indptr(), "{what}: row pointers");
        assert_eq!(a.indices(), b.indices(), "{what}: column indices");
        let bits = |m: &CsrMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: value bits");
    }

    #[test]
    fn laplacian_of_edges_any_order_matches_coo_assembly() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let g = crate::generators::circuit_grid(12, 9, 0.2, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut ids: Vec<u32> = (0..g.m() as u32).collect();
        for keep in [g.m(), g.m() / 2, 3, 0] {
            ids.shuffle(&mut rng);
            let subset = &ids[..keep];
            assert_same_bits(
                &g.laplacian_of_edges(subset),
                &coo_laplacian_of_edges(&g, subset),
                &format!("{keep} shuffled ids"),
            );
        }
    }

    /// `Graph::laplacian` against the textbook COO formula (weighted
    /// degrees on the diagonal, `−w` off it), bit for bit.
    #[test]
    fn laplacian_matches_coo_formula_bitwise() {
        use crate::generators::{barabasi_albert, circuit_grid, grid2d, WeightModel};
        let isolated = Graph::from_edges(5, &[(0, 1, 1.0), (3, 4, 2.0)]).unwrap();
        for (name, g) in [
            (
                "grid",
                grid2d(13, 11, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3),
            ),
            ("circuit", circuit_grid(15, 15, 0.1, 21)),
            ("ba", barabasi_albert(400, 4, 3)),
            ("isolated vertex", isolated),
        ] {
            let n = g.n();
            let mut coo = CooMatrix::with_capacity(n, n, n + 2 * g.m());
            for v in 0..n {
                coo.push(v, v, g.weighted_degree(v));
            }
            for e in g.edges() {
                coo.push(e.u as usize, e.v as usize, -e.weight);
                coo.push(e.v as usize, e.u as usize, -e.weight);
            }
            assert_same_bits(&g.laplacian(), &coo.to_csr(), name);
        }
    }

    #[test]
    fn apply_edits_batch_with_new_head_and_tail_pairs() {
        // New pairs sorting before every existing edge and after all of
        // them, plus an interior removal — exercises every branch of the
        // sorted-merge rebuild.
        let g = Graph::from_edges(5, &[(1, 2, 1.0), (2, 3, 2.0)]).unwrap();
        let (g2, map) = g
            .apply_edits(&[
                GraphEdit::AddEdge {
                    u: 0,
                    v: 1,
                    weight: 5.0,
                },
                GraphEdit::AddEdge {
                    u: 3,
                    v: 4,
                    weight: 6.0,
                },
                GraphEdit::RemoveEdge { u: 1, v: 2 },
                GraphEdit::AddEdge {
                    u: 0,
                    v: 2,
                    weight: 7.0,
                },
            ])
            .unwrap();
        let pairs: Vec<(u32, u32, f64)> = g2.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        assert_eq!(
            pairs,
            vec![(0, 1, 5.0), (0, 2, 7.0), (2, 3, 2.0), (3, 4, 6.0)]
        );
        assert_eq!(map.new_id(0), None);
        assert_eq!(map.new_id(1), Some(2));
        // Add-then-remove of a brand-new pair leaves no trace.
        let (g3, _) = g
            .apply_edits(&[
                GraphEdit::AddEdge {
                    u: 0,
                    v: 4,
                    weight: 1.0,
                },
                GraphEdit::RemoveEdge { u: 0, v: 4 },
            ])
            .unwrap();
        assert_eq!(g3.m(), g.m());
    }

    #[test]
    fn apply_edits_adds_removes_and_remaps() {
        let g = triangle(); // edges (0,1,1.0) (0,2,3.0) (1,2,2.0) in id order
        let (g2, map) = g
            .apply_edits(&[
                GraphEdit::RemoveEdge { u: 0, v: 1 },
                GraphEdit::AddEdge {
                    u: 1,
                    v: 2,
                    weight: 0.5,
                },
            ])
            .unwrap();
        assert_eq!(g2.m(), 2);
        // Old edge 0 = (0,1) removed; (0,2) is new id 0; (1,2) is new id 1.
        assert_eq!(map.new_id(0), None);
        assert_eq!(map.new_id(1), Some(0));
        assert_eq!(map.new_id(2), Some(1));
        assert_eq!(map.old_m(), 3);
        // Merge semantics: 2.0 + 0.5.
        let id = g2.find_edge(1, 2).unwrap();
        assert_eq!(g2.edge(id as usize).weight, 2.5);
        // Source graph untouched.
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn apply_edits_is_sequential() {
        let g = triangle();
        // Remove then re-add acts as weight replacement.
        let (g2, _) = g
            .apply_edits(&[
                GraphEdit::RemoveEdge { u: 0, v: 2 },
                GraphEdit::AddEdge {
                    u: 2,
                    v: 0,
                    weight: 7.0,
                },
            ])
            .unwrap();
        let id = g2.find_edge(0, 2).unwrap();
        assert_eq!(g2.edge(id as usize).weight, 7.0);
    }

    #[test]
    fn add_edge_creates_new_edge() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let (g2, map) = g.add_edge(0, 3, 4.0).unwrap();
        assert_eq!(g2.m(), 4);
        // (0,3) sorts between (0,1) and (1,2): ids after it shift by one.
        assert_eq!(map.new_id(0), Some(0));
        assert_eq!(map.new_id(1), Some(2));
        assert_eq!(map.new_id(2), Some(3));
        assert_eq!(g2.find_edge(0, 3), Some(1));
    }

    #[test]
    fn apply_edits_rejects_bad_edits() {
        let g = triangle();
        assert!(matches!(
            g.apply_edits(&[GraphEdit::AddEdge {
                u: 0,
                v: 9,
                weight: 1.0
            }]),
            Err(GraphError::VertexOutOfBounds { .. })
        ));
        assert!(matches!(
            g.apply_edits(&[GraphEdit::AddEdge {
                u: 1,
                v: 1,
                weight: 1.0
            }]),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            g.apply_edits(&[GraphEdit::AddEdge {
                u: 0,
                v: 1,
                weight: f64::NAN
            }]),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert!(matches!(
            g.remove_edge(0, 1).and_then(|(g2, _)| g2.remove_edge(0, 1)),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.laplacian().nrows(), 0);
    }
}
