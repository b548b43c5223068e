use crate::{Result, SolverError};
use sass_sparse::CsrMatrix;

/// Exact `L D Lᵀ` elimination of a grounded matrix whose off-diagonal
/// pattern is a spanning tree: eliminating leaf to root creates no fill,
/// so the factor needs no ordering and holds one multiplier per vertex.
///
/// Everything is stored by BFS position from the ground, so every parent
/// sits at a lower position than its children: position 0 is the ground,
/// and the ground's children are the roots of the grounded forest. Their
/// multipliers are zero, which lets both sweeps run without a branch.
/// The elimination reads the matrix's own entries, not edge weights, so
/// it is exact for any SPD tree-patterned matrix — a Laplacian, or a
/// Laplacian plus a diagonal.
#[derive(Debug, Clone)]
pub(crate) struct TreeFactor {
    /// Vertex at each position; `vertex[0]` is the ground.
    vertex: Vec<u32>,
    /// Position of each position's parent (0 at the ground and its
    /// children).
    parent: Vec<u32>,
    /// Multiplier `l_v = a_pv / d_v` at each position, zero at the ground
    /// and its children.
    l: Vec<f64>,
    /// Pivot `d_v` at each position; unused at the ground.
    d: Vec<f64>,
}

impl TreeFactor {
    /// Eliminates `a` grounded at `ground` when its pattern is a tree, and
    /// returns `Ok(None)` otherwise.
    ///
    /// `a` is tree-patterned when every row stores its diagonal once, it
    /// holds exactly `2(n − 1)` off-diagonal entries, and a BFS from the
    /// ground over them reaches every vertex, each row's only visited
    /// neighbour being its parent. The entry count is checked first, so
    /// matrices that are not trees cost one comparison.
    ///
    /// # Errors
    ///
    /// [`SolverError::GroundedSingular`] on a zero or non-finite pivot.
    pub(crate) fn try_new(a: &CsrMatrix, ground: usize) -> Result<Option<Self>> {
        let n = a.nrows();
        if n == 0 || a.nnz() != 3 * n - 2 {
            return Ok(None);
        }
        let mut pos = vec![u32::MAX; n];
        let mut vertex = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        // `l` holds each position's parent entry `a_pv` until it is
        // eliminated.
        let mut l = Vec::with_capacity(n);
        let mut d = Vec::with_capacity(n);
        pos[ground] = 0;
        vertex.push(ground as u32);
        parent.push(0u32);
        l.push(0.0);
        let mut head = 0usize;
        while let Some(&u) = vertex.get(head) {
            let u = u as usize;
            let (cols, vals) = a.row(u);
            let (mut diag, mut up) = (None, 0usize);
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c == u {
                    if diag.replace(v).is_some() {
                        return Ok(None);
                    }
                } else if pos[c] == u32::MAX {
                    pos[c] = vertex.len() as u32;
                    vertex.push(c as u32);
                    parent.push(head as u32);
                    l.push(v);
                } else if head > 0 && pos[c] == parent[head] {
                    up += 1;
                } else {
                    return Ok(None);
                }
            }
            let Some(diag) = diag else { return Ok(None) };
            if up != usize::from(head > 0) {
                return Ok(None);
            }
            d.push(diag);
            head += 1;
        }
        if vertex.len() != n {
            return Ok(None);
        }
        // Leaves first: every descendant of a position sits above it, so
        // its pivot is final when the reverse BFS order reaches it.
        for i in (1..n).rev() {
            let di = d[i];
            if di == 0.0 || !di.is_finite() {
                return Err(SolverError::GroundedSingular);
            }
            let p = parent[i] as usize;
            if p == 0 {
                l[i] = 0.0;
                continue;
            }
            let a_pv = l[i];
            let li = a_pv / di;
            d[p] -= li * a_pv;
            l[i] = li;
        }
        Ok(Some(TreeFactor {
            vertex,
            parent,
            l,
            d,
        }))
    }

    /// Off-diagonal entries of `L`: one per vertex whose parent is not
    /// the ground.
    pub(crate) fn nnz_l(&self) -> usize {
        self.parent.iter().skip(1).filter(|&&p| p != 0).count()
    }

    /// Bytes held by the four per-position arrays.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.vertex.len() + self.parent.len()) * size_of::<u32>()
            + (self.l.len() + self.d.len()) * size_of::<f64>()
    }

    /// Solves the grounded system for every `((b, s), x)` of `cols`, one
    /// column at a time: pack `b − s` by position, sweep leaves to root
    /// (`y_p −= l_v y_v`), divide by `d`, sweep root to leaves
    /// (`x_v = y_v − l_v x_p`, `x_ground = 0`), and unpack by vertex.
    /// Every column runs the same code, so blocked and single solves agree
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a column of `b` or `x` has the wrong length.
    pub(crate) fn solve_columns<'b, 'x>(
        &self,
        cols: impl IntoIterator<Item = ((&'b [f64], f64), &'x mut [f64])>,
        work: &mut Vec<f64>,
    ) {
        let n = self.vertex.len();
        work.resize(n, 0.0);
        let y = &mut work[..n];
        for ((b, shift), x) in cols {
            assert_eq!(b.len(), n, "solve: b length mismatch");
            assert_eq!(x.len(), n, "solve: x length mismatch");
            for (yi, &v) in y.iter_mut().zip(&self.vertex) {
                *yi = b[v as usize] - shift;
            }
            for i in (1..n).rev() {
                let yi = y[i];
                y[self.parent[i] as usize] -= self.l[i] * yi;
            }
            // Root to leaves, with the division and the unpack folded in:
            // a parent's value is final before any child reads it.
            y[0] = 0.0;
            x[self.vertex[0] as usize] = 0.0;
            for i in 1..n {
                let xi = y[i] / self.d[i] - self.l[i] * y[self.parent[i] as usize];
                y[i] = xi;
                x[self.vertex[i] as usize] = xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GroundedSolver, SolverError};
    use sass_graph::generators::{circuit_grid, grid2d, WeightModel};
    use sass_graph::{spanning, Graph};
    use sass_sparse::ordering::OrderingKind;
    use sass_sparse::{dense, CooMatrix, CsrMatrix, LdlFactor};

    fn tree_of(g: &Graph) -> Graph {
        let ids = spanning::max_weight_spanning_tree(g).unwrap();
        g.subgraph_with_edges(ids)
    }

    fn rhs(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * (2 * k + 3)) as f64 * 0.29).sin())
            .collect()
    }

    /// Inverse of a small dense SPD matrix by Gauss–Jordan elimination.
    fn dense_inverse(mut a: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        let n = a.len();
        let mut inv: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
            .collect();
        for k in 0..n {
            let pivot = a[k][k];
            for j in 0..n {
                a[k][j] /= pivot;
                inv[k][j] /= pivot;
            }
            for i in (0..n).filter(|&i| i != k) {
                let f = a[i][k];
                for j in 0..n {
                    a[i][j] -= f * a[k][j];
                    inv[i][j] -= f * inv[k][j];
                }
            }
        }
        inv
    }

    fn dense_of(a: &CsrMatrix) -> Vec<Vec<f64>> {
        (0..a.nrows())
            .map(|i| (0..a.ncols()).map(|j| a.get(i, j)).collect())
            .collect()
    }

    fn mat_vec(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        m.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// What a grounded solve must return, through dense algebra: for a
    /// Laplacian, the pseudo-inverse `(L + 11ᵀ/n)⁻¹ − 11ᵀ/n` applied to
    /// the centered right-hand side, which no ground enters; for any other
    /// SPD matrix, the inverse of its grounded submatrix applied to the
    /// centered right-hand side with the ground row dropped, the ground
    /// entry put back as zero, and the mean-zero projection.
    fn dense_reference(a: &CsrMatrix, ground: usize, laplacian: bool, b: &[f64]) -> Vec<f64> {
        let n = a.nrows();
        let mut bc = b.to_vec();
        dense::center(&mut bc);
        if laplacian {
            let mut m = dense_of(a);
            m.iter_mut().flatten().for_each(|x| *x += 1.0 / n as f64);
            let mut x = mat_vec(&dense_inverse(m), &bc);
            dense::center(&mut x);
            return x;
        }
        let keep: Vec<usize> = (0..n).filter(|&i| i != ground).collect();
        let full = dense_of(a);
        let m = keep
            .iter()
            .map(|&i| keep.iter().map(|&j| full[i][j]).collect())
            .collect();
        let rb: Vec<f64> = keep.iter().map(|&i| bc[i]).collect();
        let mut x = mat_vec(&dense_inverse(m), &rb);
        x.insert(ground, 0.0);
        dense::center(&mut x);
        x
    }

    /// A tree Laplacian plus a positive diagonal: nonzero row sums, still
    /// tree-patterned, as on an AMG coarse level.
    fn shifted(l: &CsrMatrix) -> CsrMatrix {
        let mut coo = CooMatrix::new(l.nrows(), l.ncols());
        for i in 0..l.nrows() {
            let (cols, vals) = l.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let shift = if j as usize == i {
                    0.25 + i as f64 * 0.01
                } else {
                    0.0
                };
                coo.push(i, j as usize, v + shift);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn agrees_with_dense_pseudoinverse_at_every_ground() {
        let path = Graph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 0.5),
                (2, 3, 4.0),
                (3, 4, 1.0),
                (4, 5, 3.0),
            ],
        )
        .unwrap();
        let star =
            Graph::from_edges(5, &[(2, 0, 1.0), (2, 1, 3.0), (2, 3, 0.5), (2, 4, 2.0)]).unwrap();
        let circuit = circuit_grid(6, 5, 0.2, 4);
        let bfs = circuit.subgraph_with_edges(spanning::bfs_spanning_tree(&circuit, 0).unwrap());
        let cases = [
            ("path", path.laplacian(), true),
            ("star", star.laplacian(), true),
            ("circuit bfs tree", bfs.laplacian(), true),
            ("shifted circuit bfs tree", shifted(&bfs.laplacian()), false),
        ];
        for (name, a, laplacian) in &cases {
            let n = a.nrows();
            for ground in [0, n / 2, n - 1] {
                let s = GroundedSolver::with_ground(a, ground, OrderingKind::MinDegree).unwrap();
                assert!(s.factor().is_none(), "{name}: tree-patterned");
                for k in 0..3 {
                    let b = rhs(n, k);
                    let want = dense_reference(a, ground, *laplacian, &b);
                    let x = s.solve(&b);
                    assert!(
                        dense::rel_diff(&x, &want) < 1e-10,
                        "{name}, ground {ground}: {:e}",
                        dense::rel_diff(&x, &want)
                    );
                }
            }
        }
    }

    #[test]
    fn matches_direct_solver_on_random_tree() {
        let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 3.0 }, 5);
        let lt = tree_of(&g).laplacian();
        let ts = GroundedSolver::new(&lt, OrderingKind::MinDegree).unwrap();
        let mut keep = vec![true; g.n()];
        keep[0] = false;
        let (reduced, _) = lt.principal_submatrix(&keep);
        let direct = LdlFactor::new(&reduced, OrderingKind::MinDegree).unwrap();
        // Both eliminations are fill-free on a tree.
        assert_eq!(ts.nnz_factor(), direct.nnz_l());
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i % 11) as f64) - 5.0).collect();
        dense::center(&mut b);
        let x_tree = ts.solve(&b);
        let mut x_direct = direct.solve(&b[1..]);
        x_direct.insert(0, 0.0);
        dense::center(&mut x_direct);
        assert!(dense::rel_diff(&x_tree, &x_direct) < 1e-10);
        assert!(lt.residual_norm(&x_tree, &b) < 1e-10);
    }

    #[test]
    fn star_tree_has_closed_form() {
        // Star at 0 with unit weights: x_leaf - x_hub = b_leaf.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]).unwrap();
        let s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
        // Every leaf hangs off the ground: a forest of roots, no fill.
        assert_eq!(s.nnz_factor(), 0);
        let x = s.solve(&[-3.0, 1.0, 1.0, 1.0]);
        for leaf in 1..4 {
            assert!((x[leaf] - x[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn handles_path_with_varying_weights() {
        let g = Graph::from_edges(4, &[(0, 1, 2.0), (1, 2, 0.5), (2, 3, 4.0)]).unwrap();
        let s = GroundedSolver::with_ground(&g.laplacian(), 3, OrderingKind::MinDegree).unwrap();
        // n − 1 − deg(ground) multipliers.
        assert_eq!(s.nnz_factor(), 2);
        let b = [1.0, -2.0, 2.0, -1.0];
        let x = s.solve(&b);
        assert!(g.laplacian().residual_norm(&x, &b) < 1e-12);
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn single_vertex() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
        assert!(s.factor().is_none());
        assert_eq!(s.solve(&[5.0]), vec![0.0]);
    }

    /// Seven vertices, `3n − 2 = 19` stored entries, but no tree: a
    /// 6-cycle and an isolated vertex. The count alone must not pick the
    /// tree elimination, and the sparse path reports the singularity.
    #[test]
    fn cycle_plus_isolated_vertex_is_singular() {
        let edges: Vec<(usize, usize, f64)> = (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect();
        let l = Graph::from_edges(7, &edges).unwrap().laplacian();
        assert_eq!(l.nnz(), 3 * 7 - 2);
        for ground in [0, 6] {
            assert_eq!(
                GroundedSolver::with_ground(&l, ground, OrderingKind::MinDegree).unwrap_err(),
                SolverError::GroundedSingular
            );
        }
    }

    /// A tree pattern whose grounded elimination meets a zero pivot.
    #[test]
    fn zero_pivot_is_singular() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0);
        }
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(1, 2, -1.0);
        assert_eq!(
            GroundedSolver::new(&coo.to_csr(), OrderingKind::MinDegree).unwrap_err(),
            SolverError::GroundedSingular
        );
    }

    fn assert_same_solver(a: &GroundedSolver, b: &GroundedSolver) {
        assert_eq!(a.factor().is_none(), b.factor().is_none());
        assert_eq!(a.nnz_factor(), b.nnz_factor());
        assert_eq!(a.memory_bytes(), b.memory_bytes());
        for k in 0..3 {
            let r = rhs(a.n(), k);
            let (xa, xb) = (a.solve(&r), b.solve(&r));
            assert!(xa.iter().zip(&xb).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn refactor_keeps_a_reweighted_tree_on_the_tree_path() {
        let g = grid2d(9, 7, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 6);
        let t = tree_of(&g);
        let mut edges: Vec<(usize, usize, f64)> = t
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s =
            GroundedSolver::with_ground(&t.laplacian(), 10, OrderingKind::MinDegree).unwrap();
        let (u, v, w) = edges[20];
        edges[20] = (u, v, w + 1.25);
        let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        let stats = s.refactor(&l2, &[u, v], 0.9).unwrap();
        assert!(stats.full && stats.cols_refactored == g.n() - 1);
        let fresh = GroundedSolver::with_ground(&l2, 10, OrderingKind::MinDegree).unwrap();
        assert!(fresh.factor().is_none());
        assert_same_solver(&s, &fresh);
    }

    #[test]
    fn refactor_moves_a_tree_that_gains_an_edge_to_the_sparse_factor() {
        let g = grid2d(9, 7, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 6);
        let t = tree_of(&g);
        let mut edges: Vec<(usize, usize, f64)> = t
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s =
            GroundedSolver::with_ground(&t.laplacian(), 10, OrderingKind::MinDegree).unwrap();
        let extra = g
            .edges()
            .iter()
            .find(|e| {
                !edges
                    .iter()
                    .any(|&(u, v, _)| (u, v) == (e.u as usize, e.v as usize))
            })
            .unwrap();
        let (u, v) = (extra.u as usize, extra.v as usize);
        edges.push((u, v, extra.weight));
        let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        let stats = s.refactor(&l2, &[u, v], 0.9).unwrap();
        assert!(stats.full);
        let fresh = GroundedSolver::with_ground(&l2, 10, OrderingKind::MinDegree).unwrap();
        assert!(fresh.factor().is_some());
        assert_same_solver(&s, &fresh);
        // And back: dropping the edge again returns to the tree path.
        edges.pop();
        let l3 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        assert!(s.refactor(&l3, &[u, v], 0.9).unwrap().full);
        let fresh = GroundedSolver::with_ground(&l3, 10, OrderingKind::MinDegree).unwrap();
        assert_same_solver(&s, &fresh);
    }
}
