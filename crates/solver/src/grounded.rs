use crate::tree_factor::TreeFactor;
use crate::{Result, SolverError};
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{dense, pool, CsrMatrix, LdlFactor, RefactorStats, SparseError};

/// Minimum `n × ncols` work before a column set's per-column mean-zero
/// projection goes parallel under automatic pool sizing (an
/// explicit `SASS_THREADS` / `pool::set_threads` override skips the
/// crossover). The sparse factor's triangular solves carry their own
/// gates inside [`LdlFactor`]: they run on a subtree-to-lane partition of
/// the elimination tree once the factor is big enough and its trunk light
/// enough. The tree elimination's sweeps run serially, one column at a
/// time.
const MIN_PAR_BLOCK_WORK: usize = 32_768;

/// Exact solver for (connected) graph-Laplacian systems via *grounding*.
///
/// A graph Laplacian is singular — its nullspace is the all-ones vector —
/// but deleting the row and column of one *ground* vertex leaves an SPD
/// matrix whenever the graph is connected. `GroundedSolver` factorizes that
/// principal submatrix once and then answers `L x = b` for any right-hand
/// side with `Σb = 0`, returning the unique solution with zero mean (i.e.
/// `x = L⁺ b`).
///
/// The elimination is chosen by the matrix's structure, with no knob:
///
/// - a **tree-patterned** matrix — a spanning tree's Laplacian, or any
///   matrix whose off-diagonal pattern is a spanning tree — is eliminated
///   leaf to root from the ground in `O(n)`, with no fill, no ordering and
///   no elimination-tree partition;
/// - every other matrix is factored by the sparse LDLᵀ ([`LdlFactor`])
///   under the requested fill-reducing ordering.
///
/// Right-hand sides are centered defensively, so passing a `b` with nonzero
/// mean solves against its projection onto `range(L)`.
///
/// Every solve goes through [`GroundedSolver::solve_columns`] and moves
/// its data once each way: the caller's full-size columns are packed
/// straight into the elimination's work buffer, dropping the ground row
/// and subtracting each column's mean on the way in, and unpacked with
/// the ground entry set to zero on the way out ([`LdlFactor::solve_columns`]
/// for the sparse factor). The only other pass is the mean-zero
/// projection of each solution. Each column's result has the same bits
/// whether it was solved alone or in a set.
///
/// # Example
///
/// ```
/// use sass_graph::Graph;
/// use sass_solver::GroundedSolver;
///
/// # fn main() -> Result<(), sass_solver::SolverError> {
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?;
/// let l = g.laplacian();
/// let solver = GroundedSolver::new(&l, Default::default())?;
/// let x = solver.solve(&[1.0, 0.0, -1.0]);
/// assert!(l.residual_norm(&x, &[1.0, 0.0, -1.0]) < 1e-12);
/// assert!(x.iter().sum::<f64>().abs() < 1e-12); // mean-zero representative
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GroundedSolver {
    n: usize,
    ground: usize,
    ordering: OrderingKind,
    elim: Elimination,
}

/// How the grounded matrix is eliminated, chosen by its structure in
/// [`GroundedSolver::with_ground`].
#[derive(Debug, Clone)]
enum Elimination {
    /// A tree-patterned matrix, eliminated leaf to root.
    Tree(TreeFactor),
    /// Any other matrix: the sparse LDLᵀ of the grounded submatrix, plus
    /// the lazy cache of the ground-row/column elimination, keyed on the
    /// incoming Laplacian's sparsity pattern: on a hit the reduced
    /// matrix's values are refreshed through `gather` instead of
    /// rebuilding the submatrix (see [`GroundedSolver::refactor`]).
    Sparse {
        factor: Box<LdlFactor>,
        cache: Option<GroundCache>,
    },
}

/// See [`Elimination::Sparse`]: `gather[q]` is the position in the full
/// Laplacian's value array feeding `reduced.data()[q]` — exactly the
/// entries outside the ground row and column, in row-major order, which is
/// what [`CsrMatrix::principal_submatrix`] keeps.
#[derive(Debug, Clone)]
struct GroundCache {
    l_p: Vec<usize>,
    l_i: Vec<u32>,
    gather: Vec<u32>,
    reduced: CsrMatrix,
}

impl GroundCache {
    /// Builds the grounded submatrix of `l` and records `l`'s pattern and,
    /// for every entry outside the ground row and column in row-major
    /// order, the source position feeding the corresponding reduced-matrix
    /// slot.
    fn new(l: &CsrMatrix, ground: usize) -> Self {
        assert!(
            l.nnz() < u32::MAX as usize,
            "ground cache gather indices must fit in u32"
        );
        let reduced = grounded_submatrix(l, ground);
        let indptr = l.indptr();
        let indices = l.indices();
        let mut gather = Vec::with_capacity(reduced.nnz());
        for i in 0..l.nrows() {
            if i == ground {
                continue;
            }
            for (p, &col) in indices
                .iter()
                .enumerate()
                .take(indptr[i + 1])
                .skip(indptr[i])
            {
                if col as usize != ground {
                    gather.push(p as u32);
                }
            }
        }
        debug_assert_eq!(gather.len(), reduced.nnz());
        GroundCache {
            l_p: indptr.to_vec(),
            l_i: indices.to_vec(),
            gather,
            reduced,
        }
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.l_p.len() * size_of::<usize>()
            + (self.l_i.len() + self.gather.len()) * size_of::<u32>()
            + self.reduced.memory_bytes()
    }
}

/// `l` with the ground's row and column deleted.
fn grounded_submatrix(l: &CsrMatrix, ground: usize) -> CsrMatrix {
    let mut keep = vec![true; l.nrows()];
    keep[ground] = false;
    l.principal_submatrix(&keep).0
}

/// The sparse LDLᵀ of a grounded submatrix, with a vanishing pivot
/// reported as [`SolverError::GroundedSingular`].
fn sparse_factor(reduced: &CsrMatrix, ordering: OrderingKind) -> Result<Box<LdlFactor>> {
    LdlFactor::new(reduced, ordering)
        .map(Box::new)
        .map_err(|e| match e {
            SparseError::ZeroPivot { .. } => SolverError::GroundedSingular,
            e => e.into(),
        })
}

impl GroundedSolver {
    /// Factorizes the Laplacian `l` grounded at vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] for a rectangular matrix,
    /// and [`SolverError::GroundedSingular`] when factorization hits a zero
    /// pivot — which for a Laplacian means the underlying graph is
    /// disconnected.
    pub fn new(l: &CsrMatrix, ordering: OrderingKind) -> Result<Self> {
        Self::with_ground(l, 0, ordering)
    }

    /// Factorizes the Laplacian grounded at a chosen vertex.
    ///
    /// # Errors
    ///
    /// See [`GroundedSolver::new`]; additionally rejects an out-of-range
    /// ground vertex.
    pub fn with_ground(l: &CsrMatrix, ground: usize, ordering: OrderingKind) -> Result<Self> {
        let n = l.nrows();
        if n != l.ncols() {
            return Err(SolverError::ShapeMismatch {
                context: format!("laplacian is {}x{}", n, l.ncols()),
            });
        }
        if ground >= n {
            return Err(SolverError::ShapeMismatch {
                context: format!("ground vertex {ground} out of range for n = {n}"),
            });
        }
        Ok(GroundedSolver {
            n,
            ground,
            ordering,
            elim: Self::eliminate(l, ground, ordering)?,
        })
    }

    /// The structure choice behind [`GroundedSolver::with_ground`]: the
    /// leaf-to-root elimination for a tree-patterned `l`, otherwise the
    /// sparse LDLᵀ of the grounded submatrix under `ordering`.
    fn eliminate(l: &CsrMatrix, ground: usize, ordering: OrderingKind) -> Result<Elimination> {
        if let Some(tree) = TreeFactor::try_new(l, ground)? {
            return Ok(Elimination::Tree(tree));
        }
        Ok(Elimination::Sparse {
            factor: sparse_factor(&grounded_submatrix(l, ground), ordering)?,
            cache: None,
        })
    }

    /// Updates the solver in place after the Laplacian changed at a known
    /// set of vertices.
    ///
    /// `l` is the **new** Laplacian (same dimension, same ground vertex);
    /// `changed_vertices` lists every vertex whose row of `l` differs from
    /// the Laplacian this solver currently represents — for an edge edit
    /// `(u, v)` that is `u` and `v` (the ground vertex may be included and
    /// is ignored).
    ///
    /// The new matrix goes through the same structure choice as
    /// [`GroundedSolver::with_ground`]:
    ///
    /// - a tree-patterned `l` is eliminated afresh, leaf to root, in
    ///   `O(n)`;
    /// - otherwise a sparse LDLᵀ factor whose grounded pattern still
    ///   matches re-runs numeric factorization only on the elimination-tree
    ///   ancestor closure of the changed columns
    ///   ([`LdlFactor::refactor_partial`]); `crossover` is the
    ///   affected-fraction threshold past which the whole numeric phase is
    ///   re-run on the existing symbolic analysis;
    /// - anything else — a changed pattern, or a tree that gained an edge —
    ///   is factored from scratch under a fresh ordering.
    ///
    /// A tree elimination and a from-scratch factorization report
    /// `full: true` with every grounded column counted.
    ///
    /// After a successful return the solver is exactly the solver
    /// [`GroundedSolver::with_ground`] would build for `l` — bit-identical
    /// when the pattern is unchanged (skipped columns keep values that a
    /// from-scratch run would reproduce, re-run columns execute the same
    /// factorization steps on the same inputs).
    ///
    /// # Errors
    ///
    /// [`SolverError::ShapeMismatch`] if `l` has a different dimension, and
    /// [`SolverError::GroundedSingular`] if a pivot vanishes — the solver
    /// is **poisoned** then and must be rebuilt before further solves.
    pub fn refactor(
        &mut self,
        l: &CsrMatrix,
        changed_vertices: &[usize],
        crossover: f64,
    ) -> Result<RefactorStats> {
        if l.nrows() != self.n || l.ncols() != self.n {
            return Err(SolverError::ShapeMismatch {
                context: format!(
                    "refactor: solver is {}x{0}, laplacian is {1}x{2}",
                    self.n,
                    l.nrows(),
                    l.ncols()
                ),
            });
        }
        if let Some(&v) = changed_vertices.iter().find(|&&v| v >= self.n) {
            return Err(SolverError::ShapeMismatch {
                context: format!(
                    "refactor: changed vertex {v} out of range for n = {}",
                    self.n
                ),
            });
        }
        let rebuilt = RefactorStats {
            cols_refactored: self.n - 1,
            total_cols: self.n - 1,
            full: true,
        };
        if let Some(tree) = TreeFactor::try_new(l, self.ground)? {
            self.elim = Elimination::Tree(tree);
            return Ok(rebuilt);
        }
        let Elimination::Sparse { factor, cache } = &mut self.elim else {
            self.elim = Self::eliminate(l, self.ground, self.ordering)?;
            return Ok(rebuilt);
        };
        // Ground elimination: on a pattern hit against the cached
        // Laplacian, refresh the reduced matrix's values through the
        // stored gather map (the submatrix keeps full-matrix entries in
        // row-major order, so a pattern-equal input routes values to the
        // same slots); otherwise rebuild the submatrix and the map.
        let reduced = match cache {
            Some(c) if c.l_p == l.indptr() && c.l_i == l.indices() => {
                let src = l.data();
                for (dst, &p) in c.reduced.data_mut().iter_mut().zip(&c.gather) {
                    *dst = src[p as usize];
                }
                &c.reduced
            }
            _ => &cache.insert(GroundCache::new(l, self.ground)).reduced,
        };
        // Grounded row index of vertex v: vertices above the ground shift
        // down by one; the ground row itself does not exist in the reduced
        // system (its incident-edge updates land on the other endpoints).
        let changed_rows: Vec<usize> = changed_vertices
            .iter()
            .filter(|&&v| v != self.ground)
            .map(|&v| if v > self.ground { v - 1 } else { v })
            .collect();
        match factor.refactor_partial(reduced, &changed_rows, crossover) {
            Ok(sass_sparse::RefactorOutcome::Patched(stats)) => Ok(stats),
            Ok(sass_sparse::RefactorOutcome::PatternChanged) => {
                *factor = sparse_factor(reduced, self.ordering)?;
                Ok(rebuilt)
            }
            Err(SparseError::ZeroPivot { .. }) => Err(SolverError::GroundedSingular),
            Err(e) => Err(e.into()),
        }
    }

    /// Dimension of the original (ungrounded) system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The grounded vertex.
    pub fn ground(&self) -> usize {
        self.ground
    }

    /// Off-diagonal nonzeros of the factor's `L` (memory/fill proxy). A
    /// tree-patterned matrix has no fill: one entry per vertex whose tree
    /// parent is not the ground, `n − 1 − deg(ground)`.
    pub fn nnz_factor(&self) -> usize {
        match &self.elim {
            Elimination::Tree(tree) => tree.nnz_l(),
            Elimination::Sparse { factor, .. } => factor.nnz_l(),
        }
    }

    /// The sparse LDLᵀ factorization of the grounded Laplacian, or `None`
    /// when the Laplacian is tree-patterned and eliminated leaf to root
    /// instead. Exposes the elimination-tree observability surface
    /// ([`LdlFactor::partition_shape`], [`LdlFactor::memory_bytes`]) the
    /// bench binaries report.
    pub fn factor(&self) -> Option<&LdlFactor> {
        match &self.elim {
            Elimination::Tree(_) => None,
            Elimination::Sparse { factor, .. } => Some(factor.as_ref()),
        }
    }

    /// Approximate memory held by the solver, in bytes: the elimination's
    /// arrays, plus the ground-elimination cache once
    /// [`GroundedSolver::refactor`] has built it.
    pub fn memory_bytes(&self) -> usize {
        match &self.elim {
            Elimination::Tree(tree) => tree.memory_bytes(),
            Elimination::Sparse { factor, cache } => {
                factor.memory_bytes() + cache.as_ref().map_or(0, GroundCache::memory_bytes)
            }
        }
    }

    /// Solves `L x = center(b)`, returning the mean-zero solution `L⁺ b`.
    ///
    /// Allocates the result and a scratch; repeated solves should hold a
    /// [`GroundedScratch`] and call [`GroundedSolver::solve_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_columns(&[b], &mut [&mut x], &mut GroundedScratch::new());
        x
    }

    /// Solves against many right-hand sides, amortizing the factorization —
    /// the paper's Table 2 motivation ("multiple RHS vectors").
    ///
    /// Right-hand sides are processed in blocks of
    /// [`sass_sparse::LDL_BLOCK_WIDTH`] columns: one sweep over the LDLᵀ
    /// factor's indices advances the whole block, so factor traffic is paid
    /// once per block instead of once per vector. Results are bit-identical
    /// to per-RHS [`GroundedSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.n]; rhs.len()];
        self.solve_columns(rhs, &mut out, &mut GroundedScratch::new());
        out
    }

    /// Solves `L x_c = center(b_c)` for every column `b_c` of `b` into the
    /// matching column `x_c` of `x`, then projects each `x_c` onto mean
    /// zero: `x_c = L⁺ b_c`. A column is anything that views as a slice
    /// (`&[f64]`, `Vec<f64>`, a fixed array, a [`DenseBlock`] column). The
    /// caller owns the output columns and the scratch, so repeated solves
    /// against one factorization (power and Lanczos iterations, PCG
    /// preconditioning, probe embeddings) allocate nothing after the first
    /// call; a single column is a one-element array on the stack.
    ///
    /// [`DenseBlock`]: sass_sparse::DenseBlock
    ///
    /// Each column is shifted by its mean and packed into the
    /// elimination's work buffer with the ground row left out; the ground
    /// row comes back as zero. The mean-zero projection runs serially for
    /// one column and spreads columns over the pool above a work
    /// crossover, each column through the same serial code, so every
    /// column's bits are those of a one-column solve at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != b.len()` or any column on either side has
    /// length other than `n()` — checked before any column is solved.
    ///
    /// # Example
    ///
    /// ```
    /// use sass_graph::Graph;
    /// use sass_solver::{GroundedScratch, GroundedSolver};
    ///
    /// # fn main() -> Result<(), sass_solver::SolverError> {
    /// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?;
    /// let l = g.laplacian();
    /// let solver = GroundedSolver::new(&l, Default::default())?;
    /// let (b0, b1) = ([1.0, 0.0, -1.0], [0.0, 1.0, -1.0]);
    /// let (mut x0, mut x1) = ([0.0; 3], [0.0; 3]);
    /// let mut scratch = GroundedScratch::new();
    /// solver.solve_columns(&[&b0, &b1], &mut [&mut x0, &mut x1], &mut scratch);
    /// assert!(l.residual_norm(&x0, &b0) < 1e-12);
    /// assert!(l.residual_norm(&x1, &b1) < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_columns<B, X>(&self, b: &[B], x: &mut [X], scratch: &mut GroundedScratch)
    where
        B: AsRef<[f64]>,
        X: AsMut<[f64]> + Send,
    {
        assert_eq!(x.len(), b.len(), "solve: x and b column counts differ");
        for col in b {
            assert_eq!(col.as_ref().len(), self.n, "solve: b length mismatch");
        }
        for col in x.iter_mut() {
            assert_eq!(col.as_mut().len(), self.n, "solve: x length mismatch");
        }
        let shifted = b
            .iter()
            .map(|col| (col.as_ref(), dense::mean(col.as_ref())));
        let out = x.iter_mut().map(AsMut::as_mut);
        match &self.elim {
            Elimination::Tree(tree) => tree.solve_columns(shifted.zip(out), &mut scratch.work),
            Elimination::Sparse { factor, .. } => {
                factor.solve_columns(Some(self.ground), shifted, out, &mut scratch.work)
            }
        }
        match self.center_spans(x.len()) {
            None => x.iter_mut().for_each(|col| dense::center(col.as_mut())),
            Some(spans) => pool::Pool::global().parallel_for_disjoint_mut(x, &spans, |_, xs| {
                xs.iter_mut().for_each(|col| dense::center(col.as_mut()))
            }),
        }
    }

    /// Column spans for the mean-zero projection: `None` runs it
    /// serially; otherwise columns spread over the pool above
    /// [`MIN_PAR_BLOCK_WORK`], each running the exact serial per-column
    /// code, so the result is bit-identical at any worker count.
    fn center_spans(&self, ncols: usize) -> Option<Vec<pool::Span>> {
        let p = pool::Pool::global();
        let workers = p
            .workers_for(self.n * ncols, MIN_PAR_BLOCK_WORK, MIN_PAR_BLOCK_WORK)
            .min(ncols);
        (workers > 1).then(|| pool::even_spans(ncols, workers))
    }
}

/// The reusable work buffer of [`GroundedSolver::solve_columns`]: one
/// chunk of right-hand sides in the sparse factor's interleaved slot
/// layout, or one column in the tree elimination's order.
///
/// One scratch serves solvers of any size and any block width (the buffer
/// resizes lazily); keep it per call site, not shared across threads.
#[derive(Debug, Clone, Default)]
pub struct GroundedScratch {
    work: Vec<f64>,
}

impl GroundedScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::Graph;
    use sass_sparse::DenseBlock;

    #[test]
    fn exact_on_grid_laplacian() {
        let g = grid2d(9, 7, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let l = g.laplacian();
        let s = GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap();
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        dense::center(&mut b);
        let x = s.solve(&b);
        assert!(l.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn solution_is_mean_zero_pseudoinverse() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0)]).unwrap();
        let l = g.laplacian();
        let s = GroundedSolver::new(&l, OrderingKind::Natural).unwrap();
        let b = [1.0, -1.0, 1.0, -1.0];
        let x = s.solve(&b);
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
        // L (L+ b) = b for centered b.
        assert!(l.residual_norm(&x, &b) < 1e-12);
    }

    #[test]
    fn uncentered_rhs_is_projected() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let l = g.laplacian();
        let s = GroundedSolver::new(&l, OrderingKind::Natural).unwrap();
        let b = [2.0, 1.0, 0.0]; // mean 1
        let x = s.solve(&b);
        let centered = [1.0, 0.0, -1.0];
        assert!(l.residual_norm(&x, &centered) < 1e-12);
    }

    #[test]
    fn disconnected_graph_is_detected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let err = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap_err();
        assert_eq!(err, SolverError::GroundedSingular);
    }

    #[test]
    fn any_ground_vertex_gives_same_solution() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let l = g.laplacian();
        let mut b: Vec<f64> = (0..25).map(|i| (i as f64).cos()).collect();
        dense::center(&mut b);
        let x0 = GroundedSolver::with_ground(&l, 0, OrderingKind::MinDegree)
            .unwrap()
            .solve(&b);
        let x12 = GroundedSolver::with_ground(&l, 12, OrderingKind::Rcm)
            .unwrap()
            .solve(&b);
        assert!(dense::rel_diff(&x0, &x12) < 1e-10);
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let g = grid2d(6, 6, WeightModel::Unit, 1);
        let l = g.laplacian();
        let s = GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap();
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                let mut b: Vec<f64> = (0..36)
                    .map(|i| ((i * (k + 2)) as f64 * 0.1).sin())
                    .collect();
                dense::center(&mut b);
                b
            })
            .collect();
        let many = s.solve_many(&rhs);
        for (b, x) in rhs.iter().zip(&many) {
            assert!(dense::rel_diff(x, &s.solve(b)) < 1e-15);
            assert!(l.residual_norm(x, b) < 1e-10);
        }
    }

    type Reference = Box<dyn Fn(&[f64]) -> Vec<f64>>;

    /// The grounded solve spelled out: factor the principal submatrix
    /// with the solver's own permutation; then per right-hand side, solve
    /// it centered with the ground row elided, re-insert the ground row
    /// as zero, and project onto mean zero. Tree-eliminated solvers get
    /// [`tree_reference`] instead.
    fn reference_solver(l: &CsrMatrix, s: &GroundedSolver) -> Reference {
        let g = s.ground();
        let Some(factor) = s.factor() else {
            return Box::new(tree_reference(l, g));
        };
        let mut keep = vec![true; s.n()];
        keep[g] = false;
        let (reduced, _) = l.principal_submatrix(&keep);
        let f = LdlFactor::with_permutation(&reduced, factor.permutation().clone()).unwrap();
        Box::new(move |b| {
            let mean = dense::mean(b);
            let rb: Vec<f64> = (0..b.len())
                .filter(|&i| i != g)
                .map(|i| b[i] - mean)
                .collect();
            let mut x = f.solve(&rb);
            x.insert(g, 0.0);
            dense::center(&mut x);
            x
        })
    }

    /// The tree elimination spelled out by vertex: BFS parents from the
    /// ground, then pivots and multipliers leaf to root from the matrix's
    /// own entries; per right-hand side, center, sweep leaves to root,
    /// divide, sweep root to leaves from a zero ground, and project onto
    /// mean zero. The ground's children start the grounded forest, so
    /// nothing flows across their edges.
    fn tree_reference(l: &CsrMatrix, ground: usize) -> impl Fn(&[f64]) -> Vec<f64> {
        let n = l.nrows();
        let (mut parent, mut seen) = (vec![usize::MAX; n], vec![false; n]);
        let mut order = vec![ground];
        seen[ground] = true;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &c in l.row(u).0 {
                let c = c as usize;
                if !seen[c] {
                    seen[c] = true;
                    parent[c] = u;
                    order.push(c);
                }
            }
        }
        assert_eq!(order.len(), n, "not a spanning tree");
        let mut d: Vec<f64> = (0..n).map(|v| l.get(v, v)).collect();
        let mut mult = vec![0.0; n];
        for &v in order[1..].iter().rev() {
            let p = parent[v];
            if p != ground {
                mult[v] = l.get(p, v) / d[v];
                d[p] -= mult[v] * l.get(p, v);
            }
        }
        move |b| {
            let mean = dense::mean(b);
            let mut y: Vec<f64> = b.iter().map(|&v| v - mean).collect();
            for &v in order[1..].iter().rev() {
                if parent[v] != ground {
                    y[parent[v]] -= mult[v] * y[v];
                }
            }
            for &v in &order[1..] {
                y[v] /= d[v];
            }
            y[ground] = 0.0;
            for &v in &order[1..] {
                if parent[v] != ground {
                    y[v] -= mult[v] * y[parent[v]];
                }
            }
            dense::center(&mut y);
            y
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Every grounded solve path against [`reference_solver`], bit for
    /// bit: `solve`, `solve_many`, and `solve_columns` on `Vec` columns and
    /// on [`DenseBlock`] columns, at the first, middle and last ground
    /// vertex, across column counts around the chunk width, down to one-
    /// and two-vertex systems. One scratch serves every call, so stale
    /// buffer contents would show. The one- and two-vertex systems and the
    /// grid's spanning tree take the tree elimination; the triangle, the
    /// circuit grid and the grid take the sparse LDLᵀ.
    #[test]
    fn grounded_paths_match_explicit_elision_bitwise() {
        let grid = grid2d(48, 48, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 9);
        let grid_tree = grid
            .subgraph_with_edges(sass_graph::spanning::max_weight_spanning_tree(&grid).unwrap());
        let graphs = [
            (Graph::from_edges(1, &[]).unwrap(), true),
            (Graph::from_edges(2, &[(0, 1, 1.5)]).unwrap(), true),
            (
                Graph::from_edges(3, &[(0, 1, 1.5), (1, 2, 0.5), (0, 2, 2.0)]).unwrap(),
                false,
            ),
            (sass_graph::generators::circuit_grid(7, 5, 0.2, 3), false),
            (grid, false),
            (grid_tree, true),
        ];
        let mut scratch = GroundedScratch::new();
        for (g, is_tree) in &graphs {
            let (n, l) = (g.n(), g.laplacian());
            for ground in [0, n / 2, n - 1] {
                let s = GroundedSolver::with_ground(&l, ground, OrderingKind::MinDegree).unwrap();
                assert_eq!(s.factor().is_none(), *is_tree, "n = {n}: elimination kind");
                let cols: Vec<Vec<f64>> = (0..17)
                    .map(|c| {
                        (0..n)
                            .map(|i| ((i * (2 * c + 1) + c) as f64 * 0.37).sin() + c as f64)
                            .collect()
                    })
                    .collect();
                let reference = reference_solver(&l, &s);
                let want: Vec<Vec<u64>> = cols.iter().map(|b| bits(&reference(b))).collect();
                assert_eq!(
                    bits(&s.solve(&cols[0])),
                    want[0],
                    "n = {n}, ground {ground}: solve"
                );
                for w in [1usize, 7, 8, 9, 15, 17] {
                    let mut xv = vec![vec![0.0; n]; w];
                    s.solve_columns(&cols[..w], &mut xv, &mut scratch);
                    let block = DenseBlock::from_columns(&cols[..w]);
                    let mut xb = DenseBlock::zeros(n, w);
                    let mut x: Vec<&mut [f64]> = xb.columns_mut().collect();
                    s.solve_columns(&block.columns().collect::<Vec<_>>(), &mut x, &mut scratch);
                    let many = s.solve_many(&cols[..w]);
                    for c in 0..w {
                        let what = format!("n = {n}, ground {ground}, width {w}, column {c}");
                        assert_eq!(bits(&xv[c]), want[c], "{what}: columns");
                        assert_eq!(bits(xb.col(c)), want[c], "{what}: block columns");
                        assert_eq!(bits(&many[c]), want[c], "{what}: many");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_ground() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        assert!(GroundedSolver::with_ground(&g.laplacian(), 5, OrderingKind::Natural).is_err());
    }

    /// Solves `rhs` through [`GroundedSolver::solve_columns`] with the
    /// given scratch.
    fn solve_with(
        s: &GroundedSolver,
        rhs: &[Vec<f64>],
        scratch: &mut GroundedScratch,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![vec![9.0; s.n()]; rhs.len()];
        s.solve_columns(rhs, &mut out, scratch);
        out
    }

    #[test]
    fn solve_many_into_reuses_scratch_and_matches() {
        let g = grid2d(6, 6, WeightModel::Unit, 2);
        let l = g.laplacian();
        let s = GroundedSolver::new(&l, OrderingKind::Rcm).unwrap();
        let rhs: Vec<Vec<f64>> = (0..11)
            .map(|k: usize| (0..36).map(|i| ((i + 3 * k) as f64 * 0.2).sin()).collect())
            .collect();
        let mut scratch = GroundedScratch::new();
        assert_eq!(solve_with(&s, &rhs, &mut scratch), s.solve_many(&rhs));
        // Second batch through the same scratch (different count) still
        // matches — buffers resize rather than accumulate stale state.
        let rhs2: Vec<Vec<f64>> = rhs.into_iter().take(3).collect();
        assert_eq!(solve_with(&s, &rhs2, &mut scratch), s.solve_many(&rhs2));
    }

    /// Regression: a 1-vertex system reduces to zero-row blocks; the
    /// column solve must still zero the ground row (and not leak stale
    /// scratch contents from a previous, larger batch).
    #[test]
    fn one_vertex_system_with_primed_scratch() {
        let big = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let s2 = GroundedSolver::new(&big.laplacian(), OrderingKind::Natural).unwrap();
        let mut scratch = GroundedScratch::new();
        let out2 = solve_with(&s2, &[vec![1.0, -1.0]], &mut scratch);
        assert!((out2[0][0] - 0.5).abs() < 1e-15);

        let tiny = Graph::from_edges(1, &[]).unwrap();
        let s1 = GroundedSolver::new(&tiny.laplacian(), OrderingKind::Natural).unwrap();
        assert_eq!(solve_with(&s1, &[vec![5.0]], &mut scratch), vec![vec![0.0]]);
        assert_eq!(s1.solve_many(&[vec![5.0]]), vec![vec![0.0]]);
        assert_eq!(s1.solve(&[5.0]), vec![0.0]);
    }

    /// A weight-only edit keeps the grounded pattern, so `refactor` must
    /// reproduce the from-scratch solver bit-for-bit and report a partial
    /// (non-full) numeric re-run.
    #[test]
    fn refactor_after_weight_edit_matches_fresh_solver() {
        let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s =
            GroundedSolver::with_ground(&g.laplacian(), 5, OrderingKind::MinDegree).unwrap();
        // Bump one edge weight; both endpoints are the changed vertices.
        let (u, v, w) = edges[40];
        edges[40] = (u, v, w + 1.5);
        let g2 = Graph::from_edges(g.n(), &edges).unwrap();
        let l2 = g2.laplacian();
        let stats = s.refactor(&l2, &[u, v], 0.9).unwrap();
        assert!(
            !stats.full,
            "two changed vertices on a grid must stay partial"
        );
        assert!(stats.cols_refactored < stats.total_cols);
        let fresh = GroundedSolver::with_ground(&l2, 5, OrderingKind::MinDegree).unwrap();
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 3 % 17) as f64) - 8.0).collect();
        dense::center(&mut b);
        assert_eq!(
            s.solve(&b),
            fresh.solve(&b),
            "patched factor must be bit-identical"
        );
    }

    /// An edit touching the ground vertex only perturbs the *other*
    /// endpoint's grounded row; the ground itself must be silently skipped.
    #[test]
    fn refactor_handles_ground_vertex_edits() {
        let g = grid2d(6, 6, WeightModel::Unit, 3);
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
        let idx = edges.iter().position(|&(u, _, _)| u == 0).unwrap();
        let (u, v, w) = edges[idx];
        edges[idx] = (u, v, w + 0.75);
        let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        s.refactor(&l2, &[u, v], 0.9).unwrap();
        let fresh = GroundedSolver::new(&l2, OrderingKind::MinDegree).unwrap();
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.3).sin()).collect();
        dense::center(&mut b);
        assert_eq!(s.solve(&b), fresh.solve(&b));
    }

    /// Adding an edge changes the grounded sparsity pattern; `refactor`
    /// must fall back to a full rebuild and still land on the fresh solver.
    #[test]
    fn refactor_pattern_change_falls_back_to_full_rebuild() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s = GroundedSolver::new(&g.laplacian(), OrderingKind::MinDegree).unwrap();
        edges.push((3, 21, 2.0)); // brand-new long-range edge
        let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        let stats = s.refactor(&l2, &[3, 21], 0.9).unwrap();
        assert!(stats.full, "a pattern change must go through the full path");
        assert_eq!(stats.cols_refactored, g.n() - 1);
        let fresh = GroundedSolver::new(&l2, OrderingKind::MinDegree).unwrap();
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 11 % 7) as f64) - 3.0).collect();
        dense::center(&mut b);
        assert_eq!(s.solve(&b), fresh.solve(&b));
    }

    /// The first `refactor` builds the ground-elimination cache — a copy
    /// of the input pattern, a gather map and the grounded submatrix — and
    /// the factor's own refactor cache; `memory_bytes` counts both.
    #[test]
    fn memory_bytes_counts_the_ground_cache() {
        use std::mem::{size_of, size_of_val};
        let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut s =
            GroundedSolver::with_ground(&g.laplacian(), 5, OrderingKind::MinDegree).unwrap();
        let (before, factor_before) = (s.memory_bytes(), s.factor().unwrap().memory_bytes());
        let (u, v, w) = edges[12];
        edges[12] = (u, v, w * 2.0);
        let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
        s.refactor(&l2, &[u, v], 0.9).unwrap();
        let factor_growth = s.factor().unwrap().memory_bytes() - factor_before;
        let mut keep = vec![true; g.n()];
        keep[5] = false;
        let reduced = l2.principal_submatrix(&keep).0;
        let cache = size_of_val(l2.indptr())
            + (l2.nnz() + reduced.nnz()) * size_of::<u32>()
            + reduced.memory_bytes();
        assert!(s.memory_bytes() >= before + factor_growth + cache);
    }

    #[test]
    fn refactor_rejects_bad_shapes_and_vertices() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        let mut s = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap();
        let small = grid2d(3, 3, WeightModel::Unit, 0).laplacian();
        assert!(matches!(
            s.refactor(&small, &[1], 0.9),
            Err(SolverError::ShapeMismatch { .. })
        ));
        let l = g.laplacian();
        assert!(matches!(
            s.refactor(&l, &[99], 0.9),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    /// Deleting a cut edge disconnects the graph: the numeric re-run hits a
    /// zero pivot and must surface as `GroundedSingular` (pattern of the
    /// Laplacian with an explicitly-zero edge kept; here we rebuild the
    /// edge list, so the pattern changes and the full rebuild catches it).
    #[test]
    fn refactor_disconnection_reports_singular() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let mut s = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap();
        let cut = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert_eq!(
            s.refactor(&cut.laplacian(), &[1, 2], 0.9).unwrap_err(),
            SolverError::GroundedSingular
        );
    }

    #[test]
    fn solve_many_empty_rhs_list() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap();
        assert!(s.solve_many(&[]).is_empty());
        s.solve_columns::<&[f64], &mut [f64]>(&[], &mut [], &mut GroundedScratch::new());
    }

    /// A tree-eliminated and a factored solver on the same vertex count,
    /// for the column-count checks below.
    fn tree_and_factored() -> [GroundedSolver; 2] {
        let path = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let triangle = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let solvers = [path, triangle]
            .map(|g| GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap());
        assert!(solvers[0].factor().is_none() && solvers[1].factor().is_some());
        solvers
    }

    #[test]
    #[should_panic(expected = "column counts differ")]
    fn surplus_b_column_panics_on_tree_solver() {
        let [tree, _] = tree_and_factored();
        let b = [1.0, 0.0, -1.0];
        tree.solve_columns(&[&b, &b], &mut [&mut [0.0; 3]], &mut GroundedScratch::new());
    }

    #[test]
    #[should_panic(expected = "column counts differ")]
    fn surplus_x_column_panics_on_tree_solver() {
        let [tree, _] = tree_and_factored();
        let (mut x0, mut x1) = ([0.0; 3], [0.0; 3]);
        let b = [1.0, 0.0, -1.0];
        tree.solve_columns(&[&b], &mut [&mut x0, &mut x1], &mut GroundedScratch::new());
    }

    #[test]
    #[should_panic(expected = "column counts differ")]
    fn surplus_b_column_panics_on_factored_solver() {
        let [_, factored] = tree_and_factored();
        let b = [1.0, 0.0, -1.0];
        factored.solve_columns(&[&b, &b], &mut [&mut [0.0; 3]], &mut GroundedScratch::new());
    }

    #[test]
    #[should_panic(expected = "column counts differ")]
    fn surplus_x_column_panics_on_factored_solver() {
        let [_, factored] = tree_and_factored();
        let (mut x0, mut x1) = ([0.0; 3], [0.0; 3]);
        let b = [1.0, 0.0, -1.0];
        factored.solve_columns(&[&b], &mut [&mut x0, &mut x1], &mut GroundedScratch::new());
    }
}
