use crate::peel::Peel;
use crate::{Result, SolverError};
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{dense, pool, CsrMatrix, LdlFactor, RefactorStats, LDL_BLOCK_WIDTH};

/// Minimum `n × ncols` work before a column set's per-column mean-zero
/// projection goes parallel under automatic pool sizing (an
/// explicit `SASS_THREADS` / `pool::set_threads` override skips the
/// crossover). The core factor's triangular solves carry their own gates
/// inside [`LdlFactor`]: they run on a subtree-to-lane partition of the
/// elimination tree once the factor is big enough and its trunk light
/// enough. The peeled records' sweeps run serially.
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
/// One elimination serves every matrix, with no knob:
///
/// - the **peel** eliminates every vertex whose degree (ground excluded) is
///   at most two in `O(n + nnz)`: pendant trees leaf to root from the
///   ground, then degree-2 chains, each adding at most one fill entry;
/// - only the remaining **core** — the Schur complement, still SPD — goes
///   to the requested fill-reducing ordering and the sparse LDLᵀ
///   ([`LdlFactor`]).
///
/// A spanning tree's Laplacian is peeled whole, leaf to root, with no fill,
/// no ordering and an empty core; a sparsifier's backbone and most of its
/// recovered edges peel away, leaving a small core.
///
/// Right-hand sides are centered defensively, so passing a `b` with nonzero
/// mean solves against its projection onto `range(L)`.
///
/// Every solve goes through [`GroundedSolver::solve_columns`] and moves
/// its data once each way: the caller's full-size columns are packed
/// straight into the elimination's work buffer in elimination order,
/// dropping the ground row and subtracting each column's mean on the way
/// in; the peeled rows and the core factor's slot range are swept in
/// place ([`LdlFactor::sweep_chunk`]); and every row is unpacked with the
/// ground entry set to zero on the way out. The only other pass is the
/// mean-zero projection of each solution. Each column's result has the
/// same bits whether it was solved alone or in a set.
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
    pub(crate) peel: Peel,
}

impl GroundedSolver {
    /// Factorizes the Laplacian `l` grounded at vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] for a rectangular matrix,
    /// and [`SolverError::GroundedSingular`] when the matrix's pattern is
    /// disconnected from the ground, a row lacks its diagonal, or the
    /// elimination hits a zero pivot — which for a Laplacian means the
    /// underlying graph is disconnected.
    ///
    /// # Panics
    ///
    /// Panics if a row's column indices are not strictly ascending (every
    /// constructor in `sass-sparse` produces sorted rows), or if the
    /// matrix's stored entries and rows together reach 2³¹.
    pub fn new(l: &CsrMatrix, ordering: OrderingKind) -> Result<Self> {
        Self::with_ground(l, 0, ordering)
    }

    /// Factorizes the Laplacian grounded at a chosen vertex.
    ///
    /// # Errors
    ///
    /// See [`GroundedSolver::new`]; additionally rejects an out-of-range
    /// ground vertex.
    ///
    /// # Panics
    ///
    /// See [`GroundedSolver::new`].
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
            peel: Peel::new(l, ground, ordering)?,
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
    /// The peel's structure depends only on the sparsity pattern, so:
    ///
    /// - when `l` has the pattern the solver was built for, the peel's
    ///   numeric pass is replayed on the new values in its original order,
    ///   and the core factor re-runs numeric factorization only on the
    ///   elimination-tree ancestor closure of the core rows whose values
    ///   changed ([`LdlFactor::refactor_partial`]); `crossover` is the
    ///   affected-fraction threshold past which the core's whole numeric
    ///   phase is re-run on its existing symbolic analysis;
    /// - a changed pattern is eliminated from scratch, with a fresh
    ///   ordering of the new core, and reports `full: true` with every
    ///   grounded column counted.
    ///
    /// On a replay, `cols_refactored` counts the core's re-run columns plus
    /// the peeled columns the edit reaches: the changed vertices' records
    /// and every record whose pivot or entries a reached record updates.
    /// The replay recomputes the other records' `O(1)` steps too, and they
    /// reproduce their values bit for bit.
    ///
    /// After a successful return the solver is exactly the solver
    /// [`GroundedSolver::with_ground`] would build for `l` — bit-identical
    /// when the pattern is unchanged (the replay runs the build's own
    /// numeric pass on the new values, and re-run core columns execute the
    /// same factorization steps on the same inputs).
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
        self.peel
            .refactor(l, changed_vertices, crossover, self.ordering)
    }

    /// Dimension of the original (ungrounded) system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The grounded vertex.
    pub fn ground(&self) -> usize {
        self.ground
    }

    /// Off-diagonal nonzeros of the factor's `L` (memory/fill proxy): the
    /// peel's multipliers plus the core factor's `nnz(L)`. A spanning tree
    /// has one entry per vertex whose tree parent is not the ground,
    /// `n − 1 − deg(ground)`.
    pub fn nnz_factor(&self) -> usize {
        self.peel.nnz()
    }

    /// The sparse LDLᵀ factorization of the core — the Schur complement
    /// left after the peel — or `None` when the peel eliminated every
    /// vertex (a spanning tree, a cycle). Exposes the elimination-tree
    /// observability surface ([`LdlFactor::partition_shape`],
    /// [`LdlFactor::memory_bytes`]) the bench binaries report.
    pub fn factor(&self) -> Option<&LdlFactor> {
        self.peel.core()
    }

    /// Approximate memory held by the solver, in bytes: the peel's records
    /// and the pattern [`GroundedSolver::refactor`] replays on, the core
    /// matrix, and the core factor with its own refactor cache.
    pub fn memory_bytes(&self) -> usize {
        self.peel.memory_bytes()
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
    /// [`sass_sparse::LDL_BLOCK_WIDTH`] columns: one sweep over the peel's
    /// records and the core factor's indices advances the whole block, so
    /// factor traffic is paid once per block instead of once per vector.
    /// Results are bit-identical to per-RHS [`GroundedSolver::solve`].
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
    /// Columns go through the elimination [`LDL_BLOCK_WIDTH`] at a time,
    /// each column shifted by its mean and packed with the ground row left
    /// out; the ground row comes back as zero. The mean-zero projection
    /// runs serially for one column and spreads columns over the pool
    /// above a work crossover, each column through the same serial code, so
    /// every column's bits are those of a one-column solve at any pool
    /// width.
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
        let work = &mut scratch.work;
        for (b, x) in b.chunks(LDL_BLOCK_WIDTH).zip(x.chunks_mut(LDL_BLOCK_WIDTH)) {
            match b.len() {
                1 => self.chunk::<1, _, _>(b, x, work),
                2 => self.chunk::<2, _, _>(b, x, work),
                3 => self.chunk::<3, _, _>(b, x, work),
                4 => self.chunk::<4, _, _>(b, x, work),
                5 => self.chunk::<5, _, _>(b, x, work),
                6 => self.chunk::<6, _, _>(b, x, work),
                7 => self.chunk::<7, _, _>(b, x, work),
                _ => self.chunk::<LDL_BLOCK_WIDTH, _, _>(b, x, work),
            }
        }
        match self.center_spans(x.len()) {
            None => x.iter_mut().for_each(|col| dense::center(col.as_mut())),
            Some(spans) => pool::Pool::global().parallel_for_disjoint_mut(x, &spans, |_, xs| {
                xs.iter_mut().for_each(|col| dense::center(col.as_mut()))
            }),
        }
    }

    /// One chunk of exactly `K` columns through [`Peel::solve_chunk`],
    /// each shifted by its mean.
    fn chunk<const K: usize, B, X>(&self, b: &[B], x: &mut [X], work: &mut Vec<f64>)
    where
        B: AsRef<[f64]>,
        X: AsMut<[f64]>,
    {
        let (Ok(b), Ok(x)) = (<&[B; K]>::try_from(b), <&mut [X; K]>::try_from(x)) else {
            unreachable!("solve_columns hands out chunks of exactly K columns");
        };
        let b = b.each_ref().map(AsRef::as_ref);
        self.peel.solve_chunk(
            b,
            b.map(dense::mean),
            &mut x.each_mut().map(AsMut::as_mut),
            work,
        );
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
/// chunk of right-hand sides in the elimination's row order, `K` values
/// per row.
///
/// One scratch serves solvers of any size and any block width (the buffer
/// resizes lazily, and every pack overwrites it); keep it per call site,
/// not shared across threads.
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

    /// One eliminated vertex of [`peel_reference`]: its neighbours at
    /// elimination, ascending, with their multipliers, and its pivot.
    struct Record {
        v: usize,
        nbrs: Vec<(usize, f64)>,
        d: f64,
    }

    /// The peel plus the core spelled out by vertex, with a map per entry:
    ///
    /// - BFS parents from the ground; leaf to root, every vertex with no
    ///   live neighbour, or with its parent (not the ground) as its only
    ///   one, is eliminated with `l = a_pv / d_v`, `d_p −= l · a_pv`;
    /// - a FIFO seeded in index order eliminates every vertex of degree at
    ///   most two, neighbours `a < b` ascending, adding `−l_a · a_vb` to
    ///   entry `(a, b)` — merged into an existing entry, whose endpoints
    ///   then lose a degree and may join the queue (`a` first), or new;
    /// - the live rest is the core, factored with the solver's own
    ///   permutation.
    ///
    /// Per right-hand side: center, sweep the records forward, solve the
    /// core, sweep the records backward (`x_v = y_v / d_v − Σ l_a x_a`),
    /// zero the ground and project onto mean zero. Returns whether the
    /// core is empty, and the reference.
    fn peel_reference(l: &CsrMatrix, s: &GroundedSolver) -> (bool, Reference) {
        use std::collections::{BTreeMap, BTreeSet};
        let (n, g) = (l.nrows(), s.ground());
        let key = |u: usize, w: usize| (u.min(w), u.max(w));
        let mut val = BTreeMap::new();
        let mut adj = vec![BTreeSet::new(); n];
        let mut d: Vec<f64> = (0..n).map(|v| l.get(v, v)).collect();
        for u in (0..n).filter(|&u| u != g) {
            for &w in l.row(u).0 {
                let w = w as usize;
                if w != u && w != g {
                    adj[u].insert(w);
                    val.insert(key(u, w), l.get(u, w));
                }
            }
        }
        let (mut parent, mut order) = (vec![usize::MAX; n], vec![g]);
        parent[g] = g;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &c in l.row(u).0 {
                if parent[c as usize] == usize::MAX {
                    parent[c as usize] = u;
                    order.push(c as usize);
                }
            }
        }
        let mut records = Vec::new();
        let mut alive = vec![true; n];
        alive[g] = false;
        for &v in order[1..].iter().rev() {
            let p = parent[v];
            let nbrs = match adj[v].len() {
                0 => vec![],
                1 if p != g => {
                    let l_pv = l.get(p, v) / d[v];
                    d[p] -= l_pv * l.get(p, v);
                    adj[p].remove(&v);
                    vec![(p, l_pv)]
                }
                _ => continue,
            };
            records.push(Record { v, nbrs, d: d[v] });
            alive[v] = false;
        }
        let mut queued: Vec<bool> = (0..n).map(|v| alive[v] && adj[v].len() <= 2).collect();
        let mut fifo: std::collections::VecDeque<usize> = (0..n).filter(|&v| queued[v]).collect();
        while let Some(v) = fifo.pop_front() {
            let nb: Vec<usize> = adj[v].iter().copied().collect();
            let dv = d[v];
            let a_v: Vec<f64> = nb.iter().map(|&a| val[&key(v, a)]).collect();
            let ls: Vec<f64> = a_v.iter().map(|&a| a / dv).collect();
            for ((&a, &l_a), &a_va) in nb.iter().zip(&ls).zip(&a_v) {
                d[a] -= l_a * a_va;
                adj[a].remove(&v);
            }
            let mut lowered = nb.clone();
            if let [a, b] = nb[..] {
                let merged = val.contains_key(&key(a, b));
                *val.entry(key(a, b)).or_insert(0.0) -= ls[0] * a_v[1];
                if !merged {
                    adj[a].insert(b);
                    adj[b].insert(a);
                    lowered.clear();
                }
            }
            for x in lowered {
                if adj[x].len() <= 2 && !queued[x] {
                    queued[x] = true;
                    fifo.push_back(x);
                }
            }
            records.push(Record {
                v,
                nbrs: nb.into_iter().zip(ls).collect(),
                d: dv,
            });
            alive[v] = false;
        }
        let core: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        let Some(factor) = s.factor() else {
            assert!(core.is_empty(), "the solver has no core factor");
            return (true, Box::new(move |b| sweep(&records, None, g, b)));
        };
        let mut coo = sass_sparse::CooMatrix::new(core.len(), core.len());
        for (i, &u) in core.iter().enumerate() {
            coo.push(i, i, d[u]);
            for (j, &w) in core.iter().enumerate() {
                if w != u && adj[u].contains(&w) {
                    coo.push(i, j, val[&key(u, w)]);
                }
            }
        }
        let f = LdlFactor::with_permutation(&coo.to_csr(), factor.permutation().clone()).unwrap();
        (
            false,
            Box::new(move |b| sweep(&records, Some((&core, &f)), g, b)),
        )
    }

    /// The per-right-hand-side half of [`peel_reference`].
    fn sweep(
        records: &[Record],
        core: Option<(&[usize], &LdlFactor)>,
        g: usize,
        b: &[f64],
    ) -> Vec<f64> {
        let mean = dense::mean(b);
        let mut y: Vec<f64> = b.iter().map(|&v| v - mean).collect();
        for r in records {
            for &(a, l) in &r.nbrs {
                y[a] -= l * y[r.v];
            }
        }
        if let Some((core, f)) = core {
            let yc: Vec<f64> = core.iter().map(|&u| y[u]).collect();
            for (&u, x) in core.iter().zip(f.solve(&yc)) {
                y[u] = x;
            }
        }
        for r in records.iter().rev() {
            let mut x = y[r.v] / r.d;
            for &(a, l) in &r.nbrs {
                x -= l * y[a];
            }
            y[r.v] = x;
        }
        y[g] = 0.0;
        dense::center(&mut y);
        y
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

    /// Every grounded solve path against a spelled-out reference, bit for
    /// bit: `solve`, `solve_many`, and `solve_columns` on `Vec` columns and
    /// on [`DenseBlock`] columns, at the first, middle and last ground
    /// vertex, across column counts around the chunk width, down to one-
    /// and two-vertex systems. One scratch serves every call, so stale
    /// buffer contents would show. The one- and two-vertex systems and the
    /// grid's spanning tree are checked against [`tree_reference`]; the
    /// triangle (peeled whole), the circuit grid and the grid (peel plus a
    /// core) against [`peel_reference`].
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
                let reference = if *is_tree {
                    assert!(s.factor().is_none(), "n = {n}: a tree has no core");
                    Box::new(tree_reference(&l, ground))
                } else {
                    let (no_core, reference) = peel_reference(&l, &s);
                    assert_eq!(s.factor().is_none(), no_core, "n = {n}: core");
                    assert_eq!(no_core, n == 3, "n = {n}: only the triangle peels whole");
                    reference
                };
                let cols: Vec<Vec<f64>> = (0..17)
                    .map(|c| {
                        (0..n)
                            .map(|i| ((i * (2 * c + 1) + c) as f64 * 0.37).sin() + c as f64)
                            .collect()
                    })
                    .collect();
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

    /// The first `refactor` copies the input pattern — the key later
    /// refactors replay the peel on — and builds the core factor's own
    /// refactor cache; `memory_bytes` counts both.
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
        let pattern = size_of_val(l2.indptr()) + l2.nnz() * size_of::<u32>();
        assert!(factor_growth > 0);
        assert_eq!(s.memory_bytes(), before + factor_growth + pattern);
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

    /// A solver peeled whole (a path) and one with a core factor (the
    /// complete graph on five vertices), for the column-count checks below,
    /// which run before any length check.
    fn tree_and_factored() -> [GroundedSolver; 2] {
        let path = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]);
        let k5: Vec<_> = (0..5)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v, 1.0)))
            .collect();
        let solvers = [path.unwrap(), Graph::from_edges(5, &k5).unwrap()]
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
