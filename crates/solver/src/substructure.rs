//! Substructured (domain-decomposed) exact Laplacian solves.
//!
//! [`ShardedSolver`] is the domain-decomposition counterpart of
//! [`crate::GroundedSolver`]: it grounds the Laplacian at vertex 0 (the
//! reduced matrix is SPD for a connected graph), splits the reduced
//! system with a vertex separator
//! ([`sass_sparse::ordering::vertex_separator`]) into `k` mutually
//! non-adjacent interior domains plus one separator, and solves by
//! *substructuring*:
//!
//! ```text
//!   ┌ A_00      A_0s ┐   per-domain LDLᵀ factors A_dd = L_d D_d L_dᵀ
//!   │   A_11    A_1s │   (built concurrently, one pool lane per domain)
//!   │     ⋱      ⋮   │
//!   │ sym     A_kk ⋮ │   separator Schur complement
//!   └ ⋯  ⋯  ⋯   A_ss ┘   S = A_ss − Σ_d A_sd A_dd⁻¹ A_ds  (dense LDLᵀ)
//! ```
//!
//! A solve is then two embarrassingly-parallel domain sweeps around one
//! small separator solve: `t_d = A_dd⁻¹ r_d`, `g = r_s − Σ A_dsᵀ t_d`,
//! `x_s = S⁻¹ g`, `x_d = A_dd⁻¹ (r_d − A_ds x_s)`. The Schur columns
//! `A_dd⁻¹ A_ds` are produced through the blocked multi-right-hand-side
//! factor path ([`LdlFactor::solve_block_into_scratch`]), a chunk of
//! [`LDL_BLOCK_WIDTH`]-column sweeps at a time.
//!
//! # Tolerance contract
//!
//! [`ShardedSolver::solve`] computes the same mean-zero pseudoinverse
//! representative as [`crate::GroundedSolver::solve`] but along a
//! different elimination order, so results agree to **relative
//! difference ≤ 1e-8** on the paper's table workloads (meshes,
//! scale-free graphs, circuit grids) rather than bit-for-bit — the
//! `shard_parity` proptests pin this down at forced pool widths 1/2/3/8.
//! Results of the sharded solver itself are bit-identical across worker
//! counts: every per-domain product lands in a private slot and all
//! cross-domain folds run in fixed domain order.
//!
//! # Out-of-core mode
//!
//! With [`ShardOptions::out_of_core`] set, domain matrices are spilled
//! to disk ([`sass_sparse::SpillStore`], Matrix Market files in a
//! uniquely-named temp subdirectory) and at most one domain **factor**
//! is resident at a time; a domain solve re-reads and re-factorizes on
//! demand. That trades solve time for a peak resident footprint of one
//! domain instead of the whole factor — [`ShardedSolver::peak_resident_bytes`]
//! reports the high-water mark the shard bench compares against the
//! monolithic factor's memory.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use crate::{Result, SolverError};
use sass_sparse::ordering::{vertex_separator, OrderingKind, SeparatorParts};
use sass_sparse::pool::{self, Span};
use sass_sparse::{
    dense, extract_blocks, CsrMatrix, DenseBlock, LdlFactor, ShardOptions, SparseError, SpillStore,
    LDL_BLOCK_WIDTH,
};

/// Columns per blocked Schur right-hand-side chunk: a full
/// [`LDL_BLOCK_WIDTH`]-wide sweep times 8, capping the dense scratch at
/// `8 · LDL_BLOCK_WIDTH · n_d` per domain while keeping every sweep full.
const SCHUR_RHS_CHUNK: usize = 8 * LDL_BLOCK_WIDTH;

/// Maps a factorization failure onto the solver's error vocabulary: a
/// zero pivot in any domain block (or the Schur complement) means the
/// grounded system is singular — the graph is disconnected.
fn factor_err(e: SparseError) -> SolverError {
    match e {
        SparseError::ZeroPivot { .. } => SolverError::GroundedSingular,
        e => e.into(),
    }
}

/// Dense LDLᵀ of the separator Schur complement (column-major; unit
/// lower triangle below the diagonal, `D` on the diagonal). The
/// separator is small relative to the domains by construction, so the
/// `O(n_s³)` factorization and `O(n_s²)` storage stay negligible next
/// to the sparse domain factors.
#[derive(Debug, Clone)]
struct DenseLdl {
    n: usize,
    ld: Vec<f64>,
}

impl DenseLdl {
    /// Factorizes the column-major `n × n` matrix `a` in place
    /// (left-looking, column by column).
    ///
    /// # Errors
    ///
    /// [`SolverError::GroundedSingular`] on a non-positive (or
    /// non-finite) pivot — the Schur complement of an SPD matrix is SPD,
    /// so this only fires when the grounded system was singular.
    fn new(mut a: Vec<f64>, n: usize) -> Result<Self> {
        debug_assert_eq!(a.len(), n * n);
        for j in 0..n {
            // Columns 0..j are finished L columns; split so we can read
            // them while updating column j.
            let (done, rest) = a.split_at_mut(j * n);
            let col_j = &mut rest[j..n];
            for k in 0..j {
                let dk = done[k * n + k];
                let ljk = done[k * n + j];
                if ljk == 0.0 {
                    continue;
                }
                let scale = dk * ljk;
                let col_k = &done[k * n + j..k * n + n];
                for (cj, &ck) in col_j.iter_mut().zip(col_k) {
                    *cj -= scale * ck;
                }
            }
            let d = col_j[0];
            // `d <= 0.0` is false for NaN, but NaN is non-finite and so
            // still rejected by the second arm.
            if d <= 0.0 || !d.is_finite() {
                return Err(SolverError::GroundedSingular);
            }
            for v in &mut col_j[1..] {
                *v /= d;
            }
        }
        Ok(DenseLdl { n, ld: a })
    }

    /// Solves `(L D Lᵀ) x = b` in place.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                let col = &self.ld[j * n + j + 1..j * n + n];
                for (xi, &l) in x[j + 1..].iter_mut().zip(col) {
                    *xi -= l * xj;
                }
            }
        }
        for (j, xj) in x.iter_mut().enumerate() {
            *xj /= self.ld[j * n + j];
        }
        for j in (0..n).rev() {
            let col = &self.ld[j * n + j + 1..j * n + n];
            let mut s = x[j];
            for (&xi, &l) in x[j + 1..].iter().zip(col) {
                s -= l * xi;
            }
            x[j] = s;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.ld.len() * std::mem::size_of::<f64>()
    }
}

/// Where the per-domain LDLᵀ factors live.
enum FactorStore {
    /// All `k` factors resident — the fast path.
    InCore(Vec<LdlFactor>),
    /// Domain matrices on disk; at most one factor resident, rebuilt
    /// from its spilled matrix on demand.
    OutOfCore {
        store: Arc<SpillStore>,
        resident: Box<Mutex<Option<(usize, LdlFactor)>>>,
        /// High-water mark of resident bytes (domain matrix + its
        /// factor), the out-of-core memory headline.
        peak_resident: AtomicUsize,
    },
}

/// Per-domain workspace one pool lane owns during a solve pass: the
/// gathered domain right-hand sides, the domain solution block, the
/// separator-coupling product, and the factor-solve scratch.
#[derive(Default)]
struct DomainSlot {
    rhs: DenseBlock,
    x: DenseBlock,
    /// `A_dsᵀ t_d` (`n_s × ncols`) — this domain's contribution to the
    /// separator right-hand side.
    coupling: DenseBlock,
    work: Vec<f64>,
}

/// Exact grounded-Laplacian solver by domain decomposition — see the
/// [module docs](self) for the decomposition, the tolerance contract
/// against [`crate::GroundedSolver`], and the out-of-core mode.
///
/// # Example
///
/// ```
/// use sass_graph::generators::{grid2d, WeightModel};
/// use sass_solver::ShardedSolver;
/// use sass_sparse::ShardOptions;
///
/// # fn main() -> Result<(), sass_solver::SolverError> {
/// let g = grid2d(12, 9, WeightModel::Unit, 0);
/// let l = g.laplacian();
/// let opts = ShardOptions { domains: 3, ..Default::default() };
/// let s = ShardedSolver::new(&l, Default::default(), &opts)?;
/// let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64).sin()).collect();
/// sass_sparse::dense::center(&mut b);
/// let x = s.solve(&b);
/// assert!(l.residual_norm(&x, &b) < 1e-8);
/// assert!(x.iter().sum::<f64>().abs() < 1e-8); // mean-zero representative
/// # Ok(())
/// # }
/// ```
pub struct ShardedSolver {
    /// Dimension of the original (ungrounded) system.
    n: usize,
    /// Reduced dimension (`n - 1`; vertex 0 is the ground).
    rn: usize,
    parts: SeparatorParts,
    /// Domain spans in the (domains…, separator) renumbering — the units
    /// of every per-domain pool dispatch, and what the race-check shadow
    /// tracker audits for disjointness.
    spans: Vec<Span>,
    /// Domain→separator couplings `A_ds` (domain-local rows,
    /// separator-local columns), always resident.
    a_ds: Vec<CsrMatrix>,
    schur: DenseLdl,
    store: FactorStore,
    ordering: OrderingKind,
    /// Total bytes of all domain factors (what in-core mode keeps
    /// resident; out-of-core rebuilds them one at a time).
    factor_bytes: usize,
}

impl ShardedSolver {
    /// Builds the substructured solver for the Laplacian `l`, grounded
    /// at vertex 0.
    ///
    /// `opts.domains` requests the domain count (`0` picks a size-based
    /// heuristic); the achieved decomposition is readable back through
    /// [`ShardedSolver::domain_count`] / [`ShardedSolver::separator_len`].
    ///
    /// # Errors
    ///
    /// [`SolverError::ShapeMismatch`] for a rectangular or empty matrix,
    /// [`SolverError::GroundedSingular`] when any domain factor or the
    /// Schur complement hits a zero pivot (the graph is disconnected),
    /// and spill I/O failures surface as [`SolverError::Sparse`] in
    /// out-of-core mode.
    pub fn new(l: &CsrMatrix, ordering: OrderingKind, opts: &ShardOptions) -> Result<Self> {
        let n = l.nrows();
        if n != l.ncols() || n == 0 {
            return Err(SolverError::ShapeMismatch {
                context: format!("sharded solver: laplacian is {}x{}", n, l.ncols()),
            });
        }
        let rn = n - 1;
        let mut keep = vec![true; n];
        keep[0] = false;
        let (reduced, _) = l.principal_submatrix(&keep);
        let k = if opts.domains == 0 {
            // One domain per ~64k reduced rows, at least 2 so small
            // systems still exercise the substructured path, at most 16
            // so huge ones keep domains near cache size.
            (rn / 65_536).clamp(2, 16)
        } else {
            opts.domains
        };
        let parts = vertex_separator(&reduced, k);
        let blocks = extract_blocks(&reduced, &parts);
        let offsets = parts.offsets();
        let k = parts.domain_count();
        let ns = parts.separator().len();
        let spans: Vec<Span> = (0..k).map(|d| (offsets[d], offsets[d + 1])).collect();

        // Dense column-major A_ss, the Schur complement's starting point.
        let mut s_dense = vec![0.0; ns * ns];
        for i in 0..ns {
            let (cols, vals) = blocks.a_ss.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                s_dense[c as usize * ns + i] = v;
            }
        }

        let mut factor_bytes = 0usize;
        let store = if opts.out_of_core {
            // Serial domain sweep: factorize, fold the Schur
            // contribution, spill the matrix, drop the factor — at most
            // one domain resident at any point after this loop.
            let mut peak = 0usize;
            for d in 0..k {
                let f = LdlFactor::new(&blocks.a_dd[d], ordering).map_err(factor_err)?;
                factor_bytes += f.memory_bytes();
                peak = peak.max(blocks.a_dd[d].memory_bytes() + f.memory_bytes());
                schur_accumulate(&f, &blocks.a_ds[d], ns, &mut s_dense);
            }
            let store = SpillStore::create(&blocks.a_dd, opts.spill_dir.as_deref())
                .map_err(SolverError::from)?;
            FactorStore::OutOfCore {
                store,
                resident: Box::new(Mutex::new(None)),
                peak_resident: AtomicUsize::new(peak),
            }
        } else {
            // Concurrent per-domain factorization: one pool lane per
            // domain, each writing its private slot (the spans are the
            // domain ranges the race-check shadow tracker audits).
            let mut slots: Vec<Option<std::result::Result<LdlFactor, SparseError>>> =
                (0..k).map(|_| None).collect();
            pool::Pool::global().parallel_for_with_scratch(&spans, &mut slots, |d, _span, slot| {
                *slot = Some(LdlFactor::new(&blocks.a_dd[d], ordering));
            });
            let mut factors = Vec::with_capacity(k);
            for slot in slots {
                let f = slot
                    .unwrap_or_else(|| unreachable!("factor fan-out fills every slot"))
                    .map_err(factor_err)?;
                factor_bytes += f.memory_bytes();
                factors.push(f);
            }
            // Schur assembly: per-domain contributions mapped
            // concurrently, folded elementwise **in span order** so the
            // sum is bit-stable across worker counts.
            let contribution = pool::Pool::global().parallel_reduce(
                &spans,
                |d, _span| {
                    let mut buf = vec![0.0; ns * ns];
                    schur_accumulate(&factors[d], &blocks.a_ds[d], ns, &mut buf);
                    buf
                },
                |mut acc, buf| {
                    for (a, b) in acc.iter_mut().zip(&buf) {
                        *a += b;
                    }
                    acc
                },
            );
            if let Some(contribution) = contribution {
                for (s, c) in s_dense.iter_mut().zip(&contribution) {
                    *s += c;
                }
            }
            FactorStore::InCore(factors)
        };
        let schur = DenseLdl::new(s_dense, ns)?;
        Ok(ShardedSolver {
            n,
            rn,
            parts,
            spans,
            a_ds: blocks.a_ds,
            schur,
            store,
            ordering,
            factor_bytes,
        })
    }

    /// Dimension of the original (ungrounded) system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of interior domains.
    pub fn domain_count(&self) -> usize {
        self.parts.domain_count()
    }

    /// Separator size.
    pub fn separator_len(&self) -> usize {
        self.parts.separator().len()
    }

    /// The vertex-separator decomposition of the grounded system
    /// (reduced indices: original vertex `v > 0` appears as `v - 1`).
    pub fn parts(&self) -> &SeparatorParts {
        &self.parts
    }

    /// Whether domain matrices live on disk (factors rebuilt on demand).
    pub fn is_out_of_core(&self) -> bool {
        matches!(self.store, FactorStore::OutOfCore { .. })
    }

    /// Approximate resident memory, in bytes: factors currently held
    /// (all of them in core, at most one out of core), the dense Schur
    /// factor, and the coupling blocks.
    pub fn memory_bytes(&self) -> usize {
        let factors = match &self.store {
            FactorStore::InCore(_) => self.factor_bytes,
            FactorStore::OutOfCore { resident, .. } => {
                let slot = match resident.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                slot.as_ref().map_or(0, |(_, f)| f.memory_bytes())
            }
        };
        factors
            + self.schur.memory_bytes()
            + self.a_ds.iter().map(CsrMatrix::memory_bytes).sum::<usize>()
    }

    /// High-water mark of resident domain bytes: all domain factors in
    /// core; the largest (domain matrix + factor) pair seen so far out
    /// of core — the number the shard bench compares against a
    /// monolithic factor's [`crate::GroundedSolver::memory_bytes`].
    pub fn peak_resident_bytes(&self) -> usize {
        match &self.store {
            FactorStore::InCore(_) => self.factor_bytes,
            FactorStore::OutOfCore { peak_resident, .. } => {
                peak_resident.load(AtomicOrdering::Relaxed)
            }
        }
    }

    /// Total bytes of every domain factor (resident or not) — the
    /// in-core footprint an out-of-core solver avoids.
    pub fn factor_bytes(&self) -> usize {
        self.factor_bytes
    }

    /// Solves `L x = center(b)`, returning the mean-zero solution
    /// `L⁺ b` (same convention as [`crate::GroundedSolver::solve`]; see
    /// the [module docs](self) for the agreement tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// In-place variant of [`ShardedSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n()` or `x.len() != n()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve: b length mismatch");
        assert_eq!(x.len(), self.n, "solve: x length mismatch");
        let bin = DenseBlock::from_columns(std::slice::from_ref(&b.to_vec()));
        let out = self.solve_block(&bin);
        x.copy_from_slice(out.col(0));
    }

    /// Solves against many right-hand sides, amortizing every domain
    /// factor sweep over the whole batch (and, out of core, every
    /// domain reload).
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if rhs.is_empty() {
            return Vec::new();
        }
        for b in rhs {
            assert_eq!(b.len(), self.n, "solve_many: rhs length mismatch");
        }
        self.solve_block(&DenseBlock::from_columns(rhs))
            .into_columns()
    }

    /// Solves `L X = center(B)` column-wise, returning the mean-zero
    /// solutions `L⁺ B` — the blocked counterpart of
    /// [`ShardedSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows() != n()`.
    pub fn solve_block(&self, b: &DenseBlock) -> DenseBlock {
        assert_eq!(b.nrows(), self.n, "solve_block: b row-count mismatch");
        let ncols = b.ncols();
        let mut x = DenseBlock::zeros(self.n, ncols);
        if ncols == 0 {
            return x;
        }
        // Centered, ground-row-elided right-hand sides (the grounded
        // convention: solve against the projection onto range(L)).
        let mut rb = DenseBlock::zeros(self.rn, ncols);
        for (rcol, bcol) in rb.columns_mut().zip(b.columns()) {
            let mean = dense::mean(bcol);
            for (r, &bi) in rcol.iter_mut().zip(&bcol[1..]) {
                *r = bi - mean;
            }
        }
        let rx = self.solve_reduced(&rb);
        // Re-insert the ground row as zero and project each solution
        // onto mean-zero (the canonical pseudoinverse representative).
        for (xcol, rcol) in x.columns_mut().zip(rx.columns()) {
            xcol[0] = 0.0;
            xcol[1..].copy_from_slice(rcol);
            dense::center(xcol);
        }
        x
    }

    /// The substructured core on the reduced (grounded) system:
    /// `t_d = A_dd⁻¹ r_d`, `g = r_s − Σ A_dsᵀ t_d`, `x_s = S⁻¹ g`,
    /// `x_d = A_dd⁻¹ (r_d − A_ds x_s)`.
    fn solve_reduced(&self, rb: &DenseBlock) -> DenseBlock {
        let k = self.domain_count();
        let ns = self.separator_len();
        let ncols = rb.ncols();
        let mut out = DenseBlock::zeros(self.rn, ncols);
        if self.rn == 0 {
            return out;
        }
        // Separator right-hand sides, folded into `g` in domain order.
        let mut g = DenseBlock::zeros(ns, ncols);
        for (c, gcol) in g.columns_mut().enumerate() {
            for (gi, &v) in gcol.iter_mut().zip(self.parts.separator()) {
                *gi = rb.col(c)[v];
            }
        }
        match &self.store {
            FactorStore::InCore(factors) => {
                let mut slots: Vec<DomainSlot> = (0..k).map(|_| DomainSlot::default()).collect();
                let p = pool::Pool::global();
                // Pass 1 — per-domain fan-out: each lane owns one slot
                // and one domain span; the shadow tracker audits the
                // spans for disjoint exact coverage under race-check.
                p.parallel_for_with_scratch(&self.spans, &mut slots, |d, _span, slot| {
                    self.gather_domain(d, rb, &mut slot.rhs);
                    slot.x.reshape(slot.rhs.nrows(), ncols);
                    factors[d].solve_block_into_scratch(&slot.rhs, &mut slot.x, &mut slot.work);
                    self.couple(d, &slot.x, &mut slot.coupling);
                });
                for slot in &slots {
                    for (gv, uv) in g.data_mut().iter_mut().zip(slot.coupling.data()) {
                        *gv -= uv;
                    }
                }
                self.solve_separator(&mut g);
                if ns == 0 {
                    // Empty separator (k = 1, or disconnected pieces):
                    // pass 1 already solved every domain exactly.
                    for (d, slot) in slots.iter().enumerate() {
                        self.scatter_domain(d, &slot.x, &mut out);
                    }
                    return out;
                }
                let x_s = &g;
                // Pass 2 — same fan-out, now with the separator values
                // folded into each domain's right-hand side.
                p.parallel_for_with_scratch(&self.spans, &mut slots, |d, _span, slot| {
                    self.subtract_coupling(d, x_s, &mut slot.rhs);
                    factors[d].solve_block_into_scratch(&slot.rhs, &mut slot.x, &mut slot.work);
                });
                for (d, slot) in slots.iter().enumerate() {
                    self.scatter_domain(d, &slot.x, &mut out);
                }
                self.scatter_separator(x_s, &mut out);
            }
            FactorStore::OutOfCore { .. } => {
                // Serial two-pass sweep, one resident factor at a time.
                let mut slots: Vec<DomainSlot> = (0..k).map(|_| DomainSlot::default()).collect();
                for (d, slot) in slots.iter_mut().enumerate() {
                    self.gather_domain(d, rb, &mut slot.rhs);
                    slot.x.reshape(slot.rhs.nrows(), ncols);
                    self.with_factor(d, |f| {
                        f.solve_block_into_scratch(&slot.rhs, &mut slot.x, &mut slot.work);
                    });
                    self.couple(d, &slot.x, &mut slot.coupling);
                    for (gv, uv) in g.data_mut().iter_mut().zip(slot.coupling.data()) {
                        *gv -= uv;
                    }
                }
                self.solve_separator(&mut g);
                if ns == 0 {
                    for (d, slot) in slots.iter().enumerate() {
                        self.scatter_domain(d, &slot.x, &mut out);
                    }
                    return out;
                }
                let x_s = &g;
                // Reverse order so the factor left resident by pass 1
                // (the last domain) is reused without a reload.
                for d in (0..k).rev() {
                    let slot = &mut slots[d];
                    self.subtract_coupling(d, x_s, &mut slot.rhs);
                    self.with_factor(d, |f| {
                        f.solve_block_into_scratch(&slot.rhs, &mut slot.x, &mut slot.work);
                    });
                }
                for (d, slot) in slots.iter().enumerate() {
                    self.scatter_domain(d, &slot.x, &mut out);
                }
                self.scatter_separator(x_s, &mut out);
            }
        }
        out
    }

    /// Gathers domain `d`'s rows of `rb` into `rhs` (`n_d × ncols`).
    fn gather_domain(&self, d: usize, rb: &DenseBlock, rhs: &mut DenseBlock) {
        let rows = self.parts.domain(d);
        rhs.reshape(rows.len(), rb.ncols());
        for (c, rcol) in rhs.columns_mut().enumerate() {
            let src = rb.col(c);
            for (ri, &v) in rcol.iter_mut().zip(rows) {
                *ri = src[v];
            }
        }
    }

    /// `coupling = A_dsᵀ x_d` (`n_s × ncols`), this domain's imprint on
    /// the separator system.
    fn couple(&self, d: usize, x_d: &DenseBlock, coupling: &mut DenseBlock) {
        let ns = self.separator_len();
        let ds = &self.a_ds[d];
        coupling.reshape(ns, x_d.ncols());
        coupling.data_mut().fill(0.0);
        for (c, ucol) in coupling.columns_mut().enumerate() {
            let xcol = x_d.col(c);
            for (r, &xv) in xcol.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let (cols, vals) = ds.row(r);
                for (&sc, &v) in cols.iter().zip(vals) {
                    ucol[sc as usize] += v * xv;
                }
            }
        }
    }

    /// `rhs -= A_ds x_s` for domain `d` (pass-2 right-hand side).
    fn subtract_coupling(&self, d: usize, x_s: &DenseBlock, rhs: &mut DenseBlock) {
        let ds = &self.a_ds[d];
        for (c, rcol) in rhs.columns_mut().enumerate() {
            let scol = x_s.col(c);
            for (r, rv) in rcol.iter_mut().enumerate() {
                let (cols, vals) = ds.row(r);
                let mut acc = 0.0;
                for (&sc, &v) in cols.iter().zip(vals) {
                    acc += v * scol[sc as usize];
                }
                *rv -= acc;
            }
        }
    }

    /// Solves `S x_s = g` column-wise in place.
    fn solve_separator(&self, g: &mut DenseBlock) {
        for col in g.columns_mut() {
            self.schur.solve_in_place(col);
        }
    }

    /// Scatters domain `d`'s solution block back to reduced numbering.
    fn scatter_domain(&self, d: usize, x_d: &DenseBlock, out: &mut DenseBlock) {
        let rows = self.parts.domain(d);
        for (c, xcol) in x_d.columns().enumerate() {
            let dst = out.col_mut(c);
            for (&v, &xi) in rows.iter().zip(xcol) {
                dst[v] = xi;
            }
        }
    }

    /// Scatters the separator solution back to reduced numbering.
    fn scatter_separator(&self, x_s: &DenseBlock, out: &mut DenseBlock) {
        for (c, scol) in x_s.columns().enumerate() {
            let dst = out.col_mut(c);
            for (&v, &xi) in self.parts.separator().iter().zip(scol) {
                dst[v] = xi;
            }
        }
    }

    /// Runs `f` with domain `d`'s factor, rebuilding it from the spilled
    /// matrix first in out-of-core mode (evicting the previous resident).
    ///
    /// # Panics
    ///
    /// Panics if an out-of-core spill file cannot be re-read or no
    /// longer factorizes — the solve APIs this feeds have no error
    /// channel, and either condition means the solver's storage
    /// invariant is gone.
    fn with_factor<R>(&self, d: usize, f: impl FnOnce(&LdlFactor) -> R) -> R {
        match &self.store {
            FactorStore::InCore(factors) => f(&factors[d]),
            FactorStore::OutOfCore {
                store,
                resident,
                peak_resident,
            } => {
                let mut slot = match resident.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let cached = matches!(slot.as_ref(), Some((idx, _)) if *idx == d);
                if !cached {
                    *slot = None; // evict before loading: one resident max
                    let a = match store.load(d) {
                        Ok(m) => m,
                        Err(e) => {
                            panic!("sharded solver: spill reload of domain {d} failed: {e}")
                        }
                    };
                    let factor = match LdlFactor::new(&a, self.ordering) {
                        Ok(f) => f,
                        Err(e) => {
                            panic!("sharded solver: refactorization of domain {d} failed: {e}")
                        }
                    };
                    peak_resident.fetch_max(
                        a.memory_bytes() + factor.memory_bytes(),
                        AtomicOrdering::Relaxed,
                    );
                    *slot = Some((d, factor));
                }
                let Some((_, factor)) = slot.as_ref() else {
                    unreachable!("resident slot was just filled");
                };
                f(factor)
            }
        }
    }

    /// Corrupts the stored domain spans so the next in-core solve hands
    /// the pool an overlapping fan-out — the race-check canary tests use
    /// this to prove the shadow tracker catches overlapping-domain
    /// dispatches. Test-only; meaningless (and absent) in normal builds.
    #[cfg(feature = "race-check")]
    #[doc(hidden)]
    pub fn corrupt_domain_spans_for_test(&mut self) {
        if self.spans.len() >= 2 && self.spans[0].1 > 0 {
            // Slide span 1 back so it overlaps the tail of span 0.
            self.spans[1].0 = self.spans[0].1 - 1;
        }
    }
}

impl std::fmt::Debug for ShardedSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSolver")
            .field("n", &self.n)
            .field("domains", &self.domain_count())
            .field("separator", &self.separator_len())
            .field("out_of_core", &self.is_out_of_core())
            .finish()
    }
}

/// Folds one domain's Schur contribution `A_sd A_dd⁻¹ A_ds` into
/// `s_dense` **negated** (i.e. `s_dense -= A_sd A_dd⁻¹ A_ds`), chunking
/// the right-hand sides through the blocked factor path and skipping
/// separator columns this domain never touches.
fn schur_accumulate(factor: &LdlFactor, a_ds: &CsrMatrix, ns: usize, s_dense: &mut [f64]) {
    let nd = a_ds.nrows();
    if ns == 0 || nd == 0 || a_ds.nnz() == 0 {
        return;
    }
    // Separator columns with support in this domain.
    let mut used: Vec<usize> = a_ds.indices().iter().map(|&c| c as usize).collect();
    used.sort_unstable();
    used.dedup();
    let mut pos = vec![usize::MAX; ns];
    for (p, &c) in used.iter().enumerate() {
        pos[c] = p;
    }
    let mut work = Vec::new();
    let mut w = DenseBlock::zeros(0, 0);
    for (chunk_idx, chunk) in used.chunks(SCHUR_RHS_CHUNK).enumerate() {
        let lo = chunk_idx * SCHUR_RHS_CHUNK;
        let mut rhs = DenseBlock::zeros(nd, chunk.len());
        for r in 0..nd {
            let (cols, vals) = a_ds.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = pos[c as usize];
                if p >= lo && p < lo + chunk.len() {
                    rhs.col_mut(p - lo)[r] = v;
                }
            }
        }
        w.reshape(nd, chunk.len());
        factor.solve_block_into_scratch(&rhs, &mut w, &mut work);
        // s_dense[:, cs] -= A_dsᵀ w_j for every chunk column.
        for (j, &cs) in chunk.iter().enumerate() {
            let wcol = w.col(j);
            let out = &mut s_dense[cs * ns..(cs + 1) * ns];
            for (r, &wv) in wcol.iter().enumerate() {
                if wv == 0.0 {
                    continue;
                }
                let (cols, vals) = a_ds.row(r);
                for (&sc, &v) in cols.iter().zip(vals) {
                    out[sc as usize] -= v * wv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroundedSolver;
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::Graph;

    fn probe(n: usize, seed: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n)
            .map(|i| (((i * (seed + 3)) % 29) as f64 * 0.31).sin())
            .collect();
        dense::center(&mut b);
        b
    }

    fn opts(k: usize) -> ShardOptions {
        ShardOptions {
            domains: k,
            ..Default::default()
        }
    }

    #[test]
    fn matches_grounded_solver_on_grid() {
        let g = grid2d(13, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
        let l = g.laplacian();
        let reference = GroundedSolver::new(&l, OrderingKind::MinDegree).unwrap();
        for k in [1usize, 2, 3, 5] {
            let s = ShardedSolver::new(&l, OrderingKind::MinDegree, &opts(k)).unwrap();
            let b = probe(g.n(), k);
            let x = s.solve(&b);
            assert!(l.residual_norm(&x, &b) < 1e-9, "k={k}");
            assert!(dense::rel_diff(&x, &reference.solve(&b)) < 1e-8, "k={k}");
            assert!(x.iter().sum::<f64>().abs() < 1e-8, "k={k}: mean-zero");
        }
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let g = grid2d(10, 8, WeightModel::Unit, 2);
        let l = g.laplacian();
        let s = ShardedSolver::new(&l, OrderingKind::MinDegree, &opts(3)).unwrap();
        let rhs: Vec<Vec<f64>> = (0..5).map(|k| probe(g.n(), k)).collect();
        let many = s.solve_many(&rhs);
        for (b, x) in rhs.iter().zip(&many) {
            assert!(dense::rel_diff(x, &s.solve(b)) < 1e-13);
            assert!(l.residual_norm(x, b) < 1e-9);
        }
        assert!(s.solve_many(&[]).is_empty());
    }

    #[test]
    fn out_of_core_matches_in_core_and_bounds_residency() {
        let g = grid2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 9);
        let l = g.laplacian();
        let in_core = ShardedSolver::new(&l, OrderingKind::MinDegree, &opts(4)).unwrap();
        let ooc_opts = ShardOptions {
            domains: 4,
            out_of_core: true,
            spill_dir: None,
        };
        let ooc = ShardedSolver::new(&l, OrderingKind::MinDegree, &ooc_opts).unwrap();
        assert!(ooc.is_out_of_core());
        let b = probe(g.n(), 7);
        let x = ooc.solve(&b);
        assert!(l.residual_norm(&x, &b) < 1e-9);
        assert!(dense::rel_diff(&x, &in_core.solve(&b)) < 1e-12);
        // One resident (matrix + factor) pair must undercut holding
        // every factor at once.
        assert!(ooc.peak_resident_bytes() > 0);
        assert!(
            ooc.peak_resident_bytes() < in_core.factor_bytes() + l.memory_bytes(),
            "{} vs {}",
            ooc.peak_resident_bytes(),
            in_core.factor_bytes()
        );
        assert!(ooc.memory_bytes() < in_core.memory_bytes());
    }

    #[test]
    fn degenerate_systems() {
        // k = 1: empty separator, single-domain exact solve.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]).unwrap();
        let l = g.laplacian();
        let s = ShardedSolver::new(&l, OrderingKind::Natural, &opts(1)).unwrap();
        assert_eq!(s.domain_count(), 1);
        assert_eq!(s.separator_len(), 0);
        let b = probe(4, 1);
        assert!(l.residual_norm(&s.solve(&b), &b) < 1e-12);
        // One-vertex system: the reduced system is empty.
        let tiny = Graph::from_edges(1, &[]).unwrap();
        let s1 = ShardedSolver::new(&tiny.laplacian(), OrderingKind::Natural, &opts(1)).unwrap();
        assert_eq!(s1.solve(&[5.0]), vec![0.0]);
    }

    #[test]
    fn disconnected_graph_is_detected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let err = ShardedSolver::new(&g.laplacian(), OrderingKind::Natural, &opts(2)).unwrap_err();
        assert_eq!(err, SolverError::GroundedSingular);
    }

    #[test]
    fn rejects_bad_shapes() {
        let coo = sass_sparse::CooMatrix::new(0, 0);
        assert!(matches!(
            ShardedSolver::new(&coo.to_csr(), OrderingKind::Natural, &opts(1)),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn dense_ldl_solves_spd_systems() {
        // 3×3 SPD matrix, column-major.
        let a = vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.25, 0.5, 0.25, 2.0];
        let ldl = DenseLdl::new(a.clone(), 3).unwrap();
        let mut x = [1.0, -2.0, 0.5];
        let b = x;
        ldl.solve_in_place(&mut x);
        for i in 0..3 {
            let mut acc = 0.0;
            for j in 0..3 {
                acc += a[j * 3 + i] * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-12, "row {i}");
        }
        // Indefinite input must be rejected, not silently factorized.
        let bad = vec![1.0, 2.0, 2.0, 1.0];
        assert_eq!(
            DenseLdl::new(bad, 2).unwrap_err(),
            SolverError::GroundedSingular
        );
    }
}
