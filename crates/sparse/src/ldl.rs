// Sparse kernels index multiple parallel arrays; explicit loops are clearer.
#![allow(clippy::needless_range_loop)]

use crate::etree::{PartitionShape, SubtreePartition};
use crate::ordering::{self, OrderingKind};
use crate::pool;
use crate::{CsrMatrix, Permutation, Result, SparseError};

/// Columns per sweep in the blocked solves: one pass over `L`'s indices
/// updates up to this many right-hand sides, amortizing factor traffic.
///
/// Eight doubles are one cache line, and the full-width sweep is
/// monomorphized so the per-row inner loop unrolls completely.
pub const LDL_BLOCK_WIDTH: usize = 8;

/// Minimum factor work (`nnz(L) + n`, scaled by right-hand-side count for
/// blocked solves) before a triangular sweep leaves the flat serial loops
/// for the partitioned parallel path under automatic pool sizing. A
/// standing `SASS_THREADS` / [`pool::set_threads`] override skips the
/// crossover, as everywhere in the workspace.
const PAR_SOLVE_MIN_WORK: usize = 50_000;

/// Minimum `nnz(L)` before the numeric factorization goes parallel under
/// automatic pool sizing (per-column work is much higher than a solve's,
/// so the crossover sits lower).
const PAR_FACTOR_MIN_NNZ: usize = 10_000;

/// Largest critical-path share, in percent, at which a partitioned phase
/// still beats the flat serial loops under automatic sizing: trunk plus
/// heaviest lane over total work ([`PartitionShape::critical_fraction`]).
/// Trunk-heavy etrees — scale-free sparsifiers, whose hubs pile up in the
/// trunk — stay serial; an override skips the gate with the crossovers.
const PAR_MAX_CRITICAL_PCT: usize = 65;

/// Sparse `P A Pᵀ = L D Lᵀ` factorization of a symmetric matrix.
///
/// This is the classic *up-looking* simplicial algorithm (Davis' `LDL`
/// package): an elimination-tree based symbolic analysis computes the exact
/// nonzero count of every row and column of `L`, then a numeric phase
/// computes one row at a time with a sparse triangular solve. `L` is unit
/// lower triangular (unit diagonal not stored) and `D` is diagonal.
///
/// Unlike the textbook formulation, `L` is stored **row-major** (CSR of the
/// strictly lower triangle) with a derived transpose index for column-order
/// traversal, both laid out in the partition's *slot* order (every lane's
/// columns contiguous, then the trunk's) so that lanes write disjoint
/// memory. Row storage makes every computation step *owner-writes-only*:
/// the numeric phase's step `k` writes exactly row `k` and `d[k]`, a
/// forward-substitution step writes exactly `y[k]`, a backward step exactly
/// `y[k]` again — nothing scatters into other columns' storage. That is
/// what lets the factorization and both triangular sweeps run on a
/// subtree-to-lane partition of the elimination tree ([`crate::etree`]):
/// pool lanes own whole etree subtrees, the calling thread runs the
/// ancestor-closed trunk, and each phase makes one pool dispatch. Results
/// are identical to the flat serial sweeps at every worker count — each
/// output is produced by the same operation sequence reading the same
/// finalized inputs regardless of which lane runs it.
///
/// The factorization does no pivoting, which is exact for symmetric positive
/// definite matrices — in this workspace: *grounded* graph Laplacians, which
/// are SPD for connected graphs.
///
/// # Example
///
/// ```
/// use sass_sparse::{CooMatrix, LdlFactor, ordering::OrderingKind};
///
/// # fn main() -> Result<(), sass_sparse::SparseError> {
/// // 2x2 SPD matrix [[2, 1], [1, 2]].
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0); coo.push(1, 1, 2.0);
/// coo.push_sym(0, 1, 1.0);
/// let f = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural)?;
/// let x = f.solve(&[3.0, 3.0]);
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LdlFactor {
    n: usize,
    perm: Permutation,
    /// Slot of every (permuted) column: its position in the partition's
    /// [`SubtreePartition::order`]. Rows and columns of `L`, the sweeps'
    /// work vectors, `D` and the numeric phase's accumulator are all laid
    /// out by slot, so each lane's columns occupy one contiguous range;
    /// the etree and the permutation stay indexed by column.
    slot: Vec<u32>,
    /// Slot of every *unpermuted* index — the permutation and `slot`
    /// composed, so a solve scatters its right-hand side in one hop.
    slot_of_old: Vec<u32>,
    /// Row pointers of `L` (CSR, strictly lower triangular part), by
    /// slot: the row of column `k` is `rp[slot[k]]..rp[slot[k] + 1]`.
    rp: Vec<usize>,
    /// Slots of the columns of `L`'s entries, in each row's *topological
    /// pattern order* (etree descendants before ancestors; ascending
    /// within one path segment but NOT globally sorted when a row merges
    /// several branches) — don't binary-search or merge rows assuming
    /// sortedness.
    ri: Vec<u32>,
    /// Values of `L`, row-major.
    rx: Vec<f64>,
    /// Derived transpose (CSC mirror of `rp`/`ri`/`rx`), column pointers
    /// by slot: `ci[cp[q]..cp[q + 1]]` / `cx[..]` are the entries of the
    /// column in slot `q`, rows ascending by column index — what the
    /// backward sweep traverses.
    cp: Vec<usize>,
    /// Row slot of each column-order entry.
    ci: Vec<u32>,
    /// Value of each column-order entry, mirrored from `rx` so the
    /// backward sweep streams values contiguously (an index indirection
    /// into `rx` costs the same memory and a cache-hostile double hop).
    cx: Vec<f64>,
    /// Row-major source slot of each mirror entry (`cx[q] = rx[mirror_map[q]]`
    /// for a fixed pattern), letting [`LdlFactor::refactor_partial`] refresh
    /// only the patched columns' mirror values.
    mirror_map: Vec<usize>,
    /// The diagonal matrix `D`, by slot.
    d: Vec<f64>,
    /// Subtree-to-lane partition of the etree driving the parallel
    /// phases, weighted by each column's factor entries.
    partition: SubtreePartition,
    /// Elimination tree (`parent[k] = −1` for roots), retained from the
    /// symbolic analysis: [`LdlFactor::refactor_partial`] climbs it to
    /// find the ancestor closure of changed columns.
    parent: Vec<i64>,
    /// Pattern (column pointers) of the permuted upper triangle the
    /// symbolic analysis consumed; [`LdlFactor::refactor_partial`]
    /// compares a new matrix's pattern against `ua_p`/`ua_i` to decide
    /// whether the symbolic state — etree, fill pattern, partition,
    /// permutation — is still valid.
    ua_p: Vec<usize>,
    /// Pattern (row indices) of the permuted upper triangle; see `ua_p`.
    ua_i: Vec<u32>,
    /// Lazily-built fast path for repeated [`LdlFactor::refactor_partial`]
    /// calls: the unpermuted input pattern plus a value scatter into a
    /// persistent permuted upper triangle, replacing the per-call
    /// permuted-upper build with one `O(nnz)` copy.
    refactor_cache: Option<RefactorCache>,
    /// Shadow map from column to its partition owner (lane index, or
    /// `u32::MAX` for the trunk), verifying the ownership invariant the
    /// parallel phases rest on.
    #[cfg(feature = "race-check")]
    owner_of: Vec<u32>,
}

/// What [`LdlFactor::refactor_partial`] did with the numeric phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorOutcome {
    /// The factor was patched in place; see the stats for how much of the
    /// etree was re-run.
    Patched(RefactorStats),
    /// The new matrix's sparsity pattern differs from the one the factor
    /// was built for. The factor is untouched; the caller must
    /// re-factorize from scratch (typically with a freshly computed
    /// fill-reducing ordering, since the old one targeted the old
    /// pattern).
    PatternChanged,
}

/// Schedule-reuse statistics of one [`LdlFactor::refactor_partial`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefactorStats {
    /// Columns whose numeric step was re-run — the ancestor closure of
    /// the changed columns (or all of them on a full fallback).
    pub cols_refactored: usize,
    /// Total columns in the factor.
    pub total_cols: usize,
    /// Whether the ancestor closure crossed the ratio crossover and the
    /// whole numeric phase was re-run instead.
    pub full: bool,
}

/// Upper-triangle-by-column view of a symmetric matrix.
///
/// Column `k` of the upper triangle of a symmetric matrix equals the
/// entries of row `k` with column index `≤ k`, which is exactly what the
/// up-looking factorization consumes.
#[derive(Debug, Clone)]
struct UpperCsc {
    ap: Vec<usize>,
    ai: Vec<u32>,
    ax: Vec<f64>,
}

/// The upper triangle of `P A Pᵀ` by column, built straight from `a`'s
/// rows: column `k` holds the entries of row `old_of_new[k]` whose new
/// index is `≤ k`, ascending by new index, with their values. Only rows
/// are read, so the result is exact for input that is merely structurally
/// symmetric.
///
/// Counting passes, `O(nnz + n)`: the kept entries are bucketed by new
/// row index, then drained in ascending row order into their columns,
/// which leaves every column sorted without a comparison sort (whose cost
/// piles up on a scale-free hub's long column).
///
/// # Errors
///
/// [`SparseError::ShapeMismatch`] if `perm` does not match `a`'s order.
fn permuted_upper(a: &CsrMatrix, perm: &Permutation) -> Result<UpperCsc> {
    let n = a.nrows();
    if perm.len() != n {
        return Err(SparseError::ShapeMismatch {
            context: format!("permutation of length {} applied to {n} rows", perm.len()),
        });
    }
    let new_of_old = perm.new_of_old();
    // Each kept entry as (column k, row r) in new indices, visited in
    // input order by every pass.
    let kept = |i: usize| {
        let k = new_of_old[i];
        let (cols, vals) = a.row(i);
        cols.iter()
            .zip(vals)
            .map(move |(&j, &v)| (k, new_of_old[j as usize], v))
            .filter(|&(k, r, _)| r <= k)
    };
    let mut ap = vec![0usize; n + 1];
    let mut rp = vec![0usize; n + 1];
    for i in 0..n {
        for (k, r, _) in kept(i) {
            ap[k + 1] += 1;
            rp[r + 1] += 1;
        }
    }
    for k in 0..n {
        ap[k + 1] += ap[k];
        rp[k + 1] += rp[k];
    }
    let nnz = ap[n];
    let mut by_row = vec![(0u32, 0.0f64); nnz];
    let mut next = rp[..n].to_vec();
    for i in 0..n {
        for (k, r, v) in kept(i) {
            by_row[next[r]] = (k as u32, v);
            next[r] += 1;
        }
    }
    let mut ai = vec![0u32; nnz];
    let mut ax = vec![0.0f64; nnz];
    let mut next = ap[..n].to_vec();
    for r in 0..n {
        for &(k, v) in &by_row[rp[r]..rp[r + 1]] {
            let e = &mut next[k as usize];
            ai[*e] = r as u32;
            ax[*e] = v;
            *e += 1;
        }
    }
    Ok(UpperCsc { ap, ai, ax })
}

/// The retained state behind [`LdlFactor::refactor_partial`]'s fast
/// path, built on the first patch and reused while the input pattern
/// holds: verifying the *unpermuted* CSR pattern (`a_p`/`a_i`) against
/// the cached one proves the permuted upper pattern unchanged for any
/// structurally symmetric input, and `scatter` then routes the new
/// values straight into `u` — no symmetric permutation, no allocation.
#[derive(Debug, Clone)]
struct RefactorCache {
    /// Row pointers of the unpermuted input the cache was built from.
    a_p: Vec<usize>,
    /// Column indices of the unpermuted input.
    a_i: Vec<u32>,
    /// For the input's `k`-th stored value, its destination in `u.ax` —
    /// or `u32::MAX` for entries landing strictly below the permuted
    /// diagonal (their symmetric twin carries the value).
    scatter: Vec<u32>,
    /// Persistent permuted upper triangle, values refreshed per call.
    u: UpperCsc,
}

/// Per-lane workspace of the numeric phase: the dense accumulator `y`
/// (all-zero between column steps), the pattern stack, the visit flags,
/// and the lane's first failing pivot. Column markers are globally
/// unique, so a lane's flags never collide across the columns it
/// processes.
struct FactorScratch {
    y: Vec<f64>,
    pattern: Vec<usize>,
    flag: Vec<i64>,
    failed: Option<usize>,
}

impl FactorScratch {
    fn new(n: usize) -> Self {
        FactorScratch {
            y: vec![0.0; n],
            pattern: vec![0; n],
            flag: vec![-1; n],
            failed: None,
        }
    }
}

/// Whether a phase over `work` units runs on the lanes of a partition
/// with shape `shape`: at least two lanes carry work, the pool grants more
/// than one lane above the `min_work` crossover, and — under automatic
/// sizing — the critical path (trunk plus heaviest lane) stays within
/// [`PAR_MAX_CRITICAL_PCT`] of the total. A standing `SASS_THREADS` /
/// [`pool::set_threads`] override skips both gates.
fn runs_partitioned(shape: &PartitionShape, work: usize, min_work: usize) -> bool {
    if shape.lanes < 2 {
        return false;
    }
    let p = pool::Pool::global();
    if p.workers_for(work, min_work, min_work) <= 1 {
        return false;
    }
    p.is_forced()
        || shape.critical_work().saturating_mul(100)
            <= shape.total_work.saturating_mul(PAR_MAX_CRITICAL_PCT)
}

/// Partition weight of every column from its row (`rnz`) and column
/// (`cnz`) entry counts in `L`: its factor entries — the forward row plus
/// the backward column — plus the diagonal step.
fn column_weights(rnz: &[usize], cnz: &[usize]) -> Vec<usize> {
    rnz.iter().zip(cnz).map(|(r, c)| r + c + 1).collect()
}

/// Lanes to partition a factor for: the pool's width, or 1 when no phase
/// of a factor this size can leave the serial loops (the widest phase, an
/// 8-column blocked sweep, is below its crossover under automatic
/// sizing), which skips building lanes nothing would dispatch.
fn partition_lanes(nnz_l: usize, n: usize) -> usize {
    let p = pool::Pool::global();
    let widest = (nnz_l + n).saturating_mul(LDL_BLOCK_WIDTH);
    if p.workers_for(widest, 2 * PAR_SOLVE_MIN_WORK, 1) > 1 {
        p.threads()
    } else {
        1
    }
}

/// Shadow verification of the partition invariant behind every parallel
/// phase: a step gathering `refs` (etree descendants of `j` when `forward`
/// — forward sweep and factorization — ancestors otherwise) may only read
/// columns its own owner runs earlier, or columns another phase of the
/// dispatch finalizes first: lanes before the trunk going forward, the
/// trunk before the lanes going backward. Checked on the serial paths too
/// — the invariant is a property of the factor, not of the lane count
/// that happens to exercise it.
#[cfg(feature = "race-check")]
fn shadow_check_reads(
    owner_of: &[u32],
    j: usize,
    refs: impl IntoIterator<Item = usize>,
    forward: bool,
    what: &str,
) {
    use crate::etree::TRUNK;
    let describe = |o: u32| {
        if o == TRUNK {
            "trunk".to_string()
        } else {
            format!("lane {o}")
        }
    };
    let oj = owner_of[j];
    for i in refs {
        let oi = owner_of[i];
        let ok = if forward {
            (oi == oj && i < j) || (oj == TRUNK && oi != TRUNK)
        } else {
            (oi == oj && i > j) || (oi == TRUNK && oj != TRUNK)
        };
        assert!(
            ok,
            "race-check: {what} step at column {j} ({}) reads column {i} ({}), \
             which the partition does not finalize first — read-set violation",
            describe(oj),
            describe(oi)
        );
    }
}

/// Shared state of the numeric phase. `ri`/`rx`/`d` are reached through
/// raw base pointers because the lanes write their disjoint rows
/// concurrently while reading finalized descendant rows of the same
/// buffers.
struct NumericCtx<'a> {
    u: &'a UpperCsc,
    parent: &'a [i64],
    slot: &'a [u32],
    rp: &'a [usize],
    ri: pool::SendPtr<u32>,
    rx: pool::SendPtr<f64>,
    d: pool::SendPtr<f64>,
    /// Shadow column→owner map: every row/pivot a factorization step
    /// gathers must be finalized before the step by the partition order.
    #[cfg(feature = "race-check")]
    owner_of: &'a [u32],
}

impl NumericCtx<'_> {
    /// Computes row `k` of `L` and the pivot `d[k]` — one up-looking step
    /// in *gather* form: the sparse solve `L c = a_k` finalizes each
    /// pattern entry by gathering the (finished) row it indexes, instead
    /// of scattering finished entries into ancestor columns. Returns
    /// whether the pivot is usable (nonzero and finite).
    ///
    /// # Safety
    ///
    /// The caller must hold an exclusive claim on row `k`'s slices of
    /// `ri`/`rx` and on `d[k]`, and every row and pivot in `k`'s pattern
    /// (all etree descendants of `k`) must be final.
    unsafe fn factor_column(&self, k: usize, s: &mut FactorScratch) -> bool {
        let n = self.parent.len();
        let (y, pattern, flag) = (&mut s.y[..], &mut s.pattern[..], &mut s.flag[..]);
        let (u, slot) = (self.u, self.slot);
        // Scatter A's upper column k into y (by slot) and build the row
        // pattern (by column): etree paths from each entry merged in
        // topological order — the historical serial walk, unchanged.
        let mut top = n;
        let sk = slot[k] as usize;
        flag[k] = k as i64;
        y[sk] = 0.0;
        for p in u.ap[k]..u.ap[k + 1] {
            let i0 = u.ai[p] as usize;
            if i0 <= k {
                y[slot[i0] as usize] += u.ax[p];
                let mut len = 0usize;
                let mut i = i0;
                while flag[i] != k as i64 {
                    pattern[len] = i;
                    len += 1;
                    flag[i] = k as i64;
                    i = self.parent[i] as usize;
                }
                // Move the path onto the output pattern in reverse: the
                // final traversal visits each path segment in ascending
                // (descendant-to-ancestor) order, later-merged branches
                // first — topological, though not globally sorted.
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = pattern[len];
                }
            }
        }
        let mut dk = y[sk];
        y[sk] = 0.0;
        #[cfg(feature = "race-check")]
        shadow_check_reads(
            self.owner_of,
            k,
            pattern[top..n].iter().copied(),
            true,
            "factorization",
        );
        // Everything below is indexed by slot.
        for i in &mut pattern[top..n] {
            *i = slot[*i] as usize;
        }
        let rip = self.ri.get();
        let rxp = self.rx.get();
        // Sparse unit-lower-triangular solve `L c = a_k`, gather form:
        // c_i = y_i − Σ_j L_ij·c_j over row i of L. Every c_j the row can
        // reference is either an earlier pattern entry (already final in
        // y) or zero, so off-pattern terms contribute exact zeros (a
        // branchy flag-based skip measured slower than the multiply).
        for &i in &pattern[top..n] {
            let mut yi = y[i];
            for p in self.rp[i]..self.rp[i + 1] {
                yi -= *rxp.add(p) * y[*rip.add(p) as usize];
            }
            y[i] = yi;
        }
        // Emit row k in its topological pattern order (descendants
        // before ancestors — the order `ri` documents), accumulate the
        // pivot, and restore y ≡ 0 for this lane's next column.
        let dp = self.d.get();
        let base = self.rp[sk];
        for (idx, &i) in pattern[top..n].iter().enumerate() {
            let ci = y[i];
            y[i] = 0.0;
            let l_ki = ci / *dp.add(i);
            dk -= l_ki * ci;
            *rip.add(base + idx) = i as u32;
            *rxp.add(base + idx) = l_ki;
        }
        *dp.add(sk) = dk;
        dk != 0.0 && dk.is_finite()
    }
}

/// The numeric phase over the columns flagged in `mask` (all columns when
/// `None`). Unflagged columns are skipped entirely — their rows of `L`
/// and pivots keep their current values — so a masked run re-creates a
/// from-scratch factorization bit for bit whenever the unflagged
/// columns' inputs are genuinely unchanged (the partial-refactorization
/// path).
///
/// Runs flat and ascending, or — when [`runs_partitioned`] says the
/// flagged work pays — as one dispatch over the partition's lanes
/// followed by the trunk on the calling thread. Returns `Err(k)` with the
/// *permuted* index of the first failing pivot the flat ascending sweep
/// would stop at: each lane stops at its own first failure, and the trunk
/// runs only below the smallest lane failure, since every column below
/// it depends on finalized, healthy columns only (the caller maps `k`
/// back through the permutation).
fn numeric_phase(
    ctx: &NumericCtx<'_>,
    partition: &SubtreePartition,
    mask: Option<&[bool]>,
) -> std::result::Result<(), usize> {
    let n = ctx.parent.len();
    let runs = |k: usize| mask.is_none_or(|m| m[k]);
    // The gate reads the flagged work only, weighted by row length (plus
    // the walk): a small ancestor closure inside a huge factor should not
    // pay dispatch.
    let (shape, work) = match mask {
        None => (partition.shape(), ctx.rp[n]),
        Some(_) => {
            let shape = partition.shape_with(|k| {
                let q = ctx.slot[k] as usize;
                if runs(k) {
                    ctx.rp[q + 1] - ctx.rp[q] + 1
                } else {
                    0
                }
            });
            (shape, shape.total_work)
        }
    };
    if !runs_partitioned(&shape, work, PAR_FACTOR_MIN_NNZ) {
        let mut s = FactorScratch::new(n);
        for k in (0..n).filter(|&k| runs(k)) {
            // SAFETY: serial ascending execution — exclusive access to
            // every output, and k's pattern rows (descendants, all < k)
            // are final whether re-run just now or untouched.
            if !unsafe { ctx.factor_column(k, &mut s) } {
                return Err(k);
            }
        }
        return Ok(());
    }
    let mut scratches: Vec<FactorScratch> = (0..partition.lanes())
        .map(|_| FactorScratch::new(n))
        .collect();
    let order = partition.order();
    pool::Pool::global().parallel_for_with_scratch(
        partition.spans(),
        &mut scratches,
        |_, (lo, hi), s| {
            for &k in &order[lo..hi] {
                let k = k as usize;
                // SAFETY: lanes own pairwise-disjoint columns, so each
                // claimant writes only its own rows of `L` and entries of
                // `d`; a lane column's pattern rows are its etree
                // descendants, which live in the same lane and precede it
                // in the lane's ascending order.
                if runs(k) && !unsafe { ctx.factor_column(k, s) } {
                    s.failed = Some(k);
                    return;
                }
            }
        },
    );
    let lane_failure = scratches.iter().filter_map(|s| s.failed).min();
    let s = &mut scratches[0];
    for &k in partition.trunk() {
        let k = k as usize;
        if lane_failure.is_some_and(|f| k > f) {
            break;
        }
        // SAFETY: the dispatch has joined, so the calling thread is the
        // only writer; a trunk column's pattern rows are trunk columns run
        // earlier in this ascending loop or lane columns below the
        // smallest lane failure, all finalized by the lanes.
        if runs(k) && !unsafe { ctx.factor_column(k, s) } {
            return Err(k);
        }
    }
    lane_failure.map_or(Ok(()), Err)
}

impl LdlFactor {
    /// Factorizes `a` using a fill-reducing ordering of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular input and
    /// [`SparseError::ZeroPivot`] if a pivot vanishes (matrix not positive
    /// definite after grounding); the reported column is in the caller's
    /// original indexing, not the permuted one.
    pub fn new(a: &CsrMatrix, kind: OrderingKind) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let perm = ordering::compute(a, kind)?;
        Self::with_permutation(a, perm)
    }

    /// Factorizes `a` with a caller-provided permutation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the permutation length
    /// differs from the matrix dimension, [`SparseError::NotSquare`] for
    /// rectangular input, or [`SparseError::ZeroPivot`] on pivot breakdown
    /// (reporting the failing column in the caller's original indexing).
    pub fn with_permutation(a: &CsrMatrix, perm: Permutation) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let u = permuted_upper(a, &perm)?;

        // Symbolic: elimination tree plus exact per-column and per-row
        // nonzero counts of L (columns size the transpose index, rows the
        // row-major storage), in one pass of etree path walks.
        let mut parent = vec![-1i64; n];
        let mut flag = vec![-1i64; n];
        let mut cnz = vec![0usize; n];
        let mut rnz = vec![0usize; n];
        for k in 0..n {
            flag[k] = k as i64;
            for p in u.ap[k]..u.ap[k + 1] {
                let mut i = u.ai[p] as usize;
                if i < k {
                    while flag[i] != k as i64 {
                        if parent[i] == -1 {
                            parent[i] = k as i64;
                        }
                        cnz[i] += 1;
                        rnz[k] += 1;
                        flag[i] = k as i64;
                        i = parent[i] as usize;
                    }
                }
            }
        }
        let nnz_l: usize = rnz.iter().sum();
        let partition = SubtreePartition::from_parents(
            &parent,
            &column_weights(&rnz, &cnz),
            partition_lanes(nnz_l, n),
        );
        let mut slot = vec![0u32; n];
        let mut rp = vec![0usize; n + 1];
        let mut cp = vec![0usize; n + 1];
        for (q, &k) in partition.order().iter().enumerate() {
            let k = k as usize;
            slot[k] = q as u32;
            rp[q + 1] = rp[q] + rnz[k];
            cp[q + 1] = cp[q] + cnz[k];
        }
        #[cfg(feature = "race-check")]
        let owner_of = partition.owners();

        let mut ri = vec![0u32; nnz_l];
        let mut rx = vec![0.0f64; nnz_l];
        let mut d = vec![0.0f64; n];
        let ctx = NumericCtx {
            u: &u,
            parent: &parent,
            slot: &slot,
            rp: &rp,
            ri: pool::SendPtr::new(ri.as_mut_ptr()),
            rx: pool::SendPtr::new(rx.as_mut_ptr()),
            d: pool::SendPtr::new(d.as_mut_ptr()),
            #[cfg(feature = "race-check")]
            owner_of: &owner_of,
        };
        if let Err(k) = numeric_phase(&ctx, &partition, None) {
            return Err(SparseError::ZeroPivot {
                column: perm.old_of_new()[k],
            });
        }

        // Derived transpose: the CSC mirror of the row-major factor. Rows
        // are visited by ascending column index, so each column's entries
        // come out row-ascending — the order the backward sweep consumes.
        let mut ci = vec![0u32; nnz_l];
        let mut cx = vec![0.0f64; nnz_l];
        let mut mirror_map = vec![0usize; nnz_l];
        let mut next = cp[..n].to_vec();
        for &sk in &slot {
            let sk = sk as usize;
            for p in rp[sk]..rp[sk + 1] {
                let sj = ri[p] as usize;
                let e = next[sj];
                next[sj] += 1;
                ci[e] = sk as u32;
                cx[e] = rx[p];
                mirror_map[e] = p;
            }
        }

        let UpperCsc {
            ap: ua_p,
            ai: ua_i,
            ax: _,
        } = u;
        let slot_of_old = perm.new_of_old().iter().map(|&k| slot[k]).collect();
        Ok(LdlFactor {
            n,
            perm,
            slot,
            slot_of_old,
            rp,
            ri,
            rx,
            cp,
            ci,
            cx,
            mirror_map,
            d,
            partition,
            parent,
            ua_p,
            ua_i,
            refactor_cache: None,
            #[cfg(feature = "race-check")]
            owner_of,
        })
    }

    /// Patches the numeric factorization after a *value-only* change of
    /// the factored matrix, re-running the elimination steps of just the
    /// etree subtrees the change can reach.
    ///
    /// `changed_rows` lists the rows/columns of `a` (in the caller's
    /// original, unpermuted indexing) whose entries may differ from the
    /// matrix this factor was built from; entries outside those rows and
    /// columns **must** be unchanged — that containment is what makes the
    /// skipped columns' stored values equal a from-scratch recompute. For
    /// a symmetric value change at `(i, j)` both `i` and `j` belong in the
    /// list.
    ///
    /// The re-run set is the union of etree paths from each changed
    /// column to its root — every other column's inputs (its column of
    /// `A`, and the rows/pivots its pattern gathers, all in the set's
    /// complement) are untouched, so the patched factor is **bit-identical**
    /// to `LdlFactor::with_permutation(a, same_perm)`. When the set
    /// exceeds `crossover · n` columns the whole numeric phase is re-run
    /// instead (same result, better constant); the symbolic state is
    /// reused either way. If `a`'s sparsity pattern differs from the
    /// original matrix's, nothing is touched and
    /// [`RefactorOutcome::PatternChanged`] is returned — the caller must
    /// re-factorize from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] / [`SparseError::ShapeMismatch`]
    /// for a matrix that cannot be this factor's matrix, and
    /// [`SparseError::ZeroPivot`] (column in original indexing) if a
    /// re-run pivot vanishes — the factor is **poisoned** after a pivot
    /// failure and must be rebuilt.
    pub fn refactor_partial(
        &mut self,
        a: &CsrMatrix,
        changed_rows: &[usize],
        crossover: f64,
    ) -> Result<RefactorOutcome> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if a.nrows() != self.n {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "refactor_partial: factor is {}x{0}, matrix is {1}x{1}",
                    self.n,
                    a.nrows()
                ),
            });
        }
        let n = self.n;
        // Fast path: when `a`'s unpermuted pattern equals the cached one,
        // the permuted upper pattern is unchanged too (patterns map
        // bijectively under the factor's fixed permutation for the
        // structurally symmetric inputs this method factors), so the new
        // values scatter straight into the persistent upper triangle —
        // no symmetric permutation, no extraction, no allocation.
        let cached = matches!(
            &self.refactor_cache,
            Some(c) if c.a_p == a.indptr() && c.a_i == a.indices()
        );
        if !cached {
            let u = permuted_upper(a, &self.perm)?;
            if u.ap != self.ua_p || u.ai != self.ua_i {
                return Ok(RefactorOutcome::PatternChanged);
            }
            self.refactor_cache = Some(Self::build_refactor_cache(a, u, &self.perm));
        }
        if changed_rows.is_empty() {
            return Ok(RefactorOutcome::Patched(RefactorStats {
                cols_refactored: 0,
                total_cols: n,
                full: false,
            }));
        }
        if cached {
            let Some(cache) = self.refactor_cache.as_mut() else {
                unreachable!("`cached` requires `refactor_cache` to be Some");
            };
            for (k, &val) in a.data().iter().enumerate() {
                let dst = cache.scatter[k];
                if dst != u32::MAX {
                    cache.u.ax[dst as usize] = val;
                }
            }
        }

        // Ancestor closure: every changed column plus the etree path to
        // its root. A column outside the closure never gathers a changed
        // row (its pattern rows are etree descendants of it; a changed
        // descendant would put it on that descendant's root path).
        let new_of_old = self.perm.new_of_old();
        let mut mask = vec![false; n];
        for &row in changed_rows {
            assert!(row < n, "changed row {row} out of bounds for n = {n}");
            let mut k = new_of_old[row] as i64;
            while k != -1 && !mask[k as usize] {
                mask[k as usize] = true;
                k = self.parent[k as usize];
            }
        }
        let affected = mask.iter().filter(|&&m| m).count();
        let full = (affected as f64) > crossover * (n as f64);
        if full {
            mask.iter_mut().for_each(|m| *m = true);
        }

        let Some(cache) = self.refactor_cache.as_ref() else {
            unreachable!("both branches above leave `refactor_cache` populated");
        };
        let ctx = NumericCtx {
            u: &cache.u,
            parent: &self.parent,
            slot: &self.slot,
            rp: &self.rp,
            ri: pool::SendPtr::new(self.ri.as_mut_ptr()),
            rx: pool::SendPtr::new(self.rx.as_mut_ptr()),
            d: pool::SendPtr::new(self.d.as_mut_ptr()),
            #[cfg(feature = "race-check")]
            owner_of: &self.owner_of,
        };
        if let Err(k) = numeric_phase(&ctx, &self.partition, Some(&mask)) {
            return Err(SparseError::ZeroPivot {
                column: self.perm.old_of_new()[k],
            });
        }

        // Refresh the transpose mirror's values (pattern unchanged — cp
        // and ci stay). Only the masked columns' values moved, and the
        // fixed pattern means each mirror slot's row-major source is
        // static (`mirror_map`), so the refresh touches exactly those
        // columns instead of re-scattering the whole factor.
        for (j, _) in mask.iter().enumerate().filter(|&(_, &m)| m) {
            let q = self.slot[j] as usize;
            for e in self.cp[q]..self.cp[q + 1] {
                self.cx[e] = self.rx[self.mirror_map[e]];
            }
        }

        Ok(RefactorOutcome::Patched(RefactorStats {
            cols_refactored: if full { n } else { affected },
            total_cols: n,
            full,
        }))
    }

    /// Builds the [`RefactorCache`] routing `a`'s stored values into the
    /// permuted upper triangle `u`, whose pattern already matched the
    /// factor's. Each upper entry `(pi, pj)` receives exactly one source:
    /// the input entry whose permuted image lands on or above the
    /// diagonal (its symmetric twin maps strictly below and is skipped).
    fn build_refactor_cache(a: &CsrMatrix, u: UpperCsc, perm: &Permutation) -> RefactorCache {
        assert!(
            a.nnz() < u32::MAX as usize,
            "refactor cache scatter indices must fit in u32"
        );
        let new_of_old = perm.new_of_old();
        let indptr = a.indptr();
        let mut scatter = vec![u32::MAX; a.nnz()];
        for i in 0..a.nrows() {
            let pi = new_of_old[i];
            let (cols, _) = a.row(i);
            for (off, &j) in cols.iter().enumerate() {
                let pj = new_of_old[j as usize];
                if pj > pi {
                    continue;
                }
                let span = &u.ai[u.ap[pi]..u.ap[pi + 1]];
                let Ok(pos) = span.binary_search(&(pj as u32)) else {
                    unreachable!("matched pattern contains every upper entry");
                };
                scatter[indptr[i] + off] = (u.ap[pi] + pos) as u32;
            }
        }
        RefactorCache {
            a_p: indptr.to_vec(),
            a_i: a.indices().to_vec(),
            scatter,
            u,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of off-diagonal nonzeros in `L` (a proxy for factor memory).
    pub fn nnz_l(&self) -> usize {
        self.rx.len()
    }

    /// Shape of the subtree-to-lane partition the parallel phases run on:
    /// lanes, trunk size and the work split (in factor entries) that
    /// decides whether a phase leaves the flat serial loops. The partition
    /// is built for the pool width at factorization time; an all-trunk
    /// shape (`lanes == 0`) means every phase runs serially.
    pub fn partition_shape(&self) -> PartitionShape {
        self.partition.shape()
    }

    /// Approximate memory footprint of the factor in bytes: row-major
    /// values and indices, row pointers, the transpose index, the
    /// diagonal, the etree partition, the permutation, and the retained
    /// symbolic state (etree parents, upper pattern) that
    /// [`LdlFactor::refactor_partial`] reuses.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let base = self.rx.len() * size_of::<f64>()
            + self.ri.len() * size_of::<u32>()
            + (self.slot.len() + self.slot_of_old.len()) * size_of::<u32>()
            + self.rp.len() * size_of::<usize>()
            + self.cx.len() * size_of::<f64>()
            + self.mirror_map.len() * size_of::<usize>()
            + self.ci.len() * size_of::<u32>()
            + self.cp.len() * size_of::<usize>()
            + self.d.len() * size_of::<f64>()
            + self.partition.memory_bytes()
            + self.perm.len() * 2 * size_of::<usize>()
            + self.parent.len() * size_of::<i64>()
            + self.ua_p.len() * size_of::<usize>()
            + self.ua_i.len() * size_of::<u32>();
        let base = base
            + self.refactor_cache.as_ref().map_or(0, |c| {
                c.a_p.len() * size_of::<usize>()
                    + c.a_i.len() * size_of::<u32>()
                    + c.scatter.len() * size_of::<u32>()
                    + c.u.ap.len() * size_of::<usize>()
                    + c.u.ai.len() * size_of::<u32>()
                    + c.u.ax.len() * size_of::<f64>()
            });
        #[cfg(feature = "race-check")]
        let base = base + self.owner_of.len() * size_of::<u32>();
        base
    }

    /// Slot of every row of the factored matrix: the chunk row
    /// [`LdlFactor::sweep_chunk`] reads and writes that row's values at.
    pub fn slots(&self) -> &[u32] {
        &self.slot_of_old
    }

    /// The fill-reducing permutation used by this factor.
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// The diagonal `D` of the factorization (in permuted order).
    ///
    /// All entries are strictly positive when the input was SPD; the sign
    /// pattern is the matrix inertia.
    pub fn d(&self) -> Vec<f64> {
        self.slot.iter().map(|&q| self.d[q as usize]).collect()
    }

    /// Solves `A x = b`, allocating the result and a work buffer. Repeated
    /// solves should hold their own buffer and call
    /// [`LdlFactor::solve_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_columns([b], [&mut x[..]], &mut Vec::new());
        x
    }

    /// Solves `A x_c = b_c` for every column `b_c` of `b` into the matching
    /// column `x_c` of `x`.
    ///
    /// Columns go through the factor [`LDL_BLOCK_WIDTH`] at a time, each
    /// chunk in one pass that moves its data once:
    ///
    /// - **pack** — row by row, the chunk's `k` entries land in one
    ///   contiguous `k`-wide row of `work` at the factor slot of that row
    ///   (`work[slot · k + c]`; one cache line for a full chunk);
    /// - **sweep** — [`LdlFactor::sweep_chunk`]: the forward, diagonal and
    ///   backward sweeps run on that interleaved buffer, touching a chunk
    ///   row contiguously per factor entry; above a work crossover (or
    ///   under a forced pool override) they run on the etree partition;
    /// - **unpack** — row by row again, each slot row is copied out to the
    ///   `k` output columns.
    ///
    /// Both copies run on the calling thread. A single right-hand side is
    /// a chunk of one, so every solve shares this path and the same sweep
    /// kernels, and a blocked solve is bit-identical to per-column solves.
    /// `work` is caller-owned and resized lazily, so repeated solves
    /// (iterative refinement, shift-invert Lanczos, PCG preconditioning)
    /// allocate nothing after the first call.
    ///
    /// # Panics
    ///
    /// Panics if a column of `b` or `x` has the wrong length, or if `x`
    /// yields a different number of columns than `b`.
    ///
    /// # Example
    ///
    /// ```
    /// use sass_sparse::{CooMatrix, DenseBlock, LdlFactor, ordering::OrderingKind};
    ///
    /// # fn main() -> Result<(), sass_sparse::SparseError> {
    /// let mut coo = CooMatrix::new(2, 2);
    /// coo.push(0, 0, 2.0); coo.push(1, 1, 2.0);
    /// coo.push_sym(0, 1, 1.0);
    /// let f = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural)?;
    /// let b = DenseBlock::from_columns(&[vec![3.0, 3.0], vec![2.0, 1.0]]);
    /// let mut x = DenseBlock::zeros(2, 2);
    /// let mut work = Vec::new();
    /// f.solve_columns(b.columns(), x.columns_mut(), &mut work);
    /// assert!((x.col(0)[0] - 1.0).abs() < 1e-14);
    /// assert!((x.col(1)[0] - 1.0).abs() < 1e-14);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_columns<'b, 'x>(
        &self,
        b: impl IntoIterator<Item = &'b [f64]>,
        x: impl IntoIterator<Item = &'x mut [f64]>,
        work: &mut Vec<f64>,
    ) {
        let (mut b, mut x) = (b.into_iter(), x.into_iter());
        loop {
            let mut bc: [&[f64]; LDL_BLOCK_WIDTH] = [&[]; LDL_BLOCK_WIDTH];
            let mut xc: [&mut [f64]; LDL_BLOCK_WIDTH] = Default::default();
            let mut k = 0;
            while k < LDL_BLOCK_WIDTH {
                let Some(col) = b.next() else { break };
                let Some(out) = x.next() else {
                    panic!("solve: fewer x columns than b columns");
                };
                assert_eq!(col.len(), self.n, "solve: b length mismatch");
                assert_eq!(out.len(), self.n, "solve: x length mismatch");
                (bc[k], xc[k]) = (col, out);
                k += 1;
            }
            let (b, x) = (&bc, &mut xc);
            match k {
                0 => break,
                1 => self.solve_chunk::<1>(b, x, work),
                2 => self.solve_chunk::<2>(b, x, work),
                3 => self.solve_chunk::<3>(b, x, work),
                4 => self.solve_chunk::<4>(b, x, work),
                5 => self.solve_chunk::<5>(b, x, work),
                6 => self.solve_chunk::<6>(b, x, work),
                7 => self.solve_chunk::<7>(b, x, work),
                _ => self.solve_chunk::<LDL_BLOCK_WIDTH>(b, x, work),
            }
            if k < LDL_BLOCK_WIDTH {
                break;
            }
        }
        assert!(x.next().is_none(), "solve: more x columns than b columns");
    }

    /// Pack, sweep and unpack of one chunk of exactly `K` columns (see
    /// [`LdlFactor::solve_columns`]), monomorphized so the
    /// per-row copy loops and the sweeps' `[f64; K]` accumulators unroll.
    fn solve_chunk<const K: usize>(
        &self,
        b: &[&[f64]; LDL_BLOCK_WIDTH],
        x: &mut [&mut [f64]; LDL_BLOCK_WIDTH],
        work: &mut Vec<f64>,
    ) {
        // The pack writes every slot row, so stale contents need no
        // zeroing.
        work.resize(self.n * K, 0.0);
        let w = &mut work[..self.n * K];
        for (i, &q) in self.slot_of_old.iter().enumerate() {
            let row = &mut w[q as usize * K..][..K];
            for c in 0..K {
                row[c] = b[c][i];
            }
        }
        self.sweep_chunk::<K>(w);
        for (i, &q) in self.slot_of_old.iter().enumerate() {
            let row = &w[q as usize * K..][..K];
            for c in 0..K {
                x[c][i] = row[c];
            }
        }
    }

    /// One forward sweep (`fwd(q)` per slot, ascending), the diagonal
    /// scale (`diag(q)`) and one backward sweep (`bwd(q)`, descending) over
    /// `ncols` right-hand sides.
    ///
    /// Ascending slots are a topological order of the etree (every lane's
    /// subtrees, then the trunk), so the flat loops run each column after
    /// the columns it reads. When [`runs_partitioned`] says the work pays,
    /// each direction instead makes one pool dispatch: going forward the
    /// lanes run their slot ranges ascending and the calling thread then
    /// runs the trunk ascending; going backward the trunk runs descending
    /// first, then the lanes descending. Each dispatch blocks until every
    /// lane has drained, which finalizes the values the trunk reads
    /// (forward) or that no lane reads until the trunk is done (backward).
    ///
    /// A range's diagonal scale runs as its own loop right before the
    /// range's backward steps: every column still sees forward, scale,
    /// backward in that order, and the divisions pipeline instead of
    /// sitting on the backward sweep's dependency chain.
    fn sweep<F, D, B>(&self, ncols: usize, fwd: F, diag: D, bwd: B)
    where
        F: Fn(usize) + Sync,
        D: Fn(usize) + Sync,
        B: Fn(usize) + Sync,
    {
        let back = |slots: std::ops::Range<usize>| {
            slots.clone().for_each(&diag);
            slots.rev().for_each(&bwd);
        };
        let part = &self.partition;
        let work = (self.rx.len() + self.n).saturating_mul(ncols);
        if !runs_partitioned(&part.shape(), work, PAR_SOLVE_MIN_WORK) {
            (0..self.n).for_each(&fwd);
            back(0..self.n);
            return;
        }
        let p = pool::Pool::global();
        let trunk = part.trunk_start()..self.n;
        p.parallel_for_spans(part.spans(), |_, (lo, hi)| (lo..hi).for_each(&fwd));
        trunk.clone().for_each(&fwd);
        back(trunk);
        p.parallel_for_spans(part.spans(), |_, (lo, hi)| back(lo..hi));
    }

    /// The forward reads of the row in slot `q` against the shadow owner
    /// map.
    #[cfg(feature = "race-check")]
    fn check_row_reads(&self, q: usize, what: &str) {
        let order = self.partition.order();
        let refs = self.ri[self.rp[q]..self.rp[q + 1]].iter();
        let refs = refs.map(|&s| order[s as usize] as usize);
        shadow_check_reads(&self.owner_of, order[q] as usize, refs, true, what);
    }

    /// The backward reads of the column in slot `q` against the shadow
    /// owner map.
    #[cfg(feature = "race-check")]
    fn check_col_reads(&self, q: usize, what: &str) {
        let order = self.partition.order();
        let refs = self.ci[self.cp[q]..self.cp[q + 1]].iter();
        let refs = refs.map(|&s| order[s as usize] as usize);
        shadow_check_reads(&self.owner_of, order[q] as usize, refs, false, what);
    }

    /// Test-only hook for the race-check canaries: reassigns column `j` to
    /// `owner` (a lane index, or `u32::MAX` for the trunk) in the shadow
    /// map only, so a read the real partition orders *looks* like a read
    /// across lanes, proving the tracker trips.
    #[cfg(feature = "race-check")]
    #[doc(hidden)]
    pub fn corrupt_owner_for_test(&mut self, j: usize, owner: u32) {
        self.owner_of[j] = owner;
    }

    /// Test-only hook for the race-check canaries: points column `j`'s
    /// first transpose entry at column `i`'s row, as a broken mirror
    /// would, so the backward sweep's read set — which only the transpose
    /// describes — can be shown to trip the tracker.
    #[cfg(feature = "race-check")]
    #[doc(hidden)]
    pub fn corrupt_transpose_for_test(&mut self, j: usize, i: usize) {
        let q = self.slot[j] as usize;
        self.ci[self.cp[q]] = self.slot[i];
    }

    /// One forward-substitution row in gather form over an interleaved
    /// chunk of exactly `K` right-hand sides, for the column in slot `q`:
    /// `w_q ← w_q − Σ L_qk w_k` over its row of `L`, lanewise
    /// (monomorphized so the inner loop unrolls).
    ///
    /// # Safety
    ///
    /// `w` must cover `n · K` elements (by slot); the caller must hold an
    /// exclusive claim on `w[q·K..(q+1)·K]`, and every chunk row the row
    /// of `L` references (etree descendants) must be final.
    unsafe fn forward_row<const K: usize>(&self, q: usize, w: &pool::SendPtr<f64>) {
        #[cfg(feature = "race-check")]
        self.check_row_reads(q, if K == 1 { "forward" } else { "forward-block" });
        let base = w.get();
        let mut acc = [0.0f64; K];
        acc.copy_from_slice(std::slice::from_raw_parts(base.add(q * K), K));
        for p in self.rp[q]..self.rp[q + 1] {
            let i = self.ri[p] as usize;
            let l = self.rx[p];
            let wi = std::slice::from_raw_parts(base.add(i * K), K);
            for c in 0..K {
                acc[c] -= l * wi[c];
            }
        }
        std::slice::from_raw_parts_mut(base.add(q * K), K).copy_from_slice(&acc);
    }

    /// Diagonal scaling of the interleaved chunk row in slot `q`.
    ///
    /// # Safety
    ///
    /// `w` must cover `n · K` elements with an exclusive claim on
    /// `w[q·K..(q+1)·K]` (slot `q`).
    unsafe fn scale_row<const K: usize>(&self, q: usize, w: &pool::SendPtr<f64>) {
        let dj = self.d[q];
        let wj = std::slice::from_raw_parts_mut(w.get().add(q * K), K);
        for c in 0..K {
            wj[c] /= dj;
        }
    }

    /// One backward-substitution column in gather form over an
    /// interleaved chunk of exactly `K` right-hand sides, for the column in
    /// slot `q`, via the transpose index: `w_q ← w_q − Σ L_kq w_k` over its
    /// column of `L`, lanewise.
    ///
    /// # Safety
    ///
    /// As [`LdlFactor::forward_row`], but referenced entries are etree
    /// ancestors of the column in slot `q`.
    unsafe fn backward_col<const K: usize>(&self, q: usize, w: &pool::SendPtr<f64>) {
        #[cfg(feature = "race-check")]
        self.check_col_reads(q, if K == 1 { "backward" } else { "backward-block" });
        let base = w.get();
        let mut acc = [0.0f64; K];
        acc.copy_from_slice(std::slice::from_raw_parts(base.add(q * K), K));
        for p in self.cp[q]..self.cp[q + 1] {
            let i = self.ci[p] as usize;
            let l = self.cx[p];
            let wi = std::slice::from_raw_parts(base.add(i * K), K);
            for c in 0..K {
                acc[c] -= l * wi[c];
            }
        }
        std::slice::from_raw_parts_mut(base.add(q * K), K).copy_from_slice(&acc);
    }

    /// Solves in place on one chunk of exactly `K` right-hand sides laid
    /// out by slot: row `q` of the chunk is `w[q·K..(q + 1)·K]`, the `K`
    /// values of the factored matrix's row `i` sit in row
    /// [`LdlFactor::slots`]`()[i]`, and the forward, diagonal and backward
    /// sweeps run on it as in [`LdlFactor::solve_columns`] (which packs
    /// into this layout and calls this sweep). A caller that packs its own
    /// chunk — an outer elimination sweeping its rows around this factor's
    /// — skips the second copy; each column's result is bit-identical to
    /// a one-column solve at any `K` and pool width.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != n · K`.
    pub fn sweep_chunk<const K: usize>(&self, w: &mut [f64]) {
        assert_eq!(w.len(), self.n * K, "sweep: chunk length mismatch");
        let wp = pool::SendPtr::new(w.as_mut_ptr());
        self.sweep(
            K,
            // SAFETY: `w` is borrowed exclusively for the sweep; each step
            // writes only its own contiguous K-wide chunk row, and `sweep`
            // runs every column after the columns it reads (see
            // `LdlFactor::sweep`).
            |q| unsafe { self.forward_row::<K>(q, &wp) },
            // SAFETY: as above; the scale touches chunk row q alone.
            |q| unsafe { self.scale_row::<K>(q, &wp) },
            // SAFETY: as above, for the backward order.
            |q| unsafe { self.backward_col::<K>(q, &wp) },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, DenseBlock};

    /// Every column of `b` through one [`LdlFactor::solve_columns`] call.
    fn blocked(f: &LdlFactor, b: &DenseBlock, work: &mut Vec<f64>) -> DenseBlock {
        let mut x = DenseBlock::zeros(b.nrows(), b.ncols());
        f.solve_columns(b.columns(), x.columns_mut(), work);
        x
    }

    /// The factor's etree partitioned for `lanes` lanes, independent of the
    /// pool width the factor was built at (other tests in this binary
    /// force widths concurrently).
    fn partition_for(f: &LdlFactor, lanes: usize) -> SubtreePartition {
        let len = |ptr: &[usize], k: usize| {
            let q = f.slot[k] as usize;
            ptr[q + 1] - ptr[q]
        };
        let rnz: Vec<usize> = (0..f.n).map(|k| len(&f.rp, k)).collect();
        let cnz: Vec<usize> = (0..f.n).map(|k| len(&f.cp, k)).collect();
        SubtreePartition::from_parents(&f.parent, &column_weights(&rnz, &cnz), lanes)
    }

    /// Every row and every column of `L` keyed by column index, entries
    /// as (column, value) — comparable across factors whose slot layouts
    /// differ (each is built for the pool width of its moment, and other
    /// tests in this binary force widths concurrently).
    #[allow(clippy::type_complexity)]
    fn entries_by_column(f: &LdlFactor) -> (Vec<Vec<(u32, f64)>>, Vec<Vec<(u32, f64)>>) {
        let order = f.partition.order();
        let gather = |ptr: &[usize], idx: &[u32], val: &[f64]| -> Vec<Vec<(u32, f64)>> {
            (0..f.n)
                .map(|k| {
                    let q = f.slot[k] as usize;
                    let range = ptr[q]..ptr[q + 1];
                    range.map(|p| (order[idx[p] as usize], val[p])).collect()
                })
                .collect()
        };
        (gather(&f.rp, &f.ri, &f.rx), gather(&f.cp, &f.ci, &f.cx))
    }

    fn spd_tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    /// The permuted upper triangle against a dense `P·A·Pᵀ`: a matrix
    /// with values that are not symmetric, an explicit zero, rows stored
    /// out of column order, and a hub row touching every column.
    #[test]
    fn permuted_upper_matches_dense_reference() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 40;
        // Structurally symmetric pattern, independent values per entry.
        let mut dense = vec![vec![None; n]; n];
        for i in 0..n {
            dense[i][i] = Some(n as f64 + i as f64);
            dense[0][i] = Some(-1.0 - i as f64);
            dense[i][0] = Some(-2.0 - i as f64);
        }
        for _ in 0..120 {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            dense[i][j] = Some(rng.gen_range(-1.0..1.0));
            dense[j][i] = Some(rng.gen_range(-1.0..1.0));
        }
        dense[3][7] = Some(0.0);
        dense[7][3] = Some(0.5);
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        for row in &dense {
            let mut entries: Vec<(u32, f64)> = (0..n)
                .filter_map(|j| row[j].map(|v| (j as u32, v)))
                .collect();
            entries.shuffle(&mut rng);
            for (j, v) in entries {
                indices.push(j);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        let a = CsrMatrix::from_raw_parts(n, n, indptr, indices, data);
        let mut old_of_new: Vec<usize> = (0..n).collect();
        old_of_new.shuffle(&mut rng);
        let perm = Permutation::from_old_of_new(old_of_new.clone()).unwrap();
        let u = permuted_upper(&a, &perm).unwrap();
        // Column k of the upper triangle of B = P·A·Pᵀ is row k of B up
        // to the diagonal: B[k][r] = A[old_of_new[k]][old_of_new[r]].
        let mut ap = vec![0];
        let (mut ai, mut ax) = (Vec::new(), Vec::new());
        for k in 0..n {
            for r in 0..=k {
                if let Some(v) = dense[old_of_new[k]][old_of_new[r]] {
                    ai.push(r as u32);
                    ax.push(v.to_bits());
                }
            }
            ap.push(ai.len());
        }
        assert_eq!(u.ap, ap);
        assert_eq!(u.ai, ai);
        assert_eq!(u.ax.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), ax);
        let short = Permutation::identity(n - 1);
        assert!(matches!(
            LdlFactor::with_permutation(&a, short),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solves_tridiagonal_every_ordering() {
        let a = spd_tridiag(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let f = LdlFactor::new(&a, kind).unwrap();
            let x = f.solve(&b);
            assert!(
                a.residual_norm(&x, &b) < 1e-12,
                "residual too large for {kind:?}"
            );
        }
    }

    #[test]
    fn factor_of_identity_is_trivial() {
        let a = CsrMatrix::identity(10);
        let f = LdlFactor::new(&a, OrderingKind::Natural).unwrap();
        assert_eq!(f.nnz_l(), 0);
        assert!(f.d().iter().all(|&d| (d - 1.0).abs() < 1e-15));
        // No dependencies at all: every column is its own etree root, so
        // the lanes take them all and the trunk stays empty.
        let p = partition_for(&f, 2);
        assert_eq!(p.lanes(), 2);
        assert!(p.trunk().is_empty());
        assert_eq!(f.partition_shape().total_work, 10);
    }

    #[test]
    fn detects_singular_matrix() {
        // Ungrounded 2-node Laplacian is singular.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push_sym(0, 1, -1.0);
        let err = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural).unwrap_err();
        assert!(matches!(err, SparseError::ZeroPivot { .. }));
    }

    /// Regression: the `ZeroPivot` column must name the caller's original
    /// vertex, not the position the fill-reducing permutation moved it to.
    #[test]
    fn zero_pivot_reports_original_index() {
        // Vertex 2 has an empty row, so its pivot is exactly zero.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        // Permutation placing old vertex 2 first: the failure happens at
        // permuted column 0 but must be reported as column 2.
        let perm = Permutation::from_old_of_new(vec![2, 0, 1]).unwrap();
        let err = LdlFactor::with_permutation(&a, perm).unwrap_err();
        assert_eq!(err, SparseError::ZeroPivot { column: 2 });
        // Natural ordering reports it unchanged.
        let err = LdlFactor::new(&a, OrderingKind::Natural).unwrap_err();
        assert_eq!(err, SparseError::ZeroPivot { column: 2 });
    }

    #[test]
    fn rejects_rectangular() {
        let coo = CooMatrix::new(2, 3);
        let err = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { .. }));
    }

    #[test]
    fn random_spd_solves_accurately() {
        // A = B + n*I with random sparse symmetric B is SPD-dominant.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 80;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, n as f64);
        }
        for _ in 0..300 {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                coo.push_sym(i.min(j), i.max(j), rng.gen_range(-1.0..1.0));
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        for kind in [OrderingKind::MinDegree, OrderingKind::Rcm] {
            let f = LdlFactor::new(&a, kind).unwrap();
            let x = f.solve(&b);
            assert!(a.residual_norm(&x, &b) < 1e-11);
        }
    }

    #[test]
    fn d_positive_for_spd() {
        let a = spd_tridiag(20);
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        assert!(f.d().iter().all(|&d| d > 0.0));
        assert!(f.memory_bytes() > 0);
    }

    /// A natural-order tridiagonal factor has a pure path etree: no two
    /// columns are independent, so every lane count leaves the whole
    /// factor in the trunk and every phase on the serial loops.
    #[test]
    fn path_etree_partition_stats() {
        let a = spd_tridiag(12);
        let f = LdlFactor::new(&a, OrderingKind::Natural).unwrap();
        for lanes in [1, 2, 8] {
            let p = partition_for(&f, lanes);
            assert_eq!((p.lanes(), p.trunk().len()), (0, 12), "lanes = {lanes}");
        }
        let shape = f.partition_shape();
        assert_eq!((shape.lanes, shape.trunk_cols), (0, 12));
        assert_eq!(shape.critical_fraction(), 1.0);
    }

    /// A star grounded at its center, center ordered last: the leaves are
    /// independent one-column subtrees spread over the lanes, and the
    /// center, which depends on all of them, is the whole trunk.
    #[test]
    fn star_etree_partition_stats() {
        let n = 9;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i, 2.0);
            coo.push_sym(i, n - 1, -1.0);
        }
        coo.push(n - 1, n - 1, n as f64);
        let f = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural).unwrap();
        let p = partition_for(&f, 2);
        assert_eq!(p.lanes(), 2);
        assert_eq!(p.trunk(), &[(n - 1) as u32]);
        assert_eq!(p.lane(0).len() + p.lane(1).len(), n - 1);
        // Leaves weigh 2 (one column entry + diagonal), the hub 9 (eight
        // row entries + diagonal): critical path 9 + 8 of 25.
        let shape = p.shape();
        assert_eq!((shape.trunk_work, shape.max_lane_work), (9, 8));
        assert_eq!(shape.total_work, 25);
    }

    #[test]
    fn memory_bytes_counts_schedule_and_permutation() {
        let a = spd_tridiag(16);
        let f = LdlFactor::new(&a, OrderingKind::Rcm).unwrap();
        let values_and_indices = f.nnz_l() * (8 + 4) * 2 + (f.n() + 1) * 8 * 2 + f.n() * 8;
        // Schedule + permutation storage must be included on top of the
        // factor arrays themselves.
        assert!(f.memory_bytes() > values_and_indices);
    }

    /// Blocked solves must match the per-RHS path across full blocks,
    /// partial tail blocks, and multi-chunk widths.
    #[test]
    fn solve_block_matches_per_column() {
        let a = spd_tridiag(40);
        for kind in [OrderingKind::Natural, OrderingKind::MinDegree] {
            let f = LdlFactor::new(&a, kind).unwrap();
            for ncols in [1usize, 3, LDL_BLOCK_WIDTH, LDL_BLOCK_WIDTH + 1, 20] {
                let cols: Vec<Vec<f64>> = (0..ncols)
                    .map(|c| {
                        (0..40)
                            .map(|i| ((i * (c + 3)) as f64 * 0.31).sin())
                            .collect()
                    })
                    .collect();
                let blocked = blocked(&f, &DenseBlock::from_columns(&cols), &mut Vec::new());
                for (c, col) in cols.iter().enumerate() {
                    let single = f.solve(col);
                    for (bx, sx) in blocked.col(c).iter().zip(&single) {
                        assert!(
                            (bx - sx).abs() <= 1e-14 * sx.abs().max(1.0),
                            "{kind:?} ncols={ncols} col={c}: {bx} vs {sx}"
                        );
                    }
                }
            }
        }
    }

    /// `refactor_partial` after a value change must equal a from-scratch
    /// factorization with the same permutation, bit for bit — values,
    /// mirror, and diagonal.
    #[test]
    fn refactor_partial_matches_from_scratch() {
        let n = 60;
        let a = spd_tridiag(n);
        for kind in [OrderingKind::Natural, OrderingKind::MinDegree] {
            let mut f = LdlFactor::new(&a, kind).unwrap();
            // Bump the diagonal of a mid column (a legal SPD value edit).
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, if i == 17 { 9.0 } else { 4.0 });
                if i + 1 < n {
                    coo.push_sym(i, i + 1, -1.0);
                }
            }
            let a2 = coo.to_csr();
            let out = f.refactor_partial(&a2, &[17], 0.9).unwrap();
            let stats = match out {
                RefactorOutcome::Patched(s) => s,
                RefactorOutcome::PatternChanged => panic!("pattern did not change"),
            };
            assert!(stats.cols_refactored >= 1 && stats.cols_refactored <= n);
            let fresh = LdlFactor::with_permutation(&a2, f.permutation().clone()).unwrap();
            let ((rows, cols), (fresh_rows, fresh_cols)) =
                (entries_by_column(&f), entries_by_column(&fresh));
            assert_eq!(rows, fresh_rows, "{kind:?}: L values drifted");
            assert_eq!(cols, fresh_cols, "{kind:?}: mirror values drifted");
            assert_eq!(f.d(), fresh.d(), "{kind:?}: pivots drifted");
        }
    }

    /// The crossover forces the full numeric path; the result must still
    /// be bit-identical.
    #[test]
    fn refactor_partial_crossover_goes_full() {
        let n = 30;
        let a = spd_tridiag(n);
        let mut f = LdlFactor::new(&a, OrderingKind::Natural).unwrap();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, if i == 0 { 5.0 } else { 4.0 });
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        let a2 = coo.to_csr();
        // Column 0 of a natural tridiagonal roots the whole etree path, so
        // any positive crossover below 1.0 trips the full fallback.
        let out = f.refactor_partial(&a2, &[0], 0.5).unwrap();
        assert_eq!(
            out,
            RefactorOutcome::Patched(RefactorStats {
                cols_refactored: n,
                total_cols: n,
                full: true
            })
        );
        let fresh = LdlFactor::with_permutation(&a2, f.permutation().clone()).unwrap();
        assert_eq!(entries_by_column(&f), entries_by_column(&fresh));
        assert_eq!(f.d(), fresh.d());
    }

    #[test]
    fn refactor_partial_detects_pattern_change() {
        let a = spd_tridiag(10);
        let mut f = LdlFactor::new(&a, OrderingKind::Natural).unwrap();
        let d_before = f.d();
        // Add an off-diagonal entry: new pattern.
        let mut coo = CooMatrix::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 4.0);
            if i + 1 < 10 {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        coo.push_sym(0, 9, -0.5);
        let out = f.refactor_partial(&coo.to_csr(), &[0, 9], 0.9).unwrap();
        assert_eq!(out, RefactorOutcome::PatternChanged);
        assert_eq!(f.d(), d_before, "factor must be untouched");
    }

    #[test]
    fn refactor_partial_no_changes_is_a_no_op() {
        let a = spd_tridiag(12);
        let mut f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        let out = f.refactor_partial(&a, &[], 0.9).unwrap();
        assert_eq!(
            out,
            RefactorOutcome::Patched(RefactorStats {
                cols_refactored: 0,
                total_cols: 12,
                full: false
            })
        );
    }

    #[test]
    fn refactor_partial_rejects_wrong_shape() {
        let a = spd_tridiag(8);
        let mut f = LdlFactor::new(&a, OrderingKind::Natural).unwrap();
        let b = spd_tridiag(9);
        assert!(matches!(
            f.refactor_partial(&b, &[0], 0.9),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn refactor_partial_reports_zero_pivot() {
        // Start SPD, then zero a diagonal entry (pattern preserved by
        // keeping the explicit entry with value 0 via a push of 0.0? CSR
        // drops explicit zeros on assembly, so instead drive the pivot to
        // zero through cancellation: a 2x2 [[1, 1], [1, 1]] has d[1] = 0).
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 2.0);
        coo.push_sym(0, 1, 1.0);
        let mut f = LdlFactor::new(&coo.to_csr(), OrderingKind::Natural).unwrap();
        let mut coo2 = CooMatrix::new(2, 2);
        coo2.push(0, 0, 1.0);
        coo2.push(1, 1, 1.0);
        coo2.push_sym(0, 1, 1.0);
        let err = f
            .refactor_partial(&coo2.to_csr(), &[0, 1], 0.9)
            .unwrap_err();
        assert!(matches!(err, SparseError::ZeroPivot { .. }));
    }

    #[test]
    fn memory_bytes_counts_retained_symbolic_state() {
        let a = spd_tridiag(16);
        let f = LdlFactor::new(&a, OrderingKind::Rcm).unwrap();
        // parent (i64) + row pointers (usize) alone add 16 bytes per column.
        assert!(f.memory_bytes() >= f.n() * 16);
    }

    #[test]
    fn solve_block_scratch_reuse_and_empty() {
        let a = spd_tridiag(12);
        let f = LdlFactor::new(&a, OrderingKind::Rcm).unwrap();
        let mut work = Vec::new();
        let wide = DenseBlock::from_columns(&vec![vec![0.5; 12]; LDL_BLOCK_WIDTH + 1]);
        blocked(&f, &wide, &mut work);
        // A narrower block through the primed buffer matches a fresh one.
        let b = DenseBlock::from_columns(&[vec![1.0; 12], vec![-2.0; 12]]);
        assert_eq!(blocked(&f, &b, &mut work), blocked(&f, &b, &mut Vec::new()));
        assert_eq!(blocked(&f, &b, &mut work).col(1), f.solve(&[-2.0; 12]));
        // Zero columns are a no-op.
        let empty = blocked(&f, &DenseBlock::zeros(12, 0), &mut work);
        assert_eq!(empty.ncols(), 0);
    }
}
