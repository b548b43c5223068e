//! The grounded elimination behind [`GroundedSolver`](crate::GroundedSolver):
//! every vertex of degree at most two is eliminated in `O(n + nnz)`, and
//! only the remaining core goes to a fill-reducing ordering and the sparse
//! LDLᵀ.
//!
//! Degrees count a vertex's live off-diagonal entries, with the ground's
//! row and column left out. The elimination runs in three stages:
//!
//! 1. **Pendant trees, leaf to root.** A BFS from the ground orders the
//!    vertices; in reverse BFS order every vertex whose only live
//!    neighbour is its BFS parent, or that has none, is eliminated with
//!    `l = a_pv / d_v` and `d_p −= l · a_pv`. A spanning tree is consumed
//!    whole: one multiplier per vertex and no fill.
//! 2. **Chains.** A FIFO, seeded in index order, eliminates every remaining
//!    vertex of degree at most two. Eliminating `v` between `a < b` adds
//!    `−l_a · a_vb` to entry `(a, b)`: a new fill entry leaves both degrees
//!    unchanged, a merge into an existing entry lowers both, so degrees
//!    never grow and each vertex is queued at most once. Fill entries are
//!    found through a hash map on the endpoint pair, so a hub with many
//!    degree-2 neighbours costs one lookup per neighbour.
//! 3. **The core.** The live vertices' Schur complement — still SPD — is
//!    ordered under the caller's [`OrderingKind`] and factored by
//!    [`LdlFactor`].
//!
//! The structure depends only on the sparsity pattern, and all the values
//! come from one numeric pass over it ([`Peel::numeric`]). A value-only
//! [`Peel::refactor`] replays that pass on the new values and patches the
//! core's elimination-tree closure, so it is bit-identical to a fresh
//! build.
//!
//! Solves run on one chunk of up to [`LDL_BLOCK_WIDTH`] columns with the
//! `K` values of a row contiguous. Rows are in elimination order: the
//! one-neighbour records of stage 1, the two-neighbour records of stage 2,
//! the core in its factor's slot order ([`LdlFactor::sweep_chunk`] sweeps
//! that range in place), and last one zero row that absent neighbours and
//! the ground point at.

use crate::{Result, SolverError};
use sass_sparse::ordering::{self, OrderingKind};
use sass_sparse::{CsrMatrix, LdlFactor, RefactorOutcome, RefactorStats, SparseError};
use std::collections::HashMap;

/// An absent neighbour, slot or merge target.
const NONE: u32 = u32::MAX;

/// Marks a core entry's source as the pivot of the vertex in the low bits
/// rather than a value slot.
const DIAG: u32 = 1 << 31;

/// The elimination of a grounded matrix: the peeled records, the core
/// factor, and what [`Peel::refactor`] replays.
#[derive(Debug, Clone)]
pub(crate) struct Peel {
    n: usize,
    ground: usize,
    /// Vertex of every chunk row: the records in elimination order, then
    /// the core by slot, then the ground at the zero row `n − 1`.
    row_vertex: Vec<u32>,
    /// Chunk row of every vertex, the inverse of `row_vertex`.
    row_of: Vec<u32>,
    /// Stage-1 records (the first `parent.len()` rows): BFS parent, or
    /// [`NONE`], and the position of entry `(parent, v)` in the matrix.
    parent: Vec<u32>,
    up: Vec<u32>,
    /// Stage-1 neighbour rows and multipliers.
    up_row: Vec<u32>,
    l1: Vec<f64>,
    /// Stage-2 records: live neighbours `a < b` ([`NONE`]-padded), and the
    /// value slots of entries `(v, a)`, `(v, b)`, `(a, b)` and `(b, a)`.
    pair: Vec<[u32; 2]>,
    slots: Vec<[u32; 4]>,
    /// Stage-2 neighbour rows and multipliers.
    pair_row: Vec<[u32; 2]>,
    l2: Vec<[f64; 2]>,
    /// Pivot of every record.
    d: Vec<f64>,
    /// Position of every vertex's diagonal entry ([`NONE`] at the ground).
    diag: Vec<u32>,
    /// Fill entries created by stage 2; their values live in slots
    /// `nnz..nnz + nfill` of the numeric pass's value array.
    nfill: usize,
    /// Vertex of every core row, ascending, and the source of every core
    /// entry: a value slot, or [`DIAG`] plus the vertex for a diagonal,
    /// which reads the pivot.
    core_vertex: Vec<u32>,
    core_src: Vec<u32>,
    /// The core's Schur complement, kept for diffs and
    /// [`LdlFactor::refactor_partial`].
    core_matrix: CsrMatrix,
    core: Option<Box<LdlFactor>>,
    /// Pattern of the matrix the structure was built for, copied by the
    /// first [`Peel::refactor`]: later refactors replay on a match.
    pattern: Option<(Vec<usize>, Vec<u32>)>,
}

/// The core factor under `kind`, with a vanishing pivot reported as
/// [`SolverError::GroundedSingular`].
fn factor_core(core: &CsrMatrix, kind: OrderingKind) -> Result<Box<LdlFactor>> {
    let perm = ordering::compute(core, kind)?;
    LdlFactor::with_permutation(core, perm)
        .map(Box::new)
        .map_err(|e| match e {
            SparseError::ZeroPivot { .. } => SolverError::GroundedSingular,
            e => e.into(),
        })
}

/// `Ok` for a usable pivot: nonzero and finite.
fn pivot(d: f64) -> Result<f64> {
    if d == 0.0 || !d.is_finite() {
        return Err(SolverError::GroundedSingular);
    }
    Ok(d)
}

/// Position of entry `(i, j)` in `l`'s value array, by binary search of
/// row `i`'s sorted columns.
fn position(l: &CsrMatrix, i: usize, j: usize) -> Option<u32> {
    let lo = l.indptr()[i];
    let cols = l.row(i).0;
    cols.binary_search(&(j as u32))
        .ok()
        .map(|k| (lo + k) as u32)
}

impl Peel {
    /// Eliminates `l` grounded at `ground`.
    ///
    /// # Errors
    ///
    /// [`SolverError::GroundedSingular`] when the BFS from the ground
    /// misses a vertex, a row other than the ground's lacks its diagonal,
    /// or a pivot is zero or not finite.
    ///
    /// # Panics
    ///
    /// Panics if a row's columns are not strictly ascending, or if the
    /// stored entries and rows together reach 2³¹ (value slots are 31-bit).
    pub(crate) fn new(l: &CsrMatrix, ground: usize, kind: OrderingKind) -> Result<Self> {
        let mut peel = Self::structure(l, ground)?;
        peel.numeric(l.data())?;
        if !peel.core_vertex.is_empty() {
            peel.core = Some(factor_core(&peel.core_matrix, kind)?);
        }
        peel.place_rows();
        Ok(peel)
    }

    /// The pattern-only half: BFS, both peeling stages and the core's
    /// pattern. Leaves every value at zero and the core's chunk rows
    /// unplaced.
    fn structure(l: &CsrMatrix, ground: usize) -> Result<Self> {
        let n = l.nrows();
        let (ptr, idx) = (l.indptr(), l.indices());
        assert!(
            l.nnz() + n < DIAG as usize,
            "grounded solve: value slots must fit in 31 bits"
        );
        // BFS from the ground. Per vertex: [BFS parent, position of the
        // parent's entry, live degree, position of the diagonal].
        let mut info = vec![[NONE, NONE, 0, NONE]; n];
        let mut order = Vec::with_capacity(n);
        order.push(ground as u32);
        info[ground][0] = ground as u32;
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let u = u as usize;
            let (lo, hi) = (ptr[u], ptr[u + 1]);
            let (mut prev, mut sorted, mut du, mut dq) = (-1i64, true, 0u32, NONE);
            for (q, &c) in (lo..hi).zip(&idx[lo..hi]) {
                sorted &= i64::from(c) > prev;
                prev = i64::from(c);
                let c = c as usize;
                if c == u {
                    dq = q as u32;
                } else if c != ground {
                    du += 1;
                    let ic = &mut info[c];
                    if ic[0] == NONE {
                        ic[0] = u as u32;
                        ic[1] = q as u32;
                        order.push(c as u32);
                    }
                }
            }
            assert!(
                sorted,
                "grounded solve: row {u} is not strictly column-sorted"
            );
            info[u][2] = du;
            info[u][3] = dq;
        }
        info[ground][3] = NONE;
        if order.len() < n
            || info
                .iter()
                .enumerate()
                .any(|(v, i)| v != ground && i[3] == NONE)
        {
            return Err(SolverError::GroundedSingular);
        }

        // Stage 1: pendant trees, leaf to root. A vertex's children come
        // after it in BFS order, so they have all been offered by the time
        // it is; with its parent live, degree 1 means the parent is its
        // only neighbour. Under the ground the parent does not count, so
        // only degree 0 qualifies there.
        let mut alive = vec![true; n];
        alive[ground] = false;
        let mut row_vertex = Vec::with_capacity(n);
        let (mut parent, mut up) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for &v in order[1..].iter().rev() {
            let v = v as usize;
            let [p, q, dv, _] = info[v];
            match dv {
                0 => {
                    parent.push(NONE);
                    up.push(NONE);
                }
                1 if p as usize != ground => {
                    parent.push(p);
                    up.push(q);
                    info[p as usize][2] -= 1;
                }
                _ => continue,
            }
            alive[v] = false;
            row_vertex.push(v as u32);
        }

        let mut peel = Peel {
            n,
            ground,
            row_vertex,
            row_of: Vec::new(),
            up_row: Vec::new(),
            l1: vec![0.0; parent.len()],
            parent,
            up,
            pair: Vec::new(),
            slots: Vec::new(),
            pair_row: Vec::new(),
            l2: Vec::new(),
            d: Vec::new(),
            diag: info.iter().map(|i| i[3]).collect(),
            nfill: 0,
            core_vertex: Vec::new(),
            core_src: Vec::new(),
            core_matrix: CsrMatrix::from_raw_parts(0, 0, vec![0], Vec::new(), Vec::new()),
            core: None,
            pattern: None,
        };
        if peel.row_vertex.len() + 1 < n {
            let mut deg: Vec<u32> = info.iter().map(|i| i[2]).collect();
            peel.chains_and_core(l, &mut alive, &mut deg);
        }
        peel.d = vec![0.0; peel.row_vertex.len()];
        Ok(peel)
    }

    /// Stage 2 and the core's pattern, for the vertices stage 1 left.
    fn chains_and_core(&mut self, l: &CsrMatrix, alive: &mut [bool], deg: &mut [u32]) {
        let n = self.n;
        let nnz = l.nnz();
        // Fill entries as half-entry linked lists per vertex: half `h`
        // points at `fill_to[h]`, and its entry's value slot is
        // `nnz + h / 2`.
        let mut fill_head = vec![NONE; n];
        let live = n - 1 - self.row_vertex.len();
        let (mut fill_to, mut fill_next) = (Vec::with_capacity(live), Vec::with_capacity(live));
        // Keyed by `a << 32 | b` under the default hasher: the pairs come
        // from the caller's graph (a served one arrives over the network),
        // so the table keeps its protection against crafted collisions.
        let mut fill_at: HashMap<u64, u32> = HashMap::with_capacity(live / 2);
        let mut queued: Vec<bool> = (0..n).map(|v| alive[v] && deg[v] <= 2).collect();
        let mut fifo: Vec<u32> = Vec::with_capacity(live);
        fifo.extend((0..n as u32).filter(|&v| queued[v as usize]));
        let mut head = 0;
        while let Some(&v) = fifo.get(head) {
            head += 1;
            let v = v as usize;
            // The live neighbours and the slots of their entries: the
            // row's original entries, then the fill.
            let mut nb = [(NONE, NONE); 2];
            let mut k = 0;
            let (cols, _) = l.row(v);
            let lo = l.indptr()[v];
            for (q, &c) in cols.iter().enumerate() {
                if c as usize != v && alive[c as usize] {
                    nb[k] = (c, (lo + q) as u32);
                    k += 1;
                }
            }
            let mut h = fill_head[v];
            while h != NONE {
                let c = fill_to[h as usize];
                if alive[c as usize] {
                    nb[k] = (c, (nnz + h as usize / 2) as u32);
                    k += 1;
                }
                h = fill_next[h as usize];
            }
            debug_assert_eq!(k, deg[v] as usize, "live degree of {v}");
            if k == 2 && nb[0].0 > nb[1].0 {
                nb.swap(0, 1);
            }
            let [(a, sa), (b, sb)] = nb;
            let mut target = [NONE; 2];
            let mut lower = |x: u32, fifo: &mut Vec<u32>| {
                deg[x as usize] -= 1;
                if deg[x as usize] <= 2 && !queued[x as usize] {
                    queued[x as usize] = true;
                    fifo.push(x);
                }
            };
            if k == 1 {
                lower(a, &mut fifo);
            } else if k == 2 {
                let key = u64::from(a) << 32 | u64::from(b);
                let found = match position(l, a as usize, b as usize) {
                    Some(ab) => Some([ab, position(l, b as usize, a as usize).unwrap_or(ab)]),
                    None => fill_at.get(&key).map(|&s| [s, s]),
                };
                target = match found {
                    Some(t) => {
                        lower(a, &mut fifo);
                        lower(b, &mut fifo);
                        t
                    }
                    None => {
                        let h = fill_to.len() as u32;
                        let s = (nnz + h as usize / 2) as u32;
                        fill_to.extend([b, a]);
                        fill_next.extend([fill_head[a as usize], fill_head[b as usize]]);
                        fill_head[a as usize] = h;
                        fill_head[b as usize] = h + 1;
                        fill_at.insert(key, s);
                        [s, s]
                    }
                };
            }
            self.pair.push([a, b]);
            self.slots.push([sa, sb, target[0], target[1]]);
            self.row_vertex.push(v as u32);
            alive[v] = false;
        }
        self.l2 = vec![[0.0; 2]; self.pair.len()];
        self.nfill = fill_to.len() / 2;

        // The core's pattern: per live vertex, its diagonal and live
        // original entries (ascending already), then its live fill.
        let mut core_of = vec![NONE; n];
        for v in (0..n).filter(|&v| alive[v]) {
            core_of[v] = self.core_vertex.len() as u32;
            self.core_vertex.push(v as u32);
        }
        let nc = self.core_vertex.len();
        let mut indptr = Vec::with_capacity(nc + 1);
        indptr.push(0);
        let cap = nc
            + 2 * self.nfill
            + self
                .core_vertex
                .iter()
                .map(|&u| deg[u as usize] as usize)
                .sum::<usize>();
        let (mut cols, mut src) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        let mut filled = Vec::new();
        for &u in &self.core_vertex {
            let u = u as usize;
            let lo = l.indptr()[u];
            let mut h = fill_head[u];
            while h != NONE {
                let c = fill_to[h as usize] as usize;
                if alive[c] {
                    filled.push((core_of[c], (nnz + h as usize / 2) as u32));
                }
                h = fill_next[h as usize];
            }
            filled.sort_unstable_by_key(|&(c, _)| c);
            let mut fill = filled.drain(..).peekable();
            for (q, &c) in l.row(u).0.iter().enumerate() {
                let c = c as usize;
                if c != u && !alive[c] {
                    continue;
                }
                while let Some((fc, fs)) = fill.next_if(|&(fc, _)| fc < core_of[c]) {
                    cols.push(fc);
                    src.push(fs);
                }
                cols.push(core_of[c]);
                src.push(if c == u {
                    DIAG | u as u32
                } else {
                    (lo + q) as u32
                });
            }
            for (fc, fs) in fill {
                cols.push(fc);
                src.push(fs);
            }
            indptr.push(cols.len());
        }
        let data = vec![0.0; cols.len()];
        self.core_matrix = CsrMatrix::from_raw_parts(nc, nc, indptr, cols, data);
        self.core_src = src;
    }

    /// Every pivot and multiplier, and the core matrix's values, from the
    /// values `a` of a matrix with the structure's pattern — the one
    /// numeric code path of both a build and a replay, so each computes
    /// the same operations in the same order.
    ///
    /// # Errors
    ///
    /// [`SolverError::GroundedSingular`] on a zero or non-finite pivot.
    fn numeric(&mut self, a: &[f64]) -> Result<()> {
        let Peel {
            row_vertex,
            parent,
            up,
            l1,
            pair,
            slots,
            l2,
            d: pivots,
            diag,
            nfill,
            core_src,
            core_matrix,
            ..
        } = self;
        let m1 = parent.len();
        // Pivots by vertex, from the diagonal.
        let mut d: Vec<f64> = diag
            .iter()
            .map(|&q| if q == NONE { 0.0 } else { a[q as usize] })
            .collect();
        for r in 0..m1 {
            let dv = pivot(d[row_vertex[r] as usize])?;
            pivots[r] = dv;
            l1[r] = match parent[r] {
                NONE => 0.0,
                p => {
                    let a_pv = a[up[r] as usize];
                    let l = a_pv / dv;
                    d[p as usize] -= l * a_pv;
                    l
                }
            };
        }
        if pair.is_empty() && core_src.is_empty() {
            return Ok(());
        }
        // Stage 2 reads and updates off-diagonal values, fill included.
        let mut vals = Vec::with_capacity(a.len() + *nfill);
        vals.extend_from_slice(a);
        vals.resize(a.len() + *nfill, 0.0);
        for (j, (&[ia, ib], &[sa, sb, sab, sba])) in pair.iter().zip(slots.iter()).enumerate() {
            let r = m1 + j;
            let dv = pivot(d[row_vertex[r] as usize])?;
            pivots[r] = dv;
            let mut l = [0.0; 2];
            if ia != NONE {
                let ava = vals[sa as usize];
                l[0] = ava / dv;
                d[ia as usize] -= l[0] * ava;
                if ib != NONE {
                    let avb = vals[sb as usize];
                    l[1] = avb / dv;
                    d[ib as usize] -= l[1] * avb;
                    let t = l[0] * avb;
                    vals[sab as usize] -= t;
                    if sba != sab {
                        vals[sba as usize] -= t;
                    }
                }
            }
            l2[j] = l;
        }
        for (out, &s) in core_matrix.data_mut().iter_mut().zip(core_src.iter()) {
            *out = if s & DIAG != 0 {
                d[(s & !DIAG) as usize]
            } else {
                vals[s as usize]
            };
        }
        Ok(())
    }

    /// Chunk rows of the core (by the factor's slots) and of every
    /// record's neighbours.
    fn place_rows(&mut self) {
        let m = self.row_vertex.len();
        let zero = (self.n - 1) as u32;
        let mut row_of = vec![zero; self.n];
        for (r, &v) in self.row_vertex.iter().enumerate() {
            row_of[v as usize] = r as u32;
        }
        self.row_vertex.resize(self.n, self.ground as u32);
        if let Some(core) = &self.core {
            for (&v, &q) in self.core_vertex.iter().zip(core.slots()) {
                let r = m + q as usize;
                row_of[v as usize] = r as u32;
                self.row_vertex[r] = v;
            }
        }
        let row = |v: u32| if v == NONE { zero } else { row_of[v as usize] };
        self.up_row = self.parent.iter().map(|&p| row(p)).collect();
        self.pair_row = self.pair.iter().map(|&[a, b]| [row(a), row(b)]).collect();
        self.row_of = row_of;
    }

    /// Updates the elimination for `l`, whose rows outside `changed` are
    /// those of the matrix it was built for, bit-identical to
    /// `Peel::new(l, ground, kind)`.
    ///
    /// The first call copies `l`'s pattern; while later matrices keep it,
    /// the numeric pass is replayed on their values. Otherwise `l` is
    /// peeled afresh, and the core factor is kept when the new core has
    /// the old core's pattern (it would get the same ordering). Either way
    /// a kept core factor re-runs only the elimination-tree closure of the
    /// core rows whose values changed ([`LdlFactor::refactor_partial`]);
    /// a new core pattern is ordered and factored from scratch and
    /// reported `full` with every grounded column counted.
    ///
    /// Otherwise `cols_refactored` counts the core's re-run columns plus
    /// the peeled columns the edit reaches: a record whose vertex is in
    /// `changed`, or whose pivot or entries an earlier reached record
    /// updated — the peel's share of the ancestor closure. The numeric
    /// pass recomputes every record's `O(1)` step, and the records outside
    /// the closure reproduce their values bit for bit.
    ///
    /// # Errors
    ///
    /// [`SolverError::GroundedSingular`] as for [`Peel::new`]; the
    /// elimination is poisoned then.
    pub(crate) fn refactor(
        &mut self,
        l: &CsrMatrix,
        changed: &[usize],
        crossover: f64,
        kind: OrderingKind,
    ) -> Result<RefactorStats> {
        let before = self.core_matrix.data().to_vec();
        let hit = self
            .pattern
            .as_ref()
            .is_some_and(|(p, i)| p[..] == *l.indptr() && i[..] == *l.indices());
        if hit {
            self.numeric(l.data())?;
        } else {
            let mut fresh = Self::structure(l, self.ground)?;
            fresh.numeric(l.data())?;
            fresh.pattern = Some((l.indptr().to_vec(), l.indices().to_vec()));
            let (old, new) = (&self.core_matrix, &fresh.core_matrix);
            if old.indptr() != new.indptr() || old.indices() != new.indices() {
                if !fresh.core_vertex.is_empty() {
                    fresh.core = Some(factor_core(&fresh.core_matrix, kind)?);
                }
                fresh.place_rows();
                *self = fresh;
                return Ok(RefactorStats {
                    cols_refactored: self.n - 1,
                    total_cols: self.n - 1,
                    full: true,
                });
            }
            fresh.core = self.core.take();
            fresh.place_rows();
            *self = fresh;
        }
        let mut reached = vec![false; self.n];
        for &v in changed {
            reached[v] = v != self.ground;
        }
        let mut peeled = 0;
        let records = self.parent.iter().map(|&p| [p, NONE]);
        for (&v, nbrs) in self
            .row_vertex
            .iter()
            .zip(records.chain(self.pair.iter().copied()))
        {
            if reached[v as usize] {
                peeled += 1;
                for x in nbrs.into_iter().filter(|&x| x != NONE) {
                    reached[x as usize] = true;
                }
            }
        }
        let mut stats = RefactorStats {
            cols_refactored: peeled,
            total_cols: self.n - 1,
            full: false,
        };
        let Some(core) = &mut self.core else {
            return Ok(stats);
        };
        let ptr = self.core_matrix.indptr();
        let after = self.core_matrix.data();
        let rows: Vec<usize> = (0..self.core_vertex.len())
            .filter(|&i| before[ptr[i]..ptr[i + 1]] != after[ptr[i]..ptr[i + 1]])
            .collect();
        match core.refactor_partial(&self.core_matrix, &rows, crossover) {
            Ok(RefactorOutcome::Patched(s)) => {
                stats.cols_refactored += s.cols_refactored;
                stats.full = s.full;
                Ok(stats)
            }
            Ok(RefactorOutcome::PatternChanged) => {
                unreachable!("the core keeps its pattern")
            }
            Err(SparseError::ZeroPivot { .. }) => Err(SolverError::GroundedSingular),
            Err(e) => Err(e.into()),
        }
    }

    /// The core factor, `None` when the peel consumed every vertex.
    pub(crate) fn core(&self) -> Option<&LdlFactor> {
        self.core.as_deref()
    }

    /// Off-diagonal entries of the factor: the records' multipliers plus
    /// the core's `nnz(L)`.
    pub(crate) fn nnz(&self) -> usize {
        let ones = self.parent.iter().filter(|&&p| p != NONE).count();
        let twos = self.pair.iter().flatten().filter(|&&x| x != NONE).count();
        ones + twos + self.core.as_ref().map_or(0, |c| c.nnz_l())
    }

    /// Bytes held by the records, the core matrix and factor, and the
    /// pattern copy.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let u32s = self.row_vertex.len()
            + self.row_of.len()
            + self.parent.len()
            + self.up.len()
            + self.up_row.len()
            + self.diag.len()
            + self.core_vertex.len()
            + self.core_src.len()
            + self.pattern.as_ref().map_or(0, |(_, i)| i.len())
            + 4 * (self.pair.len() + self.slots.len() + self.pair_row.len());
        u32s * size_of::<u32>()
            + size_of_val(&self.l1[..])
            + size_of_val(&self.l2[..])
            + size_of_val(&self.d[..])
            + self
                .pattern
                .as_ref()
                .map_or(0, |(p, _)| size_of_val(&p[..]))
            + self.core_matrix.memory_bytes()
            + self.core.as_ref().map_or(0, |c| c.memory_bytes())
    }

    /// Solves one chunk of exactly `K` columns: packs `b_c − shift_c` into
    /// each vertex's row (the ground's into the zero row, which the forward
    /// sweep only subtracts from and which is zeroed before the backward
    /// sweep), sweeps the records forward, solves the core in place, sweeps
    /// the records backward with the division folded in, and unpacks every
    /// row to its vertex — the ground's from the zero row.
    ///
    /// One column runs exactly a leaf-to-root tree elimination's
    /// operations on a spanning tree; each column's bits are the same at
    /// every `K`.
    pub(crate) fn solve_chunk<const K: usize>(
        &self,
        b: [&[f64]; K],
        shift: [f64; K],
        x: &mut [&mut [f64]; K],
        work: &mut Vec<f64>,
    ) {
        let n = self.n;
        work.resize(n * K, 0.0);
        let w = &mut work[..n * K];
        // One column gathers by row and is unpacked record by record as
        // the backward sweep finalizes each; a wider chunk moves its
        // columns vertex by vertex, streaming them in order with one
        // K-wide row per vertex. Each is the faster copy at its width.
        let fused = K == 1;
        if fused {
            for (y, &v) in w.iter_mut().zip(&self.row_vertex) {
                *y = b[0][v as usize] - shift[0];
            }
        } else {
            for (v, &r) in self.row_of.iter().enumerate() {
                let row = &mut w[r as usize * K..][..K];
                for c in 0..K {
                    row[c] = b[c][v] - shift[c];
                }
            }
        }
        let (m1, m) = (self.parent.len(), self.d.len());
        let ones = || self.up_row.iter().zip(&self.l1).enumerate();
        let twos = || (m1..m).zip(self.pair_row.iter().zip(&self.l2));
        for (r, (&p, &l)) in ones() {
            let y: [f64; K] = std::array::from_fn(|c| w[r * K + c]);
            let dst = &mut w[p as usize * K..][..K];
            for c in 0..K {
                dst[c] -= l * y[c];
            }
        }
        for (r, (&[pa, pb], &[la, lb])) in twos() {
            let y: [f64; K] = std::array::from_fn(|c| w[r * K + c]);
            for (p, l) in [(pa, la), (pb, lb)] {
                let dst = &mut w[p as usize * K..][..K];
                for c in 0..K {
                    dst[c] -= l * y[c];
                }
            }
        }
        if let Some(core) = &self.core {
            core.sweep_chunk::<K>(&mut w[m * K..(n - 1) * K]);
        }
        w[(n - 1) * K..].fill(0.0);
        for (r, (&[pa, pb], &[la, lb])) in twos().rev() {
            let (ya, yb): ([f64; K], [f64; K]) = (
                std::array::from_fn(|c| w[pa as usize * K + c]),
                std::array::from_fn(|c| w[pb as usize * K + c]),
            );
            let (dr, v, row) = (self.d[r], self.row_vertex[r] as usize, &mut w[r * K..][..K]);
            for c in 0..K {
                row[c] = row[c] / dr - la * ya[c] - lb * yb[c];
            }
            if fused {
                x[0][v] = row[0];
            }
        }
        for (r, (&p, &l)) in ones().rev() {
            let y: [f64; K] = std::array::from_fn(|c| w[p as usize * K + c]);
            let (dr, v, row) = (self.d[r], self.row_vertex[r] as usize, &mut w[r * K..][..K]);
            for c in 0..K {
                row[c] = row[c] / dr - l * y[c];
            }
            if fused {
                x[0][v] = row[0];
            }
        }
        if !fused {
            for (v, &r) in self.row_of.iter().enumerate() {
                let row = &w[r as usize * K..][..K];
                for c in 0..K {
                    x[c][v] = row[c];
                }
            }
            return;
        }
        for (&v, &y) in self.row_vertex[m..].iter().zip(&w[m..]) {
            x[0][v as usize] = y;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GroundedSolver, SolverError};
    use proptest::prelude::*;
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

    /// A Laplacian plus a positive diagonal: nonzero row sums, same
    /// pattern, as on an AMG coarse level.
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

    /// Solves of `a` at the first, middle and last ground against
    /// [`dense_reference`], to 1e-10 relative; returns the solvers.
    fn check_dense(name: &str, a: &CsrMatrix, laplacian: bool) -> Vec<GroundedSolver> {
        let n = a.nrows();
        [0, n / 2, n - 1]
            .into_iter()
            .map(|ground| {
                let s = GroundedSolver::with_ground(a, ground, OrderingKind::MinDegree).unwrap();
                for k in 0..3 {
                    let b = rhs(n, k);
                    let (x, want) = (s.solve(&b), dense_reference(a, ground, laplacian, &b));
                    let err = dense::rel_diff(&x, &want);
                    assert!(err < 1e-10, "{name}, ground {ground}: {err:e}");
                }
                s
            })
            .collect()
    }

    fn laplacian(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
        Graph::from_edges(n, edges).unwrap().laplacian()
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
            for s in check_dense(name, a, *laplacian) {
                assert!(s.factor().is_none(), "{name}: a tree peels whole");
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
    /// 6-cycle and an isolated vertex. Whichever side holds the ground,
    /// the BFS misses the other, which is reported as singular.
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
        for k in 0..3 {
            let r = rhs(a.n(), k);
            let (xa, xb) = (a.solve(&r), b.solve(&r));
            assert!(xa.iter().zip(&xb).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    /// A reweighted tree keeps its pattern: the refactor replays the peel
    /// on the new values, counts the records the edit reaches (the edited
    /// edge's lower endpoint and its path to the ground's child), and
    /// lands on the fresh solver bit for bit.
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
        for _ in 0..2 {
            let stats = s.refactor(&l2, &[u, v], 0.9).unwrap();
            assert!(!stats.full && stats.cols_refactored > 0);
            assert!(stats.cols_refactored < g.n() - 1);
            assert_eq!(stats.total_cols, g.n() - 1);
            let fresh = GroundedSolver::with_ground(&l2, 10, OrderingKind::MinDegree).unwrap();
            assert!(s.factor().is_none());
            assert_same_solver(&s, &fresh);
        }
    }

    /// A tree gains off-tree edges one at a time until its peel leaves a
    /// core (a single cycle, or any series-parallel graph, peels whole);
    /// each gain changes the pattern, and the core's appearance is a full
    /// rebuild onto the sparse factor. Dropping the edges again returns
    /// to the tree path.
    #[test]
    fn refactor_moves_a_tree_that_gains_an_edge_to_the_sparse_factor() {
        let g = grid2d(9, 7, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 6);
        let t = tree_of(&g);
        let tree_edges: Vec<(usize, usize, f64)> = t
            .edges()
            .iter()
            .map(|e| (e.u as usize, e.v as usize, e.weight))
            .collect();
        let mut edges = tree_edges.clone();
        let mut s =
            GroundedSolver::with_ground(&t.laplacian(), 10, OrderingKind::MinDegree).unwrap();
        let extras = g.edges().iter().filter(|e| {
            !tree_edges
                .iter()
                .any(|&(u, v, _)| (u, v) == (e.u as usize, e.v as usize))
        });
        for extra in extras {
            let (u, v) = (extra.u as usize, extra.v as usize);
            edges.push((u, v, extra.weight));
            let l2 = Graph::from_edges(g.n(), &edges).unwrap().laplacian();
            let stats = s.refactor(&l2, &[u, v], 0.9).unwrap();
            let fresh = GroundedSolver::with_ground(&l2, 10, OrderingKind::MinDegree).unwrap();
            assert_same_solver(&s, &fresh);
            if fresh.factor().is_some() {
                assert!(stats.full);
                break;
            }
        }
        assert!(s.factor().is_some(), "the grid's edges leave a core");
        let l3 = Graph::from_edges(g.n(), &tree_edges).unwrap().laplacian();
        let changed: Vec<usize> = (0..g.n()).collect();
        assert!(s.refactor(&l3, &changed, 0.9).unwrap().full);
        let fresh = GroundedSolver::with_ground(&l3, 10, OrderingKind::MinDegree).unwrap();
        assert!(s.factor().is_none());
        assert_same_solver(&s, &fresh);
    }

    /// Grounding a cycle leaves a path, which the chain stage eliminates
    /// whole; a vertex inside the path bridges its neighbours with a fill
    /// entry that replaces its two edges, so nothing grows.
    #[test]
    fn peels_a_cycle_whole() {
        let edges: Vec<_> = (0..9)
            .map(|i| (i, (i + 1) % 9, 1.0 + i as f64 * 0.3))
            .collect();
        for s in check_dense("cycle", &laplacian(9, &edges), true) {
            assert!(s.factor().is_none());
            assert!(s.nnz_factor() <= 2 * 8 && s.peel.nfill < 8);
        }
    }

    /// Vertex 0 has degree 2, and its neighbours 1 and 2 are adjacent:
    /// wherever the ground sits, some degree-2 vertex's fill merges into
    /// an original entry.
    #[test]
    fn merges_fill_into_an_existing_entry() {
        let mut edges = vec![(0, 1, 1.5), (0, 2, 0.5)];
        for u in 1..6 {
            for v in u + 1..6 {
                edges.push((u, v, 1.0 + (u * v) as f64 * 0.1));
            }
        }
        for s in check_dense("triangle fan", &laplacian(6, &edges), true) {
            let p = &s.peel;
            let merged = p
                .slots
                .iter()
                .any(|sl| sl[2] != super::NONE && sl[2] != sl[3]);
            assert!(merged || p.pair.is_empty(), "ground {}", s.ground());
        }
    }

    /// Vertices 0 and 1 both sit between 2 and 3, which are not adjacent:
    /// the first creates fill entry (2, 3), the second merges into it.
    #[test]
    fn merges_a_repeated_fill_entry() {
        let mut edges = vec![(0, 2, 1.0), (0, 3, 2.0), (1, 2, 0.5), (1, 3, 1.5)];
        // 2 and 3 each reach a clique on 4..8, keeping them above degree 2.
        for u in 4..8 {
            edges.push((2, u, 0.7));
            edges.push((3, u, 1.3));
            for v in u + 1..8 {
                edges.push((u, v, 0.9));
            }
        }
        let l = laplacian(8, &edges);
        let solvers = check_dense("twin chains", &l, true);
        // Under grounds 4 and 7 (ground 0 is one of the twins).
        for s in &solvers[1..] {
            let p = &s.peel;
            let fill = p
                .slots
                .iter()
                .filter(|sl| sl[2] as usize >= l.nnz())
                .count();
            assert_eq!((p.nfill, fill), (1, 2), "one fill entry, written twice");
        }
    }

    /// A hub whose 40 spokes each lead to a ring vertex: every spoke has
    /// degree 2, and eliminating it gives the hub a fill entry to a new
    /// ring vertex.
    #[test]
    fn hub_with_many_degree_two_neighbours() {
        let m = 40;
        let mut edges = Vec::new();
        for i in 0..m {
            let (spoke, ring) = (1 + i, 1 + m + i);
            edges.push((0, spoke, 1.0 + i as f64 * 0.05));
            edges.push((spoke, ring, 2.0));
            edges.push((ring, 1 + m + (i + 1) % m, 0.8));
        }
        let solvers = check_dense("hub", &laplacian(1 + 2 * m, &edges), true);
        assert_eq!(
            solvers[1].peel.nfill, m,
            "hub 0 stays live under ground n/2"
        );
    }

    /// For each ground, one extra vertex hangs off it alone: its record
    /// has no live neighbour.
    #[test]
    fn vertex_hanging_off_the_ground() {
        let n = 12;
        for ground in [0, n / 2, n - 1] {
            let hang = if ground == 0 { n - 1 } else { 0 };
            let rest: Vec<usize> = (0..n).filter(|&v| v != hang).collect();
            let mut edges = vec![(ground.min(hang), ground.max(hang), 1.7)];
            for (i, &u) in rest.iter().enumerate() {
                for &v in rest.iter().skip(i + 1).take(3) {
                    edges.push((u, v, 1.0 + (u + v) as f64 * 0.05));
                }
            }
            let a = laplacian(n, &edges);
            let s = GroundedSolver::with_ground(&a, ground, OrderingKind::MinDegree).unwrap();
            for k in 0..3 {
                let b = rhs(n, k);
                let err = dense::rel_diff(&s.solve(&b), &dense_reference(&a, ground, true, &b));
                assert!(err < 1e-10, "ground {ground}: {err:e}");
            }
            let r = s
                .peel
                .row_vertex
                .iter()
                .position(|&v| v as usize == hang)
                .unwrap();
            assert_eq!(s.peel.parent[r], super::NONE, "ground {ground}");
        }
    }

    #[test]
    fn unreached_component_is_singular() {
        let l = laplacian(
            7,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (3, 6, 2.0),
            ],
        );
        for ground in [0, 3, 6] {
            assert_eq!(
                GroundedSolver::with_ground(&l, ground, OrderingKind::MinDegree).unwrap_err(),
                SolverError::GroundedSingular,
                "ground {ground}"
            );
        }
    }

    #[test]
    fn sparsifier_plus_positive_diagonal() {
        let g = circuit_grid(9, 8, 0.2, 5);
        let sp = sass_graph::spanning::max_weight_spanning_tree(&g).unwrap();
        let mut ids = sp;
        ids.extend((0..g.m() as u32).step_by(5));
        ids.sort_unstable();
        ids.dedup();
        let a = shifted(&g.subgraph_with_edges(ids).laplacian());
        for s in check_dense("shifted sparsifier", &a, false) {
            assert!(
                s.factor().is_some(),
                "ground {}: a core remains",
                s.ground()
            );
        }
    }

    /// A random tree on `n` vertices plus `k` extra edges, with weights.
    fn tree_plus_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (2usize..36).prop_flat_map(|n| {
            let parents = proptest::collection::vec((0usize..1000, 0.2f64..5.0), n - 1);
            let extras = proptest::collection::vec((0usize..n, 0usize..n, 0.2f64..5.0), 0..n);
            (Just(n), parents, extras).prop_map(|(n, parents, extras)| {
                let mut edges: Vec<(usize, usize, f64)> = parents
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, w))| (p % (i + 1), i + 1, w))
                    .collect();
                edges.extend(extras.into_iter().filter(|&(u, v, _)| u != v));
                (n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Solves match the dense pseudo-inverse, and a refactor after a
        /// weight edit is bit-identical to a fresh build.
        #[test]
        fn peel_matches_dense_and_refactor_matches_fresh(
            (n, edges) in tree_plus_edges(),
            ground in 0usize..1000,
            pick in 0usize..1000,
            scale in 0.25f64..4.0,
        ) {
            let ground = ground % n;
            let g = Graph::from_edges(n, &edges).unwrap();
            let l = g.laplacian();
            let mut s = GroundedSolver::with_ground(&l, ground, OrderingKind::MinDegree).unwrap();
            for k in 0..2 {
                let b = rhs(n, k);
                let err = dense::rel_diff(&s.solve(&b), &dense_reference(&l, ground, true, &b));
                prop_assert!(err < 1e-10, "solve: {:e}", err);
            }
            let mut edits: Vec<(usize, usize, f64)> = g
                .edges()
                .iter()
                .map(|e| (e.u as usize, e.v as usize, e.weight))
                .collect();
            let e = pick % edits.len();
            edits[e].2 *= scale;
            let (u, v, _) = edits[e];
            let l2 = Graph::from_edges(n, &edits).unwrap().laplacian();
            for _ in 0..2 {
                s.refactor(&l2, &[u, v], 0.5).unwrap();
                let fresh = GroundedSolver::with_ground(&l2, ground, OrderingKind::MinDegree).unwrap();
                prop_assert_eq!(s.nnz_factor(), fresh.nnz_factor());
                for k in 0..2 {
                    let b = rhs(n, k);
                    let (x, y) = (s.solve(&b), fresh.solve(&b));
                    prop_assert!(x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()));
                }
            }
        }
    }
}
