//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Three classic algorithms are provided, selected via [`OrderingKind`]:
//!
//! - **Reverse Cuthill–McKee** (`Rcm`): breadth-first profile reduction,
//!   good for banded/mesh matrices,
//! - **Approximate minimum degree** (`MinDegree`): quotient-graph AMD
//!   (Amestoy, Davis & Duff 1996), excellent for the
//!   tree-plus-a-few-edges sparsifiers this workspace factorizes in its
//!   inner loop,
//! - **Nested dissection** (`NestedDissection`): recursive BFS level-set
//!   separators, the right choice for 2-D/3-D mesh Laplacians used as
//!   direct-solver baselines.
//!
//! All orderings operate on the sparsity pattern only, are serial and
//! deterministic, and return a [`Permutation`] in new-of-old form.
//!
//! # Minimum degree without a postorder
//!
//! `MinDegree` follows Davis, *Direct Methods for Sparse Linear Systems*
//! (SIAM 2006) §7.1: approximate external degrees bounded by `|Le \ Lk|`,
//! supervariables found by hashing, mass elimination, element and
//! aggressive absorption, and rows of degree above `max(16, 10√n)` taken
//! out as dense and ordered last. Approximate degrees cost a scan of each
//! element once per pivot instead of a union per neighbour, which is what
//! makes the ordering cheap next to the numeric factorization.
//!
//! The textbook routine ends by postordering the assembly tree. This one
//! returns the pivots in the order it eliminated them. On the near-tree
//! factors the pipeline builds, a postorder puts most columns directly
//! before their elimination-tree parent, so in the forward and backward
//! sweeps each row waits on the row just written. The elimination order
//! has the same fill and sweeps as fast as an exact minimum degree
//! ordering.

use crate::{CsrMatrix, Permutation, Result, SparseError};

/// Which fill-reducing ordering to use for a factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum OrderingKind {
    /// Keep the natural (input) order.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Approximate minimum degree in elimination order, without a
    /// postorder (default; best for near-tree graphs). See the
    /// [module docs](self).
    #[default]
    MinDegree,
    /// BFS level-set nested dissection (best for mesh-like graphs).
    NestedDissection,
}

/// Computes a fill-reducing permutation for the pattern of `a`.
///
/// The matrix values are ignored; the pattern is assumed symmetric (callers
/// in this workspace always pass symmetric matrices).
///
/// # Errors
///
/// [`SparseError::ShapeMismatch`] from `MinDegree` when the pattern is too
/// large for its 32-bit workspace (about 2³¹ entries); the other orderings
/// do not fail.
pub fn compute(a: &CsrMatrix, kind: OrderingKind) -> Result<Permutation> {
    let n = a.nrows();
    let order = match kind {
        OrderingKind::Natural => (0..n).collect(),
        OrderingKind::Rcm => rcm_order(a),
        OrderingKind::MinDegree => amd_order(a)?,
        OrderingKind::NestedDissection => nested_dissection_order(a),
    };
    Permutation::from_old_of_new(order)
}

/// Structural degree of each node (self-loops excluded).
fn degrees(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    (0..n)
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().filter(|&&c| c as usize != i).count()
        })
        .collect()
}

/// BFS from `start` over nodes with `allowed` stamp, returning the visit
/// order and filling `level` (distances). Only nodes with
/// `stamp[v] == allowed` are touched.
fn bfs_levels(
    a: &CsrMatrix,
    start: usize,
    stamp: &[u32],
    allowed: u32,
    level: &mut [u32],
    visited_mark: &mut [u32],
    mark: u32,
) -> Vec<usize> {
    let mut order = vec![start];
    level[start] = 0;
    visited_mark[start] = mark;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        let (cols, _) = a.row(u);
        for &c in cols {
            let v = c as usize;
            if v != u && stamp[v] == allowed && visited_mark[v] != mark {
                visited_mark[v] = mark;
                level[v] = level[u] + 1;
                order.push(v);
            }
        }
    }
    order
}

/// Finds a pseudo-peripheral node of the component of `start` by repeated
/// BFS to the farthest lowest-degree node.
#[allow(clippy::too_many_arguments)] // internal helper threading scratch buffers
fn pseudo_peripheral(
    a: &CsrMatrix,
    start: usize,
    stamp: &[u32],
    allowed: u32,
    level: &mut [u32],
    visited: &mut [u32],
    mark_base: &mut u32,
    deg: &[usize],
) -> usize {
    let mut u = start;
    let mut ecc = 0u32;
    for _ in 0..8 {
        *mark_base += 1;
        let order = bfs_levels(a, u, stamp, allowed, level, visited, *mark_base);
        let Some(&farthest) = order.last() else {
            unreachable!("bfs order contains at least the start node");
        };
        let last_level = level[farthest];
        if last_level <= ecc {
            return u;
        }
        ecc = last_level;
        // Farthest node with minimum degree.
        let far: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&v| level[v] == last_level)
            .collect();
        u = far
            .into_iter()
            .min_by_key(|&v| deg[v])
            .unwrap_or_else(|| unreachable!("the farthest bfs level is nonempty"));
    }
    u
}

fn rcm_order(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    let deg = degrees(a);
    let stamp = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut in_order = vec![false; n];
    let mut order = Vec::with_capacity(n);

    for seed in 0..n {
        if in_order[seed] {
            continue;
        }
        let start = pseudo_peripheral(
            a,
            seed,
            &stamp,
            0,
            &mut level,
            &mut visited,
            &mut mark,
            &deg,
        );
        // Cuthill–McKee BFS with degree-sorted neighbor expansion.
        let mut queue = vec![start];
        in_order[start] = true;
        let mut head = 0;
        let mut nbrs: Vec<usize> = Vec::new();
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            nbrs.clear();
            let (cols, _) = a.row(u);
            for &c in cols {
                let v = c as usize;
                if v != u && !in_order[v] {
                    in_order[v] = true;
                    nbrs.push(v);
                }
            }
            nbrs.sort_unstable_by_key(|&v| deg[v]);
            queue.extend_from_slice(&nbrs);
        }
    }
    order.reverse();
    order
}

/// `-i - 2`: marks a node or element as absorbed into `i` (an involution,
/// so `flip(flip(i)) == i`, and `flip(i) < 0` for every `i >= 0`).
fn flip(i: i32) -> i32 {
    -i - 2
}

/// Returns `mark`, or resets every live `w` entry to 1 and returns 2 once
/// `mark + lemax` would overflow: either way each live entry stays below
/// the mark returned.
fn wclear(mark: i32, lemax: i32, w: &mut [i32]) -> i32 {
    if mark.checked_add(lemax).is_some() {
        return mark;
    }
    for x in w.iter_mut().filter(|x| **x != 0) {
        *x = 1;
    }
    2
}

/// Appends the supervariable chain that starts at `i` to `order`.
fn emit_chain(i: usize, chain: &[usize], order: &mut Vec<usize>) {
    let mut v = i;
    while v != usize::MAX {
        order.push(v);
        v = chain[v];
    }
}

/// Entries of [`amd_order`]'s workspace `ci` for an `n`-row pattern with
/// `nnz` stored entries: at most `nnz` off-diagonal entries, a fifth more
/// for new elements, and `2n` of elbow room.
///
/// # Errors
///
/// [`SparseError::ShapeMismatch`] when that count does not fit the `i32`
/// indices the workspace holds; every other value it stores (node
/// numbers, degrees, `flip`ped indices, marks, which `wclear` keeps
/// below overflow) is bounded by it.
fn amd_workspace(n: usize, nnz: usize) -> Result<usize> {
    nnz.checked_add(nnz / 5)
        .and_then(|len| len.checked_add(n.checked_mul(2)?))
        .filter(|&len| len <= i32::MAX as usize)
        .ok_or_else(|| SparseError::ShapeMismatch {
            context: format!(
                "minimum degree on {n} rows and {nnz} entries needs more than \
                 {} workspace entries",
                i32::MAX
            ),
        })
}

/// Approximate minimum degree (Amestoy, Davis & Duff 1996) in the form of
/// Davis, *Direct Methods for Sparse Linear Systems* §7.1: approximate
/// external degrees from `|Le \ Lk|`, supervariables detected by hashing,
/// mass elimination, element and aggressive absorption, and rows denser
/// than `max(16, 10√n)` ordered last. One garbage-collected workspace
/// `ci` holds every node and element list. The workspace and every
/// per-node array hold `i32`, half the memory traffic of `isize`; the
/// marks compare only against `mark`, so `wclear`'s more frequent resets
/// at 32 bits do not change the order.
///
/// Returns the pivots in the order they were eliminated (each pivot
/// followed by the nodes of its supervariable and the nodes mass-
/// eliminated with it), not a postorder of the assembly tree: see the
/// [module docs](self).
fn amd_order(a: &CsrMatrix) -> Result<Vec<usize>> {
    let n = a.nrows();
    amd_workspace(n, a.nnz())?;
    let ni = n as i32;
    // Off-diagonal pattern, with elbow room for the new elements.
    let mut cp: Vec<i32> = Vec::with_capacity(n);
    let mut ci: Vec<i32> = Vec::new();
    let mut len = vec![0i32; n];
    for (i, l) in len.iter_mut().enumerate() {
        cp.push(ci.len() as i32);
        let (cols, _) = a.row(i);
        ci.extend(cols.iter().filter(|&&c| c as usize != i).map(|&c| c as i32));
        *l = ci.len() as i32 - cp[i];
    }
    let mut cnz = ci.len();
    ci.resize(cnz + cnz / 5 + 2 * n, 0);
    let nzmax = ci.len();

    // Per node: supervariable size (`nv`, negated while in Lk, 0 once
    // dead), degree-list or hash-bucket links, |Ei| (`elen`: -1 for a
    // dead node, -2 for an element), approximate degree, and the marks
    // `w` (0 for a dead element).
    let mut nv = vec![1i32; n];
    let mut next = vec![-1i32; n];
    let mut last = vec![-1i32; n];
    let mut head = vec![-1i32; n];
    let mut hhead = vec![-1i32; n];
    let mut elen = vec![0i32; n];
    let mut degree = len.clone();
    let mut w = vec![1i32; n];
    let mut mark: i32 = 2;
    // Supervariable member chains, `usize::MAX`-terminated.
    let mut chain = vec![usize::MAX; n];
    let mut chain_tail: Vec<usize> = (0..n).collect();
    let dense = ((10.0 * (n as f64).sqrt()) as i32).max(16).min(ni - 2);

    let mut order = Vec::with_capacity(n);
    let mut dense_rows = Vec::new();
    let mut nel: i32 = 0;
    let mut lemax: i32 = 0;
    let mut mindeg = 0usize;
    for i in 0..n {
        let d = degree[i];
        if d == 0 {
            // An isolated node: eliminated first, creating no fill.
            elen[i] = -2;
            nel += 1;
            cp[i] = -1;
            w[i] = 0;
            order.push(i);
        } else if d > dense {
            // Dense: taken out of the quotient graph, ordered last.
            nv[i] = 0;
            elen[i] = -1;
            nel += 1;
            cp[i] = -1;
            dense_rows.push(i);
        } else {
            let d = d as usize;
            if head[d] != -1 {
                last[head[d] as usize] = i as i32;
            }
            next[i] = head[d];
            head[d] = i as i32;
        }
    }

    while nel < ni {
        // Select a node of minimum approximate degree.
        let k = loop {
            match head.get(mindeg) {
                Some(&h) if h != -1 => break h as usize,
                Some(_) => mindeg += 1,
                None => unreachable!("a live node remains while nel < n"),
            }
        };
        if next[k] != -1 {
            last[next[k] as usize] = -1;
        }
        head[mindeg] = next[k];
        let elenk = elen[k];
        let nvk = nv[k];
        nel += nvk;
        emit_chain(k, &chain, &mut order);

        // Garbage collection: compact every live list to the front.
        if elenk > 0 && cnz + mindeg >= nzmax {
            for (j, cpj) in cp.iter_mut().enumerate() {
                if *cpj >= 0 {
                    let p = *cpj as usize;
                    *cpj = ci[p];
                    ci[p] = flip(j as i32);
                }
            }
            let (mut q, mut p) = (0usize, 0usize);
            while p < cnz {
                let j = flip(ci[p]);
                p += 1;
                if j >= 0 {
                    let j = j as usize;
                    ci[q] = cp[j];
                    cp[j] = q as i32;
                    q += 1;
                    for _ in 1..len[j] {
                        ci[q] = ci[p];
                        q += 1;
                        p += 1;
                    }
                }
            }
            cnz = q;
        }

        // Construct the new element Lk from k's elements and nodes.
        let mut dk: i32 = 0;
        nv[k] = -nvk;
        let mut p = cp[k] as usize;
        let pk1 = if elenk == 0 { p } else { cnz };
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (k, p, len[k] - elenk)
            } else {
                let e = ci[p] as usize;
                p += 1;
                (e, cp[e] as usize, len[e])
            };
            for _ in 0..ln {
                let i = ci[pj] as usize;
                pj += 1;
                let nvi = nv[i];
                if nvi <= 0 {
                    continue; // dead, or already in Lk
                }
                dk += nvi;
                nv[i] = -nvi;
                ci[pk2] = i as i32;
                pk2 += 1;
                if next[i] != -1 {
                    last[next[i] as usize] = last[i];
                }
                if last[i] != -1 {
                    next[last[i] as usize] = next[i];
                } else {
                    head[degree[i] as usize] = next[i];
                }
            }
            if e != k {
                cp[e] = flip(k as i32); // absorb e into k
                w[e] = 0;
            }
        }
        if elenk != 0 {
            cnz = pk2;
        }
        degree[k] = dk;
        cp[k] = pk1 as i32;
        len[k] = (pk2 - pk1) as i32;
        elen[k] = -2;

        // Scan 1: |Le \ Lk| for every element e adjacent to Lk.
        mark = wclear(mark, lemax, &mut w);
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let eln = elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -nv[i];
            let wnvi = mark - nvi;
            let p1 = cp[i] as usize;
            for &e in &ci[p1..p1 + eln as usize] {
                let e = e as usize;
                if w[e] >= mark {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wnvi;
                }
            }
        }

        // Scan 2: approximate degrees, pruning and hashing each i in Lk.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let p1 = cp[i] as usize;
            let p2 = p1 + elen[i] as usize;
            let mut pn = p1;
            let mut h = 0usize;
            let mut d: i32 = 0;
            for p in p1..p2 {
                let e = ci[p] as usize;
                if w[e] != 0 {
                    let dext = w[e] - mark;
                    if dext > 0 {
                        d += dext;
                        ci[pn] = e as i32;
                        pn += 1;
                        h = h.wrapping_add(e);
                    } else {
                        cp[e] = flip(k as i32); // aggressive absorption
                        w[e] = 0;
                    }
                }
            }
            elen[i] = (pn - p1 + 1) as i32;
            let p3 = pn;
            let p4 = p1 + len[i] as usize;
            for p in p2..p4 {
                let j = ci[p] as usize;
                let nvj = nv[j];
                if nvj <= 0 {
                    continue; // dead, or in Lk
                }
                d += nvj;
                ci[pn] = j as i32;
                pn += 1;
                h = h.wrapping_add(j);
            }
            if d == 0 {
                // Mass elimination: i has no neighbours outside Lk ∪ k.
                cp[i] = flip(k as i32);
                let nvi = -nv[i];
                dk -= nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
                emit_chain(i, &chain, &mut order);
            } else {
                degree[i] = degree[i].min(d);
                // k goes first in Ei; at least one entry was pruned, so
                // the list still fits in its old span.
                ci[pn] = ci[p3];
                ci[p3] = ci[p1];
                ci[p1] = k as i32;
                len[i] = (pn - p1 + 1) as i32;
                let h = h % n;
                next[i] = hhead[h];
                hhead[h] = i as i32;
                last[i] = h as i32;
            }
        }
        degree[k] = dk;
        lemax = lemax.max(dk);
        mark = wclear(mark.saturating_add(lemax), lemax, &mut w);

        // Supervariable detection: compare the nodes of each hash bucket.
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            if nv[i] >= 0 {
                continue;
            }
            let h = last[i] as usize;
            let mut i = hhead[h];
            hhead[h] = -1;
            while i != -1 && next[i as usize] != -1 {
                let iu = i as usize;
                let (ln, eln) = (len[iu], elen[iu]);
                let pi = cp[iu] as usize;
                for &x in &ci[pi + 1..pi + ln as usize] {
                    w[x as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let pj = cp[ju] as usize;
                    let same = len[ju] == ln
                        && elen[ju] == eln
                        && ci[pj + 1..pj + ln as usize]
                            .iter()
                            .all(|&x| w[x as usize] == mark);
                    j = next[ju];
                    if same {
                        // Absorb j into i.
                        cp[ju] = flip(i);
                        nv[iu] += nv[ju];
                        nv[ju] = 0;
                        elen[ju] = -1;
                        chain[chain_tail[iu]] = ju;
                        chain_tail[iu] = chain_tail[ju];
                        next[jlast] = j;
                    } else {
                        jlast = ju;
                    }
                }
                i = next[iu];
                mark += 1;
            }
        }

        // Finalize Lk and put its nodes back in the degree lists.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let nvi = -nv[i];
            if nvi <= 0 {
                continue;
            }
            nv[i] = nvi;
            let d = (degree[i] + dk - nvi).min(ni - nel - nvi) as usize;
            if head[d] != -1 {
                last[head[d] as usize] = i as i32;
            }
            next[i] = head[d];
            last[i] = -1;
            head[d] = i as i32;
            mindeg = mindeg.min(d);
            degree[i] = d as i32;
            ci[p] = i as i32;
            p += 1;
        }
        nv[k] = 0; // k is an element now
        len[k] = (p - pk1) as i32;
        if len[k] == 0 {
            cp[k] = -1;
            w[k] = 0;
        }
        if elenk != 0 {
            cnz = p;
        }
    }
    order.extend(dense_rows);
    debug_assert_eq!(order.len(), n, "amd must order every node once");
    Ok(order)
}

/// Nested dissection via BFS level-set separators.
///
/// Each region is bisected by the middle BFS level from a pseudo-peripheral
/// start; the two halves are ordered first (recursively) and the separator
/// last, the classic fill-reducing recipe for mesh-like graphs.
fn nested_dissection_order(a: &CsrMatrix) -> Vec<usize> {
    const LEAF: usize = 48;
    let n = a.nrows();
    let deg = degrees(a);
    let mut region = vec![0u32; n]; // current region id per node
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut next_region = 1u32;
    let mut order = Vec::with_capacity(n);

    /// Work items: either dissect a region or append a finished separator.
    enum Task {
        Region(u32, Vec<usize>),
        Emit(Vec<usize>),
    }

    let mut stack = vec![Task::Region(0, (0..n).collect())];
    while let Some(task) = stack.pop() {
        let (rid, nodes) = match task {
            Task::Emit(sep) => {
                order.extend(sep);
                continue;
            }
            Task::Region(rid, nodes) => (rid, nodes),
        };
        if nodes.is_empty() {
            continue;
        }
        // Decompose the region into connected components.
        mark += 1;
        let comp_mark = mark;
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for &s in &nodes {
            if visited[s] == comp_mark || region[s] != rid {
                continue;
            }
            comps.push(bfs_levels(
                a,
                s,
                &region,
                rid,
                &mut level,
                &mut visited,
                comp_mark,
            ));
        }
        for comp in comps {
            if comp.len() <= LEAF {
                order.extend(comp);
                continue;
            }
            let start = pseudo_peripheral(
                a,
                comp[0],
                &region,
                rid,
                &mut level,
                &mut visited,
                &mut mark,
                &deg,
            );
            mark += 1;
            let bfs = bfs_levels(a, start, &region, rid, &mut level, &mut visited, mark);
            let Some(&deepest) = bfs.last() else {
                unreachable!("bfs order contains at least the start node");
            };
            let depth = level[deepest];
            if depth < 2 {
                order.extend(bfs);
                continue;
            }
            let mid = depth / 2;
            let mut part_a = Vec::new();
            let mut part_b = Vec::new();
            let mut sep = Vec::new();
            for &v in &bfs {
                if level[v] < mid {
                    part_a.push(v);
                } else if level[v] > mid {
                    part_b.push(v);
                } else {
                    sep.push(v);
                }
            }
            let ra = next_region;
            let rb = next_region + 1;
            next_region += 2;
            for &v in &part_a {
                region[v] = ra;
            }
            for &v in &part_b {
                region[v] = rb;
            }
            // LIFO: push the separator first so it is appended only after
            // both halves (pushed above it) have fully emitted.
            stack.push(Task::Emit(sep));
            stack.push(Task::Region(rb, part_b));
            stack.push(Task::Region(ra, part_a));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// 2-D grid Laplacian pattern (values irrelevant for ordering).
    fn grid_pattern(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                coo.push(id(x, y), id(x, y), 4.0);
                if x + 1 < nx {
                    coo.push_sym(id(x, y), id(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    coo.push_sym(id(x, y), id(x, y + 1), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    /// The 32-bit workspace bound: sizes are counted without overflow and
    /// anything past `i32::MAX` entries is an error, not a wrapped index.
    #[test]
    fn min_degree_rejects_workspaces_past_i32() {
        assert_eq!(amd_workspace(10, 100).unwrap(), 140);
        let cap = i32::MAX as usize;
        assert_eq!(amd_workspace(cap / 2, 0).unwrap(), cap - 1);
        for (n, nnz) in [
            (cap / 2 + 1, 0),
            (1, cap),
            (usize::MAX / 2, 1),
            (0, usize::MAX),
        ] {
            assert!(matches!(
                amd_workspace(n, nnz),
                Err(SparseError::ShapeMismatch { .. })
            ));
        }
    }

    fn assert_is_permutation(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        let mut seen = vec![false; n];
        for &v in p.old_of_new() {
            assert!(!seen[v], "duplicate index {v}");
            seen[v] = true;
        }
    }

    #[test]
    fn all_kinds_produce_permutations() {
        let a = grid_pattern(7, 5);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute(&a, kind).unwrap();
            assert_is_permutation(&p, 35);
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut coo = CooMatrix::new(6, 6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            coo.push_sym(u, v, 1.0);
        }
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        for kind in [
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute(&a, kind).unwrap();
            assert_is_permutation(&p, 6);
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty = CooMatrix::new(0, 0).to_csr();
        let single = CsrMatrix::identity(1);
        for kind in [
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            assert_eq!(compute(&empty, kind).unwrap().len(), 0);
            assert_eq!(compute(&single, kind).unwrap().len(), 1);
        }
    }

    /// Fill count of the LDL factor under a given ordering.
    fn fill(a: &CsrMatrix, kind: OrderingKind) -> usize {
        crate::LdlFactor::new(a, kind).unwrap().nnz_l()
    }

    #[test]
    fn min_degree_is_fill_free_on_trees() {
        // A path graph (tridiagonal SPD): no fill under min-degree.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        assert_eq!(fill(&a, OrderingKind::MinDegree), n - 1);
    }

    #[test]
    fn fill_reducing_orderings_beat_natural_on_grids() {
        let a = grid_pattern(16, 16);
        // Make it SPD so LdlFactor succeeds: the pattern already has a
        // dominant diagonal of 4 with at most 4 off-diagonal -1 entries.
        let natural = fill(&a, OrderingKind::Natural);
        let nd = fill(&a, OrderingKind::NestedDissection);
        let md = fill(&a, OrderingKind::MinDegree);
        assert!(
            nd < natural,
            "nested dissection fill {nd} >= natural {natural}"
        );
        assert!(md < natural, "min degree fill {md} >= natural {natural}");
    }

    #[test]
    fn star_graph_orders_center_last_under_min_degree() {
        // Star: eliminating the hub first would create a clique; min-degree
        // must pick the leaves first.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, n as f64);
        for i in 1..n {
            coo.push(i, i, 2.0);
            coo.push_sym(0, i, -1.0);
        }
        let a = coo.to_csr();
        let p = compute(&a, OrderingKind::MinDegree).unwrap();
        // Once only the hub and one leaf remain both have degree 1, so the
        // hub must be one of the last two eliminated.
        let pos_of_hub = p.new_of_old()[0];
        assert!(
            pos_of_hub >= n - 2,
            "hub eliminated too early at {pos_of_hub}"
        );
        assert_eq!(fill(&a, OrderingKind::MinDegree), n - 1);
    }

    /// SPD matrix with the pattern of a forest: vertex `i > 0` hangs off
    /// `parent(i) < i`, or starts a new tree where `parent` says `None`.
    fn forest(n: usize, parent: impl Fn(usize) -> Option<usize>) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if let Some(p) = (i > 0).then(|| parent(i)).flatten() {
                coo.push_sym(p, i, -1.0);
            }
        }
        coo.to_csr()
    }

    /// Nonzeros strictly below the diagonal of `a`: the factor of a
    /// fill-free ordering has exactly these.
    fn strict_lower(a: &CsrMatrix) -> usize {
        (0..a.nrows())
            .map(|i| a.row(i).0.iter().filter(|&&c| (c as usize) < i).count())
            .sum()
    }

    #[test]
    fn min_degree_orders_random_trees_and_forests_fill_free() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for n in [2usize, 3, 17, 64, 257, 1000] {
            // A random recursive tree, a forest of about √n trees, and a
            // caterpillar (a path whose nodes each carry a leaf).
            let tree: Vec<usize> = (0..n).map(|i| next(i.max(1))).collect();
            let roots: Vec<bool> = (0..n).map(|_| next(8) == 0).collect();
            for a in [
                forest(n, |i| Some(tree[i])),
                forest(n, |i| (!roots[i]).then_some(tree[i])),
                forest(n, |i| Some(if i % 2 == 1 { i - 1 } else { i - 2 })),
            ] {
                assert_eq!(
                    fill(&a, OrderingKind::MinDegree),
                    strict_lower(&a),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn dense_star_hub_is_ordered_last_without_fill() {
        // 300 leaves put the hub past max(16, 10√n) ≈ 173.
        let n = 301;
        let a = forest(n, |_| Some(0));
        let p = compute(&a, OrderingKind::MinDegree).unwrap();
        assert_eq!(p.new_of_old()[0], n - 1, "hub not ordered last");
        assert_eq!(fill(&a, OrderingKind::MinDegree), n - 1);
    }
}
