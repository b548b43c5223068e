//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Three classic algorithms are provided, selected via [`OrderingKind`]:
//!
//! - **Reverse Cuthill–McKee** (`Rcm`): breadth-first profile reduction,
//!   good for banded/mesh matrices,
//! - **Minimum degree** (`MinDegree`): quotient-graph elimination with
//!   element absorption, excellent for the tree-plus-a-few-edges
//!   sparsifiers this workspace factorizes in its inner loop,
//! - **Nested dissection** (`NestedDissection`): recursive BFS level-set
//!   separators, the right choice for 2-D/3-D mesh Laplacians used as
//!   direct-solver baselines.
//!
//! All orderings operate on the sparsity pattern only and return a
//! [`Permutation`] in new-of-old form.

use crate::{CsrMatrix, Permutation, Result};

/// Which fill-reducing ordering to use for a factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum OrderingKind {
    /// Keep the natural (input) order.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Quotient-graph minimum degree (default; best for near-tree graphs).
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
/// Currently infallible in practice; the `Result` is kept for future
/// orderings that may validate their input.
pub fn compute(a: &CsrMatrix, kind: OrderingKind) -> Result<Permutation> {
    let n = a.nrows();
    let order = match kind {
        OrderingKind::Natural => (0..n).collect(),
        OrderingKind::Rcm => rcm_order(a),
        OrderingKind::MinDegree => min_degree_order(a),
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

/// Quotient-graph minimum-degree ordering with element absorption.
fn min_degree_order(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    if n == 0 {
        return Vec::new();
    }
    // Node neighbor lists (nodes only) and element membership.
    let mut nbr: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().copied().filter(|&c| c as usize != i).collect()
        })
        .collect();
    let mut elems: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut bound: Vec<Vec<u32>> = Vec::new(); // element boundaries
    let mut elem_alive: Vec<bool> = Vec::new();
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = nbr.iter().map(Vec::len).collect();

    // Bucket queue keyed by degree with lazy invalidation.
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 2];
    for v in 0..n {
        buckets[degree[v]].push(v as u32);
    }
    let mut cursor = 0usize;
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut order = Vec::with_capacity(n);
    let mut scratch: Vec<u32> = Vec::new();

    let mut eliminated = 0usize;
    while eliminated < n {
        // Pop the minimum-degree live node.
        let p = loop {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            debug_assert!(cursor < buckets.len(), "bucket queue exhausted early");
            let Some(cand) = buckets[cursor].pop() else {
                unreachable!("bucket {cursor} is nonempty after the skip loop");
            };
            let cand = cand as usize;
            if alive[cand] && degree[cand] == cursor {
                break cand;
            }
            // Stale entry: skip.
        };

        alive[p] = false;
        order.push(p);
        eliminated += 1;

        // Gather the new element boundary: union of live node-neighbors of p
        // and the boundaries of p's elements.
        stamp += 1;
        scratch.clear();
        for &v in &nbr[p] {
            let v = v as usize;
            if alive[v] && mark[v] != stamp {
                mark[v] = stamp;
                scratch.push(v as u32);
            }
        }
        for &e in &elems[p] {
            let e = e as usize;
            if !elem_alive[e] {
                continue;
            }
            for &v in &bound[e] {
                let v = v as usize;
                if alive[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    scratch.push(v as u32);
                }
            }
            elem_alive[e] = false; // absorbed into the new element
        }
        let new_elem = bound.len() as u32;
        bound.push(scratch.clone());
        elem_alive.push(true);
        let old_elems = std::mem::take(&mut elems[p]);
        nbr[p].clear();

        // Update each boundary node: prune dead references, attach the new
        // element, recompute its exact degree by a stamped union scan.
        for &vref in &bound[new_elem as usize] {
            let v = vref as usize;
            nbr[v].retain(|&u| alive[u as usize]);
            elems[v].retain(|&e| elem_alive[e as usize] && !old_elems.contains(&e));
            elems[v].push(new_elem);

            stamp += 1;
            mark[v] = stamp;
            let mut dv = 0usize;
            for &u in &nbr[v] {
                let u = u as usize;
                if mark[u] != stamp {
                    mark[u] = stamp;
                    dv += 1;
                }
            }
            for &e in &elems[v] {
                for &u in &bound[e as usize] {
                    let u = u as usize;
                    if alive[u] && mark[u] != stamp {
                        mark[u] = stamp;
                        dv += 1;
                    }
                }
            }
            degree[v] = dv;
            if dv >= buckets.len() {
                buckets.resize(dv + 1, Vec::new());
            }
            buckets[dv].push(v as u32);
            cursor = cursor.min(dv);
        }
    }
    order
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

/// A k-way vertex-separator decomposition of a symmetric sparsity
/// pattern: interior *domains* that share no edge with one another, plus
/// one *separator* carrying every cross-domain coupling.
///
/// Produced by [`vertex_separator`]; consumed by [`crate::extract_blocks`]
/// and the substructured solver in `sass-solver`. The decomposition is purely structural — matrix values
/// never influence it — and deterministic for a given pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparatorParts {
    /// Domain id per vertex; [`SeparatorParts::SEPARATOR`] marks
    /// separator vertices.
    domain_of: Vec<u32>,
    /// Vertices of each domain, ascending in original numbering.
    domains: Vec<Vec<usize>>,
    /// Separator vertices, ascending in original numbering.
    separator: Vec<usize>,
}

impl SeparatorParts {
    /// Marker in [`SeparatorParts::domain_of`] for separator vertices.
    pub const SEPARATOR: u32 = u32::MAX;

    /// Number of interior domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Vertices of domain `d`, ascending in original numbering.
    ///
    /// # Panics
    ///
    /// Panics if `d >= domain_count()`.
    pub fn domain(&self, d: usize) -> &[usize] {
        &self.domains[d]
    }

    /// Separator vertices, ascending in original numbering.
    pub fn separator(&self) -> &[usize] {
        &self.separator
    }

    /// Domain id per vertex ([`SeparatorParts::SEPARATOR`] = separator).
    pub fn domain_of(&self) -> &[u32] {
        &self.domain_of
    }

    /// Total vertex count.
    pub fn n(&self) -> usize {
        self.domain_of.len()
    }

    /// The stable renumbering induced by the decomposition, in
    /// old-of-new form: domain 0's vertices first (in ascending original
    /// order), then domain 1's, …, and the separator last. Symmetrically
    /// permuting the matrix by this ordering produces the block-arrow
    /// shape the substructured solver factorizes.
    pub fn renumbering(&self) -> crate::Result<Permutation> {
        let mut old_of_new = Vec::with_capacity(self.n());
        for d in &self.domains {
            old_of_new.extend_from_slice(d);
        }
        old_of_new.extend_from_slice(&self.separator);
        Permutation::from_old_of_new(old_of_new)
    }

    /// Start offset of each domain in the renumbering, with a final
    /// entry at the separator start: domain `d` occupies new indices
    /// `offsets()[d] .. offsets()[d + 1]`, and the separator occupies
    /// `offsets()[domain_count()] .. n()`.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.domains.len() + 1);
        let mut acc = 0usize;
        for d in &self.domains {
            offsets.push(acc);
            acc += d.len();
        }
        offsets.push(acc);
        offsets
    }
}

/// Splits the pattern of `a` into (at least) `k` interior domains plus
/// one vertex separator, such that **no edge connects two distinct
/// domains** — every cross-domain path runs through the separator.
///
/// Reuses the BFS level-set machinery behind
/// [`OrderingKind::NestedDissection`]: the largest region is repeatedly
/// bisected at the middle BFS level from a pseudo-peripheral start, the
/// middle level joining the global separator, until `k` domains exist or
/// nothing splittable remains (tiny or shallow regions stop splitting,
/// so fewer than `k` domains can come back). Connected components split
/// for free — a pattern with `≥ k` components yields an **empty**
/// separator — which is also why more than `k` domains can come back on
/// disconnected patterns.
///
/// The values of `a` are ignored; the pattern is assumed symmetric (as
/// everywhere in this crate's ordering code).
pub fn vertex_separator(a: &CsrMatrix, k: usize) -> SeparatorParts {
    let n = a.nrows();
    let k = k.max(1);
    let deg = degrees(a);
    let mut region = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut next_region = 0u32;
    let mut separator: Vec<usize> = Vec::new();

    // Seed regions: the connected components of the whole pattern, each
    // re-stamped with its own region id.
    mark += 1;
    let comp_mark = mark;
    let mut active: Vec<(u32, Vec<usize>)> = Vec::new();
    for s in 0..n {
        if visited[s] == comp_mark {
            continue;
        }
        let comp = bfs_levels(a, s, &region, 0, &mut level, &mut visited, comp_mark);
        let rid = next_region;
        next_region += 1;
        for &v in &comp {
            region[v] = rid;
        }
        active.push((rid, comp));
    }

    // Bisect the largest active region until k domains exist. Regions too
    // small or too shallow to split are frozen as final domains.
    let mut frozen: Vec<Vec<usize>> = Vec::new();
    while active.len() + frozen.len() < k && !active.is_empty() {
        let pos = active
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.1.len())
            .map(|(i, _)| i)
            .unwrap_or_else(|| unreachable!("`active` is nonempty"));
        let (rid, nodes) = active.swap_remove(pos);
        if nodes.len() < 3 {
            // A split always produces two nonempty halves plus a
            // nonempty middle level, so fewer than 3 vertices can't.
            frozen.push(nodes);
            continue;
        }
        let start = pseudo_peripheral(
            a,
            nodes[0],
            &region,
            rid,
            &mut level,
            &mut visited,
            &mut mark,
            &deg,
        );
        mark += 1;
        let bfs = bfs_levels(a, start, &region, rid, &mut level, &mut visited, mark);
        if bfs.len() < nodes.len() {
            // An earlier separator cut this region into pieces the BFS
            // cannot bridge: split off the reached piece for free (no
            // separator vertex needed — the pieces are already
            // non-adjacent) and requeue the remainder.
            let rb = next_region;
            next_region += 1;
            let mut rest = Vec::with_capacity(nodes.len() - bfs.len());
            for &v in &nodes {
                if visited[v] != mark {
                    region[v] = rb;
                    rest.push(v);
                }
            }
            active.push((rid, bfs));
            active.push((rb, rest));
            continue;
        }
        let Some(&deepest) = bfs.last() else {
            unreachable!("bfs order contains at least the start node");
        };
        let depth = level[deepest];
        if depth < 2 {
            // Diameter ≤ 2 in this region: any middle level would leave
            // an empty half; keep it whole.
            frozen.push(nodes);
            continue;
        }
        let mid = depth / 2;
        let mut part_a = Vec::new();
        let mut part_b = Vec::new();
        for &v in &bfs {
            if level[v] < mid {
                part_a.push(v);
            } else if level[v] > mid {
                // `part_b` keeps `rid`'s stamp replaced below.
                part_b.push(v);
            } else {
                region[v] = SEP_STAMP;
                separator.push(v);
            }
        }
        // BFS levels differ by at most 1 across an edge, so `part_a`
        // (levels < mid) and `part_b` (levels > mid) are non-adjacent.
        let rb = next_region;
        next_region += 1;
        for &v in &part_b {
            region[v] = rb;
        }
        active.push((rid, part_a));
        active.push((rb, part_b));
    }

    // Stable domain order: ascending by smallest original vertex.
    let mut domains: Vec<Vec<usize>> = active
        .into_iter()
        .map(|(_, nodes)| nodes)
        .chain(frozen)
        .map(|mut nodes| {
            nodes.sort_unstable();
            nodes
        })
        .collect();
    domains.sort_unstable_by_key(|d| d.first().copied().unwrap_or(usize::MAX));
    separator.sort_unstable();

    let mut domain_of = vec![SeparatorParts::SEPARATOR; n];
    for (d, nodes) in domains.iter().enumerate() {
        for &v in nodes {
            domain_of[v] = d as u32;
        }
    }
    debug_assert_eq!(
        domains.iter().map(Vec::len).sum::<usize>() + separator.len(),
        n,
        "vertex_separator: parts must cover every vertex exactly once"
    );
    #[cfg(debug_assertions)]
    for u in 0..n {
        let (cols, _) = a.row(u);
        for &c in cols {
            let v = c as usize;
            debug_assert!(
                u == v
                    || domain_of[u] == domain_of[v]
                    || domain_of[u] == SeparatorParts::SEPARATOR
                    || domain_of[v] == SeparatorParts::SEPARATOR,
                "edge ({u}, {v}) crosses domains {} and {}",
                domain_of[u],
                domain_of[v]
            );
        }
    }
    SeparatorParts {
        domain_of,
        domains,
        separator,
    }
}

/// Region stamp marking separator vertices during [`vertex_separator`]'s
/// bisection loop (never a valid region id: ids count up from 0 and a
/// pattern has at most `u32::MAX / 2` split steps).
const SEP_STAMP: u32 = u32::MAX;

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

    /// Every vertex lands in exactly one part, domains are pairwise
    /// non-adjacent, and the renumbering is a permutation.
    fn check_parts(a: &CsrMatrix, parts: &SeparatorParts) {
        let n = a.nrows();
        assert_eq!(parts.n(), n);
        let mut seen = vec![false; n];
        for d in 0..parts.domain_count() {
            for &v in parts.domain(d) {
                assert!(!seen[v], "vertex {v} in two parts");
                seen[v] = true;
                assert_eq!(parts.domain_of()[v], d as u32);
            }
        }
        for &v in parts.separator() {
            assert!(!seen[v], "separator vertex {v} also in a domain");
            seen[v] = true;
            assert_eq!(parts.domain_of()[v], SeparatorParts::SEPARATOR);
        }
        assert!(seen.iter().all(|&s| s), "uncovered vertex");
        for u in 0..n {
            let (cols, _) = a.row(u);
            for &c in cols {
                let v = c as usize;
                let (du, dv) = (parts.domain_of()[u], parts.domain_of()[v]);
                assert!(
                    u == v
                        || du == dv
                        || du == SeparatorParts::SEPARATOR
                        || dv == SeparatorParts::SEPARATOR,
                    "edge ({u},{v}) crosses domains"
                );
            }
        }
        assert_is_permutation(&parts.renumbering().unwrap(), n);
        let offsets = parts.offsets();
        assert_eq!(offsets.len(), parts.domain_count() + 1);
        assert_eq!(
            offsets.last().copied().unwrap(),
            n - parts.separator().len()
        );
    }

    #[test]
    fn vertex_separator_splits_grid_into_k_domains() {
        let a = grid_pattern(16, 16);
        for k in [1usize, 2, 3, 4, 7] {
            let parts = vertex_separator(&a, k);
            check_parts(&a, &parts);
            assert!(
                parts.domain_count() >= k.min(2),
                "k={k}: only {} domains",
                parts.domain_count()
            );
            if k == 1 {
                assert_eq!(parts.domain_count(), 1);
                assert!(parts.separator().is_empty());
            } else {
                // A 16×16 grid has plenty of depth; separators must stay
                // a small fraction of the graph.
                assert!(parts.separator().len() < 256 / 2);
            }
        }
    }

    #[test]
    fn vertex_separator_disconnected_components_split_free() {
        // Two disjoint triangles: two domains, empty separator.
        let mut coo = CooMatrix::new(6, 6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            coo.push_sym(u, v, 1.0);
        }
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        let parts = vertex_separator(&a, 2);
        check_parts(&a, &parts);
        assert_eq!(parts.domain_count(), 2);
        assert!(parts.separator().is_empty());
    }

    /// Regression: bisecting a star-of-paths cuts out the hub, leaving a
    /// region of several mutually-disconnected legs; re-bisecting that
    /// region must split off the BFS-unreachable legs for free instead
    /// of silently dropping them from every part list.
    #[test]
    fn vertex_separator_rebisects_internally_disconnected_regions() {
        // Hub vertex 0 with four paths of length 10 hanging off it.
        let legs = 4;
        let len = 10;
        let n = 1 + legs * len;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for leg in 0..legs {
            let base = 1 + leg * len;
            coo.push_sym(0, base, -1.0);
            for i in 0..len - 1 {
                coo.push_sym(base + i, base + i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        for k in [2usize, 3, 4, 6] {
            let parts = vertex_separator(&a, k);
            check_parts(&a, &parts);
            assert!(parts.domain_count() >= k.min(2), "k={k}");
        }
    }

    #[test]
    fn vertex_separator_small_graphs_degrade_gracefully() {
        // Too small to split: one domain, no separator.
        let single = CsrMatrix::identity(1);
        let parts = vertex_separator(&single, 4);
        assert_eq!(parts.domain_count(), 1);
        assert!(parts.separator().is_empty());
        let empty = CooMatrix::new(0, 0).to_csr();
        let parts = vertex_separator(&empty, 4);
        assert_eq!(parts.domain_count(), 0);
        assert_eq!(parts.n(), 0);
    }

    #[test]
    fn vertex_separator_is_deterministic() {
        let a = grid_pattern(12, 9);
        assert_eq!(vertex_separator(&a, 4), vertex_separator(&a, 4));
    }
}
