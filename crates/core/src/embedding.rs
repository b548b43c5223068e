//! Spectral embedding of off-tree edges via generalized power iterations
//! (paper §3.2).
//!
//! Starting from `r` random vectors `h₀`, the `t`-step iterate
//! `h_t = (L_P⁺ L_G)^t h₀` amplifies the components along generalized
//! eigenvectors with large eigenvalues by `λᵢ^t`. The *Joule heat* of an
//! off-tree edge `(p, q)` under `h_t`,
//!
//! ```text
//! heat(p,q) = w_pq · Σ_j (h_t,j(p) − h_t,j(q))²
//! ```
//!
//! (summed over the `r` probes), therefore ranks edges by how strongly they
//! interact with the dominant generalized eigenvalues — the edges whose
//! recovery most reduces `λmax` (paper Eq. 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_graph::Graph;
use sass_solver::{GroundedScratch, GroundedSolver};
use sass_sparse::{dense, kernel, pool, CsrMatrix, DenseBlock};

/// Below this many off-tree edges the heat accumulation stays serial
/// under automatic pool sizing (see [`sass_sparse::pool::Pool::workers_for`]).
const MIN_PAR_HEAT_EDGES: usize = 8_192;
/// Off-tree edges per pool lane above the crossover.
const HEAT_EDGES_PER_WORKER: usize = 4_096;
/// Minimum `n × r` work for parallelizing the per-column power-step
/// products over probe columns.
const MIN_PAR_PROBE_WORK: usize = 65_536;

/// Per-edge Joule heat of the off-tree edges, plus the probe vectors'
/// final iterates (useful for diagnostics and the GSP crate).
#[derive(Debug, Clone)]
pub struct OffTreeHeat {
    /// Joule heat per off-tree edge, parallel to the `off_tree` id slice
    /// passed to [`off_tree_heat`].
    pub heat: Vec<f64>,
    /// The maximum heat over all off-tree edges (0 when there are none).
    pub heat_max: f64,
}

impl OffTreeHeat {
    /// Normalized heat `θ(e) = heat(e)/heat_max` per off-tree edge.
    pub fn normalized(&self) -> Vec<f64> {
        if self.heat_max <= 0.0 {
            return vec![0.0; self.heat.len()];
        }
        self.heat.iter().map(|h| h / self.heat_max).collect()
    }
}

/// Computes the Joule heat of each off-tree edge by `t`-step generalized
/// power iterations with `r` random probe vectors.
///
/// `lg` must be the Laplacian of `g` and `solver_p` a grounded
/// factorization of the current sparsifier's Laplacian. Iterates are
/// normalized per step for floating-point safety, which rescales all
/// heats of one probe uniformly and leaves normalized heats unchanged.
///
/// All `r` probes advance together as one [`DenseBlock`]: each power step
/// applies `L_G` per column and then performs one *blocked* grounded solve
/// ([`GroundedSolver::solve_columns`]), so the sparsifier factor
/// is streamed once per block of probes instead of once per probe — the
/// multi-RHS amortization the sparsifier itself is built to exploit.
///
/// Above a size crossover (or always, under an explicit `SASS_THREADS` /
/// [`sass_sparse::pool::set_threads`] override) the per-column power-step
/// products and the per-edge Joule-heat accumulation are spread over the
/// persistent worker pool, and the triangular sweeps inside each blocked
/// grounded solve run on a subtree-to-lane partition of the sparsifier
/// factor's elimination tree. Every kernel preserves the serial loop's
/// floating-point association exactly, so heats are bit-for-bit identical
/// at every worker count.
///
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if dimensions disagree or an off-tree edge id is out of range.
///
/// # Example
///
/// ```
/// use sass_core::embedding::off_tree_heat;
/// use sass_graph::{spanning, Graph, RootedTree};
/// use sass_solver::GroundedSolver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])?;
/// let tree_ids = spanning::bfs_spanning_tree(&g, 0)?;
/// let tree = RootedTree::new(&g, tree_ids.clone(), 0)?;
/// let off: Vec<u32> = tree.off_tree_edges(&g);
/// let p = g.subgraph_with_edges(tree_ids);
/// let solver = GroundedSolver::new(&p.laplacian(), Default::default())?;
/// let res = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 4, 1);
/// assert_eq!(res.heat.len(), off.len());
/// assert!(res.heat_max > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn off_tree_heat(
    g: &Graph,
    off_tree: &[u32],
    lg: &CsrMatrix,
    solver_p: &GroundedSolver,
    t: usize,
    r: usize,
    seed: u64,
) -> OffTreeHeat {
    let n = g.n();
    assert_eq!(lg.nrows(), n, "laplacian dimension mismatch");
    let h = probe_embedding(lg, solver_p, t, r, seed);
    heat_from_embedding(g, off_tree, &h)
}

/// The probe iterates alone: `r` seeded random vectors advanced `t`
/// generalized power steps, returned as an `n × r` [`DenseBlock`].
///
/// This is the expensive, *graph-global* half of [`off_tree_heat`] — the
/// incremental sparsifier caches it as a **frozen scoring basis** and
/// re-evaluates only [`heat_from_embedding`] (a pure per-edge function)
/// after edits. For a fixed `(lg, solver_p, t, r, seed)` the returned
/// block is bit-identical to the iterates [`off_tree_heat`] uses
/// internally.
///
/// # Panics
///
/// Panics if `solver_p.n() != lg.nrows()`.
pub fn probe_embedding(
    lg: &CsrMatrix,
    solver_p: &GroundedSolver,
    t: usize,
    r: usize,
    seed: u64,
) -> DenseBlock {
    let n = lg.nrows();
    assert_eq!(solver_p.n(), n, "solver dimension mismatch");
    let mut rng = StdRng::seed_from_u64(seed);
    let r = r.max(1);
    if n == 0 {
        return DenseBlock::zeros(0, r);
    }
    // Probe initialization draws in probe order, so results are identical
    // to the historical one-probe-at-a-time loop for any given seed.
    let mut h = DenseBlock::zeros(n, r);
    for col in h.columns_mut() {
        for hi in col.iter_mut() {
            *hi = rng.gen_range(-1.0f64..1.0);
        }
        dense::center(col);
        dense::normalize(col);
    }
    let mut tmp = DenseBlock::zeros(n, r);
    let mut scratch = GroundedScratch::new();
    let p = pool::Pool::global();
    // One probe column per work item: each lane runs the serial SpMV
    // kernel on its own columns, so the block product is bit-identical to
    // the column-by-column loop at any worker count.
    let col_workers = p
        .workers_for(n * r, MIN_PAR_PROBE_WORK, MIN_PAR_PROBE_WORK)
        .min(r);
    let col_spans = pool::even_spans(r, col_workers);
    for _step in 0..t {
        p.parallel_for_disjoint_mut(
            tmp.data_mut(),
            &pool::scale_spans(&col_spans, n),
            |s, chunk| {
                let (clo, chi) = col_spans[s];
                for (k, tcol) in chunk.chunks_exact_mut(n).enumerate() {
                    debug_assert!(clo + k < chi);
                    lg.mul_vec_into(h.col(clo + k), tcol);
                }
            },
        );
        let b: Vec<&[f64]> = tmp.columns().collect();
        let mut x: Vec<&mut [f64]> = h.columns_mut().collect();
        solver_p.solve_columns(&b, &mut x, &mut scratch);
        for col in h.columns_mut() {
            dense::normalize(col);
        }
    }
    h
}

/// Joule heat of the given edges evaluated against a *fixed* embedding
/// `h` (the second half of [`off_tree_heat`]).
///
/// Heat is a pure function of each edge's endpoints and weight once the
/// iterates are fixed: `heat(e) = w_e · Σ_j (h_j(u) − h_j(v))²`. Editing
/// one edge therefore dirties exactly that edge's heat and no other —
/// the locality the incremental sparsifier's dirty-set rule is built on.
///
/// # Panics
///
/// Panics if `h.nrows() != g.n()` or an edge id is out of range.
pub fn heat_from_embedding(g: &Graph, off_tree: &[u32], h: &DenseBlock) -> OffTreeHeat {
    let n = g.n();
    assert_eq!(h.nrows(), n, "embedding dimension mismatch");
    let mut heat = vec![0.0f64; off_tree.len()];
    if n == 0 || off_tree.is_empty() {
        return OffTreeHeat {
            heat,
            heat_max: 0.0,
        };
    }
    let p = pool::Pool::global();
    // Heat accumulation: spans of off-tree edges through the SIMD-
    // dispatched Joule-heat kernel (one edge per lane, probe columns
    // summed in column order) — the same floating-point association as
    // the serial column-outer loop, so heats are bit-identical at any
    // worker count and SIMD level. Endpoints and weights are gathered
    // into flat arrays once so each lane's kernel call is branch-free.
    let mut us = Vec::with_capacity(off_tree.len());
    let mut vs = Vec::with_capacity(off_tree.len());
    let mut ws = Vec::with_capacity(off_tree.len());
    for &id in off_tree {
        let e = g.edge(id as usize);
        us.push(e.u);
        vs.push(e.v);
        ws.push(e.weight);
    }
    let heat_workers = p.workers_for(off_tree.len(), MIN_PAR_HEAT_EDGES, HEAT_EDGES_PER_WORKER);
    let heat_spans = pool::even_spans(off_tree.len(), heat_workers);
    p.parallel_for_disjoint_mut(&mut heat, &heat_spans, |s, chunk| {
        let (lo, hi) = heat_spans[s];
        kernel::joule_heat(&us[lo..hi], &vs[lo..hi], &ws[lo..hi], h.data(), n, chunk);
    });
    let heat_max = heat.iter().copied().fold(0.0, f64::max);
    OffTreeHeat { heat, heat_max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, WeightModel};
    use sass_graph::{spanning, LcaIndex, RootedTree};
    use sass_sparse::ordering::OrderingKind;

    /// Heat setup over a grid with its max-weight spanning tree.
    fn setup(nx: usize, ny: usize, seed: u64) -> (Graph, Vec<u32>, OffTreeHeat, RootedTree) {
        let g = grid2d(nx, ny, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let tree = RootedTree::new(&g, tree_ids.clone(), 0).unwrap();
        let off = tree.off_tree_edges(&g);
        let p = g.subgraph_with_edges(tree_ids);
        let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::MinDegree).unwrap();
        let res = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 6, 42);
        (g, off, res, tree)
    }

    /// The split halves composed by hand must equal the one-shot API
    /// bit-for-bit — the incremental sparsifier's frozen-basis contract.
    #[test]
    fn split_halves_compose_to_off_tree_heat() {
        let (g, off, baseline, _) = setup(7, 6, 11);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids);
        let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::MinDegree).unwrap();
        let h = probe_embedding(&g.laplacian(), &solver, 2, 6, 42);
        let res = heat_from_embedding(&g, &off, &h);
        assert_eq!(res.heat, baseline.heat);
        assert_eq!(res.heat_max, baseline.heat_max);
    }

    #[test]
    fn heats_are_positive_and_bounded() {
        let (_, off, res, _) = setup(8, 8, 1);
        assert_eq!(res.heat.len(), off.len());
        assert!(res.heat.iter().all(|&h| h >= 0.0));
        let normalized = res.normalized();
        assert!(normalized.iter().all(|&t| (0.0..=1.0).contains(&t)));
        assert!(normalized.contains(&1.0));
    }

    #[test]
    fn heat_correlates_with_stretch() {
        // "Spectrally unique" analysis (paper §3.3): stretch ≈ λ_i, and heat
        // ranks by λ^(2t+1). Check rank agreement at the top: the highest-heat
        // edge should be among the top decile by stretch.
        let (g, off, res, tree) = setup(10, 10, 3);
        let lca = LcaIndex::new(&tree);
        let stretches: Vec<f64> = off
            .iter()
            .map(|&id| sass_graph::stretch::edge_stretch(&g, &tree, &lca, id))
            .collect();
        let top_heat_idx = res
            .heat
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let mut sorted = stretches.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let decile = sorted[sorted.len() / 10];
        assert!(
            stretches[top_heat_idx] >= decile,
            "top-heat edge stretch {} below decile {decile}",
            stretches[top_heat_idx]
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, off, _, _) = setup(6, 6, 2);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids);
        let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::MinDegree).unwrap();
        let a = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 4, 9);
        let b = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 4, 9);
        assert_eq!(a.heat, b.heat);
        let c = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 4, 10);
        assert_ne!(a.heat, c.heat);
    }

    #[test]
    fn no_off_tree_edges_is_fine() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let solver = GroundedSolver::new(&g.laplacian(), OrderingKind::Natural).unwrap();
        let res = off_tree_heat(&g, &[], &g.laplacian(), &solver, 2, 4, 0);
        assert!(res.heat.is_empty());
        assert_eq!(res.heat_max, 0.0);
        assert!(res.normalized().is_empty());
    }

    #[test]
    fn more_probes_stabilize_ranking() {
        // With many probes the top edge should be stable across seeds.
        let (g, off, _, _) = setup(8, 8, 7);
        let tree_ids = spanning::max_weight_spanning_tree(&g).unwrap();
        let p = g.subgraph_with_edges(tree_ids);
        let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::MinDegree).unwrap();
        let top_set = |seed: u64| -> std::collections::HashSet<usize> {
            let res = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 24, seed);
            let mut order: Vec<usize> = (0..res.heat.len()).collect();
            order.sort_by(|&a, &b| res.heat[b].partial_cmp(&res.heat[a]).unwrap());
            order.into_iter().take(8).collect()
        };
        let (a, b) = (top_set(1), top_set(2));
        let common = a.intersection(&b).count();
        assert!(common >= 5, "top-8 heat sets share only {common} edges");
    }
}
