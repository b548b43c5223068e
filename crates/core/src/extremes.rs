//! Extreme generalized eigenvalue estimation (paper §3.6).
//!
//! - `λmax` of `L_P⁺ L_G`: a handful of generalized power iterations — fast
//!   because the top eigenvalues of spanning-tree-like pencils are well
//!   separated (Spielman–Woo). The Rayleigh-quotient estimate is a lower
//!   bound on the true value.
//! - `λmin`: inverse iterations are hopeless (the small eigenvalues crowd
//!   together), so the paper restricts the Courant–Fischer minimization to
//!   two-colorings `x ∈ {0,1}^V` and relaxes further to single-vertex
//!   indicators, giving `λ̃min = min_p L_G(p,p)/L_P(p,p)` — the minimum
//!   weighted-degree ratio, an upper bound on the true `λmin` that is exact
//!   when some vertex keeps all its edges in the sparsifier.

use sass_eigen::pencil::GeneralizedPencil;
use sass_graph::Graph;
use sass_solver::GroundedSolver;
use sass_sparse::CsrMatrix;

/// Estimated extreme generalized eigenvalues of `(L_G, L_P)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremeEstimates {
    /// Power-iteration estimate of `λmax` (a lower bound).
    pub lambda_max: f64,
    /// Degree-ratio estimate of `λmin` (an upper bound, always ≥ 1 for
    /// subgraph sparsifiers).
    pub lambda_min: f64,
}

impl ExtremeEstimates {
    /// The implied relative-condition-number estimate `λmax/λmin`.
    pub fn condition(&self) -> f64 {
        self.lambda_max / self.lambda_min
    }
}

/// Estimates `λmax` by `iters` generalized power iterations (paper §3.6.1).
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn estimate_lambda_max(
    lg: &CsrMatrix,
    lp: &CsrMatrix,
    solver_p: &GroundedSolver,
    iters: usize,
    seed: u64,
) -> f64 {
    estimate_lambda_max_probes(lg, lp, solver_p, iters, 1, seed)
}

/// Multi-probe variant of [`estimate_lambda_max`]: `probes` generalized
/// power iterations advance side by side through the blocked grounded
/// solver (one factor sweep per block of probes, the sweeps themselves
/// partitioned over the factor's elimination tree past the crossover),
/// and the best Rayleigh quotient is returned. Still a lower bound on
/// `λmax`; extra probes shrink the chance of a start vector nearly
/// orthogonal to the dominant eigenvector, at far less than `probes`× the
/// cost of the single-probe estimator.
///
/// # Panics
///
/// Panics if dimensions disagree.
fn estimate_lambda_max_probes(
    lg: &CsrMatrix,
    lp: &CsrMatrix,
    solver_p: &GroundedSolver,
    iters: usize,
    probes: usize,
    seed: u64,
) -> f64 {
    let pencil = GeneralizedPencil::new(lg, lp, solver_p);
    pencil.power_max_block(iters, probes, seed).0
}

/// Estimates `λmin` by the node-coloring bound
/// `min_p deg_G(p) / deg_P(p)` (paper §3.6.2, Eq. 18).
///
/// `p_weighted_degree[v]` must hold the sparsifier's weighted degrees.
///
/// # Panics
///
/// Panics if the slice length differs from `g.n()` or some sparsifier
/// degree is zero (the sparsifier must be spanning).
pub fn estimate_lambda_min(g: &Graph, p_weighted_degree: &[f64]) -> f64 {
    assert_eq!(
        p_weighted_degree.len(),
        g.n(),
        "degree vector length mismatch"
    );
    let mut best = f64::INFINITY;
    for (v, &dp) in p_weighted_degree.iter().enumerate() {
        assert!(dp > 0.0, "sparsifier leaves vertex {v} isolated");
        let ratio = g.weighted_degree(v) / dp;
        if ratio < best {
            best = ratio;
        }
    }
    best
}

/// Tightened `λmin` bound by greedy set growth over the paper's general
/// two-coloring relaxation (Eq. 17): starting from the best single vertex,
/// neighbors are greedily added to the indicator set `S` while the cut
/// ratio `cut_G(S)/cut_P(S)` decreases. Still an upper bound on the true
/// `λmin` (every `{0,1}` vector is admissible in Courant–Fischer), but can
/// be substantially tighter on dense graphs where no single vertex loses
/// much of its degree to sparsification.
///
/// `p` must be the sparsifier as a subgraph of the same vertex set.
///
/// # Panics
///
/// Panics if graph sizes disagree.
pub fn estimate_lambda_min_set(g: &Graph, p: &Graph, max_grow: usize) -> f64 {
    assert_eq!(g.n(), p.n(), "graph size mismatch");
    let n = g.n();
    // Seed: the best single vertex (Eq. 18).
    let mut seed = 0usize;
    let mut best = f64::INFINITY;
    for v in 0..n {
        let ratio = g.weighted_degree(v) / p.weighted_degree(v).max(f64::MIN_POSITIVE);
        if ratio < best {
            best = ratio;
            seed = v;
        }
    }
    // Greedy growth: maintain cut weights of S in both graphs; adding v
    // flips its incident edges (in-S neighbors leave the cut, out-of-S
    // neighbors join).
    let mut in_s = vec![false; n];
    in_s[seed] = true;
    let mut cut_g = g.weighted_degree(seed);
    let mut cut_p = p.weighted_degree(seed);
    let mut frontier: Vec<usize> = g.neighbors(seed).map(|(nbr, _, _)| nbr as usize).collect();
    for _ in 0..max_grow {
        let mut best_gain: Option<(usize, f64, f64, f64)> = None;
        for &v in &frontier {
            if in_s[v] {
                continue;
            }
            let mut dg_in = 0.0;
            for (nbr, _, w) in g.neighbors(v) {
                if in_s[nbr as usize] {
                    dg_in += w;
                }
            }
            let mut dp_in = 0.0;
            for (nbr, _, w) in p.neighbors(v) {
                if in_s[nbr as usize] {
                    dp_in += w;
                }
            }
            let new_cut_g = cut_g + g.weighted_degree(v) - 2.0 * dg_in;
            let new_cut_p = cut_p + p.weighted_degree(v) - 2.0 * dp_in;
            if new_cut_p <= 0.0 {
                continue; // S would swallow a whole component of P
            }
            let ratio = new_cut_g / new_cut_p;
            if best_gain.is_none_or(|(_, r, _, _)| ratio < r) {
                best_gain = Some((v, ratio, new_cut_g, new_cut_p));
            }
        }
        // Plateau walking: accept the best neighbor even when the ratio
        // temporarily worsens — the minimum over the walk is what counts
        // (every indicator set remains an admissible Courant–Fischer
        // vector, so the bound stays sound).
        match best_gain {
            Some((v, ratio, ncg, ncp)) => {
                in_s[v] = true;
                best = best.min(ratio);
                cut_g = ncg;
                cut_p = ncp;
                frontier.extend(
                    g.neighbors(v)
                        .map(|(nbr, _, _)| nbr as usize)
                        .filter(|&u| !in_s[u]),
                );
            }
            None => break,
        }
    }
    best
}

/// Independent post-hoc verification of a sparsifier: builds its own
/// factorization and re-estimates the extremes from scratch (fresh seed
/// stream), so the result does not share state with whatever produced `p`.
///
/// The returned [`ExtremeEstimates::condition`] is a *sound lower bound*
/// on the true `κ(L_G, L_P)` divided by at most the λmin overestimate —
/// i.e. if it exceeds the intended `σ²`, the sparsifier definitely missed
/// its target.
///
/// # Errors
///
/// Propagates factorization failure (disconnected sparsifier).
///
/// # Example
///
/// ```
/// use sass_core::{sparsify, SparsifyConfig};
/// use sass_core::extremes::verify_extremes;
/// use sass_graph::generators::{grid2d, WeightModel};
///
/// # fn main() -> Result<(), sass_core::CoreError> {
/// let g = grid2d(10, 10, WeightModel::Unit, 1);
/// let sp = sparsify(&g, &SparsifyConfig::new(100.0))?;
/// let check = verify_extremes(&g, sp.graph(), 12, 99)?;
/// assert!(check.condition() <= 100.0 * 1.5);
/// # Ok(())
/// # }
/// ```
pub fn verify_extremes(
    g: &Graph,
    p: &Graph,
    power_iters: usize,
    seed: u64,
) -> crate::Result<ExtremeEstimates> {
    /// Independent verification runs a few probes (blocked, so the factor
    /// sweep is shared) rather than trusting a single start vector.
    const VERIFY_PROBES: usize = 4;
    let lg = g.laplacian();
    let lp = p.laplacian();
    let solver = GroundedSolver::new(&lp, Default::default())?;
    let lambda_max =
        estimate_lambda_max_probes(&lg, &lp, &solver, power_iters, VERIFY_PROBES, seed);
    Ok(ExtremeEstimates {
        lambda_max,
        lambda_min: degree_ratio_lambda_min(g, p),
    })
}

/// The degree-ratio `λmin` bound for a sparsifier given as a subgraph —
/// the one way every estimator in this module derives `λmin`.
fn degree_ratio_lambda_min(g: &Graph, p: &Graph) -> f64 {
    let degrees: Vec<f64> = (0..p.n()).map(|v| p.weighted_degree(v)).collect();
    estimate_lambda_min(g, &degrees)
}

/// Convenience: both estimates for a sparsifier given as a subgraph `p`.
///
/// # Panics
///
/// Panics on dimension mismatches (see the individual estimators).
pub fn estimate_extremes(
    g: &Graph,
    p: &Graph,
    lg: &CsrMatrix,
    lp: &CsrMatrix,
    solver_p: &GroundedSolver,
    power_iters: usize,
    seed: u64,
) -> ExtremeEstimates {
    let lambda_max = estimate_lambda_max(lg, lp, solver_p, power_iters, seed);
    ExtremeEstimates {
        lambda_max,
        lambda_min: degree_ratio_lambda_min(g, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_eigen::pencil::dense_generalized_eigenvalues;
    use sass_graph::generators::{fem_mesh2d, grid2d, WeightModel};
    use sass_graph::spanning;
    use sass_sparse::ordering::OrderingKind;

    fn tree_sparsifier(g: &Graph) -> Graph {
        let ids = spanning::max_weight_spanning_tree(g).unwrap();
        g.subgraph_with_edges(ids)
    }

    #[test]
    fn lambda_min_is_upper_bound_and_at_least_one() {
        let g = fem_mesh2d(7, 7, 3);
        let p = tree_sparsifier(&g);
        let degrees: Vec<f64> = (0..p.n()).map(|v| p.weighted_degree(v)).collect();
        let est = estimate_lambda_min(&g, &degrees);
        assert!(est >= 1.0);
        let vals = dense_generalized_eigenvalues(&g.laplacian(), &p.laplacian()).unwrap();
        let exact_min = vals[0];
        assert!(
            est >= exact_min - 1e-9,
            "degree-ratio estimate {est} below exact λmin {exact_min}"
        );
        // Paper Table 1 reports errors around 4-11%; on small meshes the
        // bound should stay in the same ballpark (allow a loose factor).
        assert!(
            est <= 2.0 * exact_min,
            "estimate {est} vs exact {exact_min}"
        );
    }

    #[test]
    fn lambda_max_is_lower_bound_and_close() {
        let g = grid2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 8);
        let p = tree_sparsifier(&g);
        let lg = g.laplacian();
        let lp = p.laplacian();
        let solver = GroundedSolver::new(&lp, OrderingKind::MinDegree).unwrap();
        let est = estimate_lambda_max(&lg, &lp, &solver, 10, 5);
        let vals = dense_generalized_eigenvalues(&lg, &lp).unwrap();
        let exact = *vals.last().unwrap();
        assert!(est <= exact + 1e-9);
        // Paper Table 1: λmax errors of 2-6% with <10 iterations.
        assert!(
            est >= 0.85 * exact,
            "estimate {est} too far below exact {exact}"
        );
    }

    #[test]
    fn multi_probe_lambda_max_stays_a_lower_bound() {
        let g = grid2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 8);
        let p = tree_sparsifier(&g);
        let lg = g.laplacian();
        let lp = p.laplacian();
        let solver = GroundedSolver::new(&lp, OrderingKind::MinDegree).unwrap();
        let exact = *dense_generalized_eigenvalues(&lg, &lp)
            .unwrap()
            .last()
            .unwrap();
        let single = estimate_lambda_max(&lg, &lp, &solver, 10, 5);
        let multi = estimate_lambda_max_probes(&lg, &lp, &solver, 10, 4, 5);
        assert!(multi <= exact + 1e-9, "multi-probe estimate exceeded λmax");
        // The blocked estimator's first probe is the single-probe run, so
        // taking the max can only help.
        assert!(multi >= single - 1e-12, "{multi} vs {single}");
    }

    #[test]
    fn identical_graphs_give_condition_one() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let lg = g.laplacian();
        let solver = GroundedSolver::new(&lg, OrderingKind::MinDegree).unwrap();
        let est = estimate_extremes(&g, &g, &lg, &lg, &solver, 10, 1);
        assert!((est.lambda_max - 1.0).abs() < 1e-9);
        assert!((est.lambda_min - 1.0).abs() < 1e-12);
        assert!((est.condition() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_estimate_tightens_single_vertex_bound_on_dense_graph() {
        // Dense geometric graph: the single-vertex bound is loose (every
        // vertex keeps its tree edges plus little else, but the *best* cut
        // separates a cluster). The set-grown bound must be at least as
        // tight and still above the exact lambda_min.
        let g = sass_graph::generators::random_geometric3d(220, 0.25, true, 7);
        let p = tree_sparsifier(&g);
        let degrees: Vec<f64> = (0..p.n()).map(|v| p.weighted_degree(v)).collect();
        let single = estimate_lambda_min(&g, &degrees);
        let grown = estimate_lambda_min_set(&g, &p, 24);
        assert!(
            grown <= single + 1e-12,
            "set bound {grown} worse than single {single}"
        );
        let vals = dense_generalized_eigenvalues(&g.laplacian(), &p.laplacian()).unwrap();
        assert!(
            grown >= vals[0] - 1e-9,
            "set bound {grown} below exact {}",
            vals[0]
        );
    }

    #[test]
    fn set_estimate_equals_single_when_growth_disabled() {
        let g = grid2d(6, 6, WeightModel::Unit, 1);
        let p = tree_sparsifier(&g);
        let degrees: Vec<f64> = (0..p.n()).map(|v| p.weighted_degree(v)).collect();
        let single = estimate_lambda_min(&g, &degrees);
        let grown = estimate_lambda_min_set(&g, &p, 0);
        assert!((single - grown).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn panics_on_isolated_vertex() {
        let g = grid2d(3, 3, WeightModel::Unit, 0);
        let mut degrees: Vec<f64> = (0..9).map(|_| 1.0).collect();
        degrees[4] = 0.0;
        estimate_lambda_min(&g, &degrees);
    }
}
