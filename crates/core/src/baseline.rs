//! The Spielman–Srivastava effective-resistance sampling baseline
//! (paper reference \[17\]).
//!
//! The classical spectral sparsification alternative to edge filtering:
//! sample edges with replacement with probability proportional to
//! `w_e · R_eff(e)` (their *leverage score*) and reweight by the inverse
//! sampling probability. Resistances are estimated with the
//! Johnson–Lindenstrauss projection trick — `O(log n)` Laplacian solves
//! against random signed incidence combinations.
//!
//! Two contrasts with the similarity-aware method motivate the paper:
//!
//! 1. SS needs solves **with the original graph** `L_G` (expensive — the
//!    very problem sparsification is supposed to avoid), while edge
//!    filtering only ever solves with the sparsifier `L_P`;
//! 2. SS offers no direct control of the achieved similarity `σ²`; the
//!    sample count is chosen blindly, while edge filtering certifies its
//!    target with running `λmax/λmin` estimates.
//!
//! The `baseline_ss` Criterion bench compares both on equal edge budgets.

use crate::{CoreError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_graph::{Graph, GraphBuilder};
use sass_solver::{GroundedScratch, GroundedSolver};

/// Effective resistance of every edge, estimated by Johnson–Lindenstrauss
/// projection: `R_eff(u,v) ≈ ‖Z(e_u − e_v)‖²` where the rows of `Z` are
/// `L⁺ Bᵀ W^{1/2} q_i` for `k` random ±1 vectors `q_i` over edges.
///
/// The multiplicative error is `1 ± ε` with `k = O(log(n)/ε²)`; `k = 32`
/// gives usable leverage scores for sampling purposes.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if the solver's dimension is not `g`'s.
///
/// # Example
///
/// [`spielman_srivastava`] is the only caller, so the example goes through
/// it. On a tree the projection difference across an edge is exactly
/// `±1/√w_e`, so every estimated leverage `w_e·R_e` is exactly 1 and each of
/// the `n − 1` edges is drawn with probability `1/(n − 1)`. A single draw is
/// reweighted by `n − 1`, and the links that reconnect the rest copy that
/// weight.
///
/// ```
/// use sass_core::baseline::{spielman_srivastava, SsConfig};
/// use sass_graph::Graph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let path = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])?;
/// let config = SsConfig { samples: 1, jl_dims: 8, seed: 1 };
/// let p = spielman_srivastava(&path, &config)?;
/// assert_eq!(p.m(), 4);
/// for e in p.edges() {
///     assert!((e.weight - 4.0).abs() < 1e-9, "weight {}", e.weight);
/// }
/// # Ok(())
/// # }
/// ```
fn effective_resistances_jl(
    g: &Graph,
    solver_g: &GroundedSolver,
    k_dims: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    if solver_g.n() != g.n() {
        return Err(CoreError::InvalidConfig {
            context: "solver dimension does not match graph".to_string(),
        });
    }
    let n = g.n();
    let m = g.m();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r_est = vec![0.0f64; m];
    let mut y = vec![0.0f64; n];
    let mut z = vec![0.0f64; n];
    let mut scratch = GroundedScratch::new();
    let scale = 1.0 / k_dims as f64;
    for _ in 0..k_dims.max(1) {
        // y = Bᵀ W^{1/2} q with q ∈ {±1}^m.
        for yi in y.iter_mut() {
            *yi = 0.0;
        }
        for e in g.edges() {
            let s = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let v = s * e.weight.sqrt();
            y[e.u as usize] += v;
            y[e.v as usize] -= v;
        }
        solver_g.solve_columns(&[&y], &mut [&mut z], &mut scratch);
        for (slot, e) in r_est.iter_mut().zip(g.edges()) {
            let d = z[e.u as usize] - z[e.v as usize];
            *slot += scale * d * d;
        }
    }
    Ok(r_est)
}

/// Configuration for [`spielman_srivastava`].
#[derive(Debug, Clone, PartialEq)]
pub struct SsConfig {
    /// Number of samples drawn (with replacement). The classical theory
    /// uses `O(n log n / ε²)`; in practice a small multiple of `n`.
    pub samples: usize,
    /// JL projection dimension for resistance estimation.
    pub jl_dims: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SsConfig {
    fn default() -> Self {
        SsConfig {
            samples: 0,
            jl_dims: 32,
            seed: 0x55aa,
        }
    }
}

impl SsConfig {
    /// `samples = factor · n` for a graph with `n` vertices.
    pub fn with_sample_factor(n: usize, factor: f64) -> Self {
        SsConfig {
            samples: ((n as f64 * factor).ceil() as usize).max(1),
            ..Default::default()
        }
    }
}

/// Spielman–Srivastava sparsification by effective-resistance sampling.
///
/// Draws `config.samples` edges with replacement with probability
/// `p_e ∝ w_e·R_eff(e)` and adds each draw with weight `w_e/(q·p_e)`
/// (multiple draws of one edge accumulate), giving an unbiased Laplacian
/// estimator. The result is **not** a subgraph — weights are rescaled —
/// so generalized eigenvalues can fall below 1, unlike edge filtering.
///
/// # Errors
///
/// Propagates factorization failure and invalid configurations.
pub fn spielman_srivastava(g: &Graph, config: &SsConfig) -> Result<Graph> {
    if config.samples == 0 {
        return Err(CoreError::InvalidConfig {
            context: "SsConfig::samples must be positive".to_string(),
        });
    }
    let lg = g.laplacian();
    let solver = GroundedSolver::new(&lg, Default::default())?;
    let r_est = effective_resistances_jl(g, &solver, config.jl_dims, config.seed)?;

    // Leverage-score distribution.
    let scores: Vec<f64> = g
        .edges()
        .iter()
        .zip(&r_est)
        .map(|(e, &r)| (e.weight * r).max(1e-300))
        .collect();
    let total: f64 = scores.iter().sum();
    let mut cdf = Vec::with_capacity(scores.len());
    let mut acc = 0.0;
    for s in &scores {
        acc += s;
        cdf.push(acc);
    }

    let q = config.samples;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5151);
    let mut accum = vec![0.0f64; g.m()];
    for _ in 0..q {
        let x = rng.gen_range(0.0..total);
        let idx = cdf.partition_point(|&c| c <= x).min(g.m() - 1);
        let p = scores[idx] / total;
        accum[idx] += g.edge(idx).weight / (q as f64 * p);
    }
    let mut b = GraphBuilder::new(g.n());
    let mut total_w = 0.0;
    let mut kept = 0usize;
    for (idx, &w) in accum.iter().enumerate() {
        if w > 0.0 {
            let e = g.edge(idx);
            b.add_edge(e.u as usize, e.v as usize, w);
            total_w += w;
            kept += 1;
        }
    }
    let sparsified = b.build();
    // Sampling gives no connectivity guarantee (unlike the tree-backbone
    // method -- one of the paper's selling points). Patch disconnections
    // with mean-weight links so downstream solvers stay usable while the
    // spectral penalty of the failure remains visible.
    let patch_w = if kept > 0 { total_w / kept as f64 } else { 1.0 };
    Ok(sass_graph::generators::connect_components(
        sparsified, patch_w,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_eigen::pencil::dense_generalized_eigenvalues;
    use sass_graph::generators::{circuit_grid, fem_mesh2d, grid2d, WeightModel};

    /// Exact effective resistance of every edge by one grounded solve per
    /// edge: the reference the JL estimates are checked against.
    fn effective_resistances_exact(g: &Graph, solver_g: &GroundedSolver) -> Vec<f64> {
        let mut b = vec![0.0f64; g.n()];
        g.edges()
            .iter()
            .map(|e| {
                b[e.u as usize] = 1.0;
                b[e.v as usize] = -1.0;
                let x = solver_g.solve(&b);
                b[e.u as usize] = 0.0;
                b[e.v as usize] = 0.0;
                x[e.u as usize] - x[e.v as usize]
            })
            .collect()
    }

    #[test]
    fn foster_theorem_exact() {
        // Σ_e w_e R_eff(e) = n − 1 for any connected graph.
        let g = fem_mesh2d(8, 8, 1);
        let solver = GroundedSolver::new(&g.laplacian(), Default::default()).unwrap();
        let r = effective_resistances_exact(&g, &solver);
        let total: f64 = g.edges().iter().zip(&r).map(|(e, &ri)| e.weight * ri).sum();
        assert!(
            (total - (g.n() as f64 - 1.0)).abs() < 1e-8,
            "Foster sum {total} vs {}",
            g.n() - 1
        );
    }

    #[test]
    fn jl_estimates_track_exact() {
        let g = grid2d(9, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 2);
        let solver = GroundedSolver::new(&g.laplacian(), Default::default()).unwrap();
        let exact = effective_resistances_exact(&g, &solver);
        let jl = effective_resistances_jl(&g, &solver, 64, 3).unwrap();
        for (e, j) in exact.iter().zip(&jl) {
            assert!(*j > 0.3 * e && *j < 3.0 * e, "JL {j} vs exact {e}");
        }
        // Foster's sum should hold approximately for the JL estimates too.
        let total: f64 = g
            .edges()
            .iter()
            .zip(&jl)
            .map(|(e, &ri)| e.weight * ri)
            .sum();
        let expect = g.n() as f64 - 1.0;
        assert!(
            (total - expect).abs() < 0.25 * expect,
            "JL Foster sum {total}"
        );
    }

    #[test]
    fn tree_edges_have_unit_leverage() {
        // On a tree every edge has w_e R_eff(e) = 1.
        let g =
            sass_graph::Graph::from_edges(5, &[(0, 1, 2.0), (1, 2, 0.5), (1, 3, 3.0), (3, 4, 1.0)])
                .unwrap();
        let solver = GroundedSolver::new(&g.laplacian(), Default::default()).unwrap();
        let r = effective_resistances_exact(&g, &solver);
        for (e, &ri) in g.edges().iter().zip(&r) {
            assert!((e.weight * ri - 1.0).abs() < 1e-9);
        }
        // The JL estimates land near the exact leverage of 1.
        let jl = effective_resistances_jl(&g, &solver, 64, 1).unwrap();
        for (e, &ri) in g.edges().iter().zip(&jl) {
            assert!(
                (e.weight * ri - 1.0).abs() < 0.4,
                "JL leverage {}",
                e.weight * ri
            );
        }
    }

    #[test]
    fn ss_sparsifier_quality_improves_with_samples() {
        let g = circuit_grid(10, 10, 0.2, 4);
        let lg = g.laplacian();
        let kappa = |p: &Graph| -> f64 {
            let vals = dense_generalized_eigenvalues(&lg, &p.laplacian()).unwrap();
            vals.last().unwrap() / vals.first().unwrap()
        };
        let light = spielman_srivastava(&g, &SsConfig::with_sample_factor(g.n(), 2.0)).unwrap();
        let heavy = spielman_srivastava(&g, &SsConfig::with_sample_factor(g.n(), 12.0)).unwrap();
        let (kl, kh) = (kappa(&light), kappa(&heavy));
        assert!(
            kh < kl,
            "more samples should improve condition: light {kl} vs heavy {kh}"
        );
    }

    #[test]
    fn ss_output_is_sparser_than_input_for_dense_graphs() {
        let g = sass_graph::generators::dense_random(300, 6_000, 5);
        let sp = spielman_srivastava(&g, &SsConfig::with_sample_factor(g.n(), 4.0)).unwrap();
        assert!(sp.m() < g.m());
        assert!(sass_graph::traverse::is_connected(&sp));
    }

    #[test]
    fn ss_rejects_zero_samples() {
        let g = grid2d(4, 4, WeightModel::Unit, 0);
        assert!(matches!(
            spielman_srivastava(&g, &SsConfig::default()),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn ss_expected_laplacian_is_unbiased_in_total_weight() {
        // The estimator is unbiased edge-by-edge; with many samples the
        // total weight should approach the original's.
        let g = grid2d(8, 8, WeightModel::Unit, 6);
        let sp = spielman_srivastava(&g, &SsConfig::with_sample_factor(g.n(), 40.0)).unwrap();
        let ratio = sp.total_weight() / g.total_weight();
        assert!((0.7..1.3).contains(&ratio), "total weight ratio {ratio}");
    }
}
