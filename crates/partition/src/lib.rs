//! Spectral graph partitioning accelerated by spectral sparsifiers
//! (paper §4.3, Table 3).
//!
//! The classic two-way spectral partition computes the Fiedler vector of
//! the graph Laplacian and splits vertices by sign. The expensive part is
//! the linear solve inside each inverse power iteration; this crate offers
//! both of the paper's backends:
//!
//! - [`Backend::Direct`]: exact grounded factorization of the *full* graph
//!   (the CHOLMOD baseline — memory-hungry on meshes),
//! - [`Backend::Sparsified`]: PCG preconditioned by a similarity-aware
//!   sparsifier of the requested `σ²` (the paper's method — when the
//!   sparsifier is spectrally close, its Fiedler vector is already a good
//!   cut for the original graph).
//!
//! # Example
//!
//! ```
//! use sass_graph::generators::{grid2d, WeightModel};
//! use sass_partition::{partition, Backend, PartitionOptions};
//!
//! # fn main() -> Result<(), sass_partition::PartitionError> {
//! let g = grid2d(16, 8, WeightModel::Unit, 0);
//! let part = partition(&g, &PartitionOptions::default())?;
//! // A 16x8 grid should split into two balanced halves.
//! assert!(part.balance_ratio() < 1.3);
//! assert!(part.cut_weight > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod clustering;
pub mod kway;

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use sass_core::{sparsify, SparsifyConfig};
use sass_eigen::fiedler::{
    fiedler_vector_direct, fiedler_vector_pcg, sign_disagreement, FiedlerOptions,
};
use sass_graph::Graph;
use sass_solver::{GroundedSolver, LaplacianPrec, PcgOptions};
use sass_sparse::ordering::OrderingKind;

/// Errors produced by the partitioner.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// Underlying sparsification failure.
    Core(sass_core::CoreError),
    /// Underlying eigensolver failure.
    Eigen(sass_eigen::EigenError),
    /// Underlying solver failure.
    Solver(sass_solver::SolverError),
    /// The graph cannot be partitioned (fewer than 2 vertices).
    TooSmall {
        /// Number of vertices.
        n: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Core(e) => write!(f, "sparsification error: {e}"),
            PartitionError::Eigen(e) => write!(f, "eigensolver error: {e}"),
            PartitionError::Solver(e) => write!(f, "solver error: {e}"),
            PartitionError::TooSmall { n } => {
                write!(f, "cannot partition a graph with {n} vertices")
            }
        }
    }
}

impl Error for PartitionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PartitionError::Core(e) => Some(e),
            PartitionError::Eigen(e) => Some(e),
            PartitionError::Solver(e) => Some(e),
            PartitionError::TooSmall { .. } => None,
        }
    }
}

impl From<sass_core::CoreError> for PartitionError {
    fn from(e: sass_core::CoreError) -> Self {
        PartitionError::Core(e)
    }
}

impl From<sass_eigen::EigenError> for PartitionError {
    fn from(e: sass_eigen::EigenError) -> Self {
        PartitionError::Eigen(e)
    }
}

impl From<sass_solver::SolverError> for PartitionError {
    fn from(e: sass_solver::SolverError) -> Self {
        PartitionError::Solver(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PartitionError>;

/// Which solver powers the inverse power iterations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Backend {
    /// Exact grounded factorization of the full Laplacian.
    Direct {
        /// Fill-reducing ordering for the full factorization.
        ordering: OrderingKind,
    },
    /// PCG preconditioned by a similarity-aware sparsifier.
    Sparsified {
        /// Sparsification configuration (σ² etc.).
        config: SparsifyConfig,
        /// PCG accuracy per inverse power step.
        pcg: PcgOptions,
    },
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Sparsified {
            config: SparsifyConfig::new(200.0),
            pcg: PcgOptions {
                tol: 1e-6,
                ..Default::default()
            },
        }
    }
}

/// How the Fiedler vector is turned into a two-way cut.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum CutRule {
    /// Split by sign (the paper's rule, §4.3).
    #[default]
    Sign,
    /// Sweep cut: scan thresholds along the sorted Fiedler values and keep
    /// the split of minimum conductance among those whose smaller side
    /// holds at least `min_balance` of the vertices. More robust than the
    /// sign cut when `λ₂` is (nearly) degenerate — e.g. symmetric
    /// multi-cluster graphs.
    Sweep {
        /// Minimum fraction of vertices on the smaller side (e.g. `0.1`).
        min_balance: f64,
    },
}

/// Options for [`partition`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionOptions {
    /// Solver backend.
    pub backend: Backend,
    /// Inverse-power-iteration controls.
    pub fiedler: FiedlerOptions,
    /// Cut extraction rule.
    pub cut: CutRule,
}

/// A two-way spectral partition.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-vertex side: `+1` or `-1` (sign of the Fiedler vector).
    pub signs: Vec<i8>,
    /// The (approximate) Fiedler vector used for the cut.
    pub fiedler: Vec<f64>,
    /// The Rayleigh-quotient estimate of `λ₂`.
    pub lambda2: f64,
    /// Total weight of edges crossing the cut.
    pub cut_weight: f64,
    /// Estimated solver memory in bytes (factor storage; for the
    /// sparsified backend this is the sparsifier factor).
    pub solver_memory_bytes: usize,
    /// Time spent building the solver (sparsification + factorization).
    pub setup_time: Duration,
    /// Time spent in inverse power iterations (solves).
    pub solve_time: Duration,
    /// Total PCG iterations across all inverse power steps (0 for direct).
    pub pcg_iterations: usize,
}

impl Partition {
    /// Balance ratio `max(|V+|,|V−|) / min(|V+|,|V−|)` (≥ 1; the paper
    /// reports `|V+|/|V−|`, which fluctuates around 1).
    pub fn balance_ratio(&self) -> f64 {
        let pos = self.signs.iter().filter(|&&s| s > 0).count();
        let neg = self.signs.len() - pos;
        let (hi, lo) = (pos.max(neg), pos.min(neg));
        if lo == 0 {
            f64::INFINITY
        } else {
            hi as f64 / lo as f64
        }
    }

    /// The paper's signed ratio `|V+| / |V−|`.
    pub fn signed_ratio(&self) -> f64 {
        let pos = self.signs.iter().filter(|&&s| s > 0).count();
        let neg = self.signs.len() - pos;
        if neg == 0 {
            f64::INFINITY
        } else {
            pos as f64 / neg as f64
        }
    }
}

/// Fraction of vertices on which two partitions disagree (minimized over a
/// global flip) — the paper's Table 3 `Rel.Err.` column.
///
/// # Panics
///
/// Panics if the partitions have different sizes.
pub fn relative_error(a: &Partition, b: &Partition) -> f64 {
    sign_disagreement(&a.fiedler, &b.fiedler)
}

fn cut_weight(g: &Graph, signs: &[i8]) -> f64 {
    g.edges()
        .iter()
        .filter(|e| signs[e.u as usize] != signs[e.v as usize])
        .map(|e| e.weight)
        .sum()
}

/// Computes a two-way spectral partition of a connected graph.
///
/// # Errors
///
/// Returns [`PartitionError::TooSmall`] for graphs with fewer than two
/// vertices and propagates solver/sparsifier failures (e.g. disconnected
/// input).
pub fn partition(g: &Graph, opts: &PartitionOptions) -> Result<Partition> {
    if g.n() < 2 {
        return Err(PartitionError::TooSmall { n: g.n() });
    }
    let l = g.laplacian();
    let (lambda2, fiedler, memory, setup_time, solve_time, pcg_iterations) = match &opts.backend {
        Backend::Direct { ordering } => {
            let t0 = Instant::now();
            let solver = GroundedSolver::new(&l, *ordering)?;
            let setup = t0.elapsed();
            let memory = solver.memory_bytes();
            let t1 = Instant::now();
            let (l2, v) = fiedler_vector_direct(&l, &solver, &opts.fiedler);
            (l2, v, memory, setup, t1.elapsed(), 0)
        }
        Backend::Sparsified { config, pcg } => {
            let t0 = Instant::now();
            let sp = sparsify(g, config)?;
            // The last densification round already factored L_P.
            let solver = sp
                .grounded_solver()
                .expect("sparsify factors every graph of two or more vertices")
                .clone();
            let setup = t0.elapsed();
            let memory = solver.memory_bytes();
            let prec = LaplacianPrec::new(solver);
            let t1 = Instant::now();
            let (l2, v, iters) = fiedler_vector_pcg(&l, &prec, pcg, &opts.fiedler);
            (l2, v, memory, setup, t1.elapsed(), iters)
        }
    };
    let signs = match opts.cut {
        CutRule::Sign => fiedler
            .iter()
            .map(|&x| if x >= 0.0 { 1i8 } else { -1 })
            .collect(),
        CutRule::Sweep { min_balance } => sweep_cut(g, &fiedler, min_balance),
    };
    let cut = cut_weight(g, &signs);
    Ok(Partition {
        signs,
        fiedler,
        lambda2,
        cut_weight: cut,
        solver_memory_bytes: memory,
        setup_time,
        solve_time,
        pcg_iterations,
    })
}

/// Minimum-conductance sweep cut along the sorted Fiedler values.
///
/// Vertices are sorted by Fiedler value; prefixes `S_k` (first `k`
/// vertices) are scanned with an incremental cut-weight update, and the
/// prefix minimizing `cut(S) / min(vol(S), vol(V∖S))` among those with
/// `min(k, n−k) ≥ min_balance·n` wins. Runs in `O(m + n log n)`.
fn sweep_cut(g: &Graph, fiedler: &[f64], min_balance: f64) -> Vec<i8> {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| fiedler[a].partial_cmp(&fiedler[b]).expect("finite fiedler"));
    let total_vol: f64 = (0..n).map(|v| g.weighted_degree(v)).sum();
    let min_side = ((min_balance.clamp(0.0, 0.5) * n as f64).floor() as usize).max(1);

    let mut in_s = vec![false; n];
    let mut cut = 0.0f64;
    let mut vol_s = 0.0f64;
    let mut best_k = n / 2;
    let mut best_cond = f64::INFINITY;
    for (k, &v) in order.iter().enumerate().take(n - 1) {
        // Move v into S: edges to S stop crossing, edges to V∖S start.
        let mut to_s = 0.0;
        for (nbr, _, w) in g.neighbors(v) {
            if in_s[nbr as usize] {
                to_s += w;
            }
        }
        let dv = g.weighted_degree(v);
        cut += dv - 2.0 * to_s;
        vol_s += dv;
        in_s[v] = true;
        let side = k + 1;
        if side < min_side || n - side < min_side {
            continue;
        }
        let cond = cut / vol_s.min(total_vol - vol_s).max(f64::MIN_POSITIVE);
        if cond < best_cond {
            best_cond = cond;
            best_k = side;
        }
    }
    let mut signs = vec![-1i8; n];
    for &v in &order[..best_k] {
        signs[v] = 1;
    }
    signs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass_graph::generators::{grid2d, stochastic_block_model, WeightModel};

    fn direct_opts() -> PartitionOptions {
        PartitionOptions {
            backend: Backend::Direct {
                ordering: OrderingKind::MinDegree,
            },
            ..Default::default()
        }
    }

    #[test]
    fn grid_partition_is_balanced() {
        let g = grid2d(20, 10, WeightModel::Unit, 0);
        let p = partition(&g, &direct_opts()).unwrap();
        assert!(p.balance_ratio() < 1.2, "balance {}", p.balance_ratio());
        // A 20x10 grid's best bisection cuts ~10 edges; spectral should be
        // in that ballpark.
        assert!(p.cut_weight <= 30.0, "cut {}", p.cut_weight);
    }

    #[test]
    fn sparsified_backend_matches_direct() {
        let g = grid2d(16, 16, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let d = partition(&g, &direct_opts()).unwrap();
        let s = partition(&g, &PartitionOptions::default()).unwrap();
        let err = relative_error(&d, &s);
        assert!(err < 0.05, "relative error {err}");
        assert!(s.pcg_iterations > 0);
        assert!((d.lambda2 - s.lambda2).abs() / d.lambda2 < 0.05);
    }

    #[test]
    fn sparsified_backend_uses_less_memory_than_direct_on_mesh() {
        let g = grid2d(30, 30, WeightModel::Unit, 3);
        let d = partition(
            &g,
            &PartitionOptions {
                backend: Backend::Direct {
                    ordering: OrderingKind::NestedDissection,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let s = partition(&g, &PartitionOptions::default()).unwrap();
        assert!(
            s.solver_memory_bytes < d.solver_memory_bytes,
            "sparsified {} vs direct {}",
            s.solver_memory_bytes,
            d.solver_memory_bytes
        );
    }

    #[test]
    fn recovers_planted_communities() {
        let g = stochastic_block_model(&[40, 40], 0.3, 0.01, 9);
        let p = partition(&g, &direct_opts()).unwrap();
        let planted: Vec<f64> = (0..80).map(|i| if i < 40 { 1.0 } else { -1.0 }).collect();
        let err = sign_disagreement(&p.fiedler, &planted);
        assert!(err < 0.05, "community error {err}");
    }

    #[test]
    fn rejects_tiny_graphs() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(matches!(
            partition(&g, &PartitionOptions::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    fn signed_ratio_near_one_on_symmetric_graphs() {
        let g = grid2d(12, 12, WeightModel::Unit, 0);
        let p = partition(&g, &direct_opts()).unwrap();
        assert!(
            (p.signed_ratio() - 1.0).abs() < 0.35,
            "ratio {}",
            p.signed_ratio()
        );
    }
}
