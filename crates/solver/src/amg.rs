//! Aggregation-based algebraic multigrid (AMG) preconditioner.
//!
//! The paper solves its sparsifier systems with graph-theoretic AMG
//! (LAMG [13] / SAMG [24]). This module provides the classic plain-
//! aggregation variant of that family for SDD/Laplacian matrices:
//!
//! - **Setup**: vertices are greedily aggregated along their strongest
//!   off-diagonal connections; the Galerkin coarse operator with a
//!   piecewise-constant prolongator is exactly the Laplacian of the
//!   *contracted* graph, so the whole hierarchy stays SDD. Coarsening
//!   repeats until the system is small enough for a direct grounded solve.
//! - **Apply**: one symmetric V-cycle (damped-Jacobi pre/post smoothing
//!   around a coarse-grid correction), which is a symmetric positive
//!   semi-definite operation and therefore a valid PCG preconditioner.
//!
//! AMG complements the exact [`LaplacianPrec`](crate::LaplacianPrec):
//! cheaper setup and memory on huge meshes, weaker per-iteration
//! contraction (benched against each other in `sass-bench`).

use crate::{GroundedScratch, Preconditioner, Result, SolverError};
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{dense, CooMatrix, CsrMatrix};
use std::cell::RefCell;

/// Options controlling AMG hierarchy construction and cycling.
#[derive(Debug, Clone, PartialEq)]
pub struct AmgOptions {
    /// Stop coarsening below this many rows (direct solve there).
    pub coarse_size: usize,
    /// Damped-Jacobi weight (2/3 is the classic choice).
    pub jacobi_weight: f64,
    /// Pre- and post-smoothing sweeps per level.
    pub smoothing_sweeps: usize,
    /// Maximum hierarchy depth (safety cap).
    pub max_levels: usize,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            coarse_size: 200,
            jacobi_weight: 2.0 / 3.0,
            smoothing_sweeps: 1,
            max_levels: 20,
        }
    }
}

/// One level of the hierarchy.
#[derive(Debug, Clone)]
struct Level {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// Aggregate id of each row (prolongator is the indicator matrix).
    agg: Vec<u32>,
    /// Rows of the next-coarser level.
    n_coarse: usize,
}

/// The work buffers of one level's part of a V-cycle: the fine residual
/// (also the smoother's), the restricted right-hand side and the coarse
/// correction.
#[derive(Debug, Clone)]
struct LevelScratch {
    r: Vec<f64>,
    rc: Vec<f64>,
    xc: Vec<f64>,
}

/// Aggregation-based AMG V-cycle preconditioner for SDD matrices.
///
/// Every application reuses one set of per-level buffers and one coarse
/// solve scratch, so PCG iterations allocate nothing (which makes the
/// preconditioner `!Sync`, as [`LaplacianPrec`](crate::LaplacianPrec) is;
/// clone it per thread).
///
/// # Example
///
/// ```
/// use sass_graph::generators::{grid2d, WeightModel};
/// use sass_solver::{pcg, AmgPrec, PcgOptions};
///
/// # fn main() -> Result<(), sass_solver::SolverError> {
/// let g = grid2d(24, 24, WeightModel::Unit, 0);
/// let l = g.laplacian();
/// let amg = AmgPrec::new(&l, &Default::default())?;
/// let mut b = vec![0.0; g.n()];
/// b[0] = 1.0;
/// b[g.n() - 1] = -1.0;
/// let (_, stats) = pcg(&l, &b, &amg, &PcgOptions { tol: 1e-8, ..Default::default() });
/// assert!(stats.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AmgPrec {
    levels: Vec<Level>,
    coarse: crate::GroundedSolver,
    options: AmgOptions,
    scratch: RefCell<(Vec<LevelScratch>, GroundedScratch)>,
}

/// Greedy strength-based aggregation: each unaggregated vertex merges with
/// its strongest unaggregated neighbor (seeding a pair), then remaining
/// singletons join their strongest neighbor's aggregate.
fn aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.nrows();
    let mut agg = vec![u32::MAX; n];
    let mut next = 0u32;
    // Pass 1: pair each vertex with its strongest free neighbor.
    for v in 0..n {
        if agg[v] != u32::MAX {
            continue;
        }
        let (cols, vals) = a.row(v);
        let mut best: Option<(usize, f64)> = None;
        for (c, val) in cols.iter().zip(vals) {
            let u = *c as usize;
            if u != v && agg[u] == u32::MAX {
                let s = val.abs();
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((u, s));
                }
            }
        }
        match best {
            Some((u, _)) => {
                agg[v] = next;
                agg[u] = next;
                next += 1;
            }
            None => {
                // No free neighbor: join the strongest aggregated one (or
                // become a singleton aggregate in a degenerate matrix).
                let mut best: Option<(u32, f64)> = None;
                for (c, val) in cols.iter().zip(vals) {
                    let u = *c as usize;
                    if u != v && agg[u] != u32::MAX {
                        let s = val.abs();
                        if best.is_none_or(|(_, bs)| s > bs) {
                            best = Some((agg[u], s));
                        }
                    }
                }
                agg[v] = best.map_or_else(
                    || {
                        let id = next;
                        next += 1;
                        id
                    },
                    |(id, _)| id,
                );
            }
        }
    }
    (agg, next as usize)
}

/// Galerkin coarse operator `Pᵀ A P` for the piecewise-constant
/// prolongator given by `agg` — the Laplacian of the contracted graph.
fn galerkin(a: &CsrMatrix, agg: &[u32], n_coarse: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n_coarse, n_coarse, a.nnz());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let ai = agg[i] as usize;
        for (c, v) in cols.iter().zip(vals) {
            coo.push(ai, agg[*c as usize] as usize, *v);
        }
    }
    coo.to_csr()
}

impl AmgPrec {
    /// Builds the hierarchy for an SDD matrix (typically a connected-graph
    /// Laplacian).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::GroundedSingular`] if the coarsest system is
    /// singular after grounding (disconnected input) and
    /// [`SolverError::ShapeMismatch`] for rectangular input.
    pub fn new(a: &CsrMatrix, options: &AmgOptions) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SolverError::ShapeMismatch {
                context: format!("matrix is {}x{}", a.nrows(), a.ncols()),
            });
        }
        let mut levels = Vec::new();
        let mut current = a.clone();
        while current.nrows() > options.coarse_size && levels.len() < options.max_levels {
            let (agg, n_coarse) = aggregate(&current);
            if n_coarse >= current.nrows() {
                break; // aggregation stalled (already maximally coarse)
            }
            let coarse = galerkin(&current, &agg, n_coarse);
            let inv_diag = current
                .diagonal()
                .into_iter()
                .map(|d| if d != 0.0 { 1.0 / d } else { 0.0 })
                .collect();
            levels.push(Level {
                a: current,
                inv_diag,
                agg,
                n_coarse,
            });
            current = coarse;
        }
        let coarse = crate::GroundedSolver::new(&current, OrderingKind::MinDegree)?;
        let buffers = levels
            .iter()
            .map(|l| LevelScratch {
                r: vec![0.0; l.a.nrows()],
                rc: vec![0.0; l.n_coarse],
                xc: vec![0.0; l.n_coarse],
            })
            .collect();
        Ok(AmgPrec {
            levels,
            coarse,
            options: options.clone(),
            scratch: RefCell::new((buffers, GroundedScratch::new())),
        })
    }

    /// Number of levels including the coarse direct solve.
    pub fn depth(&self) -> usize {
        self.levels.len() + 1
    }

    /// Damped-Jacobi sweeps: `x ← x + ω D⁻¹ (b − A x)`, with `r` as the
    /// residual buffer.
    fn smooth(&self, level: &Level, b: &[f64], x: &mut [f64], r: &mut [f64], sweeps: usize) {
        for _ in 0..sweeps {
            level.a.mul_vec_into(x, r);
            for ((xi, &bi), (&ri, &di)) in x.iter_mut().zip(b).zip(r.iter().zip(&level.inv_diag)) {
                *xi += self.options.jacobi_weight * di * (bi - ri);
            }
        }
    }

    /// One symmetric V-cycle starting at `depth`, with `buffers` the
    /// buffers of this level and every coarser one.
    fn vcycle(
        &self,
        depth: usize,
        b: &[f64],
        x: &mut [f64],
        buffers: &mut [LevelScratch],
        coarse: &mut GroundedScratch,
    ) {
        let Some((LevelScratch { r, rc, xc }, coarser)) = buffers.split_first_mut() else {
            self.coarse.solve_columns(&[b], &mut [x], coarse);
            return;
        };
        let level = &self.levels[depth];
        for xi in x.iter_mut() {
            *xi = 0.0;
        }
        self.smooth(level, b, x, r, self.options.smoothing_sweeps);
        // Residual and restriction.
        level.a.mul_vec_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        rc.fill(0.0);
        for (i, &a_of_i) in level.agg.iter().enumerate() {
            rc[a_of_i as usize] += r[i];
        }
        // Coarse correction; the next level (or the direct solve)
        // overwrites all of `xc`.
        self.vcycle(depth + 1, rc, xc, coarser, coarse);
        for (i, &a_of_i) in level.agg.iter().enumerate() {
            x[i] += xc[a_of_i as usize];
        }
        self.smooth(level, b, x, r, self.options.smoothing_sweeps);
    }
}

impl Preconditioner for AmgPrec {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(
            r.len(),
            self.levels.first().map_or(self.coarse.n(), |l| l.a.nrows()),
            "amg: dimension mismatch"
        );
        let (buffers, coarse) = &mut *self.scratch.borrow_mut();
        self.vcycle(0, r, z, buffers, coarse);
        dense::center(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pcg, JacobiPrec, PcgOptions};
    use sass_graph::generators::{circuit_grid, grid2d, WeightModel};

    fn centered_rhs(n: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        dense::center(&mut b);
        b
    }

    #[test]
    fn hierarchy_coarsens_geometrically() {
        let g = grid2d(40, 40, WeightModel::Unit, 0);
        let amg = AmgPrec::new(&g.laplacian(), &Default::default()).unwrap();
        assert!(amg.depth() >= 3, "expected a multi-level hierarchy");
        let nnz = amg.levels.iter().map(|l| l.a.nnz()).sum::<usize>() + amg.coarse.nnz_factor();
        assert!(nnz < 3 * g.laplacian().nnz());
    }

    #[test]
    fn beats_jacobi_on_mesh() {
        let g = grid2d(32, 32, WeightModel::Unit, 1);
        let l = g.laplacian();
        let b = centered_rhs(g.n(), 2);
        let opts = PcgOptions {
            tol: 1e-8,
            ..Default::default()
        };
        let amg = AmgPrec::new(&l, &Default::default()).unwrap();
        let (x, s_amg) = pcg(&l, &b, &amg, &opts);
        let (_, s_jac) = pcg(&l, &b, &JacobiPrec::new(&l), &opts);
        assert!(s_amg.converged);
        assert!(l.residual_norm(&x, &b) < 1e-6);
        assert!(
            s_amg.iterations * 2 < s_jac.iterations,
            "amg {} vs jacobi {}",
            s_amg.iterations,
            s_jac.iterations
        );
    }

    #[test]
    fn works_on_weighted_circuit_graphs() {
        let g = circuit_grid(28, 28, 0.15, 3);
        let l = g.laplacian();
        let b = centered_rhs(g.n(), 4);
        let amg = AmgPrec::new(&l, &Default::default()).unwrap();
        let (x, stats) = pcg(
            &l,
            &b,
            &amg,
            &PcgOptions {
                tol: 1e-8,
                max_iter: 2000,
                ..Default::default()
            },
        );
        assert!(stats.converged, "{stats:?}");
        assert!(l.residual_norm(&x, &b) < 1e-6);
    }

    #[test]
    fn vcycle_is_symmetric() {
        // A symmetric preconditioner satisfies z1·r2 == z2·r1.
        let g = grid2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 5);
        let amg = AmgPrec::new(&g.laplacian(), &Default::default()).unwrap();
        let r1 = centered_rhs(g.n(), 6);
        let r2 = centered_rhs(g.n(), 7);
        let mut z1 = vec![0.0; g.n()];
        let mut z2 = vec![0.0; g.n()];
        amg.apply(&r1, &mut z1);
        amg.apply(&r2, &mut z2);
        let a = dense::dot(&z1, &r2);
        let b = dense::dot(&z2, &r1);
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "asymmetry: {a} vs {b}"
        );
    }

    /// The reused buffers carry nothing between applications: one
    /// preconditioner applied 20 times gives the bits of a fresh one per
    /// application.
    #[test]
    fn reused_buffers_match_fresh_applications() {
        let g = circuit_grid(24, 24, 0.15, 2);
        let l = g.laplacian();
        let amg = AmgPrec::new(&l, &Default::default()).unwrap();
        assert!(amg.depth() >= 2);
        for k in 0..20 {
            let r = centered_rhs(g.n(), 100 + k);
            let (mut z, mut want) = (vec![0.0; g.n()], vec![0.0; g.n()]);
            amg.apply(&r, &mut z);
            AmgPrec::new(&l, &Default::default())
                .unwrap()
                .apply(&r, &mut want);
            assert!(z.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn small_matrix_is_direct_solve_only() {
        let g = grid2d(5, 5, WeightModel::Unit, 0);
        let l = g.laplacian();
        let amg = AmgPrec::new(&l, &Default::default()).unwrap();
        assert_eq!(amg.depth(), 1); // below coarse_size: pure direct
        let b = centered_rhs(25, 1);
        let mut z = vec![0.0; 25];
        amg.apply(&b, &mut z);
        assert!(l.residual_norm(&z, &b) < 1e-10);
    }

    #[test]
    fn disconnected_is_detected() {
        let g = sass_graph::Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(AmgPrec::new(&g.laplacian(), &Default::default()).is_err());
    }
}
