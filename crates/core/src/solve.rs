//! Opt-in solve strategies for sparsifier Laplacians.
//!
//! The pipeline's downstream consumers (preconditioning, embeddings,
//! effective-resistance queries) all reduce to repeated exact solves with
//! the sparsifier Laplacian `L_P`. [`SolveStrategy`] picks how those
//! solves are served:
//!
//! - [`SolveStrategy::Monolithic`] (default): one grounded LDLᵀ factor of
//!   the whole sparsifier ([`sass_solver::GroundedSolver`]).
//! - [`SolveStrategy::Sharded`]: domain-decomposed substructuring
//!   ([`sass_solver::ShardedSolver`]) — per-domain factors built
//!   concurrently around a separator Schur complement, optionally
//!   out-of-core (at most one domain factor resident). Results agree
//!   with the monolithic path to the tolerance documented in
//!   [`sass_solver::substructure`].
//!
//! The strategy lives on [`SparsifyConfig`]
//! ([`with_solve_strategy`](crate::SparsifyConfig::with_solve_strategy)),
//! and [`Sparsifier::build_solver`](crate::Sparsifier::build_solver)
//! materializes the chosen solver for a finished sparsifier.
//!
//! The monolithic solver comes for free: the last densification round
//! already factored the final `L_P` to measure it, and the
//! [`Sparsifier`] carries that factor
//! ([`grounded_solver`](crate::Sparsifier::grounded_solver)), so
//! `build_solver` clones it instead of ordering and factoring again. It
//! is the factor of `L_P` as the round assembled it, whose diagonal can
//! differ from `graph().laplacian()`'s in the last bits.

use crate::{Result, Sparsifier, SparsifyConfig};
use sass_solver::{GroundedSolver, ShardOptions, ShardedSolver};
use sass_sparse::CsrMatrix;

/// How exact solves against the sparsifier Laplacian are served — see
/// the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// One grounded LDLᵀ factorization of the whole Laplacian.
    #[default]
    Monolithic,
    /// Domain-decomposed substructured solves (vertex-separator domains,
    /// per-domain factors, separator Schur complement).
    Sharded {
        /// Requested domain count; `0` picks a size-based heuristic.
        domains: usize,
        /// Spill domain matrices to disk and keep at most one domain
        /// factor resident at a time.
        out_of_core: bool,
    },
}

/// A solver for the sparsifier Laplacian, built per
/// [`SolveStrategy`] — one exact-solve interface over both backends.
#[derive(Debug)]
pub enum SparsifierSolver {
    /// The monolithic grounded factorization.
    Grounded(Box<GroundedSolver>),
    /// The substructured (domain-decomposed) solver.
    Sharded(Box<ShardedSolver>),
}

impl SparsifierSolver {
    /// Builds the solver chosen by `config.solve_strategy` for the
    /// Laplacian `l`, using `config.ordering` for every sparse factor.
    ///
    /// # Errors
    ///
    /// Propagates solver construction failures
    /// ([`CoreError::Solver`](crate::CoreError::Solver) — singular
    /// grounded system, spill I/O).
    pub fn build(l: &CsrMatrix, config: &SparsifyConfig) -> Result<Self> {
        match config.solve_strategy {
            SolveStrategy::Monolithic => Ok(SparsifierSolver::Grounded(Box::new(
                GroundedSolver::new(l, config.ordering)?,
            ))),
            SolveStrategy::Sharded {
                domains,
                out_of_core,
            } => {
                let opts = ShardOptions {
                    domains,
                    out_of_core,
                    spill_dir: None,
                };
                Ok(SparsifierSolver::Sharded(Box::new(ShardedSolver::new(
                    l,
                    config.ordering,
                    &opts,
                )?)))
            }
        }
    }

    /// Short lowercase strategy name for bench labels and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            SparsifierSolver::Grounded(_) => "monolithic",
            SparsifierSolver::Sharded(_) => "sharded",
        }
    }

    /// Dimension of the system.
    pub fn n(&self) -> usize {
        match self {
            SparsifierSolver::Grounded(s) => s.n(),
            SparsifierSolver::Sharded(s) => s.n(),
        }
    }

    /// Solves `L x = center(b)`, returning the mean-zero solution
    /// `L⁺ b` (both strategies share the grounded convention).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            SparsifierSolver::Grounded(s) => s.solve(b),
            SparsifierSolver::Sharded(s) => s.solve(b),
        }
    }

    /// Solves against many right-hand sides through the strategy's
    /// blocked multi-RHS path.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self {
            SparsifierSolver::Grounded(s) => s.solve_many(rhs),
            SparsifierSolver::Sharded(s) => s.solve_many(rhs),
        }
    }

    /// Approximate resident memory held by the factorization(s), in
    /// bytes. For an out-of-core sharded solver this is the currently
    /// resident footprint, not the on-disk total.
    pub fn memory_bytes(&self) -> usize {
        match self {
            SparsifierSolver::Grounded(s) => s.memory_bytes(),
            SparsifierSolver::Sharded(s) => s.memory_bytes(),
        }
    }
}

impl Sparsifier {
    /// Materializes the exact solver for this sparsifier's Laplacian,
    /// honoring the configuration's
    /// [`solve_strategy`](SparsifyConfig::solve_strategy).
    ///
    /// Under [`SolveStrategy::Monolithic`] this clones the factor the
    /// sparsifier carries ([`Sparsifier::grounded_solver`]): it factors
    /// `L_P` as the last densification round assembled it, so solves
    /// agree with a fresh factor of `graph().laplacian()` to rounding,
    /// not bit for bit. The sharded strategy, and a sparsifier of at most
    /// one vertex, build a solver from `graph().laplacian()`.
    ///
    /// # Errors
    ///
    /// Propagates solver construction failures (see
    /// [`SparsifierSolver::build`]).
    ///
    /// # Example
    ///
    /// ```
    /// use sass_core::{sparsify, SolveStrategy, SparsifyConfig};
    /// use sass_graph::generators::{grid2d, WeightModel};
    ///
    /// # fn main() -> Result<(), sass_core::CoreError> {
    /// let g = grid2d(12, 12, WeightModel::Unit, 1);
    /// let config = SparsifyConfig::new(200.0)
    ///     .with_solve_strategy(SolveStrategy::Sharded { domains: 3, out_of_core: false });
    /// let sp = sparsify(&g, &config)?;
    /// let solver = sp.build_solver()?;
    /// assert_eq!(solver.name(), "sharded");
    /// let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64).sin()).collect();
    /// sass_sparse::dense::center(&mut b);
    /// let x = solver.solve(&b);
    /// assert!(sp.graph().laplacian().residual_norm(&x, &b) < 1e-8);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_solver(&self) -> Result<SparsifierSolver> {
        match (&self.solver, self.config.solve_strategy) {
            (Some(solver), SolveStrategy::Monolithic) => {
                Ok(SparsifierSolver::Grounded(Box::new(solver.clone())))
            }
            _ => SparsifierSolver::build(&self.graph.laplacian(), &self.config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsify;
    use sass_graph::generators::{circuit_grid, grid2d, WeightModel};
    use sass_sparse::dense;

    #[test]
    fn strategies_agree_on_a_sparsifier() {
        let g = grid2d(14, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let mono_cfg = SparsifyConfig::new(150.0);
        let sp = sparsify(&g, &mono_cfg).unwrap();
        let mono = sp.build_solver().unwrap();
        assert_eq!(mono.name(), "monolithic");
        let shard_cfg = mono_cfg
            .clone()
            .with_solve_strategy(SolveStrategy::Sharded {
                domains: 4,
                out_of_core: false,
            });
        let sharded = SparsifierSolver::build(&sp.graph().laplacian(), &shard_cfg).unwrap();
        assert_eq!(sharded.name(), "sharded");
        assert_eq!(mono.n(), sharded.n());
        let mut b: Vec<f64> = (0..g.n())
            .map(|i| ((i * 5 % 17) as f64 * 0.21).cos())
            .collect();
        dense::center(&mut b);
        assert!(dense::rel_diff(&mono.solve(&b), &sharded.solve(&b)) < 1e-8);
        let rhs = vec![b.clone(), b.iter().map(|v| -v).collect()];
        let mm = mono.solve_many(&rhs);
        let sm = sharded.solve_many(&rhs);
        for (a, b) in mm.iter().zip(&sm) {
            assert!(dense::rel_diff(a, b) < 1e-8);
        }
        assert!(mono.memory_bytes() > 0);
        assert!(sharded.memory_bytes() > 0);
    }

    #[test]
    fn out_of_core_strategy_round_trips() {
        let g = grid2d(10, 10, WeightModel::Unit, 5);
        let cfg = SparsifyConfig::new(150.0).with_solve_strategy(SolveStrategy::Sharded {
            domains: 3,
            out_of_core: true,
        });
        let sp = sparsify(&g, &cfg).unwrap();
        let solver = sp.build_solver().unwrap();
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.4).sin()).collect();
        dense::center(&mut b);
        let x = solver.solve(&b);
        assert!(sp.graph().laplacian().residual_norm(&x, &b) < 1e-8);
    }

    /// `build_solver` hands out the factor the last round built. It must
    /// solve as a fresh factor of `graph().laplacian()` does, up to the
    /// rounding of the diagonal's summation order, with the same fill.
    fn assert_carried_factor_matches_fresh(sp: &Sparsifier) {
        let SparsifierSolver::Grounded(carried) = sp.build_solver().unwrap() else {
            panic!("expected the monolithic solver");
        };
        let fresh = GroundedSolver::new(&sp.graph().laplacian(), sp.config().ordering).unwrap();
        assert_eq!(carried.nnz_factor(), fresh.nnz_factor());
        let mut b: Vec<f64> = (0..sp.graph().n())
            .map(|i| ((i * 7 % 23) as f64 * 0.37).sin())
            .collect();
        dense::center(&mut b);
        let diff = dense::rel_diff(&carried.solve(&b), &fresh.solve(&b));
        assert!(diff < 1e-12, "relative difference {diff:e}");
    }

    #[test]
    fn build_solver_reuses_the_converged_factor() {
        let g = circuit_grid(20, 20, 0.15, 11);
        let sp = sparsify(&g, &SparsifyConfig::new(30.0)).unwrap();
        assert!(sp.converged());
        assert_carried_factor_matches_fresh(&sp);
    }

    #[test]
    fn build_solver_reuses_the_remeasured_factor() {
        // One round cannot reach σ² here: the loop adds its edges and
        // re-measures, and that factor is the one carried.
        let g = grid2d(24, 24, WeightModel::Unit, 2);
        let config = SparsifyConfig::new(30.0)
            .with_max_add_frac(0.05)
            .with_max_rounds(1);
        let sp = sparsify(&g, &config).unwrap();
        assert_eq!(sp.rounds().len(), 2);
        assert!(sp.rounds()[1].edges > sp.rounds()[0].edges);
        assert_carried_factor_matches_fresh(&sp);
    }

    #[test]
    fn default_strategy_is_monolithic() {
        assert_eq!(SolveStrategy::default(), SolveStrategy::Monolithic);
        assert_eq!(
            SparsifyConfig::default().solve_strategy,
            SolveStrategy::Monolithic
        );
    }
}
