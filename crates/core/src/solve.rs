//! The exact solver handed out for a finished sparsifier.
//!
//! The pipeline's downstream consumers (preconditioning, embeddings,
//! effective-resistance queries) all reduce to repeated exact solves with
//! the sparsifier Laplacian `L_P`. One grounded LDLᵀ factor of the whole
//! sparsifier ([`sass_solver::GroundedSolver`]) serves them.
//!
//! That factor comes for free: the last densification round already
//! factored the final `L_P` to measure it, and the [`Sparsifier`] carries
//! that factor ([`grounded_solver`](crate::Sparsifier::grounded_solver)),
//! so [`build_solver`](crate::Sparsifier::build_solver) clones it instead
//! of ordering and factoring again. It is the factor of `L_P` as the
//! round assembled it, whose diagonal can differ from
//! `graph().laplacian()`'s in the last bits.

use crate::{Result, Sparsifier};
use sass_solver::GroundedSolver;

/// The solver [`Sparsifier::build_solver`] returns: always
/// [`SparsifierSolver::Grounded`].
///
/// Nothing constructs the `Sharded` variant, and no value of it can
/// exist: it holds [`std::convert::Infallible`]. It stays only because
/// the end-to-end benchmark's adapter (`perfbench/src/local.rs`) names it
/// in a `match`. The next change that may edit the benchmark deletes the
/// variant, and this enum with it, so that `build_solver` returns the
/// [`GroundedSolver`] itself. Until then,
/// `let SparsifierSolver::Grounded(solver) = sp.build_solver()?;` is an
/// irrefutable pattern.
#[derive(Debug)]
pub enum SparsifierSolver {
    /// The grounded LDLᵀ factorization of the sparsifier Laplacian.
    Grounded(Box<GroundedSolver>),
    /// Uninhabited; see the type's docs.
    Sharded(std::convert::Infallible),
}

impl Sparsifier {
    /// Returns the exact solver for this sparsifier's Laplacian.
    ///
    /// It clones the factor the sparsifier carries
    /// ([`Sparsifier::grounded_solver`]): that factors `L_P` as the last
    /// densification round assembled it, so solves agree with a fresh
    /// factor of `graph().laplacian()` to rounding, not bit for bit. A
    /// sparsifier of at most one vertex carries no factor, and this
    /// factors `graph().laplacian()` afresh.
    ///
    /// # Errors
    ///
    /// [`CoreError::Solver`](crate::CoreError::Solver) when that fresh
    /// factorization fails, as it does for the empty graph.
    ///
    /// # Example
    ///
    /// ```
    /// use sass_core::{sparsify, SparsifierSolver, SparsifyConfig};
    /// use sass_graph::generators::{grid2d, WeightModel};
    ///
    /// # fn main() -> Result<(), sass_core::CoreError> {
    /// let g = grid2d(12, 12, WeightModel::Unit, 1);
    /// let sp = sparsify(&g, &SparsifyConfig::new(200.0))?;
    /// let SparsifierSolver::Grounded(solver) = sp.build_solver()?;
    /// let mut b: Vec<f64> = (0..g.n()).map(|i| (i as f64).sin()).collect();
    /// sass_sparse::dense::center(&mut b);
    /// let x = solver.solve(&b);
    /// assert!(sp.graph().laplacian().residual_norm(&x, &b) < 1e-8);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_solver(&self) -> Result<SparsifierSolver> {
        let solver = match &self.solver {
            Some(solver) => solver.clone(),
            None => GroundedSolver::new(&self.graph.laplacian(), self.config.ordering)?,
        };
        Ok(SparsifierSolver::Grounded(Box::new(solver)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sparsify, SparsifyConfig};
    use sass_graph::generators::{circuit_grid, grid2d, WeightModel};
    use sass_sparse::dense;

    /// `build_solver` hands out the factor the last round built. It must
    /// solve as a fresh factor of `graph().laplacian()` does, up to the
    /// rounding of the diagonal's summation order, with the same fill.
    fn assert_carried_factor_matches_fresh(sp: &Sparsifier) {
        let SparsifierSolver::Grounded(carried) = sp.build_solver().unwrap();
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
}
