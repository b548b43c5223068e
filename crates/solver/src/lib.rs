//! Linear solvers for SDD / graph-Laplacian systems.
//!
//! The sparsification pipeline needs two kinds of solves:
//!
//! 1. **Exact solves with the sparsifier** `L_P x = b` — used inside
//!    generalized power iterations and as the preconditioner application.
//!    [`GroundedSolver`] does this by *grounding* one vertex (deleting its
//!    row/column, which makes the Laplacian SPD for a connected graph),
//!    eliminating the rest, and re-centering solutions against the
//!    all-ones nullspace. One elimination serves every matrix: the peel
//!    removes every vertex of degree at most two in `O(n + nnz)` —
//!    pendant trees leaf to root, then degree-2 chains with at most one
//!    fill entry each — and only the remaining core is ordered and
//!    factored with the sparse LDLᵀ from [`sass_sparse`]. A spanning
//!    tree's Laplacian (the first densification round) peels whole.
//!    [`AmgPrec`] is the aggregation-based algebraic-multigrid alternative
//!    (the paper's LAMG/SAMG role).
//! 2. **Iterative solves with the original graph** `L_G x = b` — the
//!    preconditioned conjugate gradient ([`pcg`]) with a pluggable
//!    [`Preconditioner`] (identity, Jacobi, or an exact grounded solve
//!    with a sparsifier or a spanning tree).
//!
//! # Example
//!
//! Solve a Laplacian system with PCG preconditioned by an exact factorization
//! of the same Laplacian (converges in one iteration):
//!
//! ```
//! use sass_graph::generators::{grid2d, WeightModel};
//! use sass_solver::{pcg, GroundedSolver, LaplacianPrec, PcgOptions};
//!
//! # fn main() -> Result<(), sass_solver::SolverError> {
//! let g = grid2d(8, 8, WeightModel::Unit, 0);
//! let l = g.laplacian();
//! let solver = GroundedSolver::new(&l, Default::default())?;
//! let prec = LaplacianPrec::new(solver);
//! let mut b: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
//! sass_sparse::dense::center(&mut b);
//! let (x, stats) = pcg(&l, &b, &prec, &PcgOptions::default());
//! assert!(stats.converged);
//! assert!(stats.iterations <= 2);
//! assert!(l.residual_norm(&x, &b) < 1e-6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod amg;
mod error;
mod grounded;
mod pcg;
mod peel;
mod preconditioner;

pub use amg::{AmgOptions, AmgPrec};
pub use error::SolverError;
pub use grounded::{GroundedScratch, GroundedSolver};
pub use pcg::{pcg, pcg_scratch, PcgOptions, PcgScratch, SolveStats};
pub use preconditioner::{IdentityPrec, JacobiPrec, LaplacianPrec, Preconditioner};
// `LinearOperator` is re-exported for compatibility: the trait moved down
// into `sass-sparse` (operators are a substrate primitive, not a solver
// concern), and new code should name it from there.
pub use sass_sparse::LinearOperator;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolverError>;
