//! Eigensolvers for graph Laplacians and generalized Laplacian pencils.
//!
//! This crate stands in for the dense/sparse eigensolvers the paper calls
//! out to (Matlab `eigs`, i.e. ARPACK): everything is built from scratch on
//! top of the [`sass_sparse::LinearOperator`] abstraction (the substrate
//! trait; this crate reaches into `sass_solver` only where an actual
//! factorized solve is needed — the `L⁺` and pencil operators):
//!
//! - [`jacobi::dense_symmetric_eig`]: cyclic Jacobi rotations — the ground
//!   truth for validation on small matrices,
//! - [`tridiag::tridiagonal_eig`]: implicit-shift QL for the tridiagonal
//!   matrices produced by Lanczos,
//! - [`lanczos`]: symmetric Lanczos with full reorthogonalization, for the
//!   extreme eigenpairs of large sparse operators (`eigs` replacement),
//! - [`pencil`]: the generalized pencil `L_P⁺ L_G` as an operator —
//!   generalized power iterations, Rayleigh quotients and a dense
//!   generalized eigensolver for validation,
//! - [`fiedler`]: Fiedler-vector computation by inverse power iteration
//!   with either exact (direct) or PCG-preconditioned solves — the engine
//!   of the paper's Table 3 spectral partitioner.
//!
//! # Example
//!
//! Smallest nontrivial Laplacian eigenvalue of a path graph (analytically
//! `2 − 2cos(π/n)`):
//!
//! ```
//! use sass_graph::Graph;
//! use sass_eigen::fiedler::{fiedler_vector_direct, FiedlerOptions};
//! use sass_solver::GroundedSolver;
//!
//! # fn main() -> Result<(), sass_eigen::EigenError> {
//! let g = Graph::from_edges(8, &(0..7).map(|i| (i, i + 1, 1.0)).collect::<Vec<_>>())?;
//! let l = g.laplacian();
//! let solver = GroundedSolver::new(&l, Default::default())?;
//! let (lambda2, v) = fiedler_vector_direct(&l, &solver, &FiedlerOptions::default());
//! let exact = 2.0 - 2.0 * (std::f64::consts::PI / 8.0).cos();
//! assert!((lambda2 - exact).abs() < 1e-6);
//! assert_eq!(v.len(), 8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;

pub mod fiedler;
pub mod jacobi;
pub mod lanczos;
pub mod pencil;
pub mod tridiag;

pub use error::EigenError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EigenError>;
