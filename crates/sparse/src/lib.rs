//! Sparse symmetric linear-algebra substrate for the SASS workspace.
//!
//! This crate provides everything the spectral-sparsification pipeline needs
//! from a sparse linear-algebra library, implemented from scratch:
//!
//! - [`CooMatrix`]: triplet assembly format with duplicate summing,
//! - [`CsrMatrix`]: compressed sparse row storage with matrix-vector kernels
//!   (threaded above a size crossover — see [`CsrMatrix::par_mul_vec_into`]),
//! - [`kernel`]: the shared `f64` loops of the hot paths — the CSR SpMV
//!   row gather, Joule-heat scoring and the heat-filter scan — one
//!   portable implementation each with a fixed summation order, plus the
//!   [`kernel::AlignedVec`] cache-line-aligned buffer behind
//!   [`DenseBlock`] storage (kept because a plain `Vec` measured slower
//!   end to end; see [`DenseBlock`]),
//! - [`pool`]: the persistent worker pool every parallel kernel in the
//!   workspace dispatches through — parked OS threads woken per dispatch
//!   (no per-call spawn), with deterministic span-ordered reduction and a
//!   `SASS_THREADS` override; `sass-graph` stretch, `sass-core` heat
//!   scoring/filtering, and `sass-solver` block passes all ride on it,
//! - [`LinearOperator`]: the matrix-free `y = A x` abstraction every
//!   iterative method in the workspace is built on,
//! - [`LdlFactor`]: an up-looking sparse `L D Lᵀ` factorization
//!   (CSparse/LDL style) with elimination-tree symbolic analysis, including
//!   blocked multi-right-hand-side solves over [`DenseBlock`] multivectors
//!   (one factor sweep per [`LDL_BLOCK_WIDTH`] columns); the numeric phase
//!   and both triangular sweeps run on a subtree-to-lane partition of the
//!   elimination tree ([`etree`]), one pool dispatch per phase,
//! - [`DenseBlock`]: a column-major dense multivector, the carrier type for
//!   every batched-RHS API in the workspace,
//! - fill-reducing orderings ([`ordering`]): reverse Cuthill–McKee,
//!   approximate minimum degree, and BFS-separator nested dissection,
//! - [`Permutation`]: composable row/column permutations,
//! - [`mmio`]: Matrix Market coordinate-format reading and writing,
//! - [`dense`]: the handful of dense vector kernels (dot, axpy, norms,
//!   mean-centering) used by every iterative method in the workspace.
//!
//! # Example
//!
//! Assemble a small symmetric positive definite matrix, factorize and solve:
//!
//! ```
//! use sass_sparse::{CooMatrix, LdlFactor, ordering::OrderingKind};
//!
//! # fn main() -> Result<(), sass_sparse::SparseError> {
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 4.0); coo.push(1, 1, 4.0); coo.push(2, 2, 4.0);
//! coo.push(0, 1, 1.0); coo.push(1, 0, 1.0);
//! coo.push(1, 2, 1.0); coo.push(2, 1, 1.0);
//! let a = coo.to_csr();
//! let f = LdlFactor::new(&a, OrderingKind::MinDegree)?;
//! let x = f.solve(&[6.0, 12.0, 9.0]);
//! let r = a.residual_norm(&x, &[6.0, 12.0, 9.0]);
//! assert!(r < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod block;
pub mod config;
mod coo;
mod csr;
mod error;
mod ldl;
mod operator;
mod parallel;
mod perm;

pub mod dense;
pub mod etree;
pub mod kernel;
pub mod mmio;
pub mod ordering;
pub mod pool;

pub use block::DenseBlock;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use ldl::{LdlFactor, RefactorOutcome, RefactorStats, LDL_BLOCK_WIDTH};
pub use operator::LinearOperator;
pub use perm::Permutation;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
