//! Graph signal processing utilities (paper §3.4).
//!
//! The paper frames spectral sparsification as a **low-pass graph filter**:
//! the sparsifier preserves smooth ("low-frequency") signals — combinations
//! of Laplacian eigenvectors with small eigenvalues — much more faithfully
//! than oscillatory ones. This crate provides the vocabulary to state and
//! measure that claim, plus the spectral drawing used in the paper's
//! Fig. 1:
//!
//! - [`signal`]: synthetic smooth/oscillatory signal generators
//!   (smoothness is the Laplacian quadratic form),
//! - [`filtering`]: per-frequency-band quadratic-form preservation between
//!   a graph and its sparsifier,
//! - [`drawing`]: spectral drawings (first two nontrivial eigenvectors as
//!   coordinates) with an ASCII renderer,
//! - [`chebyshev`]: explicit polynomial graph filters (low-pass, heat
//!   kernel) — the reference filters the sparsifier is compared against.

#![deny(missing_docs)]

pub mod chebyshev;
pub mod drawing;
pub mod filtering;
pub mod signal;

pub use sass_eigen::EigenError;

/// Crate-wide result alias (errors come from the eigensolvers).
pub type Result<T> = std::result::Result<T, EigenError>;
