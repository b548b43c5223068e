//! Similarity-aware spectral graph sparsification by edge filtering.
//!
//! This crate implements the primary contribution of
//! *Z. Feng, "Similarity-Aware Spectral Sparsification by Edge Filtering",
//! DAC 2018*: given a weighted undirected graph `G` and a target spectral
//! similarity `σ²`, it extracts an ultra-sparse subgraph `P` (a spanning
//! tree plus a filtered set of off-tree edges) whose relative condition
//! number `κ(L_G, L_P) = λmax/λmin` is driven below `σ²`.
//!
//! The pipeline (paper §3):
//!
//! 1. a low-stretch / spectrally-critical **spanning tree** backbone
//!    ([`sass_graph::spanning`]),
//! 2. **spectral embedding** of off-tree edges: `t`-step generalized power
//!    iterations attach a *Joule heat* to every off-tree edge
//!    ([`embedding`]),
//! 3. **edge filtering**: only edges whose normalized heat exceeds
//!    `θσ ≈ (σ²·λmin/λmax)^(2t+1)` are recovered ([`filter`]),
//! 4. **extreme eigenvalue estimation**: `λmax` by generalized power
//!    iterations, `λmin` by the node-coloring degree-ratio bound
//!    ([`extremes`]),
//! 5. **similarity-aware pruning** of mutually-redundant candidate edges
//!    ([`similarity`]),
//! 6. an **iterative graph densification** loop tying it together
//!    ([`densify`], with [`sparsify`] as the entry point).
//!
//! # Example
//!
//! ```
//! use sass_core::{sparsify, SparsifyConfig};
//! use sass_graph::generators::circuit_grid;
//!
//! # fn main() -> Result<(), sass_core::CoreError> {
//! let g = circuit_grid(24, 24, 0.1, 7);
//! let config = SparsifyConfig::new(100.0); // target sigma^2 = 100
//! let sp = sparsify(&g, &config)?;
//! assert!(sp.condition_estimate() <= 100.0);
//! assert!(sp.graph().m() < g.m());           // strictly sparser
//! assert!(sp.graph().m() >= g.n() - 1);      // at least the tree
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod config;
mod error;
mod sparsifier;

pub mod baseline;
pub mod densify;
pub mod embedding;
pub mod extremes;
pub mod filter;
pub mod fingerprint;
pub mod incremental;
pub mod similarity;
pub mod solve;

pub use config::SparsifyConfig;
pub use densify::sparsify;
pub use error::CoreError;
pub use fingerprint::{cache_key, config_fingerprint, graph_fingerprint};
pub use incremental::{ChurnReport, ChurnTotals, IncrementalSparsifier};
pub use similarity::SimilarityPolicy;
pub use solve::SparsifierSolver;
pub use sparsifier::{RoundStats, Sparsifier};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
