//! # SASS — Similarity-Aware Spectral Sparsification
//!
//! A from-scratch Rust reproduction of *Z. Feng, "Similarity-Aware Spectral
//! Sparsification by Edge Filtering", DAC 2018* (arXiv:1711.05135): given a
//! weighted undirected graph and a spectral-similarity target `σ²`, compute
//! an ultra-sparse subgraph whose Laplacian pencil condition number
//! `κ(L_G, L_P)` meets the target — then use it to precondition SDD
//! solvers, accelerate spectral partitioning, and simplify large networks.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sparse`] | `sass-sparse` | CSR storage, COO assembly, sparse LDLᵀ, orderings, Matrix Market |
//! | [`graph`] | `sass-graph` | graphs, spanning trees (AKPW/Kruskal/Wilson), LCA, stretch, generators |
//! | [`solver`] | `sass-solver` | PCG, preconditioners, grounded & tree solvers |
//! | [`eigen`] | `sass-eigen` | Lanczos, power iterations, Jacobi, pencils, Fiedler |
//! | [`core`] | `sass-core` | **the paper's algorithm**: heat embedding, edge filtering, densification |
//! | [`partition`] | `sass-partition` | spectral partitioning, direct vs sparsified backends |
//! | [`gsp`] | `sass-gsp` | graph signals, low-pass verification, spectral drawing |
//! | [`serve`] | `sass-serve` | TCP sparsification service: batched solves, content-addressed cache, incremental mutation |
//!
//! # Quickstart
//!
//! ```
//! use sass::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A circuit-style graph with weights spanning orders of magnitude.
//! let g = sass::graph::generators::circuit_grid(32, 32, 0.1, 7);
//!
//! // Sparsify to relative condition number sigma^2 <= 100.
//! let sp = sparsify(&g, &SparsifyConfig::new(100.0))?;
//! assert!(sp.converged());
//!
//! // Use the sparsifier to precondition a PCG solve on the original graph.
//! let lg = g.laplacian();
//! let prec = LaplacianPrec::new(GroundedSolver::new(&sp.graph().laplacian(),
//!                                                   Default::default())?);
//! let mut b = vec![0.0; g.n()];
//! b[0] = 1.0;
//! b[g.n() - 1] = -1.0;
//! let (x, stats) = pcg(&lg, &b, &prec, &PcgOptions::default());
//! assert!(stats.converged);
//! assert!(lg.residual_norm(&x, &b) < 1e-8);
//! # Ok(())
//! # }
//! ```

pub use sass_core as core;
pub use sass_eigen as eigen;
pub use sass_graph as graph;
pub use sass_gsp as gsp;
pub use sass_partition as partition;
pub use sass_serve as serve;
pub use sass_solver as solver;
pub use sass_sparse as sparse;

// Compile-and-run every ```rust block in the README as a doctest, so the
// front-page examples cannot rot (see the docs CI job).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most common imports for working with SASS.
pub mod prelude {
    pub use sass_core::{sparsify, SimilarityPolicy, Sparsifier, SparsifyConfig};
    pub use sass_graph::{Graph, GraphBuilder, RootedTree};
    pub use sass_solver::{
        pcg, GroundedSolver, IdentityPrec, JacobiPrec, LaplacianPrec, PcgOptions,
    };
    pub use sass_sparse::{CooMatrix, CsrMatrix};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_work() {
        let g =
            crate::graph::generators::grid2d(4, 4, crate::graph::generators::WeightModel::Unit, 0);
        assert_eq!(g.n(), 16);
        let l = g.laplacian();
        assert_eq!(l.nrows(), 16);
    }
}
