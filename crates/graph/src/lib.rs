//! Weighted undirected graphs and the tree machinery behind low-stretch
//! spectral sparsification.
//!
//! This crate provides the graph substrate of the SASS workspace:
//!
//! - [`Graph`]: an immutable weighted undirected graph in CSR adjacency
//!   form, built through [`GraphBuilder`], with Laplacian export,
//! - spanning-tree extraction ([`spanning`]): maximum-weight Kruskal,
//!   BFS trees, Wilson's random spanning trees and an AKPW-style
//!   low-stretch spanning tree,
//! - [`RootedTree`] + [`LcaIndex`]: Euler-tour lowest-common-ancestor
//!   queries in O(1) and tree-path effective resistances, which together
//!   give per-edge *stretch* ([`stretch`]) — the quantity the DAC'18 paper
//!   ties to generalized eigenvalues,
//! - synthetic workload [`generators`] standing in for the SuiteSparse /
//!   network test cases of the paper (the module docs tabulate the
//!   mapping).
//!
//! # Example
//!
//! ```
//! use sass_graph::{GraphBuilder, RootedTree, spanning, stretch};
//!
//! # fn main() -> Result<(), sass_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 2.0);
//! b.add_edge(2, 3, 1.0);
//! b.add_edge(3, 0, 0.5); // cycle-closing edge
//! let g = b.build();
//! let tree_ids = spanning::max_weight_spanning_tree(&g)?;
//! let tree = RootedTree::new(&g, tree_ids, 0)?;
//! let stats = stretch::stretch_stats(&g, &tree)?;
//! assert_eq!(stats.off_tree_edges, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod graph;
mod lca;
mod tree;
mod unionfind;

pub mod generators;
pub mod spanning;
pub mod stretch;
pub mod traverse;

pub use error::GraphError;
pub use graph::{Edge, EditMap, Graph, GraphBuilder, GraphEdit};
pub use lca::LcaIndex;
pub use tree::RootedTree;
pub use unionfind::UnionFind;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
