//! Batched, caching sparsification service over TCP.
//!
//! This crate turns the library pipeline into a long-lived server: a
//! client submits a graph once, gets back a content-addressed cache
//! key, and then issues solves and graph edits against the warm
//! sparsifier/factorization that key names. Three properties carry the
//! design (see `docs/PROTOCOL.md` for the wire format and
//! `ARCHITECTURE.md` for where this sits in the workspace):
//!
//! - **Solve batching.** Concurrent solve requests against the same
//!   cached factor are coalesced into one blocked multi-RHS pass
//!   ([`GroundedSolver::solve_columns`](sass_solver::GroundedSolver::solve_columns)),
//!   so the factor's forward/backward sweeps are shared across clients
//!   instead of re-walked once per right-hand side. The executor drains
//!   everything queued as soon as it wakes; requests that arrive during
//!   a pass join the next one, so nothing waits for a batch to form.
//! - **Content-addressed caching with incremental mutation.** Entries
//!   are keyed by [`sass_core::cache_key`] (canonical graph × config
//!   fingerprint) and bounded by an LRU byte budget. A mutate request
//!   routes through the live entry's
//!   [`IncrementalSparsifier::apply_edits`](sass_core::IncrementalSparsifier::apply_edits)
//!   — localized re-scoring plus etree-subtree factor patching, cost
//!   proportional to the change — and re-keys the entry, never
//!   rebuilding from scratch.
//! - **Structured failure.** Per-request limits (vertex/edge counts,
//!   rhs columns, frame bytes, queue deadlines) reject work with typed
//!   [`ErrorCode`] frames rather than dropped connections.
//!
//! Everything is hand-rolled on `std` (`TcpListener`, threads,
//! channels): the build environment has no registry access, so there is
//! no tokio, serde, or tower behind this — see
//! [`protocol`] for the frame codec.
//!
//! # Quickstart
//!
//! ```
//! use sass_serve::{serve, Client, ServerConfig, SparsifyParams, WireGraph};
//!
//! # fn main() -> Result<(), sass_serve::ServeError> {
//! let server = serve(ServerConfig::default())?; // binds 127.0.0.1:0
//! let mut client = Client::connect(server.addr())?;
//!
//! // Submit a 4-cycle with one chord; get back a cache key.
//! let graph = WireGraph {
//!     n: 4,
//!     edges: vec![
//!         (0, 1, 1.0),
//!         (1, 2, 1.0),
//!         (2, 3, 1.0),
//!         (0, 3, 1.0),
//!         (0, 2, 0.5),
//!     ],
//! };
//! let params = SparsifyParams { sigma2: 100.0, seed: 7 };
//! let receipt = client.sparsify(params, graph)?;
//!
//! // Solve L_P x = b against the cached factor.
//! let b = vec![1.0, -1.0, 0.5, -0.5];
//! let solved = client.solve(receipt.key, b, 0)?;
//! assert_eq!(solved.xs[0].len(), 4);
//!
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use cache::SparsifierCache;
pub use client::{Client, MutateReceipt, Solved, SparsifyReceipt};
pub use error::{ServeError, ServeResult};
pub use protocol::{
    CacheOutcome, ErrorCode, Request, Response, ServerStats, SparsifyParams, WireEdit, WireGraph,
    PROTOCOL_VERSION,
};
pub use server::{serve, Limits, ServerConfig, ServerHandle};
