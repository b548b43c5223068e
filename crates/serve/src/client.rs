//! Blocking client for the sass-serve protocol.
//!
//! One request/response exchange per call over a single connection.
//! Each method sends a frame, blocks on the answer, and surfaces
//! structured server errors as [`ServeError::Remote`] — so a Rust
//! `match` on the [`ErrorCode`](crate::protocol::ErrorCode) replaces
//! any message-text parsing. The connection can be reused across calls
//! and across cache keys; the server batches concurrent solves across
//! connections, so parallelism comes from running several clients (one
//! per thread), not from pipelining on one socket.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    read_frame, write_frame, CacheOutcome, Request, Response, ServerStats, SparsifyParams,
    WireEdit, WireGraph, MAX_FRAME_BYTES_CEILING,
};
use crate::{ServeError, ServeResult};

/// Result of a sparsify call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparsifyReceipt {
    /// Cache key addressing the entry in later solve/mutate calls.
    pub key: u64,
    /// Vertex count.
    pub n: u64,
    /// Edges selected into the sparsifier.
    pub selected_edges: u64,
    /// Spanning-tree backbone edges.
    pub tree_edges: u64,
    /// Whether the entry was served warm or built by this call.
    pub cache: CacheOutcome,
}

/// Result of a mutate call, echoing the incremental layer's
/// [`ChurnReport`](sass_core::ChurnReport) so callers can observe that
/// the edit was served proportional-to-change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateReceipt {
    /// The entry's new cache key (use it for subsequent solves).
    pub key: u64,
    /// Edge heats re-scored against the frozen embedding.
    pub dirty_edges: u64,
    /// Whether the selected edge set changed.
    pub selection_changed: bool,
    /// Factor columns re-factorized (0 = factor untouched).
    pub cols_refactored: u64,
    /// Total factor columns (reuse denominator; 0 = factor untouched).
    pub cols_total: u64,
    /// Whether the patch fell back to a full numeric pass.
    pub full_refactor: bool,
}

/// A solved system plus the observed batching.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// Mean-zero solutions, one per requested column.
    pub xs: Vec<Vec<f64>>,
    /// Total columns coalesced into the factor pass that served this
    /// request (> number of requested columns means the server batched
    /// this request with concurrent ones).
    pub batch_cols: u32,
}

/// A blocking connection to a sass-serve server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request frames must leave immediately — a held request would
        // add Nagle/delayed-ACK latency to every round-trip.
        stream.set_nodelay(true)?;
        // Mirror the server's 64 KiB stream buffers: solve frames carry
        // n-length f64 arrays.
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    fn round_trip(&mut self, req: &Request) -> ServeResult<Response> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader, MAX_FRAME_BYTES_CEILING)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            ))
        })?;
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    fn unexpected(resp: Response) -> ServeError {
        ServeError::Protocol {
            context: format!("unexpected response kind: {resp:?}"),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O, protocol, or remote errors as [`ServeError`].
    pub fn ping(&mut self) -> ServeResult<()> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Submits a graph for sparsification; returns the cache key to
    /// solve and mutate against.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with `LimitExceeded`, `InvalidGraph` or
    /// `SolverFailure`; transport failures as I/O errors.
    pub fn sparsify(
        &mut self,
        params: SparsifyParams,
        graph: WireGraph,
    ) -> ServeResult<SparsifyReceipt> {
        match self.round_trip(&Request::Sparsify { params, graph })? {
            Response::SparsifyOk {
                key,
                n,
                selected_edges,
                tree_edges,
                cache,
            } => Ok(SparsifyReceipt {
                key,
                n,
                selected_edges,
                tree_edges,
                cache,
            }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Solves `L_P x = b` against the cached sparsifier factor.
    /// `deadline_ms = 0` uses the server's default queue deadline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with `UnknownKey`, `DeadlineExceeded`,
    /// `InvalidGraph` (rhs length mismatch) or `LimitExceeded`.
    pub fn solve(&mut self, key: u64, rhs: Vec<f64>, deadline_ms: u32) -> ServeResult<Solved> {
        match self.round_trip(&Request::Solve {
            key,
            deadline_ms,
            rhs,
        })? {
            Response::SolveOk { x, batch_cols } => Ok(Solved {
                xs: vec![x],
                batch_cols,
            }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Solves against many right-hand sides in one request (the server
    /// runs them — plus any concurrently queued solves on the same key
    /// — through one blocked pass). Every column must have the same
    /// length.
    ///
    /// # Errors
    ///
    /// As [`Client::solve`], plus [`ServeError::Protocol`], without
    /// contacting the server, when the columns differ in length: the
    /// wire carries one row count for the whole block, so ragged columns
    /// would reach the server re-chunked.
    pub fn solve_many(
        &mut self,
        key: u64,
        rhs: Vec<Vec<f64>>,
        deadline_ms: u32,
    ) -> ServeResult<Solved> {
        let rows = rhs.first().map_or(0, Vec::len);
        if let Some(col) = rhs.iter().position(|c| c.len() != rows) {
            return Err(ServeError::Protocol {
                context: format!(
                    "solve_many column {col} has {} rows, column 0 has {rows}",
                    rhs[col].len()
                ),
            });
        }
        match self.round_trip(&Request::SolveMany {
            key,
            deadline_ms,
            rhs,
        })? {
            Response::SolveManyOk { xs, batch_cols } => Ok(Solved { xs, batch_cols }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Applies an edit batch to the cached entry through the
    /// incremental sparsifier and returns the entry's new key.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with `UnknownKey`, `InvalidGraph` (the
    /// batch was rejected; entry unchanged) or `SolverFailure` (the
    /// patched factorization failed; entry dropped).
    pub fn mutate(&mut self, key: u64, edits: Vec<WireEdit>) -> ServeResult<MutateReceipt> {
        match self.round_trip(&Request::Mutate { key, edits })? {
            Response::MutateOk {
                key,
                dirty_edges,
                selection_changed,
                cols_refactored,
                cols_total,
                full_refactor,
            } => Ok(MutateReceipt {
                key,
                dirty_edges,
                selection_changed,
                cols_refactored,
                cols_total,
                full_refactor,
            }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Drops a cache entry; returns whether one existed.
    ///
    /// # Errors
    ///
    /// Transport failures as [`ServeError::Io`].
    pub fn invalidate(&mut self, key: u64) -> ServeResult<bool> {
        match self.round_trip(&Request::Invalidate { key })? {
            Response::InvalidateOk { existed } => Ok(existed),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Snapshots the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failures as [`ServeError::Io`].
    pub fn stats(&mut self) -> ServeResult<ServerStats> {
        match self.round_trip(&Request::Stats)? {
            Response::StatsOk(s) => Ok(s),
            other => Err(Self::unexpected(other)),
        }
    }
}
