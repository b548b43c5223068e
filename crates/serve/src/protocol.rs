//! The sass-serve wire protocol: length-prefixed frames over a byte
//! stream, little-endian fields, and one table that describes every
//! message.
//!
//! `docs/PROTOCOL.md` is the normative reference; this module is its
//! implementation. The essentials:
//!
//! ```text
//! frame    := len:u32le  payload                (len = payload byte count)
//! payload  := version:u8  kind:u8  body
//! ```
//!
//! Integers are little-endian; `f64` travels as its IEEE-754 bit pattern
//! in little-endian byte order (exact — no text round-trip). Request
//! kinds sit below `0x80`, response kinds at or above it.
//!
//! Each message is described once. One message table lists every kind
//! byte with the message's fields in wire order, and a macro generates
//! [`Request::encode`]/[`Request::decode`] and
//! [`Response::encode`]/[`Response::decode`] from it. Each field type
//! knows its own wire form through a private `Wire` trait (`put`
//! appends it, `get` reads it back), so a layout lives in one place and
//! encode and decode cannot drift apart.
//!
//! Decoding is defensive end to end: every read is bounds-checked, every
//! counted sequence charges each element its wire size against the
//! remaining payload *before* allocating (a hostile count cannot trigger
//! a huge `Vec` reserve), and trailing garbage after a well-formed body
//! is rejected so frame corruption surfaces immediately instead of
//! desynchronizing the stream.

use std::io::{Read, Write};

use crate::{ServeError, ServeResult};

/// Protocol version carried in every frame. See `docs/PROTOCOL.md` for
/// the versioning rules (a server rejects frames whose version it does
/// not speak with [`ErrorCode::UnsupportedVersion`]).
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling a frame length is validated against before any
/// allocation, independent of the configured per-server limit.
pub const MAX_FRAME_BYTES_CEILING: u32 = 1 << 30;

/// Graph payload: vertex count plus an edge list.
///
/// The server canonicalizes through [`sass_graph::Graph`] construction
/// (sorting, merging parallel edges, rejecting self-loops and
/// non-positive weights), so the wire form does not need to be
/// canonical — but the cache key is computed from the *canonical* graph,
/// so equivalent submissions in any edge order share an entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGraph {
    /// Vertex count.
    pub n: u64,
    /// Undirected weighted edges `(u, v, weight)`.
    pub edges: Vec<(u32, u32, f64)>,
}

/// Sparsification parameters a request may set; everything else stays
/// at the [`sass_core::SparsifyConfig`] defaults.
///
/// `sigma2` is the paper's quality/size dial: lower targets keep more
/// edges and condition the solves better, higher targets sparsify
/// harder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsifyParams {
    /// Target spectral similarity `σ²` (must be finite and `> 1`).
    pub sigma2: f64,
    /// Seed for the randomized pieces (probe vectors).
    pub seed: u64,
}

impl SparsifyParams {
    /// The corresponding pipeline configuration.
    pub fn to_config(self) -> sass_core::SparsifyConfig {
        sass_core::SparsifyConfig::new(self.sigma2).with_seed(self.seed)
    }
}

/// One graph edit, mirroring [`sass_graph::GraphEdit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEdit {
    /// Insert (or weight-merge onto) edge `{u, v}`.
    Add {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
        /// Positive finite weight to add.
        weight: f64,
    },
    /// Remove edge `{u, v}` entirely.
    Remove {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
}

impl WireEdit {
    /// Converts to the graph layer's edit type.
    pub fn to_graph_edit(self) -> sass_graph::GraphEdit {
        match self {
            WireEdit::Add { u, v, weight } => sass_graph::GraphEdit::AddEdge {
                u: u as usize,
                v: v as usize,
                weight,
            },
            WireEdit::Remove { u, v } => sass_graph::GraphEdit::RemoveEdge {
                u: u as usize,
                v: v as usize,
            },
        }
    }
}

/// Structured error category carried in an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad layout, bad counts,
    /// trailing bytes). The server answers and keeps the connection
    /// open: the length prefix delimited the bad frame, so stream
    /// framing is intact.
    Malformed = 1,
    /// The frame's version byte is not spoken by this server.
    UnsupportedVersion = 2,
    /// A per-request resource limit was exceeded (frame size, vertex or
    /// edge count, right-hand-side columns).
    LimitExceeded = 3,
    /// No cache entry under the given key (never built, evicted, or
    /// invalidated) — resubmit the graph via a sparsify request.
    UnknownKey = 4,
    /// The solve missed its deadline while queued (the server did not
    /// start work on it).
    DeadlineExceeded = 5,
    /// The submitted graph or parameters were rejected by the pipeline
    /// (disconnected graph, invalid weights, nonsensical `σ²`, an edit
    /// batch that disconnects the graph).
    InvalidGraph = 6,
    /// Factorization failed on a structurally valid request.
    SolverFailure = 7,
    /// The request kind byte is not known to this server.
    UnknownKind = 8,
    /// Unexpected internal failure (executor gone, poisoned state).
    Internal = 9,
}

impl ErrorCode {
    /// Every code, in numeric order.
    const ALL: [ErrorCode; 9] = [
        ErrorCode::Malformed,
        ErrorCode::UnsupportedVersion,
        ErrorCode::LimitExceeded,
        ErrorCode::UnknownKey,
        ErrorCode::DeadlineExceeded,
        ErrorCode::InvalidGraph,
        ErrorCode::SolverFailure,
        ErrorCode::UnknownKind,
        ErrorCode::Internal,
    ];
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::LimitExceeded => "limit-exceeded",
            ErrorCode::UnknownKey => "unknown-key",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::InvalidGraph => "invalid-graph",
            ErrorCode::SolverFailure => "solver-failure",
            ErrorCode::UnknownKind => "unknown-kind",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Submit a graph for sparsification; builds (or finds) the cache
    /// entry and returns its key.
    Sparsify {
        /// Quality dial and seed.
        params: SparsifyParams,
        /// The graph to sparsify.
        graph: WireGraph,
    },
    /// Solve `L_P x = b` against the cached sparsifier factor.
    Solve {
        /// Cache key from a sparsify/mutate response.
        key: u64,
        /// Per-request queue deadline in milliseconds (`0` = server
        /// default).
        deadline_ms: u32,
        /// Right-hand side (length must equal the graph's vertex count).
        rhs: Vec<f64>,
    },
    /// Solve against many right-hand sides in one request.
    SolveMany {
        /// Cache key from a sparsify/mutate response.
        key: u64,
        /// Per-request queue deadline in milliseconds (`0` = server
        /// default).
        deadline_ms: u32,
        /// Right-hand sides, each of vertex-count length.
        ///
        /// Every column must have the same length: the wire carries one
        /// `rows` count (the first column's length) and the columns back
        /// to back, so ragged columns would decode re-chunked.
        /// [`Client::solve_many`](crate::Client::solve_many) rejects them
        /// before sending.
        rhs: Vec<Vec<f64>>,
    },
    /// Edit the cached entry's graph in place through the incremental
    /// sparsifier; re-keys the entry and returns the new key.
    Mutate {
        /// Cache key of the entry to edit.
        key: u64,
        /// Edit batch, applied atomically.
        edits: Vec<WireEdit>,
    },
    /// Drop a cache entry.
    Invalidate {
        /// Cache key of the entry to drop.
        key: u64,
    },
    /// Snapshot the server's counters.
    Stats,
}

/// Cache disposition of a sparsify request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The entry already existed; the factorization was reused warm.
    Hit,
    /// The entry was built by this request.
    Built,
}

/// Server counters, as reported by a stats response. All counters are
/// process-lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Live cache entries.
    pub entries: u64,
    /// Approximate resident bytes across live entries.
    pub resident_bytes: u64,
    /// Configured LRU byte budget.
    pub budget_bytes: u64,
    /// Sparsify requests answered from cache.
    pub sparsify_hits: u64,
    /// Sparsify requests that built a new entry.
    pub sparsify_builds: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// Mutate batches applied through the incremental path.
    pub mutations: u64,
    /// Cache entries rebuilt from scratch by a mutate request (always 0
    /// in the current protocol: mutation either patches the live entry
    /// incrementally or fails without side effects).
    pub mutation_rebuilds: u64,
    /// Solve/solve-many requests completed successfully.
    pub solves: u64,
    /// Coalesced solve passes executed (each one factor sweep set).
    pub batches: u64,
    /// Largest column count coalesced into one pass.
    pub max_batch: u64,
    /// Solves rejected because their deadline passed while queued.
    pub deadline_misses: u64,
    /// Requests rejected by per-request limits.
    pub limit_rejections: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ping answer.
    Pong,
    /// Sparsify answer.
    SparsifyOk {
        /// Cache key addressing the entry (graph content × config).
        key: u64,
        /// Vertex count of the sparsifier (same as the input graph).
        n: u64,
        /// Edges selected into the sparsifier (tree + recovered).
        selected_edges: u64,
        /// Spanning-tree backbone edge count (`n - 1`).
        tree_edges: u64,
        /// Whether the entry was found warm or built.
        cache: CacheOutcome,
    },
    /// Single solve answer.
    SolveOk {
        /// The mean-zero solution `L_P⁺ b`.
        x: Vec<f64>,
        /// Total right-hand-side columns coalesced into the factor pass
        /// that served this request (≥ 1; > 1 means batching happened).
        batch_cols: u32,
    },
    /// Multi-RHS solve answer.
    SolveManyOk {
        /// Solutions, one per request column, in request order.
        xs: Vec<Vec<f64>>,
        /// Total columns coalesced into the serving pass.
        batch_cols: u32,
    },
    /// Mutation answer.
    MutateOk {
        /// The entry's new cache key (hash of the edited graph).
        key: u64,
        /// Edge heats re-scored against the frozen embedding.
        dirty_edges: u64,
        /// Whether the selected edge set changed.
        selection_changed: bool,
        /// Factor columns re-factorized by the patch (0 when the
        /// selected subgraph was untouched).
        cols_refactored: u64,
        /// Total factor columns (the reuse denominator; 0 when the
        /// factor was untouched).
        cols_total: u64,
        /// Whether the patch fell back to a full numeric pass/rebuild.
        full_refactor: bool,
    },
    /// Invalidation answer.
    InvalidateOk {
        /// Whether an entry existed under the key.
        existed: bool,
    },
    /// Stats snapshot.
    StatsOk(ServerStats),
    /// Structured failure for the request this frame answers.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
}

/// A field's wire form: `put` appends it, `get` reads it back.
trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> ServeResult<Self>;
}

/// A counted-sequence element of fixed wire size. Decoding `Vec<T>`
/// charges every advertised element `BYTES` against the remaining
/// payload before it allocates.
trait Elem: Wire {
    const BYTES: usize;
}

fn malformed(context: String) -> ServeError {
    ServeError::Protocol { context }
}

/// Bounds-checked cursor: the payload bytes not read yet.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> ServeResult<&'a [u8]> {
        if self.rest.len() < n {
            return Err(self.truncated(n));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> ServeResult<[u8; N]> {
        let Some((head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.rest = rest;
        Ok(*head)
    }

    // Out of line, so the per-field readers stay small enough to inline:
    // with the message formatting inlined, `Sparsify` decode was ~1.6×
    // slower.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> ServeError {
        malformed(format!(
            "payload truncated: wanted {n} bytes, {} left",
            self.remaining()
        ))
    }

    /// Reads a `u32` count and checks `count × elem_bytes` against the
    /// bytes actually present.
    fn count(&mut self, elem_bytes: usize) -> ServeResult<usize> {
        let count = u32::get(self)? as usize;
        if count.saturating_mul(elem_bytes) > self.remaining() {
            return Err(malformed(format!(
                "count {count} x {elem_bytes} bytes exceeds remaining payload ({})",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads `count` f64 values with one bounds check for the array.
    fn f64s(&mut self, count: usize) -> ServeResult<Vec<f64>> {
        Ok(self
            .take(count * 8)?
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_le_bytes(a)
            })
            .collect())
    }

    fn finish(self) -> ServeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            k => Err(malformed(format!("{k} trailing bytes after payload body"))),
        }
    }
}

/// Fixed-width little-endian numbers; `f64` goes as its bit pattern.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64, f64);

impl Wire for bool {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        u8::from(*self).put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("boolean byte {b} is neither 0 nor 1"))),
        }
    }
}

/// `1` for a warm hit, `0` for a fresh build.
impl Wire for CacheOutcome {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (*self == CacheOutcome::Hit).put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        Ok(if bool::get(r)? {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Built
        })
    }
}

/// A code this library does not know decodes as `Internal`: a server may
/// append codes without a version bump.
impl Wire for ErrorCode {
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u16).put(w);
    }
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let raw = u16::get(r)?;
        Ok(ErrorCode::ALL
            .into_iter()
            .find(|&c| c as u16 == raw)
            .unwrap_or(ErrorCode::Internal))
    }
}

/// `u16` length, then UTF-8. The encoder caps the length at 65,535 bytes
/// and cuts on a char boundary: a split multi-byte sequence would make
/// the peer reject the whole frame.
impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        let mut len = self.len().min(u16::MAX as usize);
        while !self.is_char_boundary(len) {
            len -= 1;
        }
        (len as u16).put(w);
        w.extend_from_slice(&self.as_bytes()[..len]);
    }
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let len = u16::get(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| malformed("message string is not valid UTF-8".to_string()))
    }
}

/// An edge `u:u32  v:u32  weight:f64`.
impl Wire for (u32, u32, f64) {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        Ok((u32::get(r)?, u32::get(r)?, f64::get(r)?))
    }
}

impl Elem for (u32, u32, f64) {
    const BYTES: usize = 16;
}

/// A tag byte (`0` add, `1` remove) and an edge record. A removal writes
/// a `0.0` pad where the weight goes, and decode ignores the pad.
impl Wire for WireEdit {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        let (tag, edge) = match *self {
            WireEdit::Add { u, v, weight } => (0u8, (u, v, weight)),
            WireEdit::Remove { u, v } => (1, (u, v, 0.0)),
        };
        tag.put(w);
        edge.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let tag = u8::get(r)?;
        let (u, v, weight) = <(u32, u32, f64)>::get(r)?;
        match tag {
            0 => Ok(WireEdit::Add { u, v, weight }),
            1 => Ok(WireEdit::Remove { u, v }),
            other => Err(malformed(format!("unknown edit op {other}"))),
        }
    }
}

impl Elem for WireEdit {
    const BYTES: usize = 17;
}

/// A `u32` count, then the elements. The single bounded reader: every
/// element is charged its wire size before the `Vec` is allocated.
impl<T: Elem> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.reserve(self.len() * T::BYTES);
        for e in self {
            e.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let count = r.count(T::BYTES)?;
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

/// `f64` arrays dominate solve frames, so they take a bulk path (one
/// grow, or one bounds check, per array) instead of going element by
/// element; `f64` is deliberately not an [`Elem`].
impl Wire for Vec<f64> {
    #[inline]
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        put_f64s(self, w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let count = r.count(8)?;
        r.f64s(count)
    }
}

fn put_f64s(vs: &[f64], w: &mut Vec<u8>) {
    let start = w.len();
    w.resize(start + vs.len() * 8, 0);
    for (dst, v) in w[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// The `cols × rows` block: both counts, then the columns back to back.
/// `rows` is the first column's length, so every column must have it.
/// Each column is charged at least one element, so a `rows = 0` frame
/// cannot advertise an unbounded `cols`.
impl Wire for Vec<Vec<f64>> {
    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        (self.first().map_or(0, Vec::len) as u32).put(w);
        for col in self {
            put_f64s(col, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
        let cols = u32::get(r)? as usize;
        let rows = r.count(8)?;
        if cols.saturating_mul(rows.max(1)).saturating_mul(8) > r.remaining() {
            return Err(malformed(format!(
                "{cols} columns x {rows} rows exceeds payload"
            )));
        }
        let mut block = Vec::with_capacity(cols);
        for _ in 0..cols {
            block.push(r.f64s(rows)?);
        }
        Ok(block)
    }
}

/// Implements [`Wire`] for structs as their fields in the listed order.
macro_rules! wire_struct {
    ($($t:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$field.put(w);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> ServeResult<Self> {
                Ok($t { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    SparsifyParams { sigma2, seed }
    WireGraph { n, edges }
    ServerStats {
        entries, resident_bytes, budget_bytes, sparsify_hits, sparsify_builds, evictions,
        invalidations, mutations, mutation_rebuilds, solves, batches, max_batch,
        deadline_misses, limit_rejections,
    }
}

/// Generates `encode` and `decode` for each message enum from its rows
/// of `kind => Variant { fields in wire order }`.
macro_rules! messages {
    ($($ty:ident {
        $($kind:literal => $var:ident $({ $($field:ident),* })? $(($inner:ident))?,)*
    })*) => {$(
        impl $ty {
            /// Serializes into a complete payload (version + kind + body).
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Vec::new();
                match self {
                    $(Self::$var $({ $($field),* })? $(($inner))? => {
                        w.extend_from_slice(&[PROTOCOL_VERSION, $kind]);
                        $($($field.put(&mut w);)*)?
                        $($inner.put(&mut w);)?
                    })*
                }
                w
            }

            /// Parses a payload (version + kind + body).
            ///
            /// # Errors
            ///
            /// [`ServeError::UnsupportedVersion`] on a version this library
            /// does not speak, [`ServeError::UnknownKind`] on an unknown
            /// kind byte, [`ServeError::Protocol`] on any structural
            /// violation.
            pub fn decode(payload: &[u8]) -> ServeResult<Self> {
                let mut r = Reader { rest: payload };
                let version = u8::get(&mut r)?;
                if version != PROTOCOL_VERSION {
                    return Err(ServeError::UnsupportedVersion { got: version });
                }
                let msg = match u8::get(&mut r)? {
                    $($kind => Self::$var
                        $({ $($field: Wire::get(&mut r)?),* })?
                        $(({ let $inner = Wire::get(&mut r)?; $inner }))?,)*
                    kind => return Err(ServeError::UnknownKind { kind }),
                };
                r.finish()?;
                Ok(msg)
            }
        }
    )*};
}

// The message table: each kind byte once, each message's fields in
// wire order.
messages! {
    Request {
        0x01 => Ping,
        0x02 => Sparsify { params, graph },
        0x03 => Solve { key, deadline_ms, rhs },
        0x04 => SolveMany { key, deadline_ms, rhs },
        0x05 => Mutate { key, edits },
        0x06 => Invalidate { key },
        0x07 => Stats,
    }
    Response {
        0x81 => Pong,
        0x82 => SparsifyOk { key, n, selected_edges, tree_edges, cache },
        0x83 => SolveOk { batch_cols, x },
        0x84 => SolveManyOk { batch_cols, xs },
        0x85 => MutateOk {
            key, dirty_edges, selection_changed, cols_refactored, cols_total, full_refactor
        },
        0x86 => InvalidateOk { existed },
        0x87 => StatsOk(stats),
        0xff => Error { code, message },
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures from the underlying stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> ServeResult<()> {
    let len = u32::try_from(payload.len()).map_err(|_| ServeError::TooLarge {
        context: format!(
            "frame payload of {} bytes overflows the length prefix",
            payload.len()
        ),
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame, enforcing `max_bytes` before
/// allocating. Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// [`ServeError::TooLarge`] when the advertised length exceeds
/// `max_bytes` (or the hard [`MAX_FRAME_BYTES_CEILING`]); I/O errors,
/// including unexpected EOF mid-frame, surface as [`ServeError::Io`].
pub fn read_frame<R: Read>(r: &mut R, max_bytes: u32) -> ServeResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is a normal connection close.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(k) => r.read_exact(&mut len_buf[k..])?,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_buf)?;
        }
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_bytes.min(MAX_FRAME_BYTES_CEILING) {
        return Err(ServeError::TooLarge {
            context: format!("frame of {len} bytes exceeds the {max_bytes}-byte limit"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
/// One sample of every message kind, shared with the integration tests
/// (which check each sample's golden bytes).
#[path = "../tests/common/mod.rs"]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        for (req, _) in golden::requests() {
            round_trip_request(req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for (resp, _) in golden::responses() {
            round_trip_response(resp);
        }
    }

    #[test]
    fn exact_f64_bits_survive() {
        let weird = f64::from_bits(0x7ff8_0000_0000_0001); // NaN payload
        let resp = Response::SolveOk {
            x: vec![weird, -0.0],
            batch_cols: 1,
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        if let Response::SolveOk { x, .. } = decoded {
            assert_eq!(x[0].to_bits(), weird.to_bits());
            assert_eq!(x[1].to_bits(), (-0.0f64).to_bits());
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        // A solve frame advertising u32::MAX rhs entries with a tiny body.
        let mut payload = vec![PROTOCOL_VERSION, 0x03];
        payload.extend_from_slice(&0u64.to_le_bytes()); // key
        payload.extend_from_slice(&0u32.to_le_bytes()); // deadline
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let err = Request::decode(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err}");
    }

    #[test]
    fn hostile_cols_with_zero_rows_is_rejected() {
        // n=0 makes the bytes-per-column product vanish, so the column
        // count must be bounded on its own: u32::MAX columns from a
        // ~22-byte frame must fail before `Vec::with_capacity`.
        let mut payload = vec![PROTOCOL_VERSION, 0x04]; // K_SOLVE_MANY
        payload.extend_from_slice(&0u64.to_le_bytes()); // key
        payload.extend_from_slice(&0u32.to_le_bytes()); // deadline
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        payload.extend_from_slice(&0u32.to_le_bytes()); // n = 0
        let err = Request::decode(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err}");

        // Same hole on the client side: SolveManyOk decode.
        let mut payload = vec![PROTOCOL_VERSION, 0x84]; // K_SOLVE_MANY_OK
        payload.extend_from_slice(&1u32.to_le_bytes()); // batch_cols
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        payload.extend_from_slice(&0u32.to_le_bytes()); // n = 0
        let err = Response::decode(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err}");
    }

    #[test]
    fn long_message_truncates_on_a_char_boundary() {
        // 'é' is 2 bytes; 65535 is odd, so a byte-index cut would land
        // mid-character and the decoder would reject the frame.
        let resp = Response::Error {
            code: ErrorCode::Internal,
            message: "é".repeat(40_000),
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        let Response::Error { message, .. } = decoded else {
            panic!("wrong kind");
        };
        assert_eq!(message.len(), 65_534);
        assert!(message.chars().all(|c| c == 'é'));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut payload = Request::Ping.encode();
        payload[0] = 99;
        assert!(matches!(
            Request::decode(&payload),
            Err(ServeError::UnsupportedVersion { got: 99 })
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let payload = vec![PROTOCOL_VERSION, 0x70];
        assert!(matches!(
            Request::decode(&payload),
            Err(ServeError::UnknownKind { kind: 0x70 })
        ));
    }

    #[test]
    fn frames_round_trip_and_enforce_limits() {
        let payload = Request::Stats.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let got = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(got, payload);
        // EOF at a boundary is a clean None.
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
        // An oversized advertised length is rejected up front.
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 1),
            Err(ServeError::TooLarge { .. })
        ));
    }

    #[test]
    fn ragged_solve_many_is_encoded_with_first_len() {
        // The encoder writes the first column's length as `rows` and the
        // columns back to back, which is why `Client::solve_many` rejects
        // ragged columns before encoding. When the lengths do not add up
        // to `cols × rows`, decode fails (a column runs past the payload
        // or leaves trailing bytes).
        let req = Request::SolveMany {
            key: 0,
            deadline_ms: 0,
            rhs: vec![vec![1.0, 2.0], vec![3.0]],
        };
        assert!(Request::decode(&req.encode()).is_err());

        // When they do add up, the columns decode re-chunked.
        let req = Request::SolveMany {
            key: 0,
            deadline_ms: 0,
            rhs: vec![vec![1.0, -1.0], vec![0.5], vec![-0.5, 2.0, -2.0]],
        };
        let Request::SolveMany { rhs, .. } = Request::decode(&req.encode()).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(rhs, [[1.0, -1.0], [0.5, -0.5], [2.0, -2.0]]);
    }
}
