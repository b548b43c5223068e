//! The sparsification server: accept loop, per-connection request
//! handling, and the solve-batching executor.
//!
//! # Threading model
//!
//! Three kinds of threads cooperate around one shared state:
//!
//! - the **accept loop** spawns one handler thread per connection;
//! - **connection handlers** read frames, decode requests, and serve
//!   everything except solves directly (sparsify builds run *outside*
//!   the state lock so a large build never stalls solves on other
//!   entries);
//! - a single **executor** drains the solve queue. Solve and
//!   solve-many requests are never answered inline: the handler
//!   enqueues a `SolveJob` and blocks on a reply channel.
//!
//! # Solve batching
//!
//! The executor waits on the queue's condvar and, once woken, drains
//! every queued job at once. Every drained job with the same cache key
//! is coalesced into **one**
//! [`GroundedSolver::solve_columns`](sass_solver::GroundedSolver::solve_columns)
//! pass — concurrent clients solving against the same cached factor
//! share its sweeps through the blocked multi-RHS path instead of
//! re-walking the factor once per right-hand side. Every pass packs
//! into the one work buffer the executor keeps for the server's life,
//! so a pass allocates only its reply columns. Nothing waits for
//! a batch to form: solves that arrive while a pass runs queue up and
//! join the next drain, so passes widen with load and a lone client
//! pays no gather delay. Each response reports `batch_cols`, the total
//! column count of the pass that served it, so clients (and the
//! benches) can observe coalescing. Capping
//! [`ServerConfig::max_batch_cols`] at 1 disables coalescing entirely,
//! which is the sequential baseline configuration used by the benches.
//!
//! A panic inside one pass is caught at the pass boundary: that pass's
//! jobs are answered [`ErrorCode::Internal`] and the executor goes on
//! serving every other pass and key.
//!
//! Deadlines are enforced at dispatch time: a job whose deadline passed
//! while it sat in the queue is answered with a `DeadlineExceeded`
//! error frame and never reaches the solver.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sass_core::{cache_key, IncrementalSparsifier};
use sass_solver::GroundedScratch;

use crate::cache::SparsifierCache;
use crate::protocol::{
    read_frame, write_frame, CacheOutcome, ErrorCode, Request, Response, ServerStats,
    SparsifyParams, WireGraph, PROTOCOL_VERSION,
};
use crate::{ServeError, ServeResult};

/// Per-request resource ceilings. Violations are answered with a
/// structured [`ErrorCode::LimitExceeded`] frame, not a dropped
/// connection.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest vertex count a sparsify request may submit.
    pub max_vertices: usize,
    /// Largest edge count a sparsify request may submit.
    pub max_edges: usize,
    /// Largest column count a solve-many request may carry.
    pub max_rhs_columns: usize,
    /// Largest frame payload accepted, in bytes.
    pub max_frame_bytes: u32,
    /// Queue deadline applied to solves that pass `deadline_ms = 0`.
    pub default_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_vertices: 1 << 20,
            max_edges: 1 << 24,
            max_rhs_columns: 1024,
            max_frame_bytes: 1 << 28,
            default_deadline: Duration::from_secs(30),
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address
    /// is available from [`ServerHandle::addr`]).
    pub addr: String,
    /// Per-request ceilings.
    pub limits: Limits,
    /// LRU byte budget for the sparsifier cache (see
    /// [`SparsifierCache`]).
    pub cache_budget_bytes: usize,
    /// Most right-hand-side columns coalesced into one factor pass —
    /// bounds per-pass latency under heavy coalescing. `1` disables
    /// batching entirely (every request is its own pass); that is the
    /// sequential baseline configuration the serve bench compares
    /// against. A single request carrying more columns than the cap
    /// still runs as one pass.
    pub max_batch_cols: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            limits: Limits::default(),
            cache_budget_bytes: 256 << 20,
            max_batch_cols: 256,
        }
    }
}

/// Mutex-protected core: the cache plus the request counters the stats
/// frame reports.
#[derive(Debug)]
struct State {
    cache: SparsifierCache,
    /// Kept by the handlers and the executor. The fields the cache owns
    /// (`entries`, `resident_bytes`, `budget_bytes`, `evictions`) stay
    /// zero here; [`State::stats`] fills them in.
    counters: ServerStats,
}

impl State {
    fn stats(&self) -> ServerStats {
        ServerStats {
            entries: self.cache.len() as u64,
            resident_bytes: self.cache.resident_bytes() as u64,
            budget_bytes: self.cache.budget_bytes() as u64,
            evictions: self.cache.evictions(),
            ..self.counters
        }
    }
}

/// What the executor sends back for one solve: the solution columns
/// plus the total column count of the pass that carried them, or a
/// structured error.
type SolveVerdict = Result<(Vec<Vec<f64>>, u32), (ErrorCode, String)>;

/// One queued solve awaiting the executor.
struct SolveJob {
    key: u64,
    rhs: Vec<Vec<f64>>,
    deadline: Instant,
    reply: mpsc::Sender<SolveVerdict>,
}

/// State shared by every thread the server runs.
struct Shared {
    state: Mutex<State>,
    queue: Mutex<VecDeque<SolveJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    limits: Limits,
    max_batch_cols: usize,
    /// Fault injection for tests: a pass on this key panics while it
    /// holds the state lock, as a panicking solve would.
    #[cfg(test)]
    panic_key: Mutex<Option<u64>>,
}

/// Recovers the guard from a poisoned lock: a panicking handler thread
/// must not wedge the whole server, and every critical section leaves
/// the state structurally valid between statements that matter.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and the executor;
/// open connections are closed as their handlers observe the flag.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every thread to stop and joins the accept loop and the
    /// executor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the listener and spawns the accept loop and the executor.
///
/// # Errors
///
/// [`ServeError::Io`] if the address cannot be bound.
pub fn serve(config: ServerConfig) -> ServeResult<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            cache: SparsifierCache::new(config.cache_budget_bytes),
            counters: ServerStats::default(),
        }),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        limits: config.limits,
        max_batch_cols: config.max_batch_cols.max(1),
        #[cfg(test)]
        panic_key: Mutex::new(None),
    });

    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sass-serve-exec".to_string())
            .spawn(move || executor_loop(&shared))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sass-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        executor: Some(executor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small and latency-bound: without this, Nagle's
        // algorithm holds replies for the peer's delayed ACK (~40 ms
        // per round-trip on loopback).
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        // Connection handlers are detached: they exit when the client
        // closes, on a framing error, or when they observe shutdown.
        let _ = std::thread::Builder::new()
            .name("sass-serve-conn".to_string())
            .spawn(move || connection_loop(stream, &shared));
    }
}

/// Reads frames off one connection until EOF, a fatal framing error, or
/// shutdown.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Solve frames carry n-length f64 arrays; 64 KiB buffers keep the
    // syscall count per frame small without hoarding memory per
    // connection.
    let mut reader = std::io::BufReader::with_capacity(
        1 << 16,
        match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    );
    let mut writer = std::io::BufWriter::with_capacity(1 << 16, stream);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut reader, shared.limits.max_frame_bytes) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(ServeError::TooLarge { context }) => {
                // The oversized payload was never read, so the stream is
                // desynchronized: answer once, then close.
                let resp = Response::Error {
                    code: ErrorCode::LimitExceeded,
                    message: context,
                };
                let _ = write_frame(&mut writer, &resp.encode());
                return;
            }
            Err(_) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(req) => handle_request(req, shared),
            // Length-prefixed framing survives a malformed body: report
            // and keep the connection.
            Err(ServeError::UnsupportedVersion { got }) => Response::Error {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "this server speaks version {PROTOCOL_VERSION}, frame carried {got}"
                ),
            },
            Err(ServeError::UnknownKind { kind }) => Response::Error {
                code: ErrorCode::UnknownKind,
                message: format!("unknown request kind {kind:#04x}"),
            },
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
            },
        };
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
    }
}

/// Serves one decoded request. Solves block on the executor's reply;
/// everything else is answered inline.
fn handle_request(req: Request, shared: &Arc<Shared>) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Sparsify { params, graph } => handle_sparsify(params, &graph, shared),
        Request::Solve {
            key,
            deadline_ms,
            rhs,
        } => match submit_solve(key, vec![rhs], deadline_ms, shared) {
            Ok((mut xs, batch_cols)) => Response::SolveOk {
                x: xs.pop().unwrap_or_default(),
                batch_cols,
            },
            Err((code, message)) => Response::Error { code, message },
        },
        Request::SolveMany {
            key,
            deadline_ms,
            rhs,
        } => {
            if rhs.len() > shared.limits.max_rhs_columns {
                lock(&shared.state).counters.limit_rejections += 1;
                return Response::Error {
                    code: ErrorCode::LimitExceeded,
                    message: format!(
                        "{} rhs columns exceeds the limit of {}",
                        rhs.len(),
                        shared.limits.max_rhs_columns
                    ),
                };
            }
            match submit_solve(key, rhs, deadline_ms, shared) {
                Ok((xs, batch_cols)) => Response::SolveManyOk { xs, batch_cols },
                Err((code, message)) => Response::Error { code, message },
            }
        }
        Request::Mutate { key, edits } => handle_mutate(key, &edits, shared),
        Request::Invalidate { key } => {
            let mut state = lock(&shared.state);
            let existed = state.cache.remove(key);
            if existed {
                state.counters.invalidations += 1;
            }
            Response::InvalidateOk { existed }
        }
        Request::Stats => Response::StatsOk(lock(&shared.state).stats()),
    }
}

fn handle_sparsify(params: SparsifyParams, graph: &WireGraph, shared: &Arc<Shared>) -> Response {
    let limits = &shared.limits;
    if graph.n > limits.max_vertices as u64 || graph.edges.len() > limits.max_edges {
        lock(&shared.state).counters.limit_rejections += 1;
        return Response::Error {
            code: ErrorCode::LimitExceeded,
            message: format!(
                "graph of {} vertices / {} edges exceeds the limits ({} / {})",
                graph.n,
                graph.edges.len(),
                limits.max_vertices,
                limits.max_edges
            ),
        };
    }
    let edges: Vec<(usize, usize, f64)> = graph
        .edges
        .iter()
        .map(|&(u, v, w)| (u as usize, v as usize, w))
        .collect();
    let g = match sass_graph::Graph::from_edges(graph.n as usize, &edges) {
        Ok(g) => g,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::InvalidGraph,
                message: e.to_string(),
            }
        }
    };
    let config = params.to_config();
    let key = cache_key(&g, &config);

    {
        let mut state = lock(&shared.state);
        if let Some(entry) = state.cache.get(key) {
            let resp = Response::SparsifyOk {
                key,
                n: entry.graph().n() as u64,
                selected_edges: entry.selected_edge_ids().len() as u64,
                tree_edges: entry.tree_edge_ids().len() as u64,
                cache: CacheOutcome::Hit,
            };
            state.counters.sparsify_hits += 1;
            return resp;
        }
    }

    // Build outside the state lock so a long construction never stalls
    // solves or stats on other entries. Two racing submissions of the
    // same graph may both build; the loser's insert replaces an
    // identical entry, which is correct if wasteful.
    let entry = match IncrementalSparsifier::new(&g, &config) {
        Ok(entry) => entry,
        Err(e @ sass_core::CoreError::Solver(_)) => {
            return Response::Error {
                code: ErrorCode::SolverFailure,
                message: e.to_string(),
            }
        }
        Err(e) => {
            return Response::Error {
                code: ErrorCode::InvalidGraph,
                message: e.to_string(),
            }
        }
    };
    let resp = Response::SparsifyOk {
        key,
        n: entry.graph().n() as u64,
        selected_edges: entry.selected_edge_ids().len() as u64,
        tree_edges: entry.tree_edge_ids().len() as u64,
        cache: CacheOutcome::Built,
    };
    let mut state = lock(&shared.state);
    state.cache.insert(key, entry);
    state.counters.sparsify_builds += 1;
    resp
}

fn handle_mutate(key: u64, edits: &[crate::protocol::WireEdit], shared: &Arc<Shared>) -> Response {
    let graph_edits: Vec<sass_graph::GraphEdit> = edits.iter().map(|e| e.to_graph_edit()).collect();
    let mut state = lock(&shared.state);
    let Some(entry) = state.cache.get_mut(key) else {
        return Response::Error {
            code: ErrorCode::UnknownKey,
            message: format!("no cache entry under key {key:#x}"),
        };
    };
    match entry.apply_edits(&graph_edits) {
        Ok(report) => {
            let new_key = cache_key(entry.graph(), entry.config());
            let (cols_refactored, cols_total, full_refactor) = match report.refactor {
                Some(s) => (s.cols_refactored as u64, s.total_cols as u64, s.full),
                None => (0, 0, false),
            };
            state.cache.rekey(key, new_key);
            state.counters.mutations += 1;
            Response::MutateOk {
                key: new_key,
                dirty_edges: report.dirty_edges as u64,
                selection_changed: report.selection_changed,
                cols_refactored,
                cols_total,
                full_refactor,
            }
        }
        Err(e @ sass_core::CoreError::Solver(_)) => {
            // A failed refactorization may leave the factor partially
            // updated — the entry can no longer be trusted.
            state.cache.remove(key);
            Response::Error {
                code: ErrorCode::SolverFailure,
                message: format!("{e}; entry {key:#x} dropped"),
            }
        }
        // Graph-level rejections happen before anything is modified;
        // the entry stays live.
        Err(e) => Response::Error {
            code: ErrorCode::InvalidGraph,
            message: e.to_string(),
        },
    }
}

/// Enqueues a solve and blocks until the executor answers.
fn submit_solve(
    key: u64,
    rhs: Vec<Vec<f64>>,
    deadline_ms: u32,
    shared: &Arc<Shared>,
) -> SolveVerdict {
    if rhs.is_empty() {
        return Err((
            ErrorCode::InvalidGraph,
            "solve request carries zero right-hand sides".to_string(),
        ));
    }
    let deadline = Instant::now()
        + if deadline_ms == 0 {
            shared.limits.default_deadline
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        };
    let (tx, rx) = mpsc::channel();
    {
        let mut q = lock(&shared.queue);
        // Checked under the queue lock: the executor only exits after a
        // final drain with the flag set while holding this lock, so a
        // push that observes the flag clear here is guaranteed to be
        // drained (and answered) before the executor returns. Without
        // this check a job enqueued after that final drain would never
        // be dispatched and `rx.recv()` below would block forever.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err((ErrorCode::Internal, "server shutting down".to_string()));
        }
        q.push_back(SolveJob {
            key,
            rhs,
            deadline,
            reply: tx,
        });
    }
    shared.queue_cv.notify_one();
    match rx.recv() {
        Ok(result) => result,
        // The executor answers every job it drains; a sender dropped
        // unanswered means the pass carrying this job panicked.
        Err(_) => Err((
            ErrorCode::Internal,
            "the solve pass panicked before answering".to_string(),
        )),
    }
}

/// The executor: wait for work, drain the whole queue, group by key,
/// one blocked pass per group. One solve scratch serves every pass for
/// the server's life.
fn executor_loop(shared: &Arc<Shared>) {
    let mut scratch = GroundedScratch::new();
    loop {
        let jobs: Vec<SolveJob> = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Fail whatever is still queued instead of hanging
                    // the handlers that wait on replies.
                    for job in q.drain(..) {
                        let _ = job.reply.send(Err((
                            ErrorCode::Internal,
                            "server shutting down".to_string(),
                        )));
                    }
                    return;
                }
                if !q.is_empty() {
                    break;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            q.drain(..).collect()
        };
        dispatch_jobs(jobs, shared, &mut scratch);
    }
}

/// Groups drained jobs by cache key, splits each group into chunks of
/// at most `max_batch_cols` columns (at job granularity — a single job
/// larger than the cap still runs whole), and serves each chunk with
/// one blocked solve pass over the concatenated columns through
/// `scratch`.
///
/// A panicking pass must not take the executor down with it: nothing
/// would drain the queue again and every later solve would block
/// forever. Unwinding drops the pass's reply senders unanswered, which
/// their handlers report as `Internal`; the other passes still run.
/// Asserting unwind safety is sound because a pass reads its entry
/// through a shared borrow and counts its solves only after the solve
/// returns, and every solve overwrites the part of `scratch` it reads:
/// an unwound pass leaves the entry untouched, counts nothing, and
/// leaves nothing a later pass reads.
fn dispatch_jobs(jobs: Vec<SolveJob>, shared: &Arc<Shared>, scratch: &mut GroundedScratch) {
    let mut groups: Vec<(u64, Vec<SolveJob>)> = Vec::new();
    for job in jobs {
        match groups.iter_mut().find(|(k, _)| *k == job.key) {
            Some((_, g)) => g.push(job),
            None => groups.push((job.key, vec![job])),
        }
    }
    let mut pass = |key: u64, chunk: Vec<SolveJob>| {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_group(key, chunk, shared, scratch)
        }));
    };
    let cap = shared.max_batch_cols;
    for (key, group) in groups {
        let mut chunk: Vec<SolveJob> = Vec::new();
        let mut cols = 0usize;
        for job in group {
            if !chunk.is_empty() && cols + job.rhs.len() > cap {
                pass(key, std::mem::take(&mut chunk));
                cols = 0;
            }
            cols += job.rhs.len();
            chunk.push(job);
        }
        if !chunk.is_empty() {
            pass(key, chunk);
        }
    }
}

fn serve_group(
    key: u64,
    group: Vec<SolveJob>,
    shared: &Arc<Shared>,
    scratch: &mut GroundedScratch,
) {
    let now = Instant::now();
    let (live, expired): (Vec<SolveJob>, Vec<SolveJob>) =
        group.into_iter().partition(|j| j.deadline >= now);
    if !expired.is_empty() {
        let mut state = lock(&shared.state);
        state.counters.deadline_misses += expired.len() as u64;
    }
    for job in expired {
        let _ = job.reply.send(Err((
            ErrorCode::DeadlineExceeded,
            "deadline passed while the solve was queued".to_string(),
        )));
    }
    if live.is_empty() {
        return;
    }

    // The solve runs under the state lock: the factor must not be
    // mutated or evicted mid-sweep, and entries are not internally
    // shareable. A single-executor design keeps the hold time equal to
    // exactly one blocked pass.
    let mut state = lock(&shared.state);
    let Some(entry) = state.cache.get(key) else {
        drop(state);
        for job in live {
            let _ = job.reply.send(Err((
                ErrorCode::UnknownKey,
                format!("no cache entry under key {key:#x} (evicted or never built)"),
            )));
        }
        return;
    };
    let n = entry.graph().n();
    let (live, malformed): (Vec<SolveJob>, Vec<SolveJob>) = live
        .into_iter()
        .partition(|j| j.rhs.iter().all(|col| col.len() == n));
    if live.is_empty() {
        drop(state);
        for job in malformed {
            let _ = job.reply.send(Err((
                ErrorCode::InvalidGraph,
                format!("rhs length does not match the graph's {n} vertices"),
            )));
        }
        return;
    }
    let mut live = live;
    let col_counts: Vec<usize> = live.iter().map(|j| j.rhs.len()).collect();
    let all_cols: Vec<Vec<f64>> = live
        .iter_mut()
        .flat_map(|j| std::mem::take(&mut j.rhs))
        .collect();
    let batch_cols = all_cols.len() as u32;
    #[cfg(test)]
    if *lock(&shared.panic_key) == Some(key) {
        panic!("injected panic in the pass on key {key:#x}");
    }
    let mut xs = vec![vec![0.0; n]; all_cols.len()];
    entry.solver().solve_columns(&all_cols, &mut xs, scratch);
    let counters = &mut state.counters;
    counters.solves += live.len() as u64;
    counters.batches += 1;
    counters.max_batch = counters.max_batch.max(u64::from(batch_cols));
    drop(state);

    for job in malformed {
        let _ = job.reply.send(Err((
            ErrorCode::InvalidGraph,
            format!("rhs length does not match the graph's {n} vertices"),
        )));
    }
    let mut xs = xs.into_iter();
    for (job, count) in live.into_iter().zip(col_counts) {
        let cols: Vec<Vec<f64>> = xs.by_ref().take(count).collect();
        let _ = job.reply.send(Ok((cols, batch_cols)));
    }
}

#[cfg(test)]
mod tests {
    //! Executor tests that queue jobs directly: every job goes in under
    //! one hold of the queue lock, so the executor drains all of them in
    //! one go and the pass layout is deterministic.

    use super::*;
    use sass_core::SparsifyConfig;
    use sass_graph::generators::{grid2d, WeightModel};

    /// Upper bound on any reply; a wedged executor fails the test here.
    const WAIT: Duration = Duration::from_secs(10);
    /// Vertices of the cached 8×8 grids.
    const N: usize = 64;

    /// A server with one 8×8 grid sparsifier cached per seed, and a local
    /// copy of each entry under its key.
    fn server_with(
        max_batch_cols: usize,
        seeds: &[u64],
    ) -> (ServerHandle, Vec<(u64, IncrementalSparsifier)>) {
        let server = serve(ServerConfig {
            max_batch_cols,
            ..ServerConfig::default()
        })
        .expect("bind");
        let config = SparsifyConfig::new(100.0).with_seed(7);
        let entries = seeds
            .iter()
            .map(|&seed| {
                let g = grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
                let entry = IncrementalSparsifier::new(&g, &config).expect("sparsifier");
                let key = cache_key(&g, &config);
                lock(&server.shared.state).cache.insert(key, entry.clone());
                (key, entry)
            })
            .collect();
        (server, entries)
    }

    /// Deterministic mean-zero right-hand side on the cached grids.
    fn rhs(seed: u64) -> Vec<f64> {
        let mut b: Vec<f64> = (0..N as u64)
            .map(|i| ((i * 31 + seed * 17) % 23) as f64)
            .collect();
        sass_sparse::dense::center(&mut b);
        b
    }

    /// Queues one single-column job per `(key, rhs)` under one lock hold
    /// and returns their reply channels in order.
    fn enqueue(
        shared: &Shared,
        jobs: &[(u64, Vec<f64>)],
        deadline: Instant,
    ) -> Vec<mpsc::Receiver<SolveVerdict>> {
        let mut q = lock(&shared.queue);
        let replies = jobs
            .iter()
            .map(|(key, b)| {
                let (tx, rx) = mpsc::channel();
                q.push_back(SolveJob {
                    key: *key,
                    rhs: vec![b.clone()],
                    deadline,
                    reply: tx,
                });
                rx
            })
            .collect();
        drop(q);
        shared.queue_cv.notify_one();
        replies
    }

    fn later() -> Instant {
        Instant::now() + WAIT
    }

    /// Waits for one solved column and checks it against `local`'s
    /// per-RHS solve; returns the pass width it reported.
    fn expect_solved(
        rx: &mpsc::Receiver<SolveVerdict>,
        local: &IncrementalSparsifier,
        b: &[f64],
    ) -> u32 {
        let (xs, batch_cols) = rx
            .recv_timeout(WAIT)
            .expect("the executor answers")
            .expect("the solve succeeds");
        let want = local.solver().solve(b);
        assert_eq!(xs.len(), 1);
        for (i, (x, y)) in xs[0].iter().zip(&want).enumerate() {
            assert!(
                (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                "component {i}: {x} vs {y}"
            );
        }
        batch_cols
    }

    fn stats(server: &ServerHandle) -> ServerStats {
        lock(&server.shared.state).stats()
    }

    #[test]
    fn one_drain_on_one_key_is_one_pass() {
        let (server, entries) = server_with(256, &[5]);
        let (key, local) = &entries[0];
        let jobs: Vec<_> = (0..6).map(|i| (*key, rhs(100 + i))).collect();
        let replies = enqueue(&server.shared, &jobs, later());
        for (rx, (_, b)) in replies.iter().zip(&jobs) {
            assert_eq!(expect_solved(rx, local, b), 6);
        }
        let s = stats(&server);
        assert_eq!((s.solves, s.batches, s.max_batch), (6, 1, 6));
    }

    #[test]
    fn max_batch_cols_caps_each_pass() {
        let (server, entries) = server_with(4, &[5]);
        let (key, local) = &entries[0];
        let jobs: Vec<_> = (0..6).map(|i| (*key, rhs(100 + i))).collect();
        let replies = enqueue(&server.shared, &jobs, later());
        let widths: Vec<u32> = replies
            .iter()
            .zip(&jobs)
            .map(|(rx, (_, b))| expect_solved(rx, local, b))
            .collect();
        assert_eq!(widths, [4, 4, 4, 4, 2, 2]);
        let s = stats(&server);
        assert_eq!((s.solves, s.batches, s.max_batch), (6, 2, 4));
    }

    #[test]
    fn one_drain_over_two_keys_is_one_pass_per_key() {
        let (server, entries) = server_with(256, &[5, 6]);
        let jobs: Vec<_> = (0..5)
            .map(|i| (entries[i % 2].0, rhs(100 + i as u64)))
            .collect();
        let replies = enqueue(&server.shared, &jobs, later());
        for (i, (rx, (_, b))) in replies.iter().zip(&jobs).enumerate() {
            let width = expect_solved(rx, &entries[i % 2].1, b);
            assert_eq!(width, if i % 2 == 0 { 3 } else { 2 });
        }
        let s = stats(&server);
        assert_eq!((s.solves, s.batches, s.max_batch), (5, 2, 3));
    }

    /// Passes alternate between two cached entries of different sizes at
    /// several widths, all through the executor's one scratch, and answer
    /// bit for bit as a fresh `solve_many` does.
    #[test]
    fn passes_alternating_between_sizes_share_one_scratch() {
        let (server, entries) = server_with(256, &[5]);
        let config = SparsifyConfig::new(100.0).with_seed(7);
        let g = grid2d(5, 9, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let small = IncrementalSparsifier::new(&g, &config).expect("sparsifier");
        let small_key = cache_key(&g, &config);
        lock(&server.shared.state)
            .cache
            .insert(small_key, small.clone());
        let (big_key, big) = &entries[0];
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (round, width) in [1usize, 9, 3, 8, 2].into_iter().enumerate() {
            for (key, local) in [(*big_key, big), (small_key, &small)] {
                let n = local.graph().n();
                let cols: Vec<Vec<f64>> = (0..width)
                    .map(|c| {
                        (0..n)
                            .map(|i| ((i * (c + 2) + round) as f64 * 0.3).sin())
                            .collect()
                    })
                    .collect();
                let jobs: Vec<_> = cols.iter().map(|b| (key, b.clone())).collect();
                let replies = enqueue(&server.shared, &jobs, later());
                let want = local.solver().solve_many(&cols);
                for (rx, w) in replies.iter().zip(&want) {
                    let (xs, batch_cols) = rx
                        .recv_timeout(WAIT)
                        .expect("the executor answers")
                        .expect("the solve succeeds");
                    assert_eq!(batch_cols as usize, width);
                    assert_eq!(bits(&xs[0]), bits(w), "n = {n}, width {width}");
                }
            }
        }
    }

    #[test]
    fn a_job_past_its_deadline_is_never_solved() {
        let (server, entries) = server_with(256, &[5]);
        let passed = Instant::now() - Duration::from_millis(1);
        let replies = enqueue(&server.shared, &[(entries[0].0, rhs(1))], passed);
        let verdict = replies[0].recv_timeout(WAIT).expect("the executor answers");
        assert!(matches!(verdict, Err((ErrorCode::DeadlineExceeded, _))));
        let s = stats(&server);
        assert_eq!((s.deadline_misses, s.solves, s.batches), (1, 0, 0));
    }

    #[test]
    fn a_panicking_pass_leaves_the_executor_serving() {
        let (server, entries) = server_with(256, &[5, 6]);
        let ((bad, bad_local), (good, good_local)) = (&entries[0], &entries[1]);
        *lock(&server.shared.panic_key) = Some(*bad);

        // Both keys in one drain: the panicking pass drops its job's
        // sender unanswered, and the other key's pass still runs.
        let jobs = [(*bad, rhs(1)), (*good, rhs(2))];
        let replies = enqueue(&server.shared, &jobs, later());
        assert!(matches!(
            replies[0].recv_timeout(WAIT),
            Err(mpsc::RecvTimeoutError::Disconnected)
        ));
        assert_eq!(expect_solved(&replies[1], good_local, &jobs[1].1), 1);

        // The executor keeps draining both keys, the state lock the panic
        // poisoned still serves, and the failed pass counted nothing.
        *lock(&server.shared.panic_key) = None;
        let replies = enqueue(&server.shared, &jobs, later());
        assert_eq!(expect_solved(&replies[0], bad_local, &jobs[0].1), 1);
        assert_eq!(expect_solved(&replies[1], good_local, &jobs[1].1), 1);
        let s = stats(&server);
        assert_eq!((s.solves, s.batches, s.max_batch), (3, 3, 1));
    }
}
