//! `serve-mixed`: a closed loop of two client connections from this
//! process against `sass_serve::serve`, with two cached graphs.
//!
//! - The hot graph, `grid2d` 140², takes most of the traffic: each client
//!   runs PCG on it with the served sparsifier solve as preconditioner, so
//!   every preconditioner application is one single-RHS `Solve` round
//!   trip.
//! - Client 0 sends a one-edge weight-bump `Mutate` on the cold graph,
//!   `grid2d` 120², every [`MUTATE_EVERY`]-th solve (about one request in
//!   25 overall), then one `Solve` on the new key.
//! - Every [`RESUBMIT_EVERY`] solves, each client re-submits the hot graph:
//!   a cache hit carrying a large upload frame.
//!
//! Both graphs are fixed instances, and the mutates bump a fixed cycle of
//! the cold graph's spanning-tree edges; the seed draws the right-hand
//! sides and the bump weights.
//!
//! Served solutions are checked afterwards against a local
//! `IncrementalSparsifier` built from the same graph, configuration and
//! edit sequence.

use std::cell::RefCell;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass::core::{cache_key, IncrementalSparsifier, SparsifyConfig};
use sass::graph::generators::{grid2d, WeightModel};
use sass::graph::{spanning, Graph};
use sass::serve::protocol::{read_frame, write_frame, MAX_FRAME_BYTES_CEILING};
use sass::serve::{
    serve, CacheOutcome, Request, Response, ServerConfig, ServerHandle, ServerStats,
    SparsifyParams, WireEdit, WireGraph,
};
use sass::solver::{pcg, PcgOptions, Preconditioner};
use sass::sparse::{dense, CsrMatrix};

use crate::adapters::PcgSplit;
use crate::local::meets_tol;
use crate::replay::ReplayRuns;
use crate::report::Report;
use crate::stats::{mean, median, quantile, supported_pct};
use crate::Args;

const HOT_SIDE: usize = 140;
const COLD_SIDE: usize = 120;
const CLIENTS: usize = 2;
/// Client 0 mutates the cold graph on every this-many-th of its solves.
const MUTATE_EVERY: u64 = 12;
/// Each client re-submits the hot graph every this many of its solves.
const RESUBMIT_EVERY: u64 = 100;
const SETUP_REPS: usize = 21;
/// Spanning-tree edges of the cold graph the mutates cycle through.
const MUTATED_EDGES: usize = 16;
/// The gated tail. p99, the highest percentile a run supports, moved by
/// 10–50% between runs of the same code on a shared 2-core host, so it is
/// reported on the detail line only.
const TAIL_PCT: u32 = 90;
/// Every this-many-th hot solve of a client is kept for the oracle.
const ORACLE_EVERY: u64 = 97;
/// Untraced runs check the cold solves that follow the first this-many
/// edits; traced runs replay every edit and check them all.
const ORACLE_EDITS: usize = 24;
/// Largest relative difference accepted between a served solution and
/// the local oracle's (both run the same factor; only the blocking of
/// the triangular sweeps may differ).
const ORACLE_TOL: f64 = 1e-9;

fn params() -> SparsifyParams {
    SparsifyParams {
        sigma2: 100.0,
        seed: 0x5a55_c0de,
    }
}

/// A random mean-zero right-hand side.
fn random_rhs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    dense::center(&mut b);
    b
}

/// The wire form of a graph, and the canonical graph the server builds
/// from it.
fn wire(g: &Graph) -> (WireGraph, Graph) {
    let edges: Vec<(u32, u32, f64)> = g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
    let list: Vec<(usize, usize, f64)> = edges
        .iter()
        .map(|&(u, v, w)| (u as usize, v as usize, w))
        .collect();
    let canonical = Graph::from_edges(g.n(), &list).expect("generated graphs are valid");
    (
        WireGraph {
            n: g.n() as u64,
            edges,
        },
        canonical,
    )
}

/// Encode/decode time and bytes of every frame a connection exchanged.
#[derive(Debug, Default, Clone, Copy)]
struct Codec {
    encode_s: f64,
    decode_s: f64,
    bytes: u64,
    frames: u64,
}

/// A blocking connection that speaks the protocol with the public codec,
/// timing `Request::encode` and `Response::decode` when traced.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    codec: Option<Codec>,
}

impl Conn {
    fn connect(addr: SocketAddr, traced: bool) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::with_capacity(1 << 16, stream),
            codec: traced.then(Codec::default),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let t = self.codec.map(|_| Instant::now());
        let frame = req.encode();
        let encode_s = t.map(|t| t.elapsed().as_secs_f64());
        write_frame(&mut self.writer, &frame).map_err(|e| format!("send: {e}"))?;
        let payload = read_frame(&mut self.reader, MAX_FRAME_BYTES_CEILING)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("the server closed the connection")?;
        let t = self.codec.map(|_| Instant::now());
        let resp = Response::decode(&payload).map_err(|e| format!("decode: {e}"))?;
        if let (Some(c), Some(enc), Some(t)) = (self.codec.as_mut(), encode_s, t) {
            c.encode_s += enc;
            c.decode_s += t.elapsed().as_secs_f64();
            c.bytes += (frame.len() + payload.len()) as u64;
            c.frames += 1;
        }
        match resp {
            Response::Error { code, message } => Err(format!("{code:?}: {message}")),
            resp => Ok(resp),
        }
    }

    /// Submits a graph; returns its key, the cache outcome and the
    /// selected edge count.
    fn sparsify(&mut self, graph: &WireGraph) -> Result<(u64, CacheOutcome, u64), String> {
        match self.call(&Request::Sparsify {
            params: params(),
            graph: graph.clone(),
        })? {
            Response::SparsifyOk {
                key,
                cache,
                selected_edges,
                ..
            } => Ok((key, cache, selected_edges)),
            other => Err(format!("unexpected answer to sparsify: {other:?}")),
        }
    }

    fn solve(&mut self, key: u64, rhs: Vec<f64>) -> Result<Vec<f64>, String> {
        match self.call(&Request::Solve {
            key,
            deadline_ms: 0,
            rhs,
        })? {
            Response::SolveOk { x, .. } => Ok(x),
            other => Err(format!("unexpected answer to solve: {other:?}")),
        }
    }

    fn mutate(&mut self, key: u64, edit: WireEdit) -> Result<u64, String> {
        match self.call(&Request::Mutate {
            key,
            edits: vec![edit],
        })? {
            Response::MutateOk { key, .. } => Ok(key),
            other => Err(format!("unexpected answer to mutate: {other:?}")),
        }
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        match self.call(&Request::Stats)? {
            Response::StatsOk(s) => Ok(s),
            other => Err(format!("unexpected answer to stats: {other:?}")),
        }
    }
}

/// Generated inputs.
struct Inputs {
    hot: WireGraph,
    hot_graph: Graph,
    hot_lg: CsrMatrix,
    cold: WireGraph,
    cold_graph: Graph,
    /// The cold graph's edges the mutates bump, in turn.
    mutated: Vec<u32>,
    first_rhs: Vec<f64>,
}

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let weights = WeightModel::Uniform { lo: 0.5, hi: 2.0 };
    let (hot, hot_graph) = wire(&grid2d(HOT_SIDE, HOT_SIDE, weights, 140));
    let (cold, cold_graph) = wire(&grid2d(COLD_SIDE, COLD_SIDE, weights, 120));
    // Every mutate bumps the weight of one spanning-tree edge, so it
    // patches the factor; cycling through a fixed set keeps the mutate
    // cost the same from run to run, which the p99 solve latency tracks.
    let tree = spanning::max_weight_spanning_tree(&cold_graph).map_err(|e| e.to_string())?;
    let mutated = tree
        .iter()
        .step_by(tree.len() / MUTATED_EDGES)
        .copied()
        .collect();
    let hot_lg = hot_graph.laplacian();
    let first_rhs = random_rhs(&mut StdRng::seed_from_u64(seed ^ 0xf125), hot_graph.n());
    Ok(Inputs {
        hot,
        hot_graph,
        hot_lg,
        cold,
        cold_graph,
        mutated,
        first_rhs,
    })
}

/// A server with both graphs cached.
struct Served {
    server: ServerHandle,
    hot_key: u64,
    cold_key: u64,
    hot_selected: u64,
}

/// Binds a server and fills its cache cold. Returns it with the cold
/// `Sparsify` round trip of the hot graph and that plus the first solve.
fn set_up(inp: &Inputs) -> Result<(Served, f64, f64), String> {
    let server = serve(ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::connect(server.addr(), false)?;
    let t = Instant::now();
    let (hot_key, outcome, hot_selected) = conn.sparsify(&inp.hot)?;
    let sparsify_s = t.elapsed().as_secs_f64();
    conn.solve(hot_key, inp.first_rhs.clone())?;
    let tts = t.elapsed().as_secs_f64();
    let (cold_key, cold_outcome, _) = conn.sparsify(&inp.cold)?;
    if outcome != CacheOutcome::Built || cold_outcome != CacheOutcome::Built {
        return Err("a fresh server answered a cold sparsify from cache".to_string());
    }
    Ok((
        Served {
            server,
            hot_key,
            cold_key,
            hot_selected,
        },
        sparsify_s,
        tts,
    ))
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    solve_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    iters: Vec<f64>,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    pcg_solves: u64,
    pcg_bad: u64,
    resubmit_misses: u64,
    /// `(rhs, served x)` of sampled hot solves.
    hot_samples: Vec<(Vec<f64>, Vec<f64>)>,
    /// `(edits applied, rhs, served x)` of sampled cold solves.
    cold_samples: Vec<(usize, Vec<f64>, Vec<f64>)>,
    /// The edit sequence sent, with the key the server returned for each.
    edits: Vec<(WireEdit, u64)>,
    codec: Codec,
    split: PcgSplit,
}

/// Shared, read-only view of the workload for the client threads.
struct Env<'a> {
    inp: &'a Inputs,
    addr: SocketAddr,
    hot_key: u64,
    cold_key: u64,
    seed: u64,
    traced: bool,
    deadline: Instant,
}

/// One client's connection and schedule. Its preconditioner applications
/// are the served hot solves; the schedule interleaves the other request
/// kinds between them.
struct ClientState<'a> {
    env: &'a Env<'a>,
    id: usize,
    conn: Conn,
    rng: StdRng,
    cold_key: u64,
    solves: u64,
    log: ClientLog,
}

impl ClientState<'_> {
    fn failure(&mut self, e: String) {
        self.log.failed += 1;
        if self.log.errors.len() < 4 {
            self.log.errors.push(e);
        }
    }

    fn mutate_cold(&mut self) {
        let inp = self.env.inp;
        let g = &inp.cold_graph;
        let e = g.edge(inp.mutated[self.log.edits.len() % inp.mutated.len()] as usize);
        let edit = WireEdit::Add {
            u: e.u,
            v: e.v,
            weight: self.rng.gen_range(0.05..0.5),
        };
        let t = Instant::now();
        self.log.requests += 1;
        match self.conn.mutate(self.cold_key, edit) {
            Ok(key) => {
                self.log.mutate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                self.cold_key = key;
                self.log.edits.push((edit, key));
            }
            Err(e) => self.failure(e),
        }
        let b = random_rhs(&mut self.rng, g.n());
        let t = Instant::now();
        self.log.requests += 1;
        match self.conn.solve(self.cold_key, b.clone()) {
            Ok(x) => {
                self.log.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let k = self.log.edits.len();
                if self.env.traced || k <= ORACLE_EDITS {
                    self.log.cold_samples.push((k, b, x));
                }
            }
            Err(e) => {
                self.log.solve_ms.push(f64::INFINITY);
                self.failure(e);
            }
        }
    }

    fn resubmit_hot(&mut self) {
        self.log.requests += 1;
        match self.conn.sparsify(&self.env.inp.hot) {
            Ok((key, CacheOutcome::Hit, _)) if key == self.env.hot_key => {}
            Ok(_) => self.log.resubmit_misses += 1,
            Err(e) => self.failure(e),
        }
    }

    fn hot_solve(&mut self, r: &[f64], z: &mut [f64]) {
        self.solves += 1;
        if self.id == 0 && self.solves.is_multiple_of(MUTATE_EVERY) {
            self.mutate_cold();
        }
        if self.solves % RESUBMIT_EVERY == (RESUBMIT_EVERY / 2 + 13 * self.id as u64) {
            self.resubmit_hot();
        }
        let t = Instant::now();
        self.log.requests += 1;
        match self.conn.solve(self.env.hot_key, r.to_vec()) {
            Ok(x) => {
                self.log.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
                z.copy_from_slice(&x);
                if self.solves.is_multiple_of(ORACLE_EVERY) {
                    self.log.hot_samples.push((r.to_vec(), x));
                }
            }
            Err(e) => {
                self.log.solve_ms.push(f64::INFINITY);
                self.failure(e);
                // Identity fallback keeps the PCG running; the failure is
                // already counted.
                z.copy_from_slice(r);
            }
        }
    }
}

/// The served sparsifier solve as a PCG preconditioner.
struct RemotePrec<'a> {
    state: RefCell<ClientState<'a>>,
}

impl Preconditioner for RemotePrec<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.state.borrow_mut().hot_solve(r, z);
    }
}

fn client(env: &Env, id: usize) -> Result<ClientLog, String> {
    let conn = Conn::connect(env.addr, env.traced)?;
    let prec = RemotePrec {
        state: RefCell::new(ClientState {
            env,
            id,
            conn,
            rng: StdRng::seed_from_u64(env.seed ^ (0x5eed_0000 + id as u64)),
            cold_key: env.cold_key,
            solves: 0,
            log: ClientLog::default(),
        }),
    };
    let mut rng = StdRng::seed_from_u64(env.seed ^ (0xb0b0_0000 + id as u64));
    let (lg, n) = (&env.inp.hot_lg, env.inp.hot_graph.n());
    let opts = PcgOptions::paper_accuracy();
    let mut split = PcgSplit::default();
    let (mut iters, mut pcg_solves, mut pcg_bad) = (Vec::new(), 0, 0);
    while Instant::now() < env.deadline {
        let b = random_rhs(&mut rng, n);
        let (x, st) = if env.traced {
            split.solve(lg, &b, &prec, &opts)
        } else {
            pcg(lg, &b, &prec, &opts)
        };
        pcg_solves += 1;
        iters.push(st.iterations as f64);
        if !meets_tol(lg, &b, &x, &st) {
            pcg_bad += 1;
        }
    }
    let state = prec.state.into_inner();
    Ok(ClientLog {
        iters,
        pcg_solves,
        pcg_bad,
        split,
        codec: state.conn.codec.unwrap_or_default(),
        ..state.log
    })
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// Set-up and transport failures, as text.
pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let (mut setup_s, mut sparsify_s, mut tts) = (vec![], vec![], vec![]);
    let mut last: Option<(Inputs, Served)> = None;
    for _ in 0..SETUP_REPS {
        // The previous server shuts down outside the timed interval.
        drop(last.take());
        let t = Instant::now();
        let inp = make_inputs(args.seed)?;
        let (served, s, first) = set_up(&inp)?;
        setup_s.push(t.elapsed().as_secs_f64());
        sparsify_s.push(s);
        tts.push(first);
        last = Some((inp, served));
    }
    let (inp, served) = last.expect("at least one set-up");
    let addr = served.server.addr();
    let mut conn = Conn::connect(addr, false)?;
    let before = conn.stats()?;

    let env = Env {
        inp: &inp,
        addr,
        hot_key: served.hot_key,
        cold_key: served.cold_key,
        seed: args.seed,
        traced: args.trace,
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
    };
    let start = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let env = &env;
                s.spawn(move || client(env, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = conn.stats()?;
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Everything below is outside the measured window.
    let solve_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.solve_ms.iter().copied())
        .collect();
    let mutate_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.mutate_ms.iter().copied())
        .collect();
    let iters: Vec<f64> = logs.iter().flat_map(|l| l.iters.iter().copied()).collect();
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    let pcg_solves: u64 = logs.iter().map(|l| l.pcg_solves).sum();
    r.attempted = requests + pcg_solves;
    r.failed = logs.iter().map(|l| l.failed + l.pcg_bad).sum();
    for l in &logs {
        for e in &l.errors {
            r.fail_check(&format!("request failed: {e}"));
        }
        if l.pcg_bad > 0 {
            r.fail_check(&format!(
                "{} remote-preconditioned PCG solves missed 1e-3",
                l.pcg_bad
            ));
        }
        if l.resubmit_misses > 0 {
            r.fail_check("a re-submitted hot graph missed the cache");
        }
    }
    let served_solves = solve_ms.iter().filter(|v| v.is_finite()).count() as u64;
    if after.solves - before.solves != served_solves {
        r.fail_check("the server's solve count disagrees with the clients'");
    }
    let deadline_misses = after.deadline_misses - before.deadline_misses;
    if deadline_misses > r.failed {
        r.failed = deadline_misses;
        r.fail_check("deadline misses the clients did not see");
    }
    let cfg = params().to_config();
    let hot_oracle = check_hot(r, &inp, &cfg, &logs)?;
    let churn = check_cold(r, &inp, &cfg, &logs[0], args.trace)?;

    let throughput = requests as f64 / wall;
    let tail = supported_pct(solve_ms.len(), TAIL_PCT).unwrap_or(50);
    let density = served.hot_selected as f64 / inp.hot_graph.n() as f64;
    r.detail("requests", requests as f64);
    r.detail("mutates", mutate_ms.len() as f64);
    r.detail("pcg_solves", pcg_solves as f64);
    r.detail("solve_samples", solve_ms.len() as f64);
    r.detail("solve_tail_pct", f64::from(tail));
    r.detail("throughput_rps", throughput);
    r.detail("mutate_p50_ms", median(&mutate_ms));
    if let Some(p) = supported_pct(solve_ms.len(), 99) {
        r.detail(
            &format!("solve_p{p}_ms"),
            quantile(&solve_ms, f64::from(p) / 100.0),
        );
    }
    r.detail("setup_samples", setup_s.len() as f64);
    if !args.trace {
        r.metric("setup_s", median(&setup_s));
        r.metric("time_to_solution_s", median(&tts));
        r.metric("sparsify_s", median(&sparsify_s));
        r.metric("solve_ms", median(&solve_ms));
        r.metric(
            "solve_tail_ms",
            quantile(&solve_ms, f64::from(tail) / 100.0),
        );
        r.metric("pcg_iters", mean(&iters));
        r.metric("density", density);
        return Ok(());
    }

    // Per-layer metrics.
    let mut codec = Codec::default();
    let mut split = PcgSplit::default();
    for l in &logs {
        codec.encode_s += l.codec.encode_s;
        codec.decode_s += l.codec.decode_s;
        codec.bytes += l.codec.bytes;
        codec.frames += l.codec.frames;
        split.merge(&l.split);
    }
    let frames = codec.frames.max(1) as f64;
    let (encode_us, decode_us) = (codec.encode_s / frames * 1e6, codec.decode_s / frames * 1e6);
    r.metric("serve.protocol.encode_us", encode_us);
    r.metric("serve.protocol.decode_us", decode_us);
    r.metric("serve.protocol.frame_bytes", codec.bytes as f64 / frames);
    let passes = after.batches - before.batches;
    let cols_per_pass = (after.solves - before.solves) as f64 / passes.max(1) as f64;
    r.metric("serve.server.passes", passes as f64);
    r.metric("serve.server.cols_per_pass", cols_per_pass);
    r.metric("serve.server.deadline_misses", deadline_misses as f64);
    r.metric(
        "serve.cache.hit_ratio",
        after.sparsify_hits as f64 / (after.sparsify_hits + after.sparsify_builds).max(1) as f64,
    );
    r.metric("serve.cache.resident_bytes", after.resident_bytes as f64);
    r.metric("serve.throughput_rps", throughput);
    r.metric("serve.mutate_p50_ms", median(&mutate_ms));
    let pass_ms = pass_ms(&hot_oracle, cols_per_pass, args.seed);
    r.metric("solver.pass_ms", pass_ms);
    // Round trip minus the pass and the codec on both ends (the server
    // runs the mirror-image decode and encode): queueing, lock waits and
    // the loopback socket. An estimate, not a measured span.
    r.metric(
        "serve.wait_est_ms",
        median(&solve_ms) - pass_ms - 2.0 * (encode_us + decode_us) / 1e3,
    );
    if let Some(c) = churn {
        r.metric("core.churn.apply_ms", median(&c.apply_ms));
        r.metric("core.churn.cols_refactored", c.cols_refactored as f64);
        r.metric(
            "core.churn.reuse_frac",
            1.0 - c.cols_refactored as f64 / c.cols_total.max(1) as f64,
        );
        r.metric("core.churn.full_refactors", c.full_refactors as f64);
    }
    split.record(r);

    // The densification replay on the hot graph, after the traffic.
    let mut replays = ReplayRuns::default();
    for _ in 0..2 {
        replays.run_once(&inp.hot_graph, &cfg, r)?;
    }
    replays.record(r);
    drop(conn);
    served.server.shutdown();
    Ok(())
}

/// Compares sampled hot solves with a local oracle built from the same
/// graph and configuration; returns the oracle.
fn check_hot(
    r: &mut Report,
    inp: &Inputs,
    cfg: &SparsifyConfig,
    logs: &[ClientLog],
) -> Result<IncrementalSparsifier, String> {
    let oracle =
        IncrementalSparsifier::new(&inp.hot_graph, cfg).map_err(|e| format!("oracle: {e}"))?;
    let mut checked = 0;
    for (rhs, x) in logs.iter().flat_map(|l| &l.hot_samples) {
        if dense::rel_diff(x, &oracle.solver().solve(rhs)) > ORACLE_TOL {
            r.fail_check("a served hot solve differs from the local oracle");
        }
        checked += 1;
    }
    r.detail("oracle_hot_checked", f64::from(checked));
    Ok(oracle)
}

/// Replay of the cold graph's edit sequence through a local incremental
/// sparsifier.
struct Churn {
    apply_ms: Vec<f64>,
    cols_refactored: usize,
    cols_total: usize,
    full_refactors: usize,
}

/// Replays client 0's edits through a local `IncrementalSparsifier`,
/// checking every returned key and the sampled cold solves. Traced runs
/// replay every edit and return the churn statistics.
fn check_cold(
    r: &mut Report,
    inp: &Inputs,
    cfg: &SparsifyConfig,
    log: &ClientLog,
    traced: bool,
) -> Result<Option<Churn>, String> {
    let mut inc =
        IncrementalSparsifier::new(&inp.cold_graph, cfg).map_err(|e| format!("oracle: {e}"))?;
    let upto = if traced {
        log.edits.len()
    } else {
        log.edits.len().min(ORACLE_EDITS)
    };
    let mut apply_ms = Vec::new();
    let mut checked = 0;
    for (k, (edit, key)) in log.edits[..upto].iter().enumerate() {
        let t = std::time::Instant::now();
        inc.apply_edits(&[edit.to_graph_edit()])
            .map_err(|e| format!("oracle edit: {e}"))?;
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if cache_key(inc.graph(), inc.config()) != *key {
            r.fail_check("the served cold graph diverged from the local edit replay");
        }
        for (_, rhs, x) in log.cold_samples.iter().filter(|(j, _, _)| *j == k + 1) {
            if dense::rel_diff(x, &inc.solver().solve(rhs)) > ORACLE_TOL {
                r.fail_check("a served cold solve differs from the local oracle");
            }
            checked += 1;
        }
    }
    r.detail("oracle_cold_checked", f64::from(checked));
    r.detail("oracle_edits_replayed", upto as f64);
    if !traced {
        return Ok(None);
    }
    let t = inc.totals();
    Ok(Some(Churn {
        apply_ms,
        cols_refactored: t.cols_refactored,
        cols_total: t.cols_total,
        full_refactors: t.full_refactors,
    }))
}

/// Median time of a local `solve_many` at the observed pass width on the
/// hot graph's factor.
fn pass_ms(oracle: &IncrementalSparsifier, cols_per_pass: f64, seed: u64) -> f64 {
    let width = (cols_per_pass.round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a55);
    let n = oracle.graph().n();
    let cols: Vec<Vec<f64>> = (0..width).map(|_| random_rhs(&mut rng, n)).collect();
    let mut ms = Vec::new();
    for _ in 0..31 {
        let t = Instant::now();
        std::hint::black_box(oracle.solver().solve_many(&cols));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}
