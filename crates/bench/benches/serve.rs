//! Serving throughput: batched concurrent solves vs sequential
//! per-request solves against the same cached factorization.
//!
//! The A/B isolates the server's solve batching (sass-serve's executor
//! coalescing concurrent requests into one
//! [`GroundedSolver::solve_many`](sass_solver::GroundedSolver::solve_many)
//! pass). Both sides run the *same* load — 8 concurrent client threads
//! over real loopback TCP — so framing, syscall, and context-switch
//! costs cancel; the only difference is `max_batch_cols`:
//!
//! - `sequential`: `max_batch_cols = 1` — every request is its own
//!   factor pass, exactly what a server without coalescing would do;
//! - `batched`: `max_batch_cols = 256` — the executor drains whatever
//!   is queued on the key into one blocked multi-RHS pass.
//!
//! The speedup is *algorithmic* — the blocked pass shares the factor's
//! forward/backward sweeps across columns instead of re-walking it per
//! right-hand side — not extra cores for the concurrent clients. The
//! bench asserts that batching is no slower than sequential serving.
//! Note the ceiling: sparsifier factors
//! are near-tree (≈1.2·n nonzeros, deep narrow etrees), which caps the
//! blocked gain well below the ~2.6x recorded for full-Laplacian
//! factors in BENCH_SOLVE_MANY.json; see the provenance note in the
//! JSON records. Each side runs several trials and keeps the fastest
//! wall time.
//!
//! A third section drives one graph edit through the mutate request and
//! records the incremental-path observables (dirty edges, factor
//! columns re-run vs total, and that the build counter did not move —
//! the cached entry was patched, not rebuilt). Record the baseline with
//!
//! ```text
//! CRITERION_JSON=BENCH_SERVE.json cargo bench -p sass-bench --bench serve
//! ```

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use sass_bench::record_provenance;
use sass_graph::generators::{grid2d, WeightModel};
use sass_graph::Graph;
use sass_serve::{serve, Client, ServerConfig, SparsifyParams, WireEdit, WireGraph};

/// Concurrent client threads (both configurations).
const CLIENTS: usize = 8;
/// Solve requests issued per client thread (total = CLIENTS x this).
const REQUESTS_PER_CLIENT: usize = 40;
/// Trials per configuration; the fastest wall time is kept (a loaded
/// host schedules the client threads noisily).
const TRIALS: usize = 3;
const SIGMA2: f64 = 100.0;
const SEED: u64 = 7;

fn workload() -> Graph {
    // Large enough that one factor pass clearly dominates the loopback
    // round-trip, small enough that the blocked sweep stays
    // cache-resident (the blocked path loses its locality edge on
    // near-tree factors past ~50k vertices).
    grid2d(140, 140, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7)
}

fn wire(g: &Graph) -> WireGraph {
    WireGraph {
        n: g.n() as u64,
        edges: g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect(),
    }
}

fn params() -> SparsifyParams {
    SparsifyParams {
        sigma2: SIGMA2,
        seed: SEED,
    }
}

/// Deterministic mean-zero right-hand side.
fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(seed);
            ((x >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        })
        .collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    for v in &mut b {
        *v -= mean;
    }
    b
}

/// Wall time, factor passes, and max observed batch for `CLIENTS`
/// threads issuing `REQUESTS_PER_CLIENT` solves each against a server
/// capped at `max_batch_cols` columns per pass.
fn run_throughput(max_batch_cols: usize) -> (Duration, u64, u64) {
    let g = workload();
    let server = serve(ServerConfig {
        max_batch_cols,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.addr();
    let mut admin = Client::connect(addr).expect("connect admin");
    let receipt = admin.sparsify(params(), wire(&g)).expect("seed cache");
    let key = receipt.key;
    let n = g.n();

    // Warm every connection and the executor before timing.
    let mut conns: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.solve(key, rhs(n, 900 + i as u64), 0).expect("warm solve");
    }
    let stats_before = admin.stats().expect("stats");

    let t0 = Instant::now();
    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(ci, mut c)| {
            std::thread::spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let b = rhs(n, (ci * REQUESTS_PER_CLIENT + r) as u64);
                    c.solve(key, b, 0).expect("solve");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let wall = t0.elapsed();

    let stats = admin.stats().expect("stats");
    let passes = stats.batches - stats_before.batches;
    let max_batch = stats.max_batch;
    server.shutdown();
    (wall, passes, max_batch)
}

/// Fastest of [`TRIALS`] runs.
fn best_of(max_batch_cols: usize) -> (Duration, u64, u64) {
    (0..TRIALS)
        .map(|_| run_throughput(max_batch_cols))
        .min_by_key(|(wall, _, _)| *wall)
        .expect("at least one trial")
}

fn bench_serve(c: &mut Criterion) {
    record_provenance("serve");
    let g = workload();
    let n = g.n();
    eprintln!(
        "[serve] workload: {n} vertices, {} edges, sigma2 = {SIGMA2}",
        g.m()
    );

    // Criterion row: warm single-request round-trip latency over
    // loopback (one connection — the request is its own pass).
    {
        let server = serve(ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let key = client.sparsify(params(), wire(&g)).expect("seed").key;
        let b = rhs(n, 1);
        client.solve(key, b.clone(), 0).expect("warm");
        c.bench_function("serve/solve_roundtrip", |bch| {
            bch.iter(|| {
                let solved = client.solve(key, b.clone(), 0).expect("solve");
                criterion::black_box(solved.xs[0][0])
            })
        });
        server.shutdown();
    }

    // Throughput A/B on the same cached factor: identical concurrency,
    // batching capped at 1 column vs allowed to coalesce.
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let (seq_wall, seq_passes, _) = best_of(1);
    let (bat_wall, bat_passes, bat_max) = best_of(256);
    let seq_rps = total as f64 / seq_wall.as_secs_f64();
    let bat_rps = total as f64 / bat_wall.as_secs_f64();
    let speedup = bat_rps / seq_rps;
    eprintln!(
        "[serve] sequential (max_batch_cols=1): {total} requests in {seq_wall:.2?} \
         ({seq_rps:.0} req/s, {seq_passes} passes)"
    );
    eprintln!(
        "[serve] batched ({CLIENTS} clients, opportunistic): {total} requests in {bat_wall:.2?} \
         ({bat_rps:.0} req/s, {bat_passes} passes, max batch {bat_max} cols)"
    );
    eprintln!("[serve] batched vs sequential: {speedup:.2}x");
    sass_bench::append_json_record(&format!(
        "{{\"id\":\"serve/throughput/sequential\",\"requests\":{total},\
         \"clients\":{CLIENTS},\"max_batch_cols\":1,\
         \"wall_ns\":{},\"req_per_s\":{seq_rps:.1},\"passes\":{seq_passes}}}",
        seq_wall.as_nanos()
    ));
    sass_bench::append_json_record(&format!(
        "{{\"id\":\"serve/throughput/batched\",\"requests\":{total},\
         \"clients\":{CLIENTS},\"max_batch_cols\":256,\
         \"wall_ns\":{},\"req_per_s\":{bat_rps:.1},\"passes\":{bat_passes},\
         \"max_batch_cols_observed\":{bat_max}}}",
        bat_wall.as_nanos()
    ));
    sass_bench::append_json_record(&format!(
        "{{\"id\":\"serve/speedup\",\"batched_vs_sequential\":{speedup:.2},\
         \"note\":\"both sides run {CLIENTS} concurrent clients over loopback TCP; \
         only max_batch_cols differs, so the gain is algorithmic (solve_many shares \
         factor sweeps across coalesced columns), not extra cores for the clients. \
         Near-tree sparsifier factors cap it well below the full-Laplacian \
         blocked-solve ratio in BENCH_SOLVE_MANY.json.\"}}"
    ));
    // The gate is a ratio taken within this run, so it holds on any host:
    // coalescing must never make serving slower than one pass per request.
    assert!(
        speedup >= 1.0,
        "batched serving is slower than sequential: {speedup:.2}x"
    );

    // Mutate-then-solve through the incremental path.
    {
        let server = serve(ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let key = client.sparsify(params(), wire(&g)).expect("seed").key;
        let t0 = Instant::now();
        let receipt = client
            .mutate(
                key,
                vec![WireEdit::Add {
                    u: 0,
                    v: (n - 1) as u32,
                    weight: 0.8,
                }],
            )
            .expect("mutate");
        let mutate_wall = t0.elapsed();
        client
            .solve(receipt.key, rhs(n, 42), 0)
            .expect("solve after mutate");
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats.sparsify_builds, 1,
            "mutation must patch the cached entry, not rebuild"
        );
        let reuse =
            100.0 * (1.0 - receipt.cols_refactored as f64 / (receipt.cols_total.max(1)) as f64);
        eprintln!(
            "[serve] mutate: 1 edit in {mutate_wall:.2?}, {} dirty edge(s), \
             {}/{} factor columns re-run ({reuse:.1}% reused), builds still {}",
            receipt.dirty_edges, receipt.cols_refactored, receipt.cols_total, stats.sparsify_builds
        );
        sass_bench::append_json_record(&format!(
            "{{\"id\":\"serve/mutate\",\"wall_ns\":{},\"dirty_edges\":{},\
             \"cols_refactored\":{},\"cols_total\":{},\"full_refactor\":{},\
             \"factor_reuse_pct\":{reuse:.1},\"sparsify_builds\":{}}}",
            mutate_wall.as_nanos(),
            receipt.dirty_edges,
            receipt.cols_refactored,
            receipt.cols_total,
            receipt.full_refactor,
            stats.sparsify_builds
        ));
        server.shutdown();
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
