//! End-to-end tests: a real server on a loopback socket, real clients,
//! every protocol path exercised over the wire.

use sass_core::{IncrementalSparsifier, SparsifyConfig};
use sass_graph::generators::{grid2d, WeightModel};
use sass_serve::{
    serve, CacheOutcome, Client, ErrorCode, Limits, ServeError, ServerConfig, SparsifyParams,
    WireEdit, WireGraph,
};

const SIGMA2: f64 = 100.0;
const SEED: u64 = 7;

fn test_graph(seed: u64) -> sass_graph::Graph {
    grid2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed)
}

fn wire(g: &sass_graph::Graph) -> WireGraph {
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

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic mean-zero vector.
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

fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "component {i}: {x} vs {y}"
        );
    }
}

fn remote_code(err: ServeError) -> ErrorCode {
    match err {
        ServeError::Remote { code, .. } => code,
        other => panic!("expected a remote error, got: {other}"),
    }
}

#[test]
fn sparsify_solve_matches_local_pipeline() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");

    let g = test_graph(1);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");
    assert_eq!(receipt.cache, CacheOutcome::Built);
    assert_eq!(receipt.n, g.n() as u64);
    assert_eq!(receipt.tree_edges, g.n() as u64 - 1);
    assert!(receipt.selected_edges >= receipt.tree_edges);

    // The served solve must match the local pipeline on the same graph
    // and config (to solve_many's documented tolerance vs per-RHS).
    let local = IncrementalSparsifier::new(&g, &SparsifyConfig::new(SIGMA2).with_seed(SEED))
        .expect("local sparsifier");
    let b = rhs(g.n(), 3);
    let want = local.solver().solve(&b);
    let got = client.solve(receipt.key, b, 0).expect("solve");
    assert!(got.batch_cols >= 1);
    assert_close(&got.xs[0], &want, 1e-12);

    server.shutdown();
}

#[test]
fn resubmission_hits_cache_regardless_of_edge_order() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g = test_graph(2);
    let first = client.sparsify(params(), wire(&g)).expect("first");
    assert_eq!(first.cache, CacheOutcome::Built);

    // Same graph, reversed edge order: canonicalization must land on
    // the same key and serve the entry warm.
    let mut shuffled = wire(&g);
    shuffled.edges.reverse();
    let second = client.sparsify(params(), shuffled).expect("second");
    assert_eq!(second.cache, CacheOutcome::Hit);
    assert_eq!(second.key, first.key);

    // A different seed is a different pipeline: distinct key, fresh build.
    let other = client
        .sparsify(
            SparsifyParams {
                sigma2: SIGMA2,
                seed: SEED + 1,
            },
            wire(&g),
        )
        .expect("other config");
    assert_ne!(other.key, first.key);
    assert_eq!(other.cache, CacheOutcome::Built);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.sparsify_builds, 2);
    assert_eq!(stats.sparsify_hits, 1);
    assert_eq!(stats.entries, 2);

    server.shutdown();
}

#[test]
fn mutate_reuses_the_cached_entry_incrementally() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g = test_graph(3);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");

    // One inserted edge: the server must patch the live entry, not
    // rebuild. dirty_edges == 1 pins the localized re-scoring; the
    // build counter pins that no from-scratch construction ran.
    let edit = WireEdit::Add {
        u: 0,
        v: (g.n() - 1) as u32,
        weight: 1.25,
    };
    let mutated = client.mutate(receipt.key, vec![edit]).expect("mutate");
    assert_ne!(mutated.key, receipt.key, "edited graph must re-key");
    assert_eq!(mutated.dirty_edges, 1);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.mutations, 1);
    assert_eq!(
        stats.sparsify_builds, 1,
        "mutation must reuse the cached entry, never rebuild"
    );
    assert_eq!(stats.mutation_rebuilds, 0);
    assert_eq!(stats.entries, 1, "the entry moved keys, not duplicated");

    // The old key no longer addresses anything...
    let b = rhs(g.n(), 5);
    let err = client
        .solve(receipt.key, b.clone(), 0)
        .expect_err("stale key");
    assert_eq!(remote_code(err), ErrorCode::UnknownKey);

    // ...and solves under the new key match a local pipeline that
    // applied the same edit to the same frozen basis.
    let mut local = IncrementalSparsifier::new(&g, &SparsifyConfig::new(SIGMA2).with_seed(SEED))
        .expect("local sparsifier");
    local.add_edge(0, g.n() - 1, 1.25).expect("local edit");
    let want = local.solver().solve(&b);
    let got = client.solve(mutated.key, b, 0).expect("solve after mutate");
    assert_close(&got.xs[0], &want, 1e-12);

    // Resubmitting the *edited* graph converges onto the mutated
    // entry's key — content addressing, not submission history.
    let resubmitted = client
        .sparsify(params(), wire(local.graph()))
        .expect("resubmit edited graph");
    assert_eq!(resubmitted.key, mutated.key);
    assert_eq!(resubmitted.cache, CacheOutcome::Hit);

    server.shutdown();
}

#[test]
fn rejected_edit_leaves_the_entry_live() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g = test_graph(4);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");

    // Removing a nonexistent edge is rejected atomically.
    let err = client
        .mutate(receipt.key, vec![WireEdit::Remove { u: 0, v: 62 }])
        .expect_err("bad edit");
    assert_eq!(remote_code(err), ErrorCode::InvalidGraph);

    // The entry still serves under its original key.
    let b = rhs(g.n(), 9);
    client
        .solve(receipt.key, b, 0)
        .expect("solve after rejected edit");

    server.shutdown();
}

#[test]
fn concurrent_solves_on_one_key_are_correct() {
    let server = serve(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let g = test_graph(5);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");
    let key = receipt.key;
    let n = g.n();

    // How the executor splits these into passes depends on timing; the
    // pass layout of one drain is pinned by the executor's unit tests.
    const CLIENTS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.solve(key, rhs(n, 100 + i as u64), 0).expect("solve")
            })
        })
        .collect();
    let solved: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    // Whichever columns shared a pass, each client gets its own answer.
    let local = IncrementalSparsifier::new(&g, &SparsifyConfig::new(SIGMA2).with_seed(SEED))
        .expect("local");
    for (i, s) in solved.iter().enumerate() {
        let want = local.solver().solve(&rhs(n, 100 + i as u64));
        assert_close(&s.xs[0], &want, 1e-12);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.solves, CLIENTS as u64);

    server.shutdown();
}

#[test]
fn solve_many_round_trips_multiple_columns() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g = test_graph(6);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");
    let cols: Vec<Vec<f64>> = (0..4).map(|i| rhs(g.n(), 200 + i)).collect();
    let solved = client
        .solve_many(receipt.key, cols.clone(), 0)
        .expect("solve_many");
    assert_eq!(solved.xs.len(), 4);
    assert!(solved.batch_cols >= 4);

    let local = IncrementalSparsifier::new(&g, &SparsifyConfig::new(SIGMA2).with_seed(SEED))
        .expect("local");
    for (x, b) in solved.xs.iter().zip(&cols) {
        assert_close(x, &local.solver().solve(b), 1e-12);
    }

    server.shutdown();
}

#[test]
fn ragged_solve_many_is_rejected_before_sending() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let graph = WireGraph {
        n: 2,
        edges: vec![(0, 1, 1.0)],
    };
    let receipt = client.sparsify(params(), graph).expect("sparsify");

    // 2 + 1 + 3 values would travel as three 2-row columns and be
    // answered as if the request had asked for those.
    let ragged = vec![vec![1.0, -1.0], vec![0.5], vec![-0.5, 2.0, -2.0]];
    let err = client
        .solve_many(receipt.key, ragged, 0)
        .expect_err("ragged columns");
    assert!(matches!(err, ServeError::Protocol { .. }), "{err}");

    // Nothing reached the server, and the connection still serves.
    assert_eq!(client.stats().expect("stats").solves, 0);
    client
        .solve_many(receipt.key, vec![vec![1.0, -1.0]; 2], 0)
        .expect("equal columns");
    assert_eq!(client.stats().expect("stats").solves, 1);

    server.shutdown();
}

#[test]
fn limits_reject_with_structured_errors() {
    let server = serve(ServerConfig {
        limits: Limits {
            max_vertices: 16,
            max_rhs_columns: 2,
            ..Limits::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // 64 vertices against a 16-vertex ceiling.
    let g = test_graph(7);
    let err = client.sparsify(params(), wire(&g)).expect_err("too big");
    assert_eq!(remote_code(err), ErrorCode::LimitExceeded);

    // A graph under the ceiling is accepted; then too many rhs columns.
    let small = grid2d(4, 4, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
    let receipt = client.sparsify(params(), wire(&small)).expect("small");
    let cols: Vec<Vec<f64>> = (0..3).map(|i| rhs(small.n(), i)).collect();
    let err = client
        .solve_many(receipt.key, cols, 0)
        .expect_err("too many columns");
    assert_eq!(remote_code(err), ErrorCode::LimitExceeded);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.limit_rejections, 2);

    server.shutdown();
}

#[test]
fn unknown_key_and_bad_rhs_are_structured() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let err = client
        .solve(0xdead_beef, vec![1.0, -1.0], 0)
        .expect_err("unknown key");
    assert_eq!(remote_code(err), ErrorCode::UnknownKey);

    let g = test_graph(9);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");
    let err = client
        .solve(receipt.key, vec![1.0, -1.0], 0) // wrong length
        .expect_err("bad rhs");
    assert_eq!(remote_code(err), ErrorCode::InvalidGraph);

    server.shutdown();
}

#[test]
fn invalidation_drops_the_entry() {
    let server = serve(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g = test_graph(10);
    let receipt = client.sparsify(params(), wire(&g)).expect("sparsify");
    assert!(client.invalidate(receipt.key).expect("invalidate"));
    assert!(!client.invalidate(receipt.key).expect("second invalidate"));

    let err = client
        .solve(receipt.key, rhs(g.n(), 1), 0)
        .expect_err("solve after invalidate");
    assert_eq!(remote_code(err), ErrorCode::UnknownKey);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.entries, 0);

    server.shutdown();
}

#[test]
fn lru_budget_evicts_cold_entries() {
    // Budget sized from a real entry so the test tracks memory_bytes
    // drift: fits two comfortably, never three.
    let probe = IncrementalSparsifier::new(
        &test_graph(11),
        &SparsifyConfig::new(SIGMA2).with_seed(SEED),
    )
    .expect("probe")
    .memory_bytes();
    let server = serve(ServerConfig {
        cache_budget_bytes: probe * 5 / 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let g1 = test_graph(11);
    let g2 = test_graph(12);
    let g3 = test_graph(13);
    let r1 = client.sparsify(params(), wire(&g1)).expect("g1");
    let r2 = client.sparsify(params(), wire(&g2)).expect("g2");
    // Touch g1 so g2 is the LRU victim when g3 lands.
    client.solve(r1.key, rhs(g1.n(), 1), 0).expect("warm g1");
    let r3 = client.sparsify(params(), wire(&g3)).expect("g3");

    let stats = client.stats().expect("stats");
    assert!(stats.evictions >= 1, "expected at least one eviction");
    assert!(stats.entries <= 2);

    // The evicted key now reports UnknownKey; the survivors solve.
    let err = client
        .solve(r2.key, rhs(g2.n(), 1), 0)
        .expect_err("evicted entry");
    assert_eq!(remote_code(err), ErrorCode::UnknownKey);
    client.solve(r1.key, rhs(g1.n(), 2), 0).expect("g1 lives");
    client.solve(r3.key, rhs(g3.n(), 2), 0).expect("g3 lives");

    server.shutdown();
}

#[test]
fn malformed_and_versioned_frames_get_structured_replies() {
    use sass_serve::protocol::{read_frame, write_frame};
    use sass_serve::{Request, Response, PROTOCOL_VERSION};

    let server = serve(ServerConfig::default()).expect("bind");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = std::io::BufWriter::new(stream);

    let mut exchange = |payload: &[u8]| -> Response {
        write_frame(&mut writer, payload).expect("write");
        let reply = read_frame(&mut reader, 1 << 20)
            .expect("read")
            .expect("frame");
        Response::decode(&reply).expect("decode")
    };

    // Unknown version byte: the reply names both versions.
    let resp = exchange(&[PROTOCOL_VERSION + 1, 0x01]);
    let Response::Error {
        code: ErrorCode::UnsupportedVersion,
        message,
    } = resp
    else {
        panic!("expected an UnsupportedVersion error, got {resp:?}");
    };
    assert!(
        message.contains(&format!("version {PROTOCOL_VERSION},"))
            && message.contains(&format!("carried {}", PROTOCOL_VERSION + 1)),
        "{message}"
    );

    // Unknown kind byte.
    let resp = exchange(&[PROTOCOL_VERSION, 0x42]);
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::UnknownKind,
            ..
        }
    ));

    // Truncated body (a solve frame with no fields at all).
    let resp = exchange(&[PROTOCOL_VERSION, 0x03]);
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));

    // Length-prefixed framing survives all of the above: a valid ping
    // on the same connection still answers.
    let resp = exchange(&Request::Ping.encode());
    assert!(matches!(resp, Response::Pong));

    server.shutdown();
}
