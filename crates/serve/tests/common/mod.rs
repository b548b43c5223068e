//! One sample of every request and response kind, each paired with its
//! payload bytes (version, kind, body) written out by hand from the
//! tables in `docs/PROTOCOL.md`. Spaces separate the fields.
//!
//! Shared by the codec's unit tests and by the integration tests in this
//! directory; the including module must have the message types in scope.

use super::{
    CacheOutcome, ErrorCode, Request, Response, ServerStats, SparsifyParams, WireEdit, WireGraph,
};

/// Every request kind, in kind-byte order.
pub fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, "01 01"),
        (
            Request::Sparsify {
                params: SparsifyParams {
                    sigma2: 100.0,
                    seed: 7,
                },
                graph: WireGraph {
                    n: 3,
                    edges: vec![(0, 1, 1.5), (1, 2, 0.25)],
                },
            },
            "01 02 0000000000005940 0700000000000000 0300000000000000 02000000 \
             00000000 01000000 000000000000f83f \
             01000000 02000000 000000000000d03f",
        ),
        (
            Request::Solve {
                key: 0xdead_beef,
                deadline_ms: 250,
                rhs: vec![1.0, -0.5, -0.5],
            },
            "01 03 efbeadde00000000 fa000000 03000000 \
             000000000000f03f 000000000000e0bf 000000000000e0bf",
        ),
        (
            Request::SolveMany {
                key: 1,
                deadline_ms: 0,
                rhs: vec![vec![1.0, -1.0], vec![2.0, -2.0]],
            },
            "01 04 0100000000000000 00000000 02000000 02000000 \
             000000000000f03f 000000000000f0bf 0000000000000040 00000000000000c0",
        ),
        (
            Request::Mutate {
                key: 9,
                edits: vec![
                    WireEdit::Add {
                        u: 0,
                        v: 5,
                        weight: 2.0,
                    },
                    WireEdit::Remove { u: 1, v: 2 },
                ],
            },
            "01 05 0900000000000000 02000000 \
             00 00000000 05000000 0000000000000040 \
             01 01000000 02000000 0000000000000000",
        ),
        (Request::Invalidate { key: 3 }, "01 06 0300000000000000"),
        (Request::Stats, "01 07"),
    ]
}

/// Every response kind, in kind-byte order.
pub fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Pong, "01 81"),
        (
            Response::SparsifyOk {
                key: 42,
                n: 100,
                selected_edges: 120,
                tree_edges: 99,
                cache: CacheOutcome::Hit,
            },
            "01 82 2a00000000000000 6400000000000000 7800000000000000 6300000000000000 01",
        ),
        (
            Response::SolveOk {
                x: vec![0.5, -0.5],
                batch_cols: 8,
            },
            "01 83 08000000 02000000 000000000000e03f 000000000000e0bf",
        ),
        (
            Response::SolveManyOk {
                xs: vec![vec![1.0], vec![2.0]],
                batch_cols: 2,
            },
            "01 84 02000000 02000000 01000000 000000000000f03f 0000000000000040",
        ),
        (
            Response::MutateOk {
                key: 7,
                dirty_edges: 3,
                selection_changed: true,
                cols_refactored: 12,
                cols_total: 99,
                full_refactor: false,
            },
            "01 85 0700000000000000 0300000000000000 01 0c00000000000000 6300000000000000 00",
        ),
        (Response::InvalidateOk { existed: false }, "01 86 00"),
        (
            Response::StatsOk(ServerStats {
                entries: 1,
                resident_bytes: 4096,
                budget_bytes: 1 << 20,
                sparsify_hits: 2,
                sparsify_builds: 1,
                evictions: 0,
                invalidations: 0,
                mutations: 5,
                mutation_rebuilds: 0,
                solves: 17,
                batches: 3,
                max_batch: 9,
                deadline_misses: 1,
                limit_rejections: 2,
            }),
            "01 87 0100000000000000 0010000000000000 0000100000000000 \
             0200000000000000 0100000000000000 0000000000000000 0000000000000000 \
             0500000000000000 0000000000000000 1100000000000000 0300000000000000 \
             0900000000000000 0100000000000000 0200000000000000",
        ),
        (
            Response::Error {
                code: ErrorCode::UnknownKey,
                message: "no entry under 0x2a".to_string(),
            },
            // "no entry under 0x2a" is 19 (0x13) bytes of ASCII.
            "01 ff 0400 1300 6e6f20656e74727920756e6465722030783261",
        ),
    ]
}
