//! Codec tests through the public API: golden bytes for every message
//! kind, the two decode rules `docs/PROTOCOL.md` sets for error codes
//! and booleans, and generated round trips and byte mutations on the
//! proptest shim.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;
use sass_serve::{
    CacheOutcome, ErrorCode, Request, Response, ServeError, ServerStats, SparsifyParams, WireEdit,
    WireGraph,
};

/// Parses a hex string, ignoring whitespace.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex digit count in {s:?}");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

// A round trip cannot see a layout change made the same way on both
// sides; bytes written from the protocol tables can.
#[test]
fn every_kind_encodes_to_its_golden_bytes() {
    for (req, golden) in common::requests() {
        let bytes = hex(golden);
        assert_eq!(req.encode(), bytes, "{req:?}");
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }
    for (resp, golden) in common::responses() {
        let bytes = hex(golden);
        assert_eq!(resp.encode(), bytes, "{resp:?}");
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }
}

// A client treats an error code it does not know as `Internal`, so a
// server may append codes without a version bump.
#[test]
fn unknown_error_code_decodes_as_internal() {
    let frame = hex("01 ff 2a00 0200 6869"); // code 42, message "hi"
    assert_eq!(
        Response::decode(&frame).unwrap(),
        Response::Error {
            code: ErrorCode::Internal,
            message: "hi".to_string(),
        }
    );
}

// Booleans and the cache byte are 0 or 1; anything else is malformed.
#[test]
fn boolean_and_cache_bytes_other_than_0_or_1_are_malformed() {
    let mutate_ok = "01 85 0700000000000000 0300000000000000";
    for (field, frame) in [
        ("existed", "01 86 02".to_string()),
        (
            "cache",
            "01 82 2a00000000000000 6400000000000000 7800000000000000 6300000000000000 02"
                .to_string(),
        ),
        (
            "selection_changed",
            format!("{mutate_ok} ff 0c00000000000000 6300000000000000 00"),
        ),
        (
            "full_refactor",
            format!("{mutate_ok} 00 0c00000000000000 6300000000000000 80"),
        ),
    ] {
        let err = Response::decode(&hex(&frame)).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{field}: {err}");
    }
}

const CODES: [ErrorCode; 9] = [
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

/// Request kinds, then response kinds.
const KINDS: [u8; 15] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0xff,
];

/// What a generated message of any kind is built from.
#[derive(Debug)]
struct Parts {
    words: Vec<u64>,
    floats: Vec<f64>,
    cols: usize,
    text: String,
}

/// Any bit pattern, with −0.0, a NaN payload and infinities drawn often.
fn float() -> impl Strategy<Value = f64> {
    (0u8..8, 0u64..=u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => -0.0,
        1 => f64::from_bits(0x7ff8_0000_0000_0001),
        2 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    })
}

fn parts() -> impl Strategy<Value = Parts> {
    (
        vec(0u64..=u64::MAX, 16),
        vec(float(), 0..48),
        0usize..4,
        vec(0u32..0x11_0000, 0..24),
    )
        .prop_map(|(words, floats, cols, chars)| Parts {
            words,
            floats,
            cols,
            text: chars.into_iter().filter_map(char::from_u32).collect(),
        })
}

impl Parts {
    /// Equal-length columns; no columns when there are too few values
    /// for one row each (a `rows = 0` block with columns is charged a
    /// row per column, so it cannot round-trip by design).
    fn columns(&self) -> Vec<Vec<f64>> {
        let rows = self.floats.len() / self.cols.max(1);
        if rows == 0 {
            return Vec::new();
        }
        self.floats
            .chunks_exact(rows)
            .take(self.cols)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Endpoints of the `i`-th edge or edit.
    fn ends(&self, i: usize) -> (u32, u32) {
        let w = &self.words;
        (w[i % 16] as u32, (w[(i + 1) % 16] >> 32) as u32)
    }

    fn request(&self, kind: usize) -> Request {
        let w = &self.words;
        match kind {
            0 => Request::Ping,
            1 => Request::Sparsify {
                params: SparsifyParams {
                    sigma2: f64::from_bits(w[0]),
                    seed: w[1],
                },
                graph: WireGraph {
                    n: w[2],
                    edges: self
                        .floats
                        .iter()
                        .enumerate()
                        .map(|(i, &weight)| {
                            let (u, v) = self.ends(i);
                            (u, v, weight)
                        })
                        .collect(),
                },
            },
            2 => Request::Solve {
                key: w[0],
                deadline_ms: w[1] as u32,
                rhs: self.floats.clone(),
            },
            3 => Request::SolveMany {
                key: w[0],
                deadline_ms: w[1] as u32,
                rhs: self.columns(),
            },
            4 => Request::Mutate {
                key: w[0],
                edits: self
                    .floats
                    .iter()
                    .enumerate()
                    .map(|(i, &weight)| {
                        let (u, v) = self.ends(i);
                        if w[(i + 2) % 16] & 1 == 0 {
                            WireEdit::Add { u, v, weight }
                        } else {
                            WireEdit::Remove { u, v }
                        }
                    })
                    .collect(),
            },
            5 => Request::Invalidate { key: w[0] },
            _ => Request::Stats,
        }
    }

    fn response(&self, kind: usize) -> Response {
        let w = &self.words;
        match kind {
            0 => Response::Pong,
            1 => Response::SparsifyOk {
                key: w[0],
                n: w[1],
                selected_edges: w[2],
                tree_edges: w[3],
                cache: if w[4] & 1 == 0 {
                    CacheOutcome::Built
                } else {
                    CacheOutcome::Hit
                },
            },
            2 => Response::SolveOk {
                x: self.floats.clone(),
                batch_cols: w[0] as u32,
            },
            3 => Response::SolveManyOk {
                xs: self.columns(),
                batch_cols: w[0] as u32,
            },
            4 => Response::MutateOk {
                key: w[0],
                dirty_edges: w[1],
                selection_changed: w[2] & 1 == 1,
                cols_refactored: w[3],
                cols_total: w[4],
                full_refactor: w[5] & 1 == 1,
            },
            5 => Response::InvalidateOk {
                existed: w[0] & 1 == 1,
            },
            6 => Response::StatsOk(ServerStats {
                entries: w[0],
                resident_bytes: w[1],
                budget_bytes: w[2],
                sparsify_hits: w[3],
                sparsify_builds: w[4],
                evictions: w[5],
                invalidations: w[6],
                mutations: w[7],
                mutation_rebuilds: w[8],
                solves: w[9],
                batches: w[10],
                max_batch: w[11],
                deadline_misses: w[12],
                limit_rejections: w[13],
            }),
            _ => Response::Error {
                code: CODES[(w[0] % 9) as usize],
                message: self.text.clone(),
            },
        }
    }

    /// The encoded message of kind index `kind` (requests, then
    /// responses, as in [`KINDS`]).
    fn frame(&self, kind: usize) -> Vec<u8> {
        if kind < 7 {
            self.request(kind).encode()
        } else {
            self.response(kind - 7).encode()
        }
    }
}

/// Re-encoding the decoded message gives the same bytes, and it equals
/// the original unless NaN (which is never equal to itself) is inside.
fn round_trips<M: PartialEq + std::fmt::Debug>(
    msg: &M,
    encode: fn(&M) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<M, ServeError>,
) {
    let bytes = encode(msg);
    let back = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?} does not decode: {e}"));
    assert_eq!(encode(&back), bytes, "{msg:?}");
    if !format!("{msg:?}").contains("NaN") {
        assert_eq!(&back, msg);
    }
}

/// Both decoders either accept `bytes` or reject them with a typed
/// codec error; a panic fails the test on its own.
fn decodes_or_rejects(bytes: &[u8]) {
    for verdict in [
        Request::decode(bytes).map(drop),
        Response::decode(bytes).map(drop),
    ] {
        match verdict {
            Ok(())
            | Err(ServeError::Protocol { .. })
            | Err(ServeError::UnsupportedVersion { .. })
            | Err(ServeError::UnknownKind { .. }) => {}
            Err(other) => panic!("{bytes:02x?}: untyped decode failure {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_messages_round_trip(kind in 0usize..15, p in parts()) {
        if kind < 7 {
            round_trips(&p.request(kind), Request::encode, Request::decode);
        } else {
            round_trips(&p.response(kind - 7), Response::encode, Response::decode);
        }
    }

    #[test]
    fn mutated_frames_decode_or_reject(
        kind in 0usize..15,
        p in parts(),
        overwrites in vec((0usize..4096, 0u8..=255), 1..6),
        tail in vec(0u8..=255, 1..4),
    ) {
        let frame = p.frame(kind);
        for len in 0..frame.len() {
            decodes_or_rejects(&frame[..len]);
        }
        let mut all = frame.clone();
        for &(pos, byte) in &overwrites {
            let mut one = frame.clone();
            one[pos % frame.len()] = byte;
            decodes_or_rejects(&one);
            all[pos % frame.len()] = byte;
        }
        decodes_or_rejects(&all);
        all.extend_from_slice(&tail);
        decodes_or_rejects(&all);
        let mut longer = frame;
        longer.extend_from_slice(&tail);
        decodes_or_rejects(&longer);
    }

    #[test]
    fn random_payloads_decode_or_reject(
        mut bytes in vec(0u8..=255, 0..64),
        kind in 0usize..15,
        framed in 0u8..4,
    ) {
        // Mostly a valid version and kind, so the bodies get exercised.
        if framed > 0 && bytes.len() >= 2 {
            bytes[0] = 1;
            bytes[1] = KINDS[kind];
        }
        decodes_or_rejects(&bytes);
    }
}
