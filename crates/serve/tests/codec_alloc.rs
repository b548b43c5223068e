//! Decode allocates O(frame length): with a counting global allocator,
//! no frame, well-formed or hostile, makes `decode` request more than
//! 4 × its length + 1 KiB.
//!
//! The ratio is worst for the `cols × rows` block. Each column costs a
//! 24-byte `Vec` header plus `8 × rows` bytes of values, and is charged
//! `8 × max(rows, 1)` wire bytes. That is 4× at `rows = 1`, 3× at
//! `rows = 0` and 2.5× at `rows = 2`. Every other message stays at or
//! below 24 / 17 ≈ 1.41× (a `WireEdit` per 17-byte edit record).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sass_serve::{
    CacheOutcome, ErrorCode, Request, Response, ServerStats, SparsifyParams, WireEdit, WireGraph,
};

thread_local! {
    /// Bytes requested on this thread; a const initializer and no
    /// destructor, so touching it never allocates.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes));
}

/// `System`, plus a per-thread count of the bytes each allocation and
/// reallocation asks for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// thread-local integer.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc` is passed on unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Decodes `frame` both ways and checks what each decode requested.
fn check(frame: &[u8], worst: &mut f64) {
    let bound = 4 * frame.len() + 1024;
    for (name, requested) in [
        ("request", requested_by(|| drop(Request::decode(frame)))),
        ("response", requested_by(|| drop(Response::decode(frame)))),
    ] {
        assert!(
            requested <= bound,
            "{name} decode of a {}-byte frame requested {requested} bytes (bound {bound})",
            frame.len()
        );
        *worst = worst.max(requested as f64 / frame.len().max(1) as f64);
    }
}

fn requested_by(f: impl FnOnce()) -> usize {
    let before = REQUESTED.with(Cell::get);
    f();
    REQUESTED.with(Cell::get) - before
}

/// A body of `cols` columns of `rows` values behind a counts header.
fn block(head: &[u8], cols: u32, rows: u32, values: usize) -> Vec<u8> {
    let mut frame = head.to_vec();
    frame.extend_from_slice(&cols.to_le_bytes());
    frame.extend_from_slice(&rows.to_le_bytes());
    frame.resize(frame.len() + 8 * values, 0);
    frame
}

#[test]
fn decode_allocates_at_most_four_times_the_frame() {
    let mut worst = 0.0f64;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let samples = common::requests().into_iter().map(|(m, _)| m.encode());
    frames.extend(samples.chain(common::responses().into_iter().map(|(m, _)| m.encode())));
    // The same frames with each byte set to 0xff, which turns every
    // count into a hostile one, and cut at every length.
    for frame in frames.clone() {
        for i in 0..frame.len() {
            let mut hostile = frame.clone();
            hostile[i] = 0xff;
            frames.push(hostile);
            frames.push(frame[..i].to_vec());
        }
    }

    // Large bodies of every counted shape.
    let solve_many = [&[1u8, 0x04][..], &[0; 12]].concat();
    let solve_many_ok = [1u8, 0x84, 0, 0, 0, 0];
    for (cols, rows, values) in [
        (10_000, 0, 10_000),
        (10_000, 1, 10_000),
        (5_000, 2, 10_000),
        (100, 100, 10_000),
        (1 << 20, 0, 0), // a hostile column count with nothing behind it
    ] {
        frames.push(block(&solve_many, cols, rows, values));
        frames.push(block(&solve_many_ok, cols, rows, values));
    }
    frames.push(
        Request::Mutate {
            key: 1,
            edits: vec![WireEdit::Remove { u: 1, v: 2 }; 10_000],
        }
        .encode(),
    );
    frames.push(
        Request::Sparsify {
            params: SparsifyParams {
                sigma2: 50.0,
                seed: 1,
            },
            graph: WireGraph {
                n: 2,
                edges: vec![(0, 1, 1.0); 10_000],
            },
        }
        .encode(),
    );
    frames.push(
        Request::Solve {
            key: 1,
            deadline_ms: 0,
            rhs: vec![0.5; 10_000],
        }
        .encode(),
    );
    frames.push(
        Response::Error {
            code: ErrorCode::Internal,
            message: "x".repeat(70_000),
        }
        .encode(),
    );

    for frame in &frames {
        check(frame, &mut worst);
    }
    assert!(worst > 3.9, "the rows = 1 block should come close to 4x");
}
