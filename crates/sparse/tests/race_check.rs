//! Exercises the `race-check` shadow write-set tracker in the pool.
//!
//! Two halves:
//!
//! 1. **Canaries** — dispatches with deliberately overlapping spans must
//!    panic with a diagnostic naming both conflicting ranges, proving the
//!    detector actually fires (suite-sensitivity discipline: a sanitizer
//!    nobody has seen trip is indistinguishable from a no-op).
//! 2. **Transparency** — the pool-reuse/no-thread-leak and mid-dispatch
//!    panic-propagation contracts must hold unchanged under the tracker,
//!    at forced worker counts 1, 2, 3 and 8 (the same widths the kernel
//!    parity tests pin down).
//!
//! The whole file is compiled only with `--features race-check`; CI runs
//! it in the feature-matrix `race-check` lane.
#![cfg(feature = "race-check")]

use std::sync::atomic::{AtomicUsize, Ordering};

use sass_sparse::pool::{even_spans, Pool};

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// The overlapping-spans canary: `parallel_for_with_scratch` has no
/// upfront span validation (its spans usually index caller state), so the
/// shadow tracker is the only line of defense — and it must fire.
#[test]
#[should_panic(expected = "race-check")]
fn overlapping_scratch_spans_trip_the_tracker() {
    let pool = Pool::with_threads(2);
    let mut scratch = vec![0u8; 2];
    pool.parallel_for_with_scratch(&[(0, 5), (4, 8)], &mut scratch, |_, _, _| {});
}

/// Same canary through `parallel_for_spans`.
#[test]
#[should_panic(expected = "race-check")]
fn overlapping_for_spans_trip_the_tracker() {
    let pool = Pool::with_threads(2);
    pool.parallel_for_spans(&[(0, 5), (4, 8)], |_, _| {});
}

/// The diagnostic must name *both* conflicting ranges — a message that
/// only points at one span sends the reader grepping.
#[test]
fn tracker_diagnostic_names_both_ranges() {
    let pool = Pool::with_threads(2);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut scratch = vec![0u8; 2];
        pool.parallel_for_with_scratch(&[(0, 5), (4, 8)], &mut scratch, |_, _, _| {});
    }));
    let payload = caught.expect_err("overlap must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("race-check"), "missing prefix: {msg}");
    assert!(msg.contains("[0, 5)"), "first range missing: {msg}");
    assert!(msg.contains("[4, 8)"), "second range missing: {msg}");
    assert!(
        msg.contains("parallel_for_with_scratch"),
        "entry point missing: {msg}"
    );
}

/// Containment (one span inside another) is an overlap too, not just
/// staggered ranges.
#[test]
#[should_panic(expected = "race-check")]
fn contained_span_trips_the_tracker() {
    let pool = Pool::with_threads(2);
    pool.parallel_for_spans(&[(0, 10), (3, 4)], |_, _| {});
}

/// A natural-order tridiagonal system: its etree is a path, so every
/// column sits in the trunk and each step reads its predecessor (forward)
/// or successor (backward).
fn path_system(n: usize, d5: f64) -> sass_sparse::CsrMatrix {
    let mut coo = sass_sparse::CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, if i == 5 { d5 } else { 4.0 });
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0);
        }
    }
    coo.to_csr()
}

/// The forward read-set canary: the LDLᵀ sweeps' safety argument is that
/// every entry a step gathers is finalized first by the partition order —
/// earlier in the step's own lane or trunk, or by the lanes' dispatch
/// before the trunk runs. The shadow owner map verifies exactly that;
/// moving one trunk column into a lane makes its read of a trunk column
/// look unordered, and the tracker must trip.
#[test]
#[should_panic(expected = "forward step at column 5 (lane 0) reads column 4 (trunk)")]
fn corrupted_owner_map_trips_the_forward_read_tracker() {
    use sass_sparse::{ordering::OrderingKind, LdlFactor};
    let n = 16;
    let mut f = LdlFactor::new(&path_system(n, 4.0), OrderingKind::Natural).unwrap();
    f.corrupt_owner_for_test(5, 0);
    let _ = f.solve(&vec![1.0; n]);
}

/// The factorization's read set is verified too: a partial refactor
/// gathers descendant rows, and a corrupted owner map must trip it
/// through `refactor_partial`'s masked numeric phase.
#[test]
#[should_panic(expected = "factorization step at column 5 (lane 0) reads column 4 (trunk)")]
fn corrupted_owner_map_trips_the_factor_read_tracker() {
    use sass_sparse::{ordering::OrderingKind, LdlFactor};
    let n = 16;
    let mut f = LdlFactor::new(&path_system(n, 4.0), OrderingKind::Natural).unwrap();
    f.corrupt_owner_for_test(5, 0);
    let _ = f.refactor_partial(&path_system(n, 5.0), &[5], 1.0);
}

/// The backward sweep reads through the derived transpose, which the
/// forward sweep never touches. A mirror entry that points column 4 at
/// its descendant 3 — a value the descending sweep has not reached yet —
/// must trip the tracker in the backward sweep.
#[test]
#[should_panic(expected = "backward step at column 4 (trunk) reads column 3 (trunk)")]
fn corrupted_transpose_trips_the_backward_read_tracker() {
    use sass_sparse::{ordering::OrderingKind, LdlFactor};
    let n = 16;
    let mut f = LdlFactor::new(&path_system(n, 4.0), OrderingKind::Natural).unwrap();
    f.corrupt_transpose_for_test(4, 3);
    let _ = f.solve(&vec![1.0; n]);
}

/// The same corruption trips the blocked sweep's backward check.
#[test]
#[should_panic(expected = "backward-block step at column 4 (trunk) reads column 3 (trunk)")]
fn corrupted_transpose_trips_the_blocked_backward_read_tracker() {
    use sass_sparse::{ordering::OrderingKind, LdlFactor};
    let n = 16;
    let mut f = LdlFactor::new(&path_system(n, 4.0), OrderingKind::Natural).unwrap();
    f.corrupt_transpose_for_test(4, 3);
    let (b, mut x) = (vec![1.0; n], vec![vec![0.0; n]; 8]);
    let x = x.iter_mut().map(|c| &mut c[..]);
    f.solve_columns([&b[..]; 8], x, &mut Vec::new());
}

/// Disjoint dispatches of every shape stay silent at every width.
#[test]
fn clean_dispatches_pass_at_all_widths() {
    for k in WIDTHS {
        let pool = Pool::with_threads(k);
        let spans = even_spans(64, k.max(2));

        let mut out = vec![0usize; 64];
        pool.parallel_for_disjoint_mut(&mut out, &spans, |i, chunk| {
            for c in chunk {
                *c = i + 1;
            }
        });
        assert!(out.iter().all(|&v| v != 0), "width {k}");

        let mut scratch = vec![0usize; spans.len()];
        pool.parallel_for_with_scratch(&spans, &mut scratch, |_, (lo, hi), s| {
            *s = hi - lo;
        });
        assert_eq!(scratch.iter().sum::<usize>(), 64, "width {k}");

        let total = pool
            .parallel_reduce(&spans, |_, (lo, hi)| (lo..hi).sum::<usize>(), |a, b| a + b)
            .expect("nonempty spans");
        assert_eq!(total, 64 * 63 / 2, "width {k}");
    }
}

/// Reductions may read overlapping spans (no writes through the spans),
/// so the tracker must only require exactly-once claiming there.
#[test]
fn reduce_permits_overlapping_read_spans() {
    for k in WIDTHS {
        let pool = Pool::with_threads(k);
        let spans = [(0usize, 8usize), (4, 12), (0, 12)];
        let total = pool
            .parallel_reduce(&spans, |_, (lo, hi)| hi - lo, |a, b| a + b)
            .expect("nonempty spans");
        assert_eq!(total, 8 + 8 + 12, "width {k}");
    }
}

/// Pool reuse must not leak threads with the tracker active: workers are
/// spawned lazily on the first parallel dispatch and reused forever.
#[test]
fn pool_reuse_spawns_no_extra_threads_under_race_check() {
    for k in WIDTHS {
        let pool = Pool::with_threads(k);
        assert_eq!(pool.worker_count(), 0, "width {k}: workers must be lazy");
        let spans = even_spans(32, k);
        let run = |p: &Pool| {
            let total = p
                .parallel_reduce(&spans, |_, (lo, hi)| (lo..hi).sum::<usize>(), |a, b| a + b)
                .expect("nonempty spans");
            assert_eq!(total, 32 * 31 / 2);
        };
        run(&pool);
        let after_first = pool.worker_count();
        assert!(after_first <= k.saturating_sub(1), "width {k}");
        run(&pool);
        run(&pool);
        assert_eq!(
            pool.worker_count(),
            after_first,
            "width {k}: dispatch leaked threads"
        );
    }
}

/// A panicking span must re-raise on the dispatching thread — the
/// tracker's join-time verification must not mask the user panic or turn
/// it into a coverage failure (claims are recorded at hand-out time, so
/// the panicked span still counts as claimed).
#[test]
fn closure_panic_propagates_at_all_widths_under_race_check() {
    for k in WIDTHS {
        let pool = Pool::with_threads(k);
        let spans = even_spans(16, 8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for_spans(&spans, |i, _| {
                if i == 5 {
                    panic!("boom in span 5");
                }
            });
        }));
        let payload = caught.expect_err("dispatch must re-raise the span panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("boom in span 5"),
            "width {k}: the user panic must win, not a race-check report"
        );
        // The pool stays usable afterwards, and the tracker state from
        // the aborted dispatch does not bleed into the next one.
        let hits = AtomicUsize::new(0);
        pool.parallel_for_spans(&spans, |_, (lo, hi)| {
            hits.fetch_add(hi - lo, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16, "width {k}");
    }
}
