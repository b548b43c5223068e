//! Persistent worker pool — the shared parallel substrate of the workspace.
//!
//! Every embarrassingly parallel loop in the pipeline (SpMV rows, edge
//! stretch, Joule-heat accumulation, heat filtering, blocked-solve column
//! passes) dispatches through one lazily initialized, process-wide pool of
//! *parked* OS threads instead of paying a `std::thread::spawn` per call.
//! Dispatch is a mutex lock plus a condvar wake — two to three orders of
//! magnitude cheaper than spawning — which is what lets the per-kernel
//! size crossovers sit ~10× lower than the old scoped-spawn fast path
//! (`BENCH_POOL.json` records the spawn-vs-wake comparison).
//!
//! # Execution model
//!
//! Work is expressed as contiguous index [`Span`]s (`[lo, hi)` pairs).
//! A dispatch publishes a job (a lifetime-erased closure plus an atomic
//! claim counter), wakes the workers, and *participates itself*: the
//! calling thread claims spans alongside the pool threads, so a dispatch
//! can never deadlock even if no worker thread ever gets scheduled — the
//! caller simply drains the queue alone. The dispatch returns only after
//! every span's closure call has finished, which is what makes the borrow
//! of stack data by the job sound (scoped semantics without the spawn).
//! Panics inside a dispatched closure are caught on whichever thread hit
//! them, counted toward completion, and re-raised on the dispatching
//! thread once the job has drained — the same panics-propagate contract
//! `std::thread::scope` gave the old spawn-per-call backend.
//!
//! # Determinism
//!
//! Span *assignment* to threads is racy, but every public entry point is
//! bit-stable by construction:
//!
//! - [`Pool::parallel_for_spans`] / [`Pool::parallel_for_disjoint_mut`]
//!   run the same per-span closure on the same spans regardless of which
//!   thread executes them; each span owns its output range exclusively.
//! - [`Pool::parallel_reduce`] stores each span's mapped value in a slot
//!   indexed by span and folds the slots **in span order** on the calling
//!   thread, so floating-point reductions associate identically on every
//!   run and at every worker count.
//!
//! The kernel proptests pin this down: results at worker counts 1, 2, 3
//! and 8 are `assert_eq!`-identical to the serial loop.
//!
//! # Sizing and overrides
//!
//! The pool sizes itself to `std::thread::available_parallelism` at first
//! use. Two overrides exist:
//!
//! - the `SASS_THREADS` environment variable (read once, at pool
//!   creation): `SASS_THREADS=1` denies the threaded path everywhere,
//!   `SASS_THREADS=8` forces eight lanes;
//! - [`set_threads`] (or [`Pool::set_threads`] on a local pool), the
//!   programmatic equivalent for tests and benches; `set_threads(0)`
//!   restores the configured default (the `SASS_THREADS` value when that
//!   was set, automatic sizing otherwise).
//!
//! While an override is active, [`Pool::workers_for`] ignores its minimum-size
//! crossover so that tests can force small inputs through real thread
//! fan-out; under automatic sizing the crossover keeps tiny inputs on the
//! serial path. Worker threads are spawned lazily on the first dispatch
//! that wants them and are then reused forever; at one lane
//! (`SASS_THREADS=1`) the pool never spawns and every dispatch runs
//! inline on the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Locks `m`, recovering the guard from a poisoned mutex.
///
/// Poison recovery is sound for every mutex in this module: the guarded
/// critical sections only perform unwind-atomic updates (counter bumps,
/// `Option`/`Vec` stores), and user-closure panics are caught in
/// [`Job::work`] before they can reach pool internals — a poison flag here
/// can only come from a thread that died in unrelated code while holding
/// the lock, never from a half-applied pool update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Condvar wait with the same poison-recovery argument as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A contiguous half-open index range `[lo, hi)` — the unit of work
/// handed to pool closures.
pub type Span = (usize, usize);

/// Lifetime-erased pointer to the dispatch closure. The pointee lives on
/// the dispatching thread's stack; `Job` is only reachable while that
/// frame is alive (see the safety argument in [`Pool::run_erased`]).
type ErasedFn = *const (dyn Fn(usize) + Sync);

/// One dispatch in flight: the erased closure, the claim counter, and the
/// completion latch the dispatcher blocks on.
struct Job {
    f: ErasedFn,
    n_items: usize,
    /// Next unclaimed item index; claims beyond `n_items` are no-ops.
    next: AtomicUsize,
    /// Count of *finished* closure calls (panicked ones included — the
    /// latch must reach `n_items` no matter what), guarded for the condvar.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload caught in a closure call, on any thread; the
    /// dispatcher re-raises it after the completion wait.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `f` is dereferenced only by pool threads between publication and
// completion of the job, a window during which the dispatcher keeps the
// closure alive (it blocks until `done == n_items`). The closure itself is
// `Sync`, so concurrent calls are allowed.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs spans until the counter is exhausted, bumping the
    /// completion latch after every finished call.
    ///
    /// A panicking closure call is caught, counted as done, and stashed
    /// for the dispatcher to re-raise: letting it unwind here would
    /// either hang the dispatcher forever (worker thread — the latch
    /// never fills) or let workers keep dereferencing the lifetime-erased
    /// closure after the dispatching frame is gone (calling thread).
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_items {
                return;
            }
            // SAFETY: the dispatcher blocks until every claimed item has
            // completed, so `f` outlives this call (see `run_erased`).
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*self.f)(i) }));
            if let Err(payload) = result {
                let mut slot = lock(&self.panic);
                slot.get_or_insert(payload);
            }
            let mut done = lock(&self.done);
            *done += 1;
            if *done == self.n_items {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Worker-visible pool state: the current job and a generation counter so
/// parked workers can tell a fresh dispatch from a spurious wakeup.
struct PoolState {
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    wake: Condvar,
}

fn worker_loop(inner: &Inner) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    break st.job.clone();
                }
                st = wait(&inner.wake, st);
            }
        };
        if let Some(job) = job {
            job.work();
        }
    }
}

/// A persistent pool of parked worker threads (see the [module
/// docs](self) for the execution model).
///
/// Most code uses the process-wide instance via [`Pool::global`]; tests
/// and benches that need an isolated thread count build their own with
/// [`Pool::with_threads`]. Dropping a local pool shuts its workers down
/// and joins them; the global pool lives for the process.
pub struct Pool {
    inner: Arc<Inner>,
    /// Spawned worker threads — at most one less than the largest lane
    /// count any dispatch has requested (shrinking via `set_threads`
    /// parks the extras rather than killing them).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Explicit lane override (env or `set_threads`); 0 means automatic.
    override_threads: AtomicUsize,
    /// The override configured at construction (`SASS_THREADS` for the
    /// global pool); `set_threads(0)` restores this, not bare automatic
    /// sizing, so a temporary test override cannot erase the env setting.
    default_override: usize,
    /// Automatic lane count (`available_parallelism` at construction).
    auto_threads: usize,
    /// Fan-outs published to the workers so far (see
    /// [`Pool::dispatch_count`]).
    dispatches: AtomicUsize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("workers_spawned", &self.worker_count())
            .finish()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool, created on first use.
    ///
    /// Sizing honors the `SASS_THREADS` environment variable via
    /// [`crate::config::threads_override`] (read once): a value ≥ 1
    /// becomes a standing override, `0`/unset falls back to
    /// `available_parallelism`, and garbage panics there instead of being
    /// silently ignored.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::with_threads(crate::config::threads_override().unwrap_or(0)))
    }

    /// A private pool with an explicit lane count (`0` = automatic).
    ///
    /// Lanes include the dispatching thread: a pool with `threads = 4`
    /// spawns at most 3 OS workers. Intended for tests and benches; shared
    /// pipeline code should dispatch through [`Pool::global`].
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            inner: Arc::new(Inner {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    shutdown: false,
                }),
                wake: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            override_threads: AtomicUsize::new(threads),
            default_override: threads,
            auto_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            dispatches: AtomicUsize::new(0),
        }
    }

    /// Sets the lane count for subsequent dispatches; `0` restores the
    /// pool's configured default — the `SASS_THREADS` override for the
    /// global pool (automatic sizing when unset), the construction-time
    /// count for a [`Pool::with_threads`] pool.
    ///
    /// An explicit count is a *standing override*: [`Pool::workers_for`] skips
    /// its minimum-size crossover while one is active, so `set_threads(3)`
    /// forces even small inputs through three-lane fan-out (the hook the
    /// cross-worker-count parity tests use) and `set_threads(1)` denies
    /// the threaded path everywhere. Shrinking the count never kills
    /// already-spawned workers — they stay parked (and harmlessly join in
    /// if woken); [`Pool::worker_count`] is therefore monotone.
    pub fn set_threads(&self, threads: usize) {
        let effective = if threads == 0 {
            self.default_override
        } else {
            threads
        };
        self.override_threads.store(effective, Ordering::Relaxed);
    }

    /// Current lane count (including the dispatching thread). At 1 the
    /// pool never leaves the caller's thread.
    pub fn threads(&self) -> usize {
        match self.override_threads.load(Ordering::Relaxed) {
            0 => self.auto_threads,
            k => k,
        }
    }

    /// Whether an explicit lane override (env var or
    /// [`Pool::set_threads`]) is active.
    pub fn is_forced(&self) -> bool {
        self.override_threads.load(Ordering::Relaxed) != 0
    }

    /// Number of fan-outs this pool has published to its workers: one per
    /// dispatch that ran on more than one lane. Dispatches that ran inline
    /// (one lane, or at most one item) are not counted — they never wake a
    /// worker. The count is monotone; diff it around a call to see how
    /// many condvar wake-ups the call paid for.
    pub fn dispatch_count(&self) -> usize {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Number of OS worker threads spawned so far.
    ///
    /// Workers are created lazily on the first dispatch that wants them
    /// and are reused forever after — repeated dispatches must not grow
    /// this count (the pool-reuse test pins that down). A pool that has
    /// only ever run serially reports 0.
    pub fn worker_count(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Picks a worker count for a kernel over `items` units of work.
    ///
    /// Under automatic sizing, inputs below `min_items` stay serial and
    /// larger ones get one lane per `per_worker` units (capped at the
    /// pool's lane count). While an explicit override is active
    /// ([`Pool::set_threads`] / `SASS_THREADS`) the crossover is skipped
    /// and the override wins outright, so tests can force small inputs
    /// through real fan-out — never more lanes than items, though.
    pub fn workers_for(&self, items: usize, min_items: usize, per_worker: usize) -> usize {
        let lanes = self.threads();
        if lanes <= 1 || items <= 1 {
            return 1;
        }
        if self.is_forced() {
            return lanes.min(items);
        }
        if items < min_items {
            return 1;
        }
        lanes.min((items / per_worker).max(1))
    }

    /// Makes sure at least `k` worker threads exist.
    fn ensure_spawned(&self, k: usize) {
        let mut handles = lock(&self.handles);
        while handles.len() < k {
            let inner = Arc::clone(&self.inner);
            let name = format!("sass-pool-{}", handles.len());
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&inner));
            match spawned {
                Ok(h) => handles.push(h),
                // Out of threads: the dispatcher participates in every
                // job, so running under-provisioned is safe — stop asking.
                Err(_) => break,
            }
        }
    }

    /// Dispatches `f(0..n_items)` across the pool, blocking until every
    /// call has finished. The heart of every public entry point.
    fn run_erased(&self, n_items: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_items == 0 {
            return;
        }
        let lanes = self.threads().min(n_items);
        if lanes <= 1 {
            for i in 0..n_items {
                f(i);
            }
            return;
        }
        self.ensure_spawned(lanes - 1);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure — `job.f` escapes `f`'s lifetime, but
        // this frame blocks below until `done == n_items`, i.e. until the
        // last closure call has returned; afterwards the claim counter is
        // exhausted, so a late-waking worker can observe the stale `Job`
        // yet never dereferences `f` again.
        let job = Arc::new(Job {
            f: unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedFn>(f) },
            n_items,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut st = lock(&self.inner.state);
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
        }
        // Notify after unlocking so woken workers don't immediately block
        // on the state mutex. A worker between its epoch check and its
        // `wait` holds the lock, so the publication above cannot be missed.
        self.inner.wake.notify_all();
        // Participate: the caller drains spans alongside the workers, so
        // the dispatch completes even if no worker gets scheduled.
        job.work();
        let mut done = lock(&job.done);
        while *done < n_items {
            done = wait(&job.done_cv, done);
        }
        drop(done);
        // Every closure call has finished; only now is it safe to unwind
        // out of this frame. Re-raise the first caught panic, preserving
        // the scoped-spawn backend's panics-propagate contract.
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `f(span_index, span)` for every span, spread across the pool.
    ///
    /// Spans are claimed dynamically, so callers should hand over roughly
    /// one span per intended lane (see [`even_spans`] /
    /// [`balanced_spans`]). Each call must confine its effects to state
    /// owned by that span; for the common "each span writes one slice
    /// chunk" shape use [`Pool::parallel_for_disjoint_mut`] instead.
    pub fn parallel_for_spans<F>(&self, spans: &[Span], f: F)
    where
        F: Fn(usize, Span) + Sync,
    {
        #[cfg(feature = "race-check")]
        let tracker = shadow::SpanTracker::new("parallel_for_spans", spans, None, true);
        self.run_erased(spans.len(), &|i| {
            #[cfg(feature = "race-check")]
            tracker.record(i);
            f(i, spans[i]);
        });
        #[cfg(feature = "race-check")]
        tracker.verify();
    }

    /// Maps every span to a value and folds the values **in span order**
    /// on the calling thread, returning `None` for an empty span list.
    ///
    /// The ordered fold makes floating-point (and any other
    /// non-commutative) reductions bit-stable across worker counts: the
    /// association is always `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …` no matter which
    /// thread produced which value.
    pub fn parallel_reduce<T, M, R>(&self, spans: &[Span], map: M, mut reduce: R) -> Option<T>
    where
        T: Send,
        M: Fn(usize, Span) -> T + Sync,
        R: FnMut(T, T) -> T,
    {
        let slots: Vec<Mutex<Option<T>>> = spans.iter().map(|_| Mutex::new(None)).collect();
        // Reductions may legally read overlapping spans, so the shadow
        // tracker only checks that each span is claimed exactly once.
        #[cfg(feature = "race-check")]
        let tracker = shadow::SpanTracker::new("parallel_reduce", spans, None, false);
        self.run_erased(spans.len(), &|i| {
            #[cfg(feature = "race-check")]
            tracker.record(i);
            // Run the map outside the slot lock: a panicking map must not
            // poison its slot, it is caught and re-raised by the dispatch.
            let v = map(i, spans[i]);
            *lock(&slots[i]) = Some(v);
        });
        #[cfg(feature = "race-check")]
        tracker.verify();
        slots
            .into_iter()
            .map(|slot| {
                let v = slot
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // A normal return from run_erased means every item index
                // was claimed and its closure call finished.
                v.unwrap_or_else(|| unreachable!("parallel_reduce: span left unmapped"))
            })
            .reduce(&mut reduce)
    }

    /// Runs `f(span_index, chunk)` with `chunk = &mut out[lo..hi]` for
    /// every span — the workhorse for kernels where each span owns one
    /// disjoint slice of the output (SpMV rows, stretch vectors, heat
    /// accumulators, block columns).
    ///
    /// # Panics
    ///
    /// Panics unless the spans are sorted, pairwise disjoint and within
    /// `out` (gaps are fine — unlisted elements are left untouched).
    pub fn parallel_for_disjoint_mut<T, F>(&self, out: &mut [T], spans: &[Span], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let mut prev = 0usize;
        for &(lo, hi) in spans {
            assert!(
                prev <= lo && lo <= hi && hi <= out.len(),
                "parallel_for_disjoint_mut: span ({lo}, {hi}) overlaps or escapes len {}",
                out.len()
            );
            prev = hi;
        }
        let base = SendPtr(out.as_mut_ptr());
        #[cfg(feature = "race-check")]
        let tracker =
            shadow::SpanTracker::new("parallel_for_disjoint_mut", spans, Some(out.len()), true);
        self.run_erased(spans.len(), &|i| {
            #[cfg(feature = "race-check")]
            tracker.record(i);
            let (lo, hi) = spans[i];
            // SAFETY: spans are validated disjoint and in-bounds above, so
            // every chunk is an exclusive sub-slice of `out`, and `out` is
            // mutably borrowed for the whole (blocking) dispatch.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
            f(i, chunk);
        });
        #[cfg(feature = "race-check")]
        tracker.verify();
    }

    /// Runs `f(span_index, span, &mut scratch[span_index])` for every span
    /// — the dispatch shape for kernels whose per-lane state is too big to
    /// rebuild per call (the partitioned LDLᵀ numeric phase hands each
    /// lane an `O(n)` workspace of dense accumulators and visit flags).
    ///
    /// Each span index claims exactly one scratch slot, so slots are
    /// exclusive per claimant; `scratch` may be longer than `spans` (extra
    /// slots are untouched, letting callers size it once for the widest
    /// dispatch and reuse it across dispatches).
    ///
    /// # Panics
    ///
    /// Panics if `scratch.len() < spans.len()`.
    pub fn parallel_for_with_scratch<S, F>(&self, spans: &[Span], scratch: &mut [S], f: F)
    where
        S: Send,
        F: Fn(usize, Span, &mut S) + Sync,
    {
        assert!(
            scratch.len() >= spans.len(),
            "parallel_for_with_scratch: {} scratch slots for {} spans",
            scratch.len(),
            spans.len()
        );
        let base = SendPtr(scratch.as_mut_ptr());
        // Spans here usually index caller state the closure writes through
        // (the LDLᵀ sweeps), and this entry point has no upfront span
        // validation — so the shadow tracker checks disjointness too.
        #[cfg(feature = "race-check")]
        let tracker = shadow::SpanTracker::new("parallel_for_with_scratch", spans, None, true);
        self.run_erased(spans.len(), &|i| {
            #[cfg(feature = "race-check")]
            tracker.record(i);
            // SAFETY: slot `i` belongs to span `i` alone — every item index
            // is claimed exactly once — and `scratch` stays mutably
            // borrowed for the whole (blocking) dispatch.
            let slot = unsafe { &mut *base.get().add(i) };
            f(i, spans[i], slot);
        });
        #[cfg(feature = "race-check")]
        tracker.verify();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.wake.notify_all();
        }
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// Shadow write-set tracking behind the `race-check` feature: the pool
/// becomes its own race detector. Every dispatch records which span each
/// claimant received (at claim time, *before* the user closure runs, so
/// coverage holds even when a span panics), and the join asserts the
/// claims form exactly one claimant per span and — for writing dispatch
/// shapes — pairwise-disjoint index ranges. The recording cost is one
/// mutex push per span, which is noise next to the work a span carries;
/// panic and ordering semantics are unchanged because a re-raised closure
/// panic unwinds out of the dispatch before verification runs.
#[cfg(feature = "race-check")]
mod shadow {
    use super::Span;
    use std::sync::Mutex;

    /// One handed-out span: its index, its range, and the thread that
    /// claimed it (for the diagnostic).
    struct Claim {
        index: usize,
        span: Span,
        thread: String,
    }

    pub(super) struct SpanTracker<'a> {
        what: &'static str,
        spans: &'a [Span],
        /// Output length when the dispatch writes a caller slice; claimed
        /// spans must stay within it.
        bound: Option<usize>,
        /// Writing dispatches require pairwise-disjoint spans; reductions
        /// may legally read overlapping ranges, so they skip this.
        check_overlap: bool,
        claims: Mutex<Vec<Claim>>,
    }

    impl<'a> SpanTracker<'a> {
        pub(super) fn new(
            what: &'static str,
            spans: &'a [Span],
            bound: Option<usize>,
            check_overlap: bool,
        ) -> Self {
            SpanTracker {
                what,
                spans,
                bound,
                check_overlap,
                claims: Mutex::new(Vec::with_capacity(spans.len())),
            }
        }

        /// Records span `i` being handed to the current thread.
        pub(super) fn record(&self, i: usize) {
            let claim = Claim {
                index: i,
                span: self.spans[i],
                thread: std::thread::current()
                    .name()
                    .unwrap_or("dispatcher")
                    .to_string(),
            };
            super::lock(&self.claims).push(claim);
        }

        /// Join-time verification: exact coverage, in-bounds writes,
        /// pairwise disjointness.
        pub(super) fn verify(self) {
            let mut claims = self
                .claims
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut seen = vec![0usize; self.spans.len()];
            for c in &claims {
                seen[c.index] += 1;
            }
            for (i, &count) in seen.iter().enumerate() {
                assert!(
                    count == 1,
                    "race-check: {}: span {} [{}, {}) claimed {} times \
                     (exactly one claimant per span required)",
                    self.what,
                    i,
                    self.spans[i].0,
                    self.spans[i].1,
                    count
                );
            }
            if let Some(n) = self.bound {
                for c in &claims {
                    assert!(
                        c.span.0 <= c.span.1 && c.span.1 <= n,
                        "race-check: {}: span {} [{}, {}) (thread {}) escapes output of len {}",
                        self.what,
                        c.index,
                        c.span.0,
                        c.span.1,
                        c.thread,
                        n
                    );
                }
            }
            if self.check_overlap {
                // Sorted by lower bound, pairwise disjointness reduces to
                // every adjacent pair being disjoint (if a non-adjacent
                // pair overlapped, one of the adjacent pairs between them
                // would too).
                claims.sort_by_key(|c| (c.span.0, c.span.1));
                for w in claims.windows(2) {
                    let (a, b) = (&w[0], &w[1]);
                    assert!(
                        a.span.1 <= b.span.0 || a.span.0 == a.span.1 || b.span.0 == b.span.1,
                        "race-check: {}: span {} [{}, {}) (thread {}) overlaps \
                         span {} [{}, {}) (thread {})",
                        self.what,
                        a.index,
                        a.span.0,
                        a.span.1,
                        a.thread,
                        b.index,
                        b.span.0,
                        b.span.1,
                        b.thread
                    );
                }
            }
        }
    }
}

/// Raw base pointer that may cross threads; soundness comes from access
/// disjointness, argued at each use site. Crate-visible so kernels with
/// scattered (non-contiguous) per-claimant writes — the partitioned
/// LDLᵀ sweeps — can make the same argument [`Pool::parallel_for_disjoint_mut`]
/// makes for contiguous chunks.
pub(crate) struct SendPtr<T>(*mut T);
// SAFETY: only ever used to carve pairwise-disjoint regions, each touched
// by exactly one claimant at a time.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wraps a base pointer for cross-thread disjoint access.
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// Accessor instead of direct field use so closures capture the
    /// (`Sync`) wrapper rather than the bare non-`Sync` pointer field.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Sets the global pool's lane count (`0` = automatic) — see
/// [`Pool::set_threads`].
pub fn set_threads(threads: usize) {
    Pool::global().set_threads(threads);
}

/// The global pool's current lane count — see [`Pool::threads`].
pub fn threads() -> usize {
    Pool::global().threads()
}

/// Scales item-unit spans by a fixed `stride` — the conversion from
/// column-index spans to flat-buffer spans of a column-major block with
/// `stride` rows, used by every kernel that dispatches over
/// [`crate::DenseBlock`] columns.
pub fn scale_spans(spans: &[Span], stride: usize) -> Vec<Span> {
    spans
        .iter()
        .map(|&(lo, hi)| (lo * stride, hi * stride))
        .collect()
}

/// Debug/race-check oracle for the span builders: their output must be
/// monotone, gap-free, nonempty per span, and cover exactly `0..n`. A
/// violation here would silently drop or double-visit items in every
/// kernel that splits work with these helpers.
#[cfg(any(debug_assertions, feature = "race-check"))]
fn assert_covering_spans(spans: &[Span], n: usize, what: &str) {
    let mut next = 0usize;
    for &(lo, hi) in spans {
        assert!(
            lo == next && lo < hi,
            "{what}: span ({lo}, {hi}) breaks monotone gap-free coverage at {next}"
        );
        next = hi;
    }
    assert!(next == n, "{what}: spans cover 0..{next}, expected 0..{n}");
}

#[cfg(not(any(debug_assertions, feature = "race-check")))]
fn assert_covering_spans(_spans: &[Span], _n: usize, _what: &str) {}

/// Splits `0..n` into at most `k` equal-length contiguous spans, never
/// emitting an empty span (so `n < k` yields `n` one-element spans, and
/// `n = 0` yields none).
pub fn even_spans(n: usize, k: usize) -> Vec<Span> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let mut spans = Vec::with_capacity(k);
    let mut lo = 0;
    for w in 0..k {
        let hi = n * (w + 1) / k;
        if hi > lo {
            spans.push((lo, hi));
            lo = hi;
        }
    }
    assert_covering_spans(&spans, n, "even_spans");
    spans
}

/// Splits `0..prefix.len()-1` items into at most `k` contiguous spans of
/// roughly equal total weight, `prefix` being an exact prefix-sum of
/// per-item work (a CSR row pointer, for SpMV).
///
/// Degenerate weight distributions — one hub item holding most of the
/// total — used to produce empty `(i, i)` trailing spans that every
/// caller had to skip; empties are now merged into their successor, so
/// the result covers `0..n` contiguously with **nonempty** spans only
/// (possibly fewer than `k`).
pub fn balanced_spans(prefix: &[usize], k: usize) -> Vec<Span> {
    assert!(!prefix.is_empty(), "balanced_spans: empty prefix sum");
    let n = prefix.len() - 1;
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let total = prefix[n];
    let mut spans = Vec::with_capacity(k.min(n));
    let mut lo = 0;
    for w in 0..k {
        let hi = if w + 1 == k {
            n
        } else {
            // First item boundary at or past this lane's share of work.
            let target = total * (w + 1) / k;
            (prefix[lo..].partition_point(|&p| p < target) + lo).clamp(lo, n)
        };
        if hi > lo {
            spans.push((lo, hi));
            lo = hi;
        }
    }
    if lo < n {
        spans.push((lo, n));
    }
    assert_covering_spans(&spans, n, "balanced_spans");
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn even_spans_cover_and_never_empty() {
        for (n, k) in [(0usize, 4usize), (1, 4), (3, 8), (10, 3), (10, 1), (7, 7)] {
            let spans = even_spans(n, k);
            assert!(spans.iter().all(|&(lo, hi)| lo < hi), "n={n} k={k}");
            assert_eq!(spans.iter().map(|&(lo, hi)| hi - lo).sum::<usize>(), n);
            let mut next = 0;
            for &(lo, hi) in &spans {
                assert_eq!(lo, next);
                next = hi;
            }
            assert!(spans.len() <= k.max(1));
        }
    }

    /// Regression (hub-degenerate split): one item holding most of the
    /// weight must not yield empty `(i, i)` spans callers have to skip.
    #[test]
    fn balanced_spans_merge_hub_degenerate_empties() {
        // Item 0 holds 1000 of 1004 total units across 5 items.
        let prefix = [0usize, 1000, 1001, 1002, 1003, 1004];
        let spans = balanced_spans(&prefix, 4);
        assert!(spans.iter().all(|&(lo, hi)| lo < hi), "{spans:?}");
        assert_eq!(spans.first().unwrap().0, 0);
        assert_eq!(spans.last().unwrap().1, 5);
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // The hub lands alone-ish up front; everything is covered once.
        assert_eq!(spans.iter().map(|&(lo, hi)| hi - lo).sum::<usize>(), 5);
    }

    /// Regression (weighted balancing): spans over a hub-heavy work
    /// prefix must balance by weight, not by item count. A hub-heavy
    /// distribution split evenly by item count would hand lane 0 the hub
    /// *and* a fair share of the tail; weighted balancing isolates the
    /// hub.
    #[test]
    fn balanced_spans_isolate_hub_block_row() {
        // Item 0 weighs 500, 7 tail items weigh 2 each (a scale-free hub
        // row against ordinary rows).
        let mut prefix = vec![0usize, 500];
        for i in 0..7 {
            prefix.push(500 + 2 * (i + 1));
        }
        let spans = balanced_spans(&prefix, 4);
        assert_eq!(spans[0], (0, 1), "the hub block row must sit alone");
        assert_eq!(spans.last().unwrap().1, 8);
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // An even item-count split would give lane 0 a quarter of the
        // tail on top of the hub.
        assert_eq!(even_spans(8, 4)[0], (0, 2));
    }

    #[test]
    fn balanced_spans_equal_weights_match_even_split() {
        let prefix: Vec<usize> = (0..=12).map(|i| i * 3).collect();
        let spans = balanced_spans(&prefix, 4);
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
    }

    #[test]
    fn dispatch_runs_every_item_exactly_once() {
        let pool = Pool::with_threads(3);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let spans = even_spans(64, 8);
        pool.parallel_for_spans(&spans, |_, (lo, hi)| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_is_span_ordered() {
        let pool = Pool::with_threads(4);
        let spans = even_spans(17, 4);
        // Concatenation is non-commutative: any out-of-order fold shows.
        let got = pool
            .parallel_reduce(
                &spans,
                |i, (lo, hi)| format!("[{i}:{lo}-{hi}]"),
                |a, b| a + &b,
            )
            .unwrap();
        let want: String = spans
            .iter()
            .enumerate()
            .map(|(i, (lo, hi))| format!("[{i}:{lo}-{hi}]"))
            .collect();
        assert_eq!(got, want);
        assert_eq!(pool.parallel_reduce(&[], |_, _| 0u32, |a, b| a + b), None);
    }

    #[test]
    fn disjoint_mut_writes_each_chunk() {
        let pool = Pool::with_threads(2);
        let mut out = vec![0usize; 10];
        let spans = vec![(0, 3), (5, 10)]; // gap [3,5) stays untouched
        pool.parallel_for_disjoint_mut(&mut out, &spans, |i, chunk| {
            for c in chunk {
                *c = i + 1;
            }
        });
        assert_eq!(out, vec![1, 1, 1, 0, 0, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn scratch_slots_are_exclusive_per_span() {
        let pool = Pool::with_threads(3);
        let spans = even_spans(24, 6);
        // Each slot must see only its own span's writes; extra slots are
        // untouched.
        let mut scratch: Vec<Vec<usize>> = vec![Vec::new(); 8];
        pool.parallel_for_with_scratch(&spans, &mut scratch, |i, (lo, hi), s| {
            s.extend(lo..hi);
            s.push(i);
        });
        for (i, (&(lo, hi), s)) in spans.iter().zip(&scratch).enumerate() {
            let mut want: Vec<usize> = (lo..hi).collect();
            want.push(i);
            assert_eq!(s, &want);
        }
        assert!(scratch[6].is_empty() && scratch[7].is_empty());
    }

    #[test]
    #[should_panic(expected = "scratch slots")]
    fn scratch_shorter_than_spans_is_rejected() {
        let pool = Pool::with_threads(2);
        let mut scratch = vec![0u8; 1];
        pool.parallel_for_with_scratch(&even_spans(8, 4), &mut scratch, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn disjoint_mut_rejects_overlap() {
        let pool = Pool::with_threads(2);
        let mut out = vec![0.0f64; 8];
        pool.parallel_for_disjoint_mut(&mut out, &[(0, 5), (4, 8)], |_, _| {});
    }

    #[test]
    fn pool_reuse_spawns_no_extra_threads() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.worker_count(), 0, "workers must be lazy");
        let spans = even_spans(32, 4);
        let run = |p: &Pool| {
            let total = p
                .parallel_reduce(&spans, |_, (lo, hi)| (lo..hi).sum::<usize>(), |a, b| a + b)
                .unwrap();
            assert_eq!(total, 32 * 31 / 2);
        };
        run(&pool);
        let after_first = pool.worker_count();
        assert!((1..=3).contains(&after_first));
        run(&pool);
        run(&pool);
        assert_eq!(pool.worker_count(), after_first, "dispatch leaked threads");
    }

    #[test]
    fn forced_override_skips_crossover() {
        let pool = Pool::with_threads(0);
        // Automatic sizing: small inputs stay serial.
        assert_eq!(pool.workers_for(100, 1_000, 10), 1);
        pool.set_threads(3);
        assert_eq!(pool.workers_for(100, 1_000, 10), 3);
        assert_eq!(pool.workers_for(2, 1_000, 10), 2, "never more than items");
        pool.set_threads(1);
        assert_eq!(pool.workers_for(1 << 20, 1_000, 10), 1);
        pool.set_threads(0);
        let auto = pool.workers_for(1 << 20, 1_000, 10);
        assert_eq!(auto, pool.threads().min((1 << 20) / 10));
    }

    /// A panic in a dispatched closure must re-raise on the dispatching
    /// thread — not hang the dispatch (worker-side panic starving the
    /// completion latch) and not let the dispatcher unwind while workers
    /// still hold the lifetime-erased closure.
    #[test]
    fn closure_panic_propagates_to_dispatcher() {
        let pool = Pool::with_threads(3);
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
            Some("boom in span 5")
        );
        // The pool stays usable: workers survived the caught panic and a
        // fresh dispatch runs to completion.
        let total = pool
            .parallel_reduce(&spans, |_, (lo, hi)| hi - lo, |a, b| a + b)
            .unwrap();
        assert_eq!(total, 16);
    }

    #[test]
    fn set_threads_zero_restores_construction_default() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.threads(), 4);
        pool.set_threads(2);
        assert_eq!(pool.threads(), 2);
        pool.set_threads(0);
        assert_eq!(pool.threads(), 4, "0 must restore the configured default");
        let auto = Pool::with_threads(0);
        auto.set_threads(5);
        auto.set_threads(0);
        assert!(!auto.is_forced(), "0 on an auto pool restores auto sizing");
    }

    #[test]
    fn dispatch_count_tracks_fan_outs_only() {
        let pool = Pool::with_threads(2);
        assert_eq!(pool.dispatch_count(), 0);
        pool.parallel_for_spans(&even_spans(8, 2), |_, _| {});
        pool.parallel_for_spans(&even_spans(8, 2), |_, _| {});
        assert_eq!(pool.dispatch_count(), 2);
        // One item, or one lane, runs inline and wakes nobody.
        pool.parallel_for_spans(&[(0, 8)], |_, _| {});
        pool.set_threads(1);
        pool.parallel_for_spans(&even_spans(8, 2), |_, _| {});
        assert_eq!(pool.dispatch_count(), 2);
    }

    #[test]
    fn serial_pool_never_spawns() {
        let pool = Pool::with_threads(1);
        let mut out = vec![0.0f64; 1000];
        pool.parallel_for_disjoint_mut(&mut out, &even_spans(1000, 8), |_, chunk| {
            for c in chunk {
                *c = 1.0;
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
        assert_eq!(pool.worker_count(), 0);
    }
}
