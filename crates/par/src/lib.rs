//! # spmap-par — parallel map with reusable per-worker state
//!
//! Two layers of the workspace lean on this crate:
//!
//! * the experiment harness maps hundreds of independent
//!   (graph, algorithm) cells ([`par_map`]),
//! * the candidate-evaluation engine in `spmap-core` maps thousands of
//!   candidate moves per mapper iteration, each needing a mutable
//!   evaluation scratch ([`par_map_with`] + [`WorkerStates`]).
//!
//! Work items are claimed through a shared atomic counter, so long-running
//! items (e.g. a MILP solve) do not stall the remaining workers.  The
//! expensive part of a worker, its state `S`, lives in a [`WorkerStates`]
//! arena that is reused across any number of calls.
//!
//! Batches that go parallel run on a process-wide [persistent worker
//! pool](crate::pool): threads are created once, park between batches
//! and are woken by submission, so the search loops' many small batches
//! — roughly one per GA generation or candidate wave — pay no
//! spawn/join per call.  [`with_pool`] routes the current thread's
//! batches to another pool (tests and benchmarks pin shard counts that
//! way).
//!
//! Results are bit-identical to the serial path at every thread and
//! shard count: participants claim items from one atomic counter, input
//! order is restored afterwards, and participant `k` has exclusive
//! `&mut` access to state slot `k`.  The serial path is the executable
//! specification the pool is tested against.
//!
//! `SPMAP_THREADS=1` (or a single-item input) is a true serial fast path:
//! the closure runs on the calling thread and **zero** threads are
//! spawned or woken.
//!
//! Per-thread [`DispatchStats`] counters record how batches were
//! dispatched (serial / pool wakes); the engines in `spmap-core` surface
//! them per run.
//!
//! Measurement note: per-item *execution times* reported by the harness
//! are measured inside the item closure, so wall-clock parallelism of the
//! sweep does not distort per-algorithm timing (beyond the usual
//! multi-core interference, which also affected the paper's C++ harness).

pub mod pool;

use std::cell::Cell;

pub use pool::{global as global_pool, in_pool_worker, Pool};

/// Number of worker threads to use: `SPMAP_THREADS` if set, otherwise the
/// machine's available parallelism.
///
/// The env var is parsed defensively (see [`parse_threads`]): `0` and
/// garbage values clamp to the serial path (1 worker) instead of
/// panicking or spawning zero workers, and an empty value counts as
/// unset.  An explicitly configured-but-broken override falling back to
/// *full* machine parallelism would silently oversubscribe the exact
/// runs (benchmarks, CI) that set the variable to contain parallelism —
/// serial is the safe interpretation.
pub fn num_threads() -> usize {
    let machine = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var_os("SPMAP_THREADS") {
        // Non-UTF-8 bytes are garbage, not "unset": clamp to serial like
        // any other unparseable override.
        Some(v) => match v.to_str() {
            Some(s) => parse_threads(s).unwrap_or_else(machine),
            None => 1,
        },
        None => machine(),
    }
}

/// Upper bound on pool shards (and the length of the per-shard batch
/// counters in [`DispatchStats`]).  Shards multiply *submission*
/// concurrency, not per-batch parallelism, and more concurrent
/// submitters than cores just contend on the same CPUs — a small fixed
/// cap keeps the stats `Copy` and the shard scan cheap.
pub const MAX_SHARDS: usize = 16;

/// Interpret one `SPMAP_SHARDS` value:
///
/// * a positive integer (surrounding whitespace tolerated) is honored,
///   capped at [`MAX_SHARDS`],
/// * `0` and garbage (`banana`, `-3`, `1.5`, …) clamp to `Some(1)` — a
///   single shard, i.e. the one-batch-at-a-time pool of PR 4; never a
///   panic, never zero shards,
/// * an empty / whitespace-only value is `None` — treated as unset
///   (auto from core count).
///
/// The clamp direction mirrors [`parse_threads`]: an explicitly
/// configured-but-broken override means the operator reached for the
/// knob, and the conservative reading is *less* concurrency, not the
/// machine-wide default.
pub fn parse_shards(raw: &str) -> Option<usize> {
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    Some(match t.parse::<usize>() {
        Ok(0) | Err(_) => 1,
        Ok(n) => n.min(MAX_SHARDS),
    })
}

/// Number of pool shards: `SPMAP_SHARDS` if set (see [`parse_shards`]),
/// otherwise the machine's available parallelism, capped at
/// [`MAX_SHARDS`].  Each shard accepts one batch at a time; N shards
/// let N concurrent callers dispatch batches in parallel.
pub fn num_shards() -> usize {
    let machine = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_SHARDS)
    };
    match std::env::var_os("SPMAP_SHARDS") {
        // Non-UTF-8 bytes are garbage, not "unset": clamp to one shard
        // like any other unparseable override.
        Some(v) => match v.to_str() {
            Some(s) => parse_shards(s).unwrap_or_else(machine),
            None => 1,
        },
        None => machine(),
    }
}

// Kept until the next benchmark change drops the import in perfbench/src/bin/trace.rs.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum ParBackend {
    Pool,
}

// Kept until the next benchmark change drops the import in perfbench/src/bin/trace.rs.
// Runs `f`: the pool is the only parallel backend.
#[doc(hidden)]
pub fn with_backend<R>(_backend: ParBackend, f: impl FnOnce() -> R) -> R {
    f()
}

thread_local! {
    static POOL_OVERRIDE: std::cell::RefCell<Option<std::sync::Arc<Pool>>> =
        const { std::cell::RefCell::new(None) };
    static DISPATCH: Cell<DispatchStats> = const { Cell::new(DispatchStats::new()) };
}

/// Run `f` with the current thread's parallel batches routed to
/// `pool` instead of the process-wide [`global_pool`]; restored
/// afterwards (panic-safe).  Lets tests and benchmarks exercise several
/// shard counts ([`Pool::with_shards`]) inside one process — the global
/// pool reads `SPMAP_SHARDS` once and cannot be reconfigured.
pub fn with_pool<R>(pool: &std::sync::Arc<Pool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<std::sync::Arc<Pool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(POOL_OVERRIDE.with(|c| c.replace(Some(std::sync::Arc::clone(pool)))));
    f()
}

/// The pool the current thread's parallel batches run on: the
/// [`with_pool`] override if one is active, otherwise `None` (the
/// process-wide [`global_pool`]).
fn pool_override() -> Option<std::sync::Arc<Pool>> {
    POOL_OVERRIDE.with(|c| c.borrow().clone())
}

/// How this thread's `par_map` batches were dispatched, accumulated
/// since thread start.  Callers snapshot before/after a run and diff
/// with [`DispatchStats::since`]; the engines in `spmap-core` surface
/// the per-run deltas on their results.
///
/// Deliberately **not** part of the engines' decision-counter structs:
/// decision counters are thread-count-invariant (pinned by the
/// equivalence suite), dispatch counters intentionally are not — they
/// exist to show how a given configuration dispatched its batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Batches run entirely on the calling thread (1 worker, ≤ 1 item,
    /// or a nested call demoted to serial).
    pub serial_batches: u64,
    /// Nested calls demoted to serial (subset of `serial_batches`):
    /// `par_map` from inside a pool worker or a batch-driving thread.
    pub nested_serial: u64,
    /// Batches dispatched through the persistent pool.
    pub pool_batches: u64,
    /// Parked pool workers engaged across pool batches (`workers − 1`
    /// per batch; wakes, not spawns).
    pub pool_dispatches: u64,
    /// Pool worker threads created by this thread's batches (each
    /// thread is created once and reused for the pool's whole lifetime).
    pub pool_workers_spawned: u64,
    /// Participant slots of this thread's pool batches claimed by a
    /// worker *homed on another shard* (work stealing: idle workers
    /// scan all shards, preferring their own).
    pub pool_steals: u64,
    /// Pool batches that found every shard's submission lock busy and
    /// had to block for one — the contention signal the sharded pool
    /// exists to drive to zero for up to [`num_shards`] concurrent
    /// callers.
    pub pool_submission_waits: u64,
    /// Pool batches submitted per shard (index = shard; shard ids past
    /// [`MAX_SHARDS`] − 1 — impossible via [`num_shards`] — fold into
    /// the last bucket).  A single-threaded caller lands everything on
    /// shard 0; concurrent callers spread out, which is exactly what
    /// this histogram is for (pinned by the pool's
    /// `concurrent_submitters_land_on_distinct_shards` test).
    pub pool_shard_batches: [u64; MAX_SHARDS],
}

impl DispatchStats {
    const fn new() -> Self {
        Self {
            serial_batches: 0,
            nested_serial: 0,
            pool_batches: 0,
            pool_dispatches: 0,
            pool_workers_spawned: 0,
            pool_steals: 0,
            pool_submission_waits: 0,
            pool_shard_batches: [0; MAX_SHARDS],
        }
    }

    /// Field-wise `self − earlier`: the dispatches between two
    /// [`dispatch_stats`] snapshots of the same thread.  Saturating:
    /// counters are thread-local, so diffing a snapshot taken on a
    /// *different* thread (e.g. an engine constructed on one thread and
    /// driven on another) yields zeros instead of underflowing.
    pub fn since(&self, earlier: &DispatchStats) -> DispatchStats {
        let mut pool_shard_batches = [0u64; MAX_SHARDS];
        for (out, (now, then)) in pool_shard_batches.iter_mut().zip(
            self.pool_shard_batches
                .iter()
                .zip(earlier.pool_shard_batches.iter()),
        ) {
            *out = now.saturating_sub(*then);
        }
        DispatchStats {
            serial_batches: self.serial_batches.saturating_sub(earlier.serial_batches),
            nested_serial: self.nested_serial.saturating_sub(earlier.nested_serial),
            pool_batches: self.pool_batches.saturating_sub(earlier.pool_batches),
            pool_dispatches: self.pool_dispatches.saturating_sub(earlier.pool_dispatches),
            pool_workers_spawned: self
                .pool_workers_spawned
                .saturating_sub(earlier.pool_workers_spawned),
            pool_steals: self.pool_steals.saturating_sub(earlier.pool_steals),
            pool_submission_waits: self
                .pool_submission_waits
                .saturating_sub(earlier.pool_submission_waits),
            pool_shard_batches,
        }
    }
}

/// The calling thread's dispatch counters so far.
pub fn dispatch_stats() -> DispatchStats {
    DISPATCH.with(Cell::get)
}

/// Apply `f` to the calling thread's dispatch counters.
pub(crate) fn bump_dispatch(f: impl FnOnce(&mut DispatchStats)) {
    DISPATCH.with(|c| {
        let mut d = c.get();
        f(&mut d);
        c.set(d);
    });
}

/// Interpret one `SPMAP_THREADS` value:
///
/// * a positive integer (surrounding whitespace tolerated) is honored,
/// * `0` and garbage (`banana`, `-3`, `1.5`, …) clamp to `Some(1)` — the
///   serial path; never a panic, never zero workers,
/// * an empty / whitespace-only value is `None` — treated as unset.
pub fn parse_threads(raw: &str) -> Option<usize> {
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    Some(match t.parse::<usize>() {
        Ok(0) | Err(_) => 1,
        Ok(n) => n,
    })
}

/// An arena of per-worker states, built once and reused across many
/// [`par_map_with`] calls.  Worker `k` of a call always receives exclusive
/// `&mut` access to one slot; slots never migrate mid-call.
#[derive(Debug)]
pub struct WorkerStates<S> {
    states: Vec<S>,
}

impl<S> WorkerStates<S> {
    /// `count` states built by `init(slot_index)`.
    pub fn new(count: usize, init: impl FnMut(usize) -> S) -> Self {
        assert!(count > 0, "need at least one worker state");
        Self {
            states: (0..count).map(init).collect(),
        }
    }

    /// One state per configured thread ([`num_threads`]).
    pub fn per_thread(init: impl FnMut(usize) -> S) -> Self {
        Self::new(num_threads(), init)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if there are no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The slot the serial fast path uses.
    pub fn first_mut(&mut self) -> &mut S {
        &mut self.states[0]
    }

    /// Iterate over all slots, e.g. to aggregate per-worker statistics.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.states.iter()
    }

    /// Mutably iterate over all slots.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.states.iter_mut()
    }
}

/// Run the whole batch on the calling thread with state slot 0 — the
/// serial fast path, and the specification the pool is tested against.
pub(crate) fn serial_map<S, T, R, F>(states: &mut WorkerStates<S>, items: &[T], f: F) -> Vec<R>
where
    F: Fn(&mut S, usize, &T) -> R,
{
    let s = states.first_mut();
    items.iter().enumerate().map(|(i, t)| f(s, i, t)).collect()
}

/// Restore input order from per-participant `(index, result)` parts —
/// the order-restoring tail of a pooled batch.
pub(crate) fn merge_parts<R>(len: usize, parts: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            debug_assert!(out[i].is_none());
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Apply `f(state, index, item)` to every item with `threads` workers,
/// preserving input order in the result.  Worker count is further capped
/// by the item count and the number of state slots.  `threads <= 1` runs
/// entirely on the calling thread with `states` slot 0 and spawns
/// nothing.
///
/// Parallel batches run on the [`with_pool`] override if one is active,
/// otherwise on the process-wide [`global_pool`].  Results are
/// bit-identical to the serial path.
pub fn par_map_with_threads<S, T, R, F>(
    threads: usize,
    states: &mut WorkerStates<S>,
    items: &[T],
    f: F,
) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len().max(1)).min(states.len());
    if threads <= 1 || items.len() <= 1 {
        bump_dispatch(|d| d.serial_batches += 1);
        return serial_map(states, items, f);
    }
    match pool_override() {
        Some(p) => p.par_map_with_threads(threads, states, items, f),
        None => pool::global().par_map_with_threads(threads, states, items, f),
    }
}

/// [`par_map_with_threads`] with the environment-configured thread count.
pub fn par_map_with<S, T, R, F>(states: &mut WorkerStates<S>, items: &[T], f: F) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map_with_threads(num_threads(), states, items, f)
}

/// Apply `f` to every item, in parallel, preserving input order in the
/// result.  `f` receives `(index, &item)`.  Stateless convenience wrapper
/// over [`par_map_with`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = num_threads();
    let mut states = WorkerStates::new(threads, |_| ());
    par_map_with_threads(threads, &mut states, items, |_, i, t| f(i, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |_, &x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 2 * i as u64);
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c"];
        let out = par_map(&items, |i, &s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn unbalanced_work_completes() {
        // One expensive item must not serialize the rest.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |_, &x| {
            if x == 0 {
                // Busy-work instead of sleeping to keep the test fast.
                (0..200_000u64).fold(0, |a, b| a ^ b.wrapping_mul(x + 1))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[5], 5);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("8"), Some(8));
        assert_eq!(parse_threads(" 4 "), Some(4), "whitespace tolerated");
        assert_eq!(parse_threads("128"), Some(128));
    }

    #[test]
    fn parse_threads_clamps_zero_and_garbage_to_serial() {
        // Regression: `SPMAP_THREADS=0` must not configure zero workers,
        // and garbage must not fall through to full machine parallelism
        // (the var is usually set precisely to *limit* parallelism).
        assert_eq!(parse_threads("0"), Some(1));
        assert_eq!(parse_threads("banana"), Some(1));
        assert_eq!(parse_threads("-3"), Some(1));
        assert_eq!(parse_threads("1.5"), Some(1));
        assert_eq!(parse_threads("8 threads"), Some(1));
        assert_eq!(
            parse_threads("99999999999999999999999999"),
            Some(1),
            "overflow is garbage"
        );
    }

    #[test]
    fn parse_threads_empty_is_unset() {
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("   "), None);
    }

    #[test]
    fn with_state_preserves_order_and_reuses_slots() {
        // Each worker state accumulates how many items it processed;
        // across two calls the *same* arena keeps accumulating.
        let mut states = WorkerStates::new(4, |_| 0usize);
        let items: Vec<u32> = (0..100).collect();
        let out = par_map_with_threads(4, &mut states, &items, |s, i, &x| {
            *s += 1;
            (i as u32, x + 1)
        });
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx as usize, i);
            assert_eq!(v, i as u32 + 1);
        }
        let first_total: usize = states.iter().sum();
        assert_eq!(first_total, 100, "every item processed exactly once");
        par_map_with_threads(4, &mut states, &items, |s, _, _| *s += 1);
        let second_total: usize = states.iter().sum();
        assert_eq!(second_total, 200, "state survives across calls");
    }

    #[test]
    fn single_thread_is_serial_on_calling_thread() {
        // threads = 1 must run everything on the caller with slot 0 and
        // spawn no threads — observable through thread ids.
        let me = std::thread::current().id();
        let mut states = WorkerStates::new(3, |_| Vec::new());
        let items: Vec<u32> = (0..50).collect();
        par_map_with_threads(1, &mut states, &items, |s, _, _| {
            s.push(std::thread::current().id());
        });
        let (slot0, others) = {
            let mut it = states.iter();
            (
                it.next().unwrap().clone(),
                it.map(|v| v.len()).sum::<usize>(),
            )
        };
        assert_eq!(slot0.len(), 50, "all items on slot 0");
        assert!(slot0.iter().all(|&id| id == me), "no thread was spawned");
        assert_eq!(others, 0, "no other slot touched");
    }

    #[test]
    fn parallel_uses_multiple_threads_when_asked() {
        // With enough slow items, at least one item must land on a thread
        // other than the caller (the caller is itself one of the workers).
        let me = std::thread::current().id();
        let mut states = WorkerStates::new(4, |_| ());
        let items: Vec<u32> = (0..64).collect();
        let ids = par_map_with_threads(4, &mut states, &items, |_, _, _| {
            // The accumulator goes through `black_box` at every step:
            // wrapping only the result lets the optimizer replace the
            // loop by its closed form, and the caller then drains every
            // item before a worker wakes.
            (0..100_000u64).fold(0u64, |a, b| std::hint::black_box(a.wrapping_add(b)));
            std::thread::current().id()
        });
        assert!(ids.iter().any(|&id| id != me), "expected a spawned worker");
    }

    #[test]
    fn both_backends_propagate_the_original_panic_payload() {
        // A panicking item must surface its *own* payload to the caller
        // on the serial path and on the pool alike — not a synthesized
        // join-failure string.
        for threads in [1usize, 4] {
            let items: Vec<u32> = (0..64).collect();
            let mut states = WorkerStates::new(4, |_| ());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map_with_threads(threads, &mut states, &items, |_, _, &x| {
                    if x == 21 {
                        panic!("payload {x}");
                    }
                    x
                })
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("payload 21"),
                "t{threads}: payload lost, got {msg:?}"
            );
        }
    }

    #[test]
    fn dispatch_stats_count_each_backend() {
        let items: Vec<u32> = (0..64).collect();
        let mut states = WorkerStates::new(3, |_| ());

        let base = dispatch_stats();
        par_map_with_threads(1, &mut states, &items, |_, _, &x| x);
        let serial = dispatch_stats().since(&base);
        assert_eq!(serial.serial_batches, 1);
        assert_eq!(serial.pool_batches, 0);

        let base = dispatch_stats();
        par_map_with_threads(3, &mut states, &items, |_, _, &x| x);
        par_map_with_threads(3, &mut states, &items, |_, _, &x| x);
        let pooled = dispatch_stats().since(&base);
        assert_eq!(pooled.pool_batches, 2);
        assert_eq!(
            pooled.pool_dispatches, 4,
            "workers - 1 wakes per pool batch"
        );
        assert_eq!(pooled.serial_batches, 0);
        assert!(
            pooled.pool_workers_spawned <= 2,
            "pool threads are created at most once, then reused"
        );
    }

    #[test]
    fn parse_shards_accepts_positive_integers_and_caps() {
        assert_eq!(parse_shards("1"), Some(1));
        assert_eq!(parse_shards("8"), Some(8));
        assert_eq!(parse_shards(" 4 "), Some(4), "whitespace tolerated");
        assert_eq!(
            parse_shards("999"),
            Some(MAX_SHARDS),
            "large counts cap at MAX_SHARDS"
        );
    }

    #[test]
    fn parse_shards_clamps_zero_and_garbage_to_one() {
        // A broken override means the operator reached for the knob;
        // one shard (the serialized PR 4 pool) is the conservative
        // reading, mirroring parse_threads' clamp-to-serial.
        assert_eq!(parse_shards("0"), Some(1));
        assert_eq!(parse_shards("banana"), Some(1));
        assert_eq!(parse_shards("-2"), Some(1));
        assert_eq!(parse_shards("1.5"), Some(1));
        assert_eq!(parse_shards(""), None);
        assert_eq!(parse_shards("   "), None);
    }

    #[test]
    fn num_shards_is_positive_and_capped() {
        let n = num_shards();
        assert!((1..=MAX_SHARDS).contains(&n));
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        // Batches inside the override must run on the given pool (its
        // worker count grows), not the global one; outside, the
        // override must be gone — including after a panic.
        let pool = std::sync::Arc::new(Pool::with_shards(1));
        let items: Vec<u32> = (0..64).collect();
        let mut states = WorkerStates::new(3, |_| ());
        with_pool(&pool, || {
            let out = par_map_with_threads(3, &mut states, &items, |_, _, &x| x + 1);
            assert_eq!(out[5], 6);
        });
        assert_eq!(pool.worker_count(), 2, "batch ran on the override pool");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(&pool, || panic!("interrupted"));
        }));
        assert!(caught.is_err());
        assert!(
            POOL_OVERRIDE.with(|c| c.borrow().is_none()),
            "override must not leak past a panic"
        );
    }

    #[test]
    fn pool_dispatch_counts_shard_batches() {
        let pool = std::sync::Arc::new(Pool::with_shards(2));
        let items: Vec<u32> = (0..64).collect();
        let mut states = WorkerStates::new(3, |_| ());
        let base = dispatch_stats();
        with_pool(&pool, || {
            par_map_with_threads(3, &mut states, &items, |_, _, &x| x);
            par_map_with_threads(3, &mut states, &items, |_, _, &x| x);
        });
        let d = dispatch_stats().since(&base);
        assert_eq!(d.pool_batches, 2);
        assert_eq!(
            d.pool_shard_batches.iter().sum::<u64>(),
            2,
            "every pool batch lands in exactly one shard bucket"
        );
        assert_eq!(d.pool_shard_batches[0], 2, "a lone caller stays on shard 0");
        assert_eq!(d.pool_submission_waits, 0);
    }

    #[test]
    fn worker_count_capped_by_state_slots() {
        // 8 threads requested but only 2 slots: must still complete with
        // every item processed exactly once.
        let mut states = WorkerStates::new(2, |_| 0usize);
        let items: Vec<u32> = (0..40).collect();
        let out = par_map_with_threads(8, &mut states, &items, |s, _, &x| {
            *s += 1;
            x
        });
        assert_eq!(out, items);
        assert_eq!(states.iter().sum::<usize>(), 40);
    }
}
