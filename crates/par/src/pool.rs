//! Persistent deterministic worker pool, sharded for concurrent callers.
//!
//! The search loops dispatch *many small* batches — the GA submits
//! roughly one per generation, for hundreds of generations — so a
//! per-call thread spawn/join would dominate the useful work.  This
//! module keeps the workers alive instead: threads are created once
//! (lazily, growing to the largest batch ever requested), park on a
//! condvar between batches, and are woken by batch submission.
//!
//! ## Sharding
//!
//! The pool is split into N independent **shards**
//! ([`crate::num_shards`]; `SPMAP_SHARDS` overrides the auto count).
//! Each shard has its own submission lock, job slot and worker set, so N
//! concurrent callers can each drive a batch without serializing on one
//! process-wide submission mutex — the bottleneck that made two
//! simultaneous mapper runs take turns.  A submitting caller sweeps the
//! shards' submission locks with `try_lock` (lowest index first — a lone
//! caller always lands on shard 0, preserving the single-shard worker
//! footprint) and only blocks, counted as a *submission wait*, when
//! every shard is busy.
//!
//! Idle workers of **all** shards park on one shared condvar and scan
//! every shard for unclaimed participant slots, preferring their home
//! shard: a worker claiming from a foreign shard is a *steal*, which
//! keeps a shard's batch moving even while its own workers are busy
//! elsewhere.  Steals move only *which thread* executes a participant,
//! never what it computes — the participant index, state slot and chunk
//! claiming stay per-batch.
//!
//! ## Determinism
//!
//! Items are claimed from a shared atomic counter, every participant
//! collects `(index, result)` pairs, and the caller restores input order
//! afterwards.  Participant `k` of a call receives exclusive `&mut`
//! access to state slot `k` of the caller's [`WorkerStates`] arena, and
//! the caller itself is participant 0, so the serial fast path and slot
//! 0 semantics are unchanged.  Which OS thread executes which item can
//! differ run to run, and sharding only widens that freedom; everything
//! observable — results, their order, slot exclusivity — matches the
//! serial path, which is why the engines built on top stay bit-identical
//! across {serial, pool} × thread counts × shard counts
//! (`tests/equivalence.rs`, `tests/service.rs`).
//!
//! ## Panic protocol
//!
//! A panicking item poisons the **batch**, not the pool: the panic
//! payload is captured on the worker, the batch is drained (remaining
//! items may still run), and the payload is re-raised on the calling
//! thread once every participant has finished — the same observable
//! behavior as the serial path, where the panic simply unwinds.  The
//! workers themselves return to their parking loop and the pool stays
//! usable for the next batch.
//!
//! ## Nesting
//!
//! A `par_map` call *from inside* a pooled worker (or re-entrantly from
//! a caller that is itself driving a pooled batch) falls back to the
//! serial path instead of submitting: the pool's workers are already
//! busy, and blocking on them from within would deadlock.  Results are
//! unaffected — the serial path is the specification.
//!
//! ## Shutdown
//!
//! Dropping a [`Pool`] wakes every parked worker with a shutdown flag
//! and joins them all; no thread outlives its pool.  The process-wide
//! [`global`] pool intentionally lives for the whole process.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

use crate::{bump_dispatch, serial_map, WorkerStates, MAX_SHARDS};

thread_local! {
    /// Set for the whole lifetime of a pool worker thread.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set on a caller thread while it is driving a pooled batch.
    static DRIVING_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// `true` on threads that may not submit pooled batches: pool workers
/// (always), and callers currently driving a pooled batch (submission
/// is re-entrant work — the pool is already saturated).  Nested
/// `par_map` calls on such threads run serially instead of deadlocking.
pub fn in_pool_worker() -> bool {
    IN_POOL_WORKER.get() || DRIVING_BATCH.get()
}

/// Clears this thread's `DRIVING_BATCH` flag on drop, so the flag
/// cannot stay latched if the guarded batch submission unwinds (a
/// latched flag would silently demote every later batch on the thread
/// to serial dispatch).
struct DrivingBatchGuard;

impl Drop for DrivingBatchGuard {
    fn drop(&mut self) {
        DRIVING_BATCH.with(|flag| flag.set(false));
    }
}

/// Clears a strict-invariants slot-exclusivity flag on drop — every
/// exit path from a participant frame, including an unwind, releases
/// the slot it claimed.
#[cfg(feature = "strict-invariants")]
struct SlotFlagGuard<'a>(&'a std::sync::atomic::AtomicBool);

#[cfg(feature = "strict-invariants")]
impl Drop for SlotFlagGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// A type-erased batch runner: `run(data, participant_index)`.
///
/// `data` points at a stack-allocated, fully concrete `MapCtx` in the
/// submitting call; the function pointer re-instantiates the generics.
// SAFETY: calling a `RunFn` is sound only while the submitting call is
// blocked (so the `MapCtx` behind `data` is alive and of the matching
// concrete type) and with a participant index that is unique within
// the batch and `< states.len()` — see `run_participant`.
type RunFn = unsafe fn(*const (), usize);

/// One posted batch.  The raw pointer is only dereferenced between
/// submission and the caller's completion wait, during which the caller
/// is blocked inside the same call that owns the pointee — that
/// discipline is what the manual `Send` asserts.
struct Job {
    run: RunFn,
    data: *const (),
    /// Pool-side participants (the caller is participant 0 on top).
    participants: usize,
}

// SAFETY: `data` outlives the batch (the submitting call blocks until
// every participant has finished before its context drops), and the
// participant index hands each worker a disjoint state slot.
unsafe impl Send for Job {}

/// Per-shard batch state: the posted job plus the claim/drain counters
/// of the shard's current batch.  One batch per shard at a time — the
/// shard's submission lock serializes posts.
struct ShardState {
    job: Option<Job>,
    /// Participant slots of the current job already claimed.
    claimed: usize,
    /// Participants still running (claimed or not yet claimed).
    active: usize,
    /// Participant slots of the current batch claimed by workers homed
    /// on *other* shards; read by the submitter at drain.
    steals: u64,
}

/// One shard: a job slot with its drain condvar, a submission lock and
/// a home worker set.
struct Shard {
    state: Mutex<ShardState>,
    /// The submitting caller parks here until `active == 0`.
    done_cv: Condvar,
    /// Serializes batch submission *on this shard*: one batch in flight
    /// per shard at a time; other shards proceed independently.
    submission: Mutex<()>,
    /// Workers homed on this shard (spawned lazily, growing to the
    /// widest batch this shard ever saw).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shard {
    fn new() -> Self {
        Self {
            state: Mutex::new(ShardState {
                job: None,
                claimed: 0,
                active: 0,
                steals: 0,
            }),
            done_cv: Condvar::new(),
            submission: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        }
    }
}

/// State shared by every worker and submitter of one pool.
struct Shared {
    shards: Vec<Shard>,
    /// Guards the shutdown flag and orders job posts against workers
    /// about to park — a worker holds this lock from its (empty) shard
    /// scan through falling asleep on `work_cv`, so a submitter that
    /// acquires it after posting is guaranteed to either be seen by the
    /// scan or to wake the sleeper.  Lock order: `idle` → `Shard::state`
    /// (never the reverse).
    idle: Mutex<bool>,
    /// Workers of all shards park here between batches.
    work_cv: Condvar,
}

/// One claimed participant slot, carried from the claim (under locks)
/// to the execution (outside them).
struct Claim {
    run: RunFn,
    data: *const (),
    part: usize,
    shard: usize,
}

/// Survive mutex poisoning: the protected state is a counter protocol
/// whose invariants are maintained before any user code runs, so a
/// poisoned lock (a panic on another thread mid-batch) is still sound
/// to read — and refusing would wedge the pool forever.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// What one pooled batch reports back to the dispatch-stat plumbing.
struct BatchOutcome {
    /// Pool-side participants actually engaged (0 = degraded to serial).
    engaged: usize,
    /// Shard the batch ran on.
    shard: usize,
    /// Participant slots claimed by foreign-shard workers.
    steals: u64,
    /// Whether submission had to block for a busy shard.
    waited: bool,
}

/// A persistent sharded worker pool.  Workers are spawned lazily on
/// first use and grow per shard to the widest batch that shard ever
/// submitted; between batches they park on a shared condvar and steal
/// across shards.  Dropping the pool joins every worker.
pub struct Pool {
    shared: Arc<Shared>,
    /// Rotates the blocking fallback across shards when every
    /// submission lock is busy, so waiting callers spread out instead
    /// of convoying on shard 0.
    next_fallback: AtomicUsize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// An empty pool with [`crate::num_shards`] shards; workers are
    /// spawned on demand by the first batches.
    pub fn new() -> Self {
        Self::with_shards(crate::num_shards())
    }

    /// An empty pool with an explicit shard count (clamped to
    /// `1..=`[`MAX_SHARDS`]).  `1` reproduces the one-batch-at-a-time
    /// pool exactly; tests and benchmarks combine this with
    /// [`crate::with_pool`] to pin shard counts inside one process.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        Self {
            shared: Arc::new(Shared {
                shards: (0..shards).map(|_| Shard::new()).collect(),
                idle: Mutex::new(false),
                work_cv: Condvar::new(),
            }),
            next_fallback: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of worker threads currently alive across all shards
    /// (grows on demand, never shrinks before `Drop`).
    pub fn worker_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| lock(&s.handles).len())
            .sum()
    }

    /// Grow shard `shard`'s home worker set to at least `needed`
    /// workers; returns how many are actually available (spawn failure
    /// degrades the batch width instead of wedging it).
    fn ensure_workers(&self, shard: usize, needed: usize) -> usize {
        let mut handles = lock(&self.shared.shards[shard].handles);
        while handles.len() < needed {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("spmap-pool-s{shard}-{}", handles.len()))
                .spawn(move || worker_loop(shared, shard));
            match spawned {
                Ok(h) => {
                    handles.push(h);
                    bump_dispatch(|d| d.pool_workers_spawned += 1);
                }
                Err(_) => break,
            }
        }
        handles.len().min(needed)
    }

    /// Acquire a shard for submission: sweep the submission locks with
    /// `try_lock` (lowest index first — a lone caller stays on shard
    /// 0), falling back to a blocking acquire on a rotating shard when
    /// every shard is busy.  Returns the shard index, the held guard
    /// and whether the caller had to block.
    fn acquire_shard(&self) -> (usize, MutexGuard<'_, ()>, bool) {
        for (i, shard) in self.shared.shards.iter().enumerate() {
            match shard.submission.try_lock() {
                Ok(g) => return (i, g, false),
                Err(TryLockError::Poisoned(g)) => return (i, g.into_inner(), false),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        let i = self.next_fallback.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        (i, lock(&self.shared.shards[i].submission), true)
    }

    /// Post one batch for `requested` pool-side participants on a free
    /// shard, run `caller_work` (participant 0) on this thread, and
    /// block until every pool-side participant has finished.
    fn run_batch(
        &self,
        requested: usize,
        run: RunFn,
        data: *const (),
        caller_work: impl FnOnce(),
    ) -> BatchOutcome {
        let (shard_idx, _submission, waited) = self.acquire_shard();
        let shard = &self.shared.shards[shard_idx];
        let participants = self.ensure_workers(shard_idx, requested);
        if participants == 0 {
            caller_work();
            return BatchOutcome {
                engaged: 0,
                shard: shard_idx,
                steals: 0,
                waited,
            };
        }
        {
            let mut st = lock(&shard.state);
            // Job-slot exclusivity per shard: the shard's submission
            // lock serializes its batches, so a posted-or-draining job
            // here means two batches share one slot.
            debug_assert!(
                st.job.is_none() && st.active == 0,
                "batches are serialized per shard"
            );
            #[cfg(feature = "strict-invariants")]
            assert!(
                st.job.is_none() && st.active == 0,
                "strict-invariants: shard {shard_idx} job slot not exclusive \
                 (job posted or {} participants still active)",
                st.active
            );
            st.job = Some(Job {
                run,
                data,
                participants,
            });
            st.claimed = 0;
            st.active = participants;
            st.steals = 0;
        }
        {
            // Wake parked workers of every shard.  Holding `idle` here
            // orders the post above against any worker that scanned
            // before it and is about to park — see `Shared::idle`.
            let _idle = lock(&self.shared.idle);
            self.shared.work_cv.notify_all();
        }
        caller_work();
        let mut st = lock(&shard.state);
        while st.active > 0 {
            st = wait(&shard.done_cv, st);
        }
        // The SAFETY arguments of this module all lean on the drain
        // protocol: once the caller wakes here, no participant can
        // still hold the job or a claim on it.
        #[cfg(feature = "strict-invariants")]
        {
            assert!(
                st.job.is_none(),
                "strict-invariants: drained batch still posted"
            );
            assert_eq!(
                st.claimed, participants,
                "strict-invariants: drained batch has unclaimed participants"
            );
        }
        BatchOutcome {
            engaged: participants,
            shard: shard_idx,
            steals: st.steals,
            waited,
        }
    }

    /// [`crate::par_map_with_threads`] executed on this pool: items are
    /// claimed from one atomic counter by parked persistent workers,
    /// input order is restored afterwards, and participant `k` owns
    /// `WorkerStates` slot `k`.  Calls from inside a pool worker (or
    /// re-entrant calls from a batch-driving thread) run serially — see
    /// the module docs on nesting.
    pub fn par_map_with_threads<S, T, R, F>(
        &self,
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
        if in_pool_worker() {
            bump_dispatch(|d| {
                d.serial_batches += 1;
                d.nested_serial += 1;
            });
            return serial_map(states, items, f);
        }

        let next = AtomicUsize::new(0);
        let parts: Vec<Mutex<Vec<(usize, R)>>> =
            (0..threads).map(|_| Mutex::new(Vec::new())).collect();
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        #[cfg(feature = "strict-invariants")]
        let slot_live: Vec<std::sync::atomic::AtomicBool> = (0..threads)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        let ctx = MapCtx {
            next: &next,
            items,
            f: &f,
            states: states.states.as_mut_ptr(),
            parts: &parts,
            panic: &panic_slot,
            #[cfg(feature = "strict-invariants")]
            slot_live: &slot_live,
        };
        let data = &raw const ctx as *const ();
        let run = run_participant::<S, T, R, F> as RunFn;
        // The caller is participant 0 (state slot 0), pool workers take
        // participants 1..threads.  `DRIVING_BATCH` makes re-entrant
        // par_map calls from inside `f` on this thread fall back to
        // serial instead of self-deadlocking on the submission lock.
        DRIVING_BATCH.with(|flag| {
            debug_assert!(!flag.get());
            flag.set(true);
        });
        // Reset via drop-guard, not a trailing store: if `run_batch`
        // unwinds (e.g. a strict-invariants assert on the submission
        // path), a latched flag would silently demote every later batch
        // on this thread to serial.
        let driving = DrivingBatchGuard;
        let outcome = self.run_batch(threads - 1, run, data, || {
            // SAFETY: participant 0 is never handed to a pool worker,
            // so slot 0 is exclusively ours; `ctx` outlives `run_batch`.
            unsafe { run(data, 0) };
        });
        drop(driving);
        bump_dispatch(|d| {
            d.pool_batches += 1;
            d.pool_dispatches += outcome.engaged as u64;
            d.pool_steals += outcome.steals;
            d.pool_submission_waits += outcome.waited as u64;
            d.pool_shard_batches[outcome.shard.min(MAX_SHARDS - 1)] += 1;
        });

        // A panic anywhere in the batch (worker or caller) surfaces here,
        // after every participant finished — batch poisoned, pool intact.
        if let Some(payload) = lock(&panic_slot).take() {
            resume_unwind(payload);
        }
        let parts: Vec<Vec<(usize, R)>> = parts
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        crate::merge_parts(items.len(), parts)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut shutdown = lock(&self.shared.idle);
            *shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for shard in &self.shared.shards {
            for h in lock(&shard.handles).drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// The process-wide pool used by [`crate::par_map_with_threads`] when
/// no [`crate::with_pool`] override is active.  Created on first use with [`crate::num_shards`] shards;
/// its workers live for the rest of the process.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::new)
}

/// The fully concrete batch context a `RunFn` re-interprets.  Lives on
/// the submitting call's stack; every reference outlives the batch
/// because the caller blocks until all participants finish.
struct MapCtx<'a, S, T, R, F> {
    next: &'a AtomicUsize,
    items: &'a [T],
    f: &'a F,
    /// Base pointer of the caller's `WorkerStates` slots; participant
    /// `k` exclusively uses slot `k` (`k < threads <= states.len()`).
    states: *mut S,
    parts: &'a [Mutex<Vec<(usize, R)>>],
    panic: &'a Mutex<Option<Box<dyn Any + Send>>>,
    /// Runtime check of the slot-exclusivity contract: flag `k` is
    /// held for exactly the span participant `k` borrows slot `k`.
    #[cfg(feature = "strict-invariants")]
    slot_live: &'a [std::sync::atomic::AtomicBool],
}

/// Run one participant of a posted batch: claim items from the shared
/// counter until exhaustion, collecting `(index, result)` pairs.
///
/// # Safety
///
/// `data` must point at a live `MapCtx<S, T, R, F>` of matching type
/// parameters, and `part` must be a participant index unique within the
/// current batch and `< states.len()` of the submitting call.
unsafe fn run_participant<S, T, R, F>(data: *const (), part: usize)
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    // SAFETY: the caller (pool submission or participant 0) passes a
    // pointer to the submitting call's live `MapCtx` of exactly these
    // type parameters, and that caller blocks until `active` drains —
    // the pointee outlives every participant's run.
    let ctx = unsafe { &*(data as *const MapCtx<'_, S, T, R, F>) };
    // SAFETY: participant indices are unique per batch, so this slot is
    // not aliased for the duration of the participant's run.
    let state = unsafe { &mut *ctx.states.add(part) };
    // Runtime proof of that uniqueness claim: entering a participant
    // index that is already live means two threads share one `&mut`
    // slot — abort loudly before any user code runs on it.  The flag
    // clears via drop-guard so it cannot stay latched on *any* exit
    // path from this frame and fail the next batch's assert for a
    // panic that already surfaced elsewhere.
    #[cfg(feature = "strict-invariants")]
    let _slot_flag = {
        let was = ctx.slot_live[part].swap(true, Ordering::SeqCst);
        assert!(
            !was,
            "strict-invariants: state slot {part} claimed twice within one batch"
        );
        SlotFlagGuard(&ctx.slot_live[part])
    };
    // CONTAINMENT: a panic in `f` is caught per participant; the first
    // payload wins the batch's panic slot, every other participant
    // drains the item counter normally, and the submitting caller
    // re-raises the payload after the batch fully quiesces — batch
    // poisoned, pool workers and every other batch intact
    // (docs/PERF.md, docs/ROBUSTNESS.md).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = ctx.next.fetch_add(1, Ordering::Relaxed);
            if i >= ctx.items.len() {
                break;
            }
            local.push((i, (ctx.f)(state, i, &ctx.items[i])));
        }
        local
    }));
    match outcome {
        Ok(local) => *lock(&ctx.parts[part]) = local,
        Err(payload) => {
            let mut slot = lock(ctx.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
}

/// Scan every shard for an unclaimed participant slot, starting at the
/// worker's home shard.  Claiming from a foreign shard counts a steal
/// on that shard's current batch.
fn try_claim(shared: &Shared, home: usize) -> Option<Claim> {
    let n = shared.shards.len();
    for k in 0..n {
        let idx = (home + k) % n;
        let mut st = lock(&shared.shards[idx].state);
        if let Some(job) = st.job.as_ref() {
            let (run, data, participants) = (job.run, job.data, job.participants);
            let part = st.claimed + 1; // participant 0 is the caller
            st.claimed += 1;
            if st.claimed == participants {
                // Fully claimed: clear the slot so late wakers (and
                // this worker, once done) park again.
                st.job = None;
            }
            if idx != home {
                st.steals += 1;
            }
            return Some(Claim {
                run,
                data,
                part,
                shard: idx,
            });
        }
    }
    None
}

/// The parked-worker loop: scan all shards for a job (home shard
/// first), claim a participant slot, run it, signal that shard's
/// completion, park again — until shutdown.
fn worker_loop(shared: Arc<Shared>, home: usize) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let claim = {
            let mut shutdown = lock(&shared.idle);
            loop {
                if *shutdown {
                    return;
                }
                if let Some(c) = try_claim(&shared, home) {
                    break c;
                }
                shutdown = wait(&shared.work_cv, shutdown);
            }
        };
        // SAFETY: the submitting caller blocks until its shard's
        // `active` drains, so `data` is alive; `part` was claimed
        // exclusively above.  The participant fn catches panics
        // internally, so `active` is always decremented and the
        // protocol cannot wedge.
        unsafe { (claim.run)(claim.data, claim.part) };
        let shard = &shared.shards[claim.shard];
        let mut st = lock(&shard.state);
        st.active -= 1;
        if st.active == 0 {
            shard.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn pooled_matches_serial_bit_for_bit() {
        // The serial path is the specification: at every thread count,
        // with fewer, as many and more items than threads, the pool must
        // return the same results in the same order and process every
        // item exactly once.
        let pool = Pool::new();
        let f = |s: &mut u64, i: usize, &x: &u64| {
            *s += 1;
            x.wrapping_mul(31).wrapping_add(i as u64)
        };
        for threads in [2usize, 3, 8] {
            for len in [threads - 1, threads, threads + 1, 500] {
                let items: Vec<u64> = (0..len as u64).map(|x| x ^ 0x5A5A).collect();
                let mut ss = WorkerStates::new(threads, |_| 0u64);
                let mut pp = WorkerStates::new(threads, |_| 0u64);
                let serial = serial_map(&mut ss, &items, f);
                let pooled = pool.par_map_with_threads(threads, &mut pp, &items, f);
                assert_eq!(serial, pooled, "t{threads} n{len}");
                assert_eq!(
                    pp.iter().sum::<u64>(),
                    len as u64,
                    "t{threads} n{len}: every item processed exactly once"
                );
            }
        }
    }

    #[test]
    fn shard_counts_are_bit_identical() {
        // Same batch on 1, 2 and 4 shards: results, order and state
        // totals must not move — shard choice only picks threads.
        let items: Vec<u64> = (0..300).collect();
        let f = |s: &mut u64, i: usize, &x: &u64| {
            *s += 1;
            x.wrapping_mul(0x9E3779B9).wrapping_add(i as u64)
        };
        let mut reference = None;
        for shards in [1usize, 2, 4] {
            let pool = Pool::with_shards(shards);
            assert_eq!(pool.shard_count(), shards);
            let mut states = WorkerStates::new(4, |_| 0u64);
            let out = pool.par_map_with_threads(4, &mut states, &items, f);
            assert_eq!(states.iter().sum::<u64>(), 300, "s{shards}");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "s{shards}"),
            }
        }
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        let pool = Pool::new();
        let items: Vec<u32> = (0..64).collect();
        let mut states = WorkerStates::new(4, |_| ());
        for round in 0..10u32 {
            let out = pool.par_map_with_threads(4, &mut states, &items, |_, _, &x| x + round);
            assert_eq!(out[10], 10 + round);
        }
        assert_eq!(
            pool.worker_count(),
            3,
            "threads-1 workers, created once — a lone caller stays on shard 0"
        );
    }

    #[test]
    fn concurrent_submitters_land_on_distinct_shards() {
        // Thread A drives a batch whose items spin until released; the
        // main thread then submits its own batch, whose items do the
        // releasing.  With ≥ 2 shards the main thread's try_lock sweep
        // must skip A's busy shard 0 and proceed on shard 1 — no
        // deadlock, no submission wait, and the shard histogram shows
        // both shards used.
        let pool = Arc::new(Pool::with_shards(2));
        let a_started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let items: Vec<u32> = (0..8).collect();

        let a = {
            let pool = Arc::clone(&pool);
            let a_started = Arc::clone(&a_started);
            let release = Arc::clone(&release);
            let items = items.clone();
            std::thread::spawn(move || {
                let mut states = WorkerStates::new(2, |_| ());
                let base = crate::dispatch_stats();
                let out = pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| {
                    a_started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    x * 2
                });
                (out, crate::dispatch_stats().since(&base))
            })
        };

        while !a_started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let mut states = WorkerStates::new(2, |_| ());
        let base = crate::dispatch_stats();
        let out = pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| {
            release.store(true, Ordering::SeqCst);
            x + 1
        });
        let mine = crate::dispatch_stats().since(&base);
        assert_eq!(out, (1..=8).collect::<Vec<u32>>());
        assert_eq!(mine.pool_submission_waits, 0, "shard 1 was free");
        assert_eq!(mine.pool_shard_batches[1], 1, "A held shard 0");

        let (a_out, a_stats) = a.join().expect("thread A");
        assert_eq!(a_out, (0..8).map(|x| x * 2).collect::<Vec<u32>>());
        assert_eq!(a_stats.pool_shard_batches[0], 1);
    }

    #[test]
    fn busy_single_shard_counts_a_submission_wait() {
        // Same overlap as above, but with one shard the main thread's
        // sweep finds every submission lock busy and must block —
        // counted as a submission wait.  The release is delegated to a
        // third thread because the blocked submitter cannot run items
        // until A's batch drains.
        let pool = Arc::new(Pool::with_shards(1));
        let a_started = Arc::new(AtomicBool::new(false));
        let b_submitting = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let items: Vec<u32> = (0..8).collect();

        let a = {
            let pool = Arc::clone(&pool);
            let a_started = Arc::clone(&a_started);
            let release = Arc::clone(&release);
            let items = items.clone();
            std::thread::spawn(move || {
                let mut states = WorkerStates::new(2, |_| ());
                pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| {
                    a_started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    x
                })
            })
        };
        while !a_started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let releaser = {
            let b_submitting = Arc::clone(&b_submitting);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                while !b_submitting.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                // Give the submitter a moment to reach (and fail) the
                // try_lock sweep before releasing A's batch.  Worst
                // case a pathological preemption makes the wait count
                // 0 and the assertion below catches nothing false —
                // the sweep-vs-release order is why this is 200ms and
                // not a barrier (a blocked submitter can't signal).
                std::thread::sleep(std::time::Duration::from_millis(200));
                release.store(true, Ordering::SeqCst);
            })
        };
        let mut states = WorkerStates::new(2, |_| ());
        let base = crate::dispatch_stats();
        b_submitting.store(true, Ordering::SeqCst);
        let out = pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| x + 1);
        let mine = crate::dispatch_stats().since(&base);
        assert_eq!(out, (1..=8).collect::<Vec<u32>>());
        assert_eq!(mine.pool_submission_waits, 1, "single shard was busy");
        assert_eq!(mine.pool_shard_batches[0], 1);
        a.join().expect("thread A");
        releaser.join().expect("releaser");
    }

    #[test]
    fn worker_state_slots_stay_exclusive_and_persistent() {
        let pool = Pool::new();
        let mut states = WorkerStates::new(4, |_| 0usize);
        let items: Vec<u32> = (0..100).collect();
        let out = pool.par_map_with_threads(4, &mut states, &items, |s, i, &x| {
            *s += 1;
            (i as u32, x + 1)
        });
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx as usize, i);
            assert_eq!(v, i as u32 + 1);
        }
        assert_eq!(states.iter().sum::<usize>(), 100);
        pool.par_map_with_threads(4, &mut states, &items, |s, _, _| *s += 1);
        assert_eq!(
            states.iter().sum::<usize>(),
            200,
            "arena survives across batches"
        );
    }

    #[test]
    fn drop_joins_every_worker() {
        let pool = Pool::new();
        let items: Vec<u32> = (0..32).collect();
        let mut states = WorkerStates::new(6, |_| ());
        pool.par_map_with_threads(6, &mut states, &items, |_, _, &x| x);
        assert_eq!(pool.worker_count(), 5);
        let weak = Arc::downgrade(&pool.shared);
        drop(pool);
        // Every worker held a strong reference to the shared state; a
        // dead weak pointer proves they all exited and were joined.
        assert_eq!(weak.strong_count(), 0, "a worker outlived Drop");
    }

    #[test]
    fn drop_joins_workers_of_every_shard() {
        let pool = Pool::with_shards(4);
        // Drive batches from two overlapping submitters so at least
        // two shards spawn workers, then drop.
        let items: Vec<u32> = (0..64).collect();
        let a_started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(pool);
        let a = {
            let pool = Arc::clone(&pool);
            let a_started = Arc::clone(&a_started);
            let release = Arc::clone(&release);
            let items = items.clone();
            std::thread::spawn(move || {
                let mut states = WorkerStates::new(2, |_| ());
                pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| {
                    a_started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    x
                })
            })
        };
        while !a_started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let mut states = WorkerStates::new(3, |_| ());
        pool.par_map_with_threads(3, &mut states, &items, |_, _, &x| {
            release.store(true, Ordering::SeqCst);
            x
        });
        a.join().expect("thread A");
        assert!(pool.worker_count() >= 2, "two shards spawned workers");
        let weak = Arc::downgrade(&pool.shared);
        drop(Arc::into_inner(pool).expect("sole owner"));
        assert_eq!(weak.strong_count(), 0, "a worker outlived Drop");
    }

    #[test]
    fn panic_poisons_the_batch_but_not_the_pool() {
        let pool = Pool::new();
        let items: Vec<u32> = (0..64).collect();
        let mut states = WorkerStates::new(4, |_| ());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_with_threads(4, &mut states, &items, |_, _, &x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = caught.expect_err("the panicking item must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("boom at 13"),
            "original payload preserved: {msg}"
        );
        // The pool must stay fully usable for the next batch.
        let out = pool.par_map_with_threads(4, &mut states, &items, |_, _, &x| x * 2);
        assert_eq!(out.len(), 64);
        assert_eq!(out[20], 40);
    }

    #[test]
    fn caller_side_panic_is_also_contained() {
        // Participant 0 runs on the calling thread; its panic must wait
        // for the pool-side participants before unwinding (they borrow
        // the caller's stack) and the pool must survive.
        let pool = Pool::new();
        let items: Vec<u32> = (0..256).collect();
        let mut states = WorkerStates::new(2, |_| ());
        for _ in 0..3 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map_with_threads(2, &mut states, &items, |_, i, &x| {
                    if i == 0 {
                        panic!("first item");
                    }
                    x
                })
            }));
            assert!(caught.is_err());
        }
        let ok = pool.par_map_with_threads(2, &mut states, &items, |_, _, &x| x);
        assert_eq!(ok, items);
    }

    #[test]
    fn nested_par_map_inside_a_pooled_worker_runs_serial() {
        let pool = Pool::new();
        let items: Vec<u32> = (0..16).collect();
        let mut states = WorkerStates::new(4, |_| ());
        let nested_parallel = AtomicU64::new(0);
        let out = pool.par_map_with_threads(4, &mut states, &items, |_, _, &x| {
            // An inner call must complete (no deadlock) and must stay on
            // the current thread (serial fallback).
            let me = std::thread::current().id();
            let inner: Vec<u32> = crate::par_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &y| {
                if std::thread::current().id() != me {
                    nested_parallel.fetch_add(1, Ordering::Relaxed);
                }
                y * 10
            });
            assert_eq!(inner, vec![10, 20, 30, 40, 50, 60, 70, 80]);
            x
        });
        assert_eq!(out, items);
        assert_eq!(
            nested_parallel.load(Ordering::Relaxed),
            0,
            "nested calls must not escape the current thread"
        );
    }

    #[test]
    fn nested_call_through_the_global_pool_does_not_deadlock() {
        // Same property through the public dispatcher: outer pooled
        // batch, inner par_map from every participant (including the
        // batch-driving caller thread).
        let items: Vec<u32> = (0..12).collect();
        let out = crate::par_map(&items, |_, &x| {
            let inner: u32 = crate::par_map(&[x, x + 1], |_, &y| y).iter().sum();
            inner
        });
        assert_eq!(out[3], 3 + 4);
    }

    #[test]
    fn worker_count_capped_by_state_slots_and_items() {
        let pool = Pool::new();
        let mut states = WorkerStates::new(2, |_| 0usize);
        let items: Vec<u32> = (0..40).collect();
        let out = pool.par_map_with_threads(8, &mut states, &items, |s, _, &x| {
            *s += 1;
            x
        });
        assert_eq!(out, items);
        assert_eq!(states.iter().sum::<usize>(), 40);
        assert!(
            pool.worker_count() <= 1,
            "2 effective workers -> at most 1 spawned"
        );
    }

    #[test]
    fn odd_thread_counts_work() {
        let pool = Pool::new();
        for threads in [3usize, 5, 7] {
            let mut states = WorkerStates::new(threads, |_| ());
            let items: Vec<u64> = (0..101).collect();
            let out = pool.par_map_with_threads(threads, &mut states, &items, |_, _, &x| x + 7);
            assert_eq!(out.len(), 101);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u64 + 7);
            }
        }
    }

    #[test]
    fn empty_and_single_inputs_stay_serial() {
        let pool = Pool::new();
        let mut states = WorkerStates::new(4, |_| ());
        let empty: Vec<u32> = vec![];
        assert!(pool
            .par_map_with_threads(4, &mut states, &empty, |_, _, &x| x)
            .is_empty());
        assert_eq!(
            pool.par_map_with_threads(4, &mut states, &[9u32], |_, _, &x| x + 1),
            vec![10]
        );
        assert_eq!(pool.worker_count(), 0, "serial fast path spawns nothing");
    }
}
