//! Mapping-as-a-service: a long-lived front end over the decomposition
//! mapper for concurrent callers — one-shot requests and stateful
//! remapping sessions behind one admission discipline.
//!
//! A [`MapService`] wraps three pieces of shared state:
//!
//! * an **admission gate** — a bounded request queue with
//!   reject-over-buffer semantics: at most `max_inflight` requests run
//!   concurrently, at most `max_queued` more wait for a slot, and
//!   anything beyond that is rejected immediately with
//!   [`ServiceError::Overloaded`] (unbounded buffering would trade an
//!   honest error for silent latency collapse).  Rejections carry a
//!   clock-free `retry_hint`: how many completions the service must
//!   record before a retry could reach an execution slot.
//! * a **response cache** — a byte-budgeted LRU of whole
//!   [`MapperResult`]s ([`crate::cache`]), keyed by everything that
//!   determines a result, so a repeat request skips decomposition,
//!   table construction and the search; session opens share it with
//!   one-shot maps;
//! * a **session registry** — live [`RemapSession`]s opened through
//!   [`MapService::open_session`], each serialized by its own lock so
//!   remaps on *distinct* sessions run concurrently while remaps on the
//!   same session queue behind each other.
//!
//! Requests execute *on the caller's thread* ([`MapService::map`] is
//! synchronous); the service adds no threads of its own.  Parallelism
//! inside each request comes from the candidate engine exactly as in a
//! direct [`decomposition_map`](crate::decomposition_map) call, so the
//! sharded worker pool in `spmap-par` serves co-running requests from
//! distinct shards.  A [`RuntimeConfig`] in [`ServiceConfig`] lets
//! embeddings pin threads/shards programmatically; `None`
//! fields defer to the ambient environment (precedence: explicit >
//! environment > default — docs/PERF.md).
//!
//! ## Determinism
//!
//! A response is a pure function of its request (and, for remaps, the
//! session's perturbation history), which is what makes a response
//! cache sound.  The cache key ([`crate::cache`], "Key soundness")
//! covers the graph and platform content, every field of the resolved
//! [`MapperConfig`](crate::MapperConfig) — the engine knobs included,
//! with the thread count resolved after the runtime fill, because the
//! γ-search's evaluation and batch counters follow the worker count —
//! and the device restriction.  A hit therefore replays every
//! [`MapperResult`] field of the first run bit for bit, except
//! `dispatch`, which is zero because nothing was dispatched; it reports
//! `cache_hit: true`.  Only successful results are cached: mapper errors
//! and contained panics run the full path again on every retry.
//! Admission control delays or rejects requests but never alters one.
//! Cold cache, warm cache, any shard count, any co-runner mix: same
//! mapping, same makespan, bit for bit.  The service reads no clocks —
//! even the overload `retry_hint` is denominated in completions, not
//! time; latency measurement belongs to the benchmark harness.
//!
//! ## Fault containment
//!
//! Every fault inside an admitted request is **caller-local** (the full
//! model and proof obligations live in docs/ROBUSTNESS.md):
//!
//! * the request boundary is a `catch_unwind`; an escaping panic comes
//!   back as [`ServiceError::Internal`] to *that* caller only,
//! * admission slots are RAII drop-guards, so a panicking request can
//!   never strand `inflight`/`queued` accounting or a condvar waiter —
//!   `admitted == completed + failed` holds at quiescence no matter how
//!   requests die,
//! * the gate / registry / cache mutexes **recover and continue** on
//!   poison: every critical section over them is straight-line
//!   arithmetic or a content-addressed cache op whose invariants hold
//!   at every statement, so the state a panicking thread left behind is
//!   always consistent,
//! * a *session* mutex poisoned mid-operation is different — the
//!   operation may have died between compile and commit — so the
//!   session degrades to a typed [`ServiceError::SessionPoisoned`]
//!   state.  [`MapService::remap_full`] is the designated recovery
//!   path: it rebuilds the session's derived state from scratch
//!   ([`RemapSession::rebuild`]) and clears the poison on success;
//!   [`MapService::close_session`] still works (disposal needs no
//!   derived state) and reports the flag.
//!
//! The chaos suite (`tests/chaos.rs`, `fault-injection` feature) proves
//! all of this under deterministic fault injection.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use spmap_model::Mapping;

use crate::cache::{cached, resolve, ResponseCache, ResponseCacheStats};
use crate::mapper::{try_decomposition_map_on, MapperError, MapperResult};
use crate::request::MapRequest;
use crate::runtime::RuntimeConfig;
use crate::session::{Perturbation, RemapError, RemapOutcome, RemapSession};

/// Sizing of a [`MapService`].  The all-zero default defers every
/// bound to its runtime-derived value.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Maximum requests executing concurrently.  `0` selects the shard
    /// count of the parallel runtime — one running request per pool
    /// shard keeps engine batches from queuing on a shared shard.
    pub max_inflight: usize,
    /// Maximum requests waiting for an execution slot beyond
    /// `max_inflight`; the next request is rejected, not buffered.
    pub max_queued: usize,
    /// Byte budget of the response cache (`0` selects
    /// [`DEFAULT_RESPONSE_BUDGET_BYTES`](crate::cache::DEFAULT_RESPONSE_BUDGET_BYTES);
    /// `1` caches nothing, since every response is larger).
    pub cache_budget_bytes: usize,
    /// Typed runtime knobs (threads, shards, checkpoint budget).  The default
    /// defers every field to the ambient `SPMAP_*` environment;
    /// explicit fields override it for every request this service runs.
    pub runtime: RuntimeConfig,
}

/// Handle of one open remapping session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// A typed failure of one service request.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// Admission control rejected the request: the run slots and the
    /// bounded wait queue were both full at arrival.
    Overloaded {
        /// Requests running when this one was rejected.
        inflight: usize,
        /// Requests already waiting when this one was rejected.
        queued: usize,
        /// Completions the service must record before a retry could
        /// drain the current queue and reach an execution slot — a
        /// clock-free backoff hint (the service never reads time).
        retry_hint: u64,
    },
    /// The mapper itself failed (NaN improvement deltas, or an
    /// algorithm family this service cannot execute).
    Mapper(MapperError),
    /// A session operation failed (invalid perturbation, graph patch
    /// error); the session survives and stays usable.
    Session(RemapError),
    /// No open session has this id (never opened, or already closed).
    UnknownSession(SessionId),
    /// A panic escaped the mapping engine while this request ran.  The
    /// fault is contained: the admission slot was released by its drop
    /// guard, shared mutexes recover on their next lock, and concurrent
    /// requests are unaffected (docs/ROBUSTNESS.md).
    Internal {
        /// The service entry point that contained the panic
        /// (`"map"`, `"open_session"`, `"remap"`, `"remap_full"`).
        site: &'static str,
        /// The stringified panic payload.
        payload: String,
    },
    /// The session's lock was poisoned by a panic during a previous
    /// operation on it.  Warm remaps refuse the state;
    /// [`MapService::remap_full`] is the designated recovery path (it
    /// rebuilds the session's derived state from scratch and clears the
    /// poison), and [`MapService::close_session`] disposes of it.
    SessionPoisoned(SessionId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                inflight,
                queued,
                retry_hint,
            } => write!(
                f,
                "service overloaded: {inflight} requests in flight and {queued} queued; \
                 retry after {retry_hint} completions or raise ServiceConfig::max_queued"
            ),
            ServiceError::Mapper(e) => write!(f, "mapper failed: {e}"),
            ServiceError::Session(e) => write!(f, "session operation failed: {e}"),
            ServiceError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServiceError::Internal { site, payload } => {
                write!(f, "internal fault contained at service {site}: {payload}")
            }
            ServiceError::SessionPoisoned(id) => write!(
                f,
                "{id} is poisoned by a panic in a previous operation; \
                 recover it with remap_full or dispose of it with close_session"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<MapperError> for ServiceError {
    fn from(e: MapperError) -> Self {
        ServiceError::Mapper(e)
    }
}

impl From<RemapError> for ServiceError {
    fn from(e: RemapError) -> Self {
        match e {
            RemapError::Mapper(m) => ServiceError::Mapper(m),
            other => ServiceError::Session(other),
        }
    }
}

/// One successful one-shot response.
#[derive(Clone, Debug)]
pub struct MapResponse {
    /// The mapper's result, bit-identical to a direct
    /// [`decomposition_map`](crate::decomposition_map) call with the
    /// request's inputs.  A cache hit reports zero `dispatch` work.
    pub result: MapperResult,
    /// Whether the result came from the response cache (`true`) or was
    /// mapped — and cached — by this request (`false`).
    pub cache_hit: bool,
    /// The key the response is cached under.
    pub cache_key: u128,
}

/// The response of [`MapService::open_session`]: the session handle and
/// its opening full-map result.
#[derive(Clone, Debug)]
pub struct SessionResponse {
    /// Handle for [`MapService::remap`] / [`MapService::close_session`].
    pub id: SessionId,
    /// The initial full map the session's incumbent starts from.
    pub result: MapperResult,
    /// Whether the opening map came from the response cache.
    pub cache_hit: bool,
    /// The session's identity key (the artifact key, re-keyed under the
    /// availability mask when the opening request restricted devices).
    pub session_key: u128,
}

/// The final state a closed session handed back.
#[derive(Clone, Debug)]
pub struct SessionClose {
    /// The closed handle.
    pub id: SessionId,
    /// The session's final incumbent mapping.
    pub mapping: Mapping,
    /// Its makespan under the session's cost model.
    pub makespan: f64,
    /// Remaps the session executed over its lifetime.
    pub remaps: u64,
    /// Whether the session's lock was poisoned (a previous operation on
    /// it panicked) when it was closed.  The returned incumbent is
    /// still the last *committed* one — sessions mutate only at their
    /// commit boundary, never mid-search (docs/ROBUSTNESS.md).
    pub poisoned: bool,
}

/// Lifetime counters of a [`MapService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted (ran or started waiting for a slot).
    pub admitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests completed (successfully or with a typed mapper/session
    /// error — a typed refusal is still a completed request).
    pub completed: u64,
    /// Requests that died with a contained panic
    /// ([`ServiceError::Internal`]).  At quiescence,
    /// `admitted == completed + failed` — the chaos suite pins it.
    pub failed: u64,
    /// High-water mark of concurrently running requests — never exceeds
    /// `ServiceConfig::max_inflight` (the stress suite pins this).
    pub peak_inflight: usize,
    /// High-water mark of waiting requests — never exceeds
    /// `ServiceConfig::max_queued`.
    pub peak_queued: usize,
    /// Sessions opened over the service lifetime.
    pub sessions_opened: u64,
    /// Sessions closed over the service lifetime.
    pub sessions_closed: u64,
    /// Warm remaps executed (including empty-neighborhood commits,
    /// excluding pure no-ops).
    pub remaps: u64,
    /// Empty-perturbation remaps (incumbent returned untouched).
    pub remaps_noop: u64,
    /// From-scratch fallback remaps ([`MapService::remap_full`]).
    pub remaps_full: u64,
    /// Response-cache counters (hits, misses, evictions, peaks).
    pub cache: ResponseCacheStats,
}

/// Admission state behind the gate mutex.
struct Gate {
    inflight: usize,
    queued: usize,
    admitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    peak_inflight: usize,
    peak_queued: usize,
    sessions_opened: u64,
    sessions_closed: u64,
    remaps: u64,
    remaps_noop: u64,
    remaps_full: u64,
}

/// The session registry: a plain `Vec` keyed by monotone ids (a map
/// would need hash-order pragmas; the registry holds few live entries
/// and the scan is trivial next to any mapping work).
struct Sessions {
    next: u64,
    live: Vec<(u64, Arc<Mutex<RemapSession>>)>,
}

/// Recover-and-continue lock discipline for the service's shared
/// mutexes (gate, session registry, response cache): every critical
/// section over them keeps its invariants at every statement
/// (straight-line counter arithmetic, content-addressed cache ops), so
/// a poison flag left by a panicking thread carries no information and
/// the state is safe to keep using (docs/ROBUSTNESS.md).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stringify a panic payload (the `&str` / `String` cases cover every
/// `panic!` in this workspace; anything else is labeled opaquely).
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The service's containment boundary: convert an escaping panic into a
/// caller-local [`ServiceError::Internal`].
fn contain<R>(
    site: &'static str,
    f: impl FnOnce() -> Result<R, ServiceError>,
) -> Result<R, ServiceError> {
    // CONTAINMENT: panics unwind into `ServiceError::Internal { site }`
    // for this caller only.  Recovery: the admission slot is released
    // by its `SlotGuard` drop during the unwind; gate/registry/cache
    // mutexes recover-and-continue on their next `lock()`; a session
    // mutex caught mid-operation surfaces as `SessionPoisoned` and is
    // recovered by `remap_full` (rebuild-from-scratch) or disposed by
    // `close_session`.  `AssertUnwindSafe` is sound under exactly that
    // policy: no state observed after the catch can be mid-mutation
    // (docs/ROBUSTNESS.md).
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(ServiceError::Internal {
            site,
            payload: panic_payload(payload.as_ref()),
        }),
    }
}

/// One held admission slot.  Dropping it releases the slot, records the
/// outcome (`completed` by default, `failed` after
/// [`SlotGuard::mark_failed`]) and wakes one queued waiter — on *every*
/// exit path, including an unwind, which is what makes the admission
/// accounting panic-proof.
struct SlotGuard<'a> {
    svc: &'a MapService,
    failed: bool,
}

impl SlotGuard<'_> {
    /// Record this request as `failed` (contained panic) instead of
    /// `completed` when the slot is released.
    fn mark_failed(&mut self) {
        self.failed = true;
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut g = lock(&self.svc.gate);
        g.inflight -= 1;
        if self.failed {
            g.failed += 1;
        } else {
            g.completed += 1;
        }
        drop(g);
        self.svc.slot_cv.notify_one();
    }
}

/// What a session operation does when it finds the session's mutex
/// poisoned by a previous panic.
enum PoisonPolicy {
    /// Return [`ServiceError::SessionPoisoned`]; the caller must route
    /// through [`MapService::remap_full`] (or close the session).
    Refuse,
    /// Rebuild the session's derived state from scratch
    /// ([`RemapSession::rebuild`]) and clear the poison on success.
    Recover,
}

/// A long-lived mapping service; see the module docs.  Cheap to share
/// (`Arc<MapService>`) and safe to call from any number of threads.
pub struct MapService {
    max_inflight: usize,
    max_queued: usize,
    runtime: RuntimeConfig,
    gate: Mutex<Gate>,
    /// Signalled when a run slot frees up.
    slot_cv: Condvar,
    cache: Mutex<ResponseCache>,
    sessions: Mutex<Sessions>,
}

impl MapService {
    /// A service sized by `cfg` (see [`ServiceConfig`] for the `0` =
    /// auto conventions).
    pub fn new(cfg: ServiceConfig) -> Self {
        let max_inflight = if cfg.max_inflight == 0 {
            cfg.runtime.shards()
        } else {
            cfg.max_inflight
        };
        Self {
            max_inflight,
            max_queued: cfg.max_queued,
            runtime: cfg.runtime,
            gate: Mutex::new(Gate {
                inflight: 0,
                queued: 0,
                admitted: 0,
                rejected: 0,
                completed: 0,
                failed: 0,
                peak_inflight: 0,
                peak_queued: 0,
                sessions_opened: 0,
                sessions_closed: 0,
                remaps: 0,
                remaps_noop: 0,
                remaps_full: 0,
            }),
            slot_cv: Condvar::new(),
            cache: Mutex::new(ResponseCache::new(cfg.cache_budget_bytes)),
            sessions: Mutex::new(Sessions {
                next: 0,
                live: Vec::new(),
            }),
        }
    }

    /// Execute the one-shot `request` on the calling thread, waiting
    /// for an execution slot if all are busy and queue room remains.
    ///
    /// Returns [`ServiceError::Overloaded`] without blocking when both
    /// the run slots and the bounded wait queue are full, and
    /// [`ServiceError::Mapper`] if the mapper itself fails or the
    /// request is invalid (an algorithm family this service cannot run
    /// — [`Algo::Ga`](crate::Algo::Ga) routes through
    /// `spmap_ga::nsga2_map_request` — a γ below 1 or NaN, an
    /// out-of-range device); either way the slot accounting is
    /// restored.  A panic inside the engine is contained to this
    /// caller as [`ServiceError::Internal`] — the slot guard releases
    /// during the unwind, so concurrent requests are unaffected.
    pub fn map(&self, request: &MapRequest) -> Result<MapResponse, ServiceError> {
        let mut slot = self.admit()?;
        let outcome = contain("map", || self.run(request));
        if matches!(outcome, Err(ServiceError::Internal { .. })) {
            slot.mark_failed();
        }
        outcome
    }

    /// Open a remapping session: run `request`'s initial full map under
    /// admission control and register the session that owns its result.
    /// The opening map goes through this service's response cache under
    /// the same key as [`MapService::map`] of `request`: a repeat open
    /// skips the search, and a later one-shot map of the request hits.
    pub fn open_session(&self, request: &MapRequest) -> Result<SessionResponse, ServiceError> {
        let mut slot = self.admit()?;
        let outcome = contain("open_session", || {
            let session = RemapSession::open_under(request, Some(&self.cache), &self.runtime)
                .map_err(ServiceError::from)?;
            let result = session.initial().clone();
            let cache_hit = session.initial_cache_hit();
            let session_key = session.session_key();
            let id = {
                let mut s = lock(&self.sessions);
                let id = s.next;
                s.next += 1;
                s.live.push((id, Arc::new(Mutex::new(session))));
                SessionId(id)
            };
            lock(&self.gate).sessions_opened += 1;
            Ok(SessionResponse {
                id,
                result,
                cache_hit,
                session_key,
            })
        });
        if matches!(outcome, Err(ServiceError::Internal { .. })) {
            slot.mark_failed();
        }
        outcome
    }

    /// Warm-start remap session `id` against `perturbations` (see
    /// [`RemapSession::remap`]), under the same admission discipline as
    /// one-shot requests.  Remaps on distinct sessions run concurrently;
    /// remaps on the same session serialize on its lock.
    ///
    /// A session whose lock a previous panic poisoned is refused with
    /// [`ServiceError::SessionPoisoned`] — recover it through
    /// [`MapService::remap_full`].
    pub fn remap(
        &self,
        id: SessionId,
        perturbations: &[Perturbation],
    ) -> Result<RemapOutcome, ServiceError> {
        let mut slot = self.admit()?;
        let outcome = contain("remap", || {
            self.run_on_session(id, PoisonPolicy::Refuse, |s| s.remap(perturbations))
        });
        match &outcome {
            Ok(out) => {
                let mut g = lock(&self.gate);
                if out.noop {
                    g.remaps_noop += 1;
                } else {
                    g.remaps += 1;
                }
            }
            Err(ServiceError::Internal { .. }) => slot.mark_failed(),
            Err(_) => {}
        }
        outcome
    }

    /// The from-scratch fallback on session `id`'s patched state (see
    /// [`RemapSession::remap_full`]): same compiled perturbations, no
    /// warm start.  The benchmark harness races this against
    /// [`MapService::remap`]; production callers want it when a
    /// perturbation invalidates most of the incumbent.
    ///
    /// This is also the designated recovery path for a session whose
    /// lock a previous panic poisoned: the session's derived state is
    /// rebuilt from scratch ([`RemapSession::rebuild`]) and the poison
    /// cleared before the remap runs (docs/ROBUSTNESS.md).
    pub fn remap_full(
        &self,
        id: SessionId,
        perturbations: &[Perturbation],
    ) -> Result<RemapOutcome, ServiceError> {
        let mut slot = self.admit()?;
        let outcome = contain("remap_full", || {
            self.run_on_session(id, PoisonPolicy::Recover, |s| s.remap_full(perturbations))
        });
        match &outcome {
            Ok(out) => {
                let mut g = lock(&self.gate);
                if out.noop {
                    g.remaps_noop += 1;
                } else {
                    g.remaps_full += 1;
                }
            }
            Err(ServiceError::Internal { .. }) => slot.mark_failed(),
            Err(_) => {}
        }
        outcome
    }

    /// Close session `id`, returning its final incumbent.  Cheap (no
    /// mapping work), so it bypasses admission control; a remap already
    /// running on the session finishes on its own handle but the
    /// registry entry is gone either way.
    pub fn close_session(&self, id: SessionId) -> Result<SessionClose, ServiceError> {
        let entry = {
            let mut s = lock(&self.sessions);
            match s.live.iter().position(|(sid, _)| *sid == id.0) {
                None => return Err(ServiceError::UnknownSession(id)),
                Some(i) => s.live.remove(i).1,
            }
        };
        let closed = {
            // Disposal needs no derived state, so a poisoned session is
            // still closeable: the session mutates only at its commit
            // boundary, so the incumbent read here is the last
            // committed one even after a mid-operation panic.  The flag
            // is reported, not hidden.
            let (sess, poisoned) = match entry.lock() {
                Ok(g) => (g, false),
                Err(p) => (p.into_inner(), true),
            };
            SessionClose {
                id,
                mapping: sess.incumbent().clone(),
                makespan: sess.incumbent_makespan(),
                remaps: sess.remaps(),
                poisoned,
            }
        };
        lock(&self.gate).sessions_closed += 1;
        Ok(closed)
    }

    /// Live session count (diagnostic).
    pub fn open_sessions(&self) -> usize {
        lock(&self.sessions).live.len()
    }

    /// Lifetime counters (gate and cache), taken atomically per lock.
    pub fn stats(&self) -> ServiceStats {
        let g = lock(&self.gate);
        let cache = lock(&self.cache).stats();
        ServiceStats {
            admitted: g.admitted,
            rejected: g.rejected,
            completed: g.completed,
            failed: g.failed,
            peak_inflight: g.peak_inflight,
            peak_queued: g.peak_queued,
            sessions_opened: g.sessions_opened,
            sessions_closed: g.sessions_closed,
            remaps: g.remaps,
            remaps_noop: g.remaps_noop,
            remaps_full: g.remaps_full,
            cache,
        }
    }

    /// Find session `id` and run `f` on it under its lock.  `poison` picks what to do when a previous
    /// panic poisoned the session's lock: refuse with
    /// [`ServiceError::SessionPoisoned`], or rebuild-and-recover.
    fn run_on_session<R>(
        &self,
        id: SessionId,
        poison: PoisonPolicy,
        f: impl FnOnce(&mut RemapSession) -> Result<R, RemapError>,
    ) -> Result<R, ServiceError> {
        let entry = {
            let s = lock(&self.sessions);
            match s.live.iter().find(|(sid, _)| *sid == id.0) {
                None => return Err(ServiceError::UnknownSession(id)),
                Some((_, sess)) => Arc::clone(sess),
            }
        };
        let mut sess = match entry.lock() {
            Ok(guard) => guard,
            Err(poisoned) => match poison {
                PoisonPolicy::Refuse => return Err(ServiceError::SessionPoisoned(id)),
                PoisonPolicy::Recover => {
                    // Rebuild the session's derived state from scratch
                    // before trusting it; the poison is cleared only on
                    // a successful rebuild, so a failed recovery leaves
                    // the session refusable (and retryable) rather than
                    // silently half-recovered.
                    let mut guard = poisoned.into_inner();
                    guard.rebuild().map_err(ServiceError::from)?;
                    entry.clear_poison();
                    guard
                }
            },
        };
        f(&mut sess).map_err(ServiceError::from)
    }

    /// Acquire a run slot or reject; the returned guard releases the
    /// slot on drop (on every exit path, including unwinds).
    fn admit(&self) -> Result<SlotGuard<'_>, ServiceError> {
        let mut g = lock(&self.gate);
        if g.inflight >= self.max_inflight {
            if g.queued >= self.max_queued {
                g.rejected += 1;
                return Err(ServiceError::Overloaded {
                    inflight: g.inflight,
                    queued: g.queued,
                    // The whole queue plus this request must drain
                    // through execution slots before a retry runs.
                    retry_hint: g.queued as u64 + 1,
                });
            }
            g.admitted += 1;
            g.queued += 1;
            g.peak_queued = g.peak_queued.max(g.queued);
            while g.inflight >= self.max_inflight {
                g = self.slot_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            g.queued -= 1;
        } else {
            g.admitted += 1;
        }
        g.inflight += 1;
        g.peak_inflight = g.peak_inflight.max(g.inflight);
        Ok(SlotGuard {
            svc: self,
            failed: false,
        })
    }

    /// The cached response, or the mapper run that fills it.
    fn run(&self, request: &MapRequest) -> Result<MapResponse, ServiceError> {
        let (cfg, key) = resolve(request, &self.runtime)?;
        let (result, cache_hit) = cached(Some(&self.cache), key, || {
            crate::faults::fault_point(crate::faults::FaultSite::ArtifactBuild);
            try_decomposition_map_on(
                &request.graph,
                &request.platform,
                &cfg,
                request.limits.devices.as_deref(),
            )
        })?;
        Ok(MapResponse {
            result,
            cache_hit,
            cache_key: key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{decomposition_map, MapperConfig};
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig};
    use spmap_model::Platform;

    fn request(seed: u64) -> MapRequest {
        let mut g = random_sp_graph(&SpGenConfig::new(24, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        MapRequest::from_mapper_config(
            Arc::new(g),
            Arc::new(Platform::reference()),
            &MapperConfig::sp_first_fit(),
        )
    }

    #[test]
    fn service_matches_direct_mapper_cold_and_warm() {
        let svc = MapService::new(ServiceConfig::default());
        let req = request(3);
        let cfg = req.mapper_config().expect("decomposition family");
        let direct = decomposition_map(&req.graph, &req.platform, &cfg);
        let cold = svc.map(&req).expect("cold run");
        let warm = svc.map(&req).expect("warm run");
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit, "second identical request must hit");
        for r in [&cold, &warm] {
            assert_eq!(r.result.mapping, direct.mapping);
            assert_eq!(r.result.makespan, direct.makespan);
            assert_eq!(r.result.history, direct.history);
            assert_eq!(r.result.batch, direct.batch);
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn zero_queue_service_rejects_over_capacity() {
        // max_inflight = 1, max_queued = 0: with a request holding the
        // slot, a second submission is rejected, not buffered.  The
        // holder is simulated through the internal gate so the test
        // needs no timing.
        let svc = MapService::new(ServiceConfig {
            max_inflight: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        });
        let slot = svc.admit().expect("first slot");
        let err = svc.map(&request(1)).expect_err("must reject");
        assert_eq!(
            err,
            ServiceError::Overloaded {
                inflight: 1,
                queued: 0,
                retry_hint: 1,
            }
        );
        drop(slot);
        assert!(svc.map(&request(1)).is_ok(), "slot freed");
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.peak_inflight, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.admitted, stats.completed + stats.failed);
    }

    #[test]
    fn queued_submissions_wait_and_complete() {
        // 4 threads through a 1-slot service with queue room for all:
        // everything completes, nothing rejected, inflight never
        // exceeds 1.
        let svc = Arc::new(MapService::new(ServiceConfig {
            max_inflight: 1,
            max_queued: 3,
            ..ServiceConfig::default()
        }));
        let req = request(5);
        let cfg = req.mapper_config().expect("decomposition family");
        let direct = decomposition_map(&req.graph, &req.platform, &cfg);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let req = req.clone();
                std::thread::spawn(move || svc.map(&req).expect("admitted"))
            })
            .collect();
        for h in handles {
            let resp = h.join().expect("no panic");
            assert_eq!(resp.result.mapping, direct.mapping);
            assert_eq!(resp.result.makespan, direct.makespan);
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.peak_inflight, 1, "gate must serialize");
        assert!(stats.peak_queued <= 3);
        assert_eq!(stats.cache.misses, 1, "one build, three hits");
        assert_eq!(stats.cache.hits, 3);
    }

    #[test]
    fn mapper_errors_release_the_slot() {
        use spmap_graph::{GraphBuilder, Task};
        let mut b = GraphBuilder::new();
        b.add_task(Task {
            complexity: f64::INFINITY,
            data_points: 1e7,
            parallelizability: 0.5,
            streamability: 1.0,
            area: 10.0,
            ..Task::default()
        });
        let req = MapRequest::from_mapper_config(
            Arc::new(b.build().unwrap()),
            Arc::new(Platform::reference()),
            &MapperConfig::single_node(),
        );
        let svc = MapService::new(ServiceConfig {
            max_inflight: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        });
        let err = svc.map(&req).expect_err("NaN deltas must surface");
        assert!(matches!(
            err,
            ServiceError::Mapper(MapperError::NanDelta { .. })
        ));
        // The slot was released despite the error.
        assert!(svc.map(&request(2)).is_ok());
        assert_eq!(svc.stats().completed, 2);
    }

    #[test]
    fn session_lifecycle_counts_and_shares_the_cache() {
        let svc = MapService::new(ServiceConfig::default());
        let req = request(7);
        let opened = svc.open_session(&req).expect("open");
        assert!(!opened.cache_hit, "first build is a miss");
        assert_eq!(svc.open_sessions(), 1);
        // A one-shot map of the same graph hits the session's build.
        let shot = svc.map(&req).expect("one-shot");
        assert!(shot.cache_hit);
        assert_eq!(shot.result.mapping, opened.result.mapping);
        // Empty remap: incumbent bits, counted as a no-op.
        let noop = svc.remap(opened.id, &[]).expect("noop");
        assert!(noop.noop);
        assert_eq!(noop.mapping, opened.result.mapping);
        let closed = svc.close_session(opened.id).expect("close");
        assert_eq!(closed.mapping, opened.result.mapping);
        assert_eq!(svc.open_sessions(), 0);
        assert!(matches!(
            svc.remap(opened.id, &[]),
            Err(ServiceError::UnknownSession(_))
        ));
        let stats = svc.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.remaps_noop, 1);
        assert_eq!(stats.remaps, 0);
    }

    #[test]
    fn ga_requests_are_refused_with_a_typed_error() {
        use crate::request::{Algo, GaParams};
        let svc = MapService::new(ServiceConfig::default());
        let req = request(4).with_algo(Algo::Ga(GaParams::default()));
        assert!(matches!(
            svc.map(&req),
            Err(ServiceError::Mapper(MapperError::UnsupportedAlgo { .. }))
        ));
        // The slot was released despite the refusal.
        assert!(svc.map(&request(4)).is_ok());
    }
}
