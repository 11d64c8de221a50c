//! Chaos suite for the mapping service's fault containment
//! (docs/ROBUSTNESS.md).  Requires `--features fault-injection`; the
//! whole file compiles away without it.
//!
//! Every test arms deterministic faults (`spmap_core::faults`) inside
//! live service requests and pins the containment contract:
//!
//! * an injected panic surfaces to its caller as a **typed**
//!   [`ServiceError::Internal`] carrying the recognizable payload —
//!   never as a propagated panic,
//! * admission slots are released by RAII drop guards, so a panicking
//!   request can never wedge a `max_inflight = 1` service (the
//!   slot-leak regression),
//! * injected *error* faults degrade into the existing typed refusal
//!   (`MapperError::NanDelta`) rather than a new failure mode,
//! * a panic inside a session operation poisons only that session:
//!   warm remaps refuse with [`ServiceError::SessionPoisoned`],
//!   `remap_full` rebuilds and recovers it bit-identically to a fresh
//!   session, and `close_session` disposes of it (reporting the
//!   poison),
//! * under concurrent clients with faults firing mid-flight, every
//!   unfaulted response stays bit-identical to the direct mapper, the
//!   accounting balances (`admitted == completed + failed`), and a
//!   fault-free clean pass succeeds afterwards — across explicit
//!   {1,2}-shard pools and both dispatch backends.

#![cfg(feature = "fault-injection")]

use std::sync::{Arc, Mutex, MutexGuard};

use spmap::par::{with_backend, with_pool, ParBackend, Pool};
use spmap::prelude::*;
use spmap_core::faults::{arm, arm_kind};
use spmap_core::{
    EngineConfig, FaultKind, FaultSchedule, FaultSite, MapRequest, MapService, MapperResult,
    RemapOutcome, RemapSession, ServiceConfig, ServiceError, INJECTED_PANIC_PREFIX,
};

/// Fault hit counters are process-global (`spmap_core::faults`): an
/// unarmed map running in another test would step them and could
/// consume this test's armed hit.  Every test holds this lock for its
/// whole body, so one test's maps run at a time.
static SUITE: Mutex<()> = Mutex::new(());

/// Take the suite lock.  A test that failed while holding it poisoned
/// it; the protected value is `()`, so the lock is still good.
fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Swallow the default panic-hook chatter of *injected* panics (they
/// are expected output here) while forwarding organic ones untouched.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// A 48-node augmented SP request under the reference platform —
/// large enough that 2 engine threads actually run parallel pool
/// batches (the `PoolBatch` fault site is on the executed path).
fn request(seed: u64) -> MapRequest {
    let mut g = random_sp_graph(&SpGenConfig::new(48, seed));
    augment(&mut g, &AugmentConfig::default(), seed);
    MapRequest::from_mapper_config(
        Arc::new(g),
        Arc::new(Platform::reference()),
        &MapperConfig {
            engine: EngineConfig {
                threads: Some(2),
                ..EngineConfig::default()
            },
            ..MapperConfig::sp_first_fit()
        },
    )
}

fn reference(req: &MapRequest) -> MapperResult {
    let cfg = req.mapper_config().expect("decomposition request");
    decomposition_map(&req.graph, &req.platform, &cfg)
}

fn assert_identical(tag: &str, got: &MapperResult, want: &MapperResult) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(got.history, want.history, "{tag}: history diverged");
    assert_eq!(got.batch, want.batch, "{tag}: decision counters diverged");
}

fn assert_outcomes_identical(tag: &str, got: &RemapOutcome, want: &RemapOutcome) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(got.history, want.history, "{tag}: history diverged");
    assert_eq!(
        got.iterations, want.iterations,
        "{tag}: iterations diverged"
    );
    assert_eq!(
        got.neighborhood_ops, want.neighborhood_ops,
        "{tag}: neighborhood diverged"
    );
    assert_eq!(got.warm, want.warm, "{tag}: path flag diverged");
}

/// Each map-path fault site, panicking mid-request under both dispatch
/// backends: the caller gets `Internal` with the recognizable payload
/// naming the site, the slot is released, and an immediate rerun of the
/// same request returns the reference bits.
#[test]
fn injected_panics_surface_as_typed_internal_errors() {
    let _suite = suite_lock();
    silence_injected_panics();
    let req = request(1001);
    let want = reference(&req);
    let pool = Arc::new(Pool::with_shards(1));

    for backend in [ParBackend::Pool, ParBackend::Scoped] {
        for site in [
            FaultSite::ArtifactBuild,
            FaultSite::CandidateSweep,
            FaultSite::PoolBatch,
        ] {
            let tag = format!("{backend:?}, {}", site.name());
            with_pool(&pool, || {
                with_backend(backend, || {
                    // Fresh service per case: the first map is a cache
                    // miss, so every site is on the executed path.
                    let service = MapService::new(ServiceConfig::default());
                    let fault = arm(site, 1);
                    let err = service.map(&req).expect_err("armed panic must fault");
                    assert!(fault.fired(), "{tag}: fault never fired");
                    drop(fault);
                    match &err {
                        ServiceError::Internal {
                            site: boundary,
                            payload,
                        } => {
                            assert_eq!(*boundary, "map", "{tag}");
                            assert!(
                                payload.starts_with(INJECTED_PANIC_PREFIX)
                                    && payload.contains(site.name()),
                                "{tag}: payload lost: {payload}"
                            );
                        }
                        other => panic!("{tag}: expected Internal, got {other:?}"),
                    }
                    let resp = service.map(&req).expect("service survives the panic");
                    assert!(
                        !resp.cache_hit,
                        "{tag}: a contained panic must not be cached"
                    );
                    assert_identical(&tag, &resp.result, &want);
                    let stats = service.stats();
                    assert_eq!(stats.failed, 1, "{tag}");
                    assert_eq!(stats.completed, 1, "{tag}");
                    assert_eq!(stats.admitted, stats.completed + stats.failed, "{tag}");
                })
            });
        }
    }
}

/// An `Error`-kind fault at the candidate sweep degrades into the
/// existing typed refusal (`MapperError::NanDelta`) — no new failure
/// mode, and the service counts it as a completed request.
#[test]
fn injected_sweep_errors_degrade_to_the_typed_nan_refusal() {
    let _suite = suite_lock();
    silence_injected_panics();
    let req = request(1002);
    let want = reference(&req);
    let service = MapService::new(ServiceConfig::default());

    let fault = arm_kind(FaultSite::CandidateSweep, 1, FaultKind::Error);
    let err = service.map(&req).expect_err("armed error must refuse");
    assert!(fault.fired());
    drop(fault);
    assert!(
        matches!(
            err,
            ServiceError::Mapper(spmap_core::MapperError::NanDelta { .. })
        ),
        "expected the NanDelta refusal, got {err:?}"
    );

    let resp = service.map(&req).expect("clean rerun");
    assert_identical("post-error rerun", &resp.result, &want);
    let stats = service.stats();
    assert_eq!(stats.failed, 0, "a typed refusal is not a contained panic");
    assert_eq!(stats.completed, 2, "refusal and rerun both completed");
}

/// The slot-leak regression (the bug the RAII guards fix): two
/// consecutive panicking requests on a `max_inflight = 1`, zero-queue
/// service must each release their slot — the third, clean request
/// maps successfully instead of being rejected forever.
#[test]
fn panicking_requests_release_their_admission_slots() {
    let _suite = suite_lock();
    silence_injected_panics();
    let req = request(1003);
    let want = reference(&req);
    let service = MapService::new(ServiceConfig {
        max_inflight: 1,
        max_queued: 0,
        ..ServiceConfig::default()
    });

    for round in 0..2 {
        let fault = arm(FaultSite::ArtifactBuild, 1);
        let err = service.map(&req).expect_err("armed panic must fault");
        assert!(fault.fired(), "round {round}");
        drop(fault);
        assert!(
            matches!(err, ServiceError::Internal { .. }),
            "round {round}: {err:?}"
        );
    }

    // A leaked slot would reject this with `Overloaded`.
    let resp = service
        .map(&req)
        .expect("both panicked slots must have been released");
    assert_identical("post-leak-check map", &resp.result, &want);

    let stats = service.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 0, "nothing was ever rejected");
    assert_eq!(stats.peak_inflight, 1);
}

/// A panic inside a session operation poisons only that session: warm
/// remaps refuse typed, `remap_full` rebuilds and recovers — after
/// recovery the session is bit-identical to a fresh one (sessions
/// mutate only at their panic-free commit boundary, so the committed
/// state the rebuild derives from is intact).
#[test]
fn poisoned_sessions_recover_through_remap_full() {
    let _suite = suite_lock();
    silence_injected_panics();
    let req = request(1004);
    let batch = vec![Perturbation::DeviceLost(DeviceId(1))];
    let service = MapService::new(ServiceConfig::default());
    let opened = service.open_session(&req).expect("open");

    // Panic at the commit boundary — *before* any session field
    // mutates, so the incumbent below is still the opening state.
    let fault = arm(FaultSite::SessionCommit, 1);
    let err = service
        .remap(opened.id, &batch)
        .expect_err("armed panic must fault");
    assert!(fault.fired());
    drop(fault);
    assert!(
        matches!(&err, ServiceError::Internal { site, .. } if *site == "remap"),
        "{err:?}"
    );

    // The poison is sticky for warm remaps — a typed refusal, not a
    // panic, and not a silent wrong answer.
    let refused = service.remap(opened.id, &batch).expect_err("poisoned");
    assert!(
        matches!(refused, ServiceError::SessionPoisoned(id) if id == opened.id),
        "{refused:?}"
    );

    // `remap_full` is the designated recovery path.  The aborted commit
    // never mutated the session, so recovery runs against the opening
    // state: a fresh session stepped the same way is the reference.
    let recovered = service
        .remap_full(opened.id, &batch)
        .expect("remap_full recovers the poisoned session");
    let want = {
        let mut fresh = RemapSession::open(&req, None).expect("reference session");
        fresh.remap_full(&batch).expect("reference remap_full")
    };
    assert_outcomes_identical("recovered vs fresh", &recovered, &want);

    // The poison is cleared: warm remaps and close work again.
    let restored = service
        .remap(opened.id, &[Perturbation::DeviceRestored(DeviceId(1))])
        .expect("warm remap after recovery");
    assert!(restored.warm, "back on the warm path");
    let closed = service.close_session(opened.id).expect("close");
    assert!(!closed.poisoned, "recovery cleared the poison");
    assert_eq!(closed.mapping, restored.mapping);

    let stats = service.stats();
    assert_eq!(stats.failed, 1, "only the injected panic");
    assert_eq!(stats.remaps_full, 1);
    assert_eq!(stats.admitted, stats.completed + stats.failed);
}

/// The other exit for a poisoned session: `close_session` disposes of
/// it, reports the poison, and returns the last *committed* incumbent.
#[test]
fn poisoned_sessions_can_be_disposed_by_close() {
    let _suite = suite_lock();
    silence_injected_panics();
    let req = request(1005);
    let service = MapService::new(ServiceConfig::default());
    let opened = service.open_session(&req).expect("open");
    let initial = opened.result.mapping.clone();

    let fault = arm(FaultSite::SessionCompile, 1);
    let err = service
        .remap(opened.id, &[Perturbation::DeviceLost(DeviceId(1))])
        .expect_err("armed panic must fault");
    assert!(fault.fired());
    drop(fault);
    assert!(matches!(err, ServiceError::Internal { .. }), "{err:?}");

    let closed = service.close_session(opened.id).expect("close disposes");
    assert!(closed.poisoned, "the close must report the poison");
    assert_eq!(
        closed.mapping, initial,
        "the panic never committed — the incumbent is the opening state"
    );
    assert_eq!(closed.remaps, 0);
    assert_eq!(service.open_sessions(), 0);
}

/// Eight concurrent clients with seeded faults firing mid-flight,
/// across explicit {1,2}-shard pools and both dispatch backends: every
/// response is either bit-identical to the direct mapper or a typed
/// error, the accounting balances at every round's quiescence, and a
/// fault-free clean pass follows.  The fault schedule is a pure
/// function of its seed, so every cell runs the same plans.
#[test]
fn concurrent_chaos_keeps_unfaulted_responses_bit_identical() {
    let _suite = suite_lock();
    silence_injected_panics();
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    const REQUESTS_PER_CLIENT: usize = 3;

    let requests: Vec<MapRequest> = (0..3u64).map(|i| request(2000 + i)).collect();
    let references: Vec<MapperResult> = requests.iter().map(reference).collect();

    for shards in [1usize, 2] {
        let pool = Arc::new(Pool::with_shards(shards));
        for backend in [ParBackend::Pool, ParBackend::Scoped] {
            let tag = format!("shards {shards}, backend {backend:?}");
            // Queue room for every client, and a byte-starved cache so
            // the artifact-build site stays on every request's path.
            let service = Arc::new(MapService::new(ServiceConfig {
                max_inflight: CLIENTS,
                max_queued: CLIENTS,
                cache_budget_bytes: 1,
                ..ServiceConfig::default()
            }));
            let mut schedule = FaultSchedule::new(0xC4A05);
            let mut ok = 0u64;
            for round in 0..ROUNDS {
                let (site, hit, kind) = schedule.next_map_plan(8);
                let fault = arm_kind(site, hit, kind);
                let round_ok: u64 = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..CLIENTS)
                        .map(|client| {
                            let service = Arc::clone(&service);
                            let pool = Arc::clone(&pool);
                            let requests = &requests;
                            let references = &references;
                            let tag = &tag;
                            scope.spawn(move || {
                                with_pool(&pool, || {
                                    with_backend(backend, || {
                                        let mut ok = 0u64;
                                        for i in 0..REQUESTS_PER_CLIENT {
                                            let idx = (client + i) % requests.len();
                                            match service.map(&requests[idx]) {
                                                Ok(resp) => {
                                                    assert_identical(
                                                        &format!(
                                                            "{tag}, round {round}, \
                                                             client {client}, graph {idx}"
                                                        ),
                                                        &resp.result,
                                                        &references[idx],
                                                    );
                                                    ok += 1;
                                                }
                                                Err(ServiceError::Internal { .. })
                                                | Err(ServiceError::Mapper(_)) => {}
                                                Err(other) => panic!(
                                                    "{tag}, round {round}: \
                                                     unexpected outcome {other:?}"
                                                ),
                                            }
                                        }
                                        ok
                                    })
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("containment breached: client panicked"))
                        .sum()
                });
                ok += round_ok;
                drop(fault);
                let stats = service.stats();
                assert_eq!(
                    stats.admitted,
                    stats.completed + stats.failed,
                    "{tag}, round {round}: accounting must balance at quiescence"
                );
            }
            let submitted = (CLIENTS * ROUNDS * REQUESTS_PER_CLIENT) as u64;
            let stats = service.stats();
            assert_eq!(stats.admitted, submitted, "{tag}: queue room for everyone");
            assert_eq!(stats.rejected, 0, "{tag}");
            assert!(ok > 0, "{tag}: chaos rounds still produce good responses");

            // Fault-free clean pass on the same service: nothing leaked
            // into its future.
            with_pool(&pool, || {
                with_backend(backend, || {
                    for (i, req) in requests.iter().enumerate() {
                        let resp = service.map(req).expect("clean pass");
                        assert_identical(
                            &format!("{tag}, clean pass graph {i}"),
                            &resp.result,
                            &references[i],
                        );
                    }
                })
            });
        }
    }
}
