//! Seeded chaos against the live [`MapService`] — the measurement half
//! of `perf_report --chaos` and the engine of `tests/chaos.rs`.
//!
//! Each round draws one `(site, hit, kind)` plan from the deterministic
//! [`FaultSchedule`](spmap_core::FaultSchedule), arms it, and drives
//! `clients` concurrent retrying clients through the service while the
//! fault fires mid-flight.  The harness then checks the containment
//! contract end to end:
//!
//! * the faulted caller gets a **typed** error
//!   (`ServiceError::Internal` for injected panics, a mapper error for
//!   injected sweep degradation) — never a propagated panic,
//! * every untouched response is **bit-identical** to the direct
//!   mapper's reference result,
//! * the admission accounting balances at every round's quiescence
//!   (`admitted == completed + failed`; rejected requests were never
//!   admitted and are absorbed by the clients' bounded
//!   [`RetryPolicy`]),
//! * a fault-free **clean pass** over the whole zoo succeeds afterwards
//!   — no fault leaks state into the service's future.
//!
//! Goodput (successful mappings per second while faults fire) is the
//! reported headline.  The schedule is a pure function of the seed, so
//! a chaos run is replayable: same seed, same plans, same asserted
//! properties (which *thread* trips a fault is scheduler-dependent —
//! see `spmap_core::faults` — but nothing asserted depends on it).
//!
//! Running chaos requires building with `--features fault-injection`;
//! the no-feature [`run_chaos`] stub panics with that guidance.  The
//! request zoo, the reference results and the retrying client
//! ([`map_with_retry`]) need no fault points.

use std::sync::Arc;

use spmap_core::{
    decomposition_map, EngineConfig, MapRequest, MapResponse, MapService, MapperConfig,
    MapperResult, ServiceError, ServiceStats,
};
use spmap_graph::gen::{random_sp_graph, SpGenConfig};
use spmap_graph::{augment, AugmentConfig};
use spmap_model::Platform;

/// Armed hits are drawn from `1..=MAX_HIT` executions of a site.  Kept
/// small enough that every map-path site executes at least `MAX_HIT`
/// times per round (the artifact-build site runs once per request and
/// rounds submit ≥ 12), so most armed plans actually fire.
#[cfg(feature = "fault-injection")]
const MAX_HIT: u64 = 8;

/// One chaos run: `rounds` armed fault plans, each driven by `clients`
/// concurrent retrying clients.
#[derive(Clone, Copy, Debug)]
pub struct ChaosLoadConfig {
    /// Concurrent client threads per round.
    pub clients: usize,
    /// Armed fault rounds (one seeded plan each).
    pub rounds: usize,
    /// Requests each client submits per round.
    pub requests_per_client: usize,
    /// Distinct request graphs in the zoo.
    pub distinct_graphs: usize,
    /// Tasks per request graph.
    pub nodes: usize,
    /// Seed of both the graph zoo and the fault schedule.
    pub seed: u64,
    /// Engine threads per request.
    pub engine_threads: usize,
}

/// Bounded-retry policy for overload rejections.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Give up on a request after this many retries.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 64 }
    }
}

/// Submit `req`, retrying a bounded number of times on
/// [`ServiceError::Overloaded`].  Returns the final outcome and the
/// retries spent on it.
///
/// Backoff is completion-denominated, not clock-denominated: the
/// rejection's `retry_hint` says how many requests must drain before
/// admission can succeed, so the client yields until the service's
/// drained counter (`completed + failed`) advances by that much.  A
/// bounded yield budget keeps the wait live even if no other client is
/// draining the service.  No clocks are read on the decision path.
pub fn map_with_retry(
    service: &MapService,
    req: &MapRequest,
    policy: RetryPolicy,
) -> (Result<MapResponse, ServiceError>, u64) {
    /// Liveness cap: stop waiting on the drained counter after this
    /// many yields and just retry.
    const MAX_YIELDS: u64 = 10_000;
    fn drained(stats: &ServiceStats) -> u64 {
        stats.completed + stats.failed
    }
    let mut retries = 0u64;
    loop {
        match service.map(req) {
            Err(ServiceError::Overloaded { retry_hint, .. })
                if retries < u64::from(policy.max_retries) =>
            {
                retries += 1;
                let target = drained(&service.stats()) + retry_hint.max(1);
                let mut yields = 0u64;
                while drained(&service.stats()) < target && yields < MAX_YIELDS {
                    std::thread::yield_now();
                    yields += 1;
                }
            }
            outcome => return (outcome, retries),
        }
    }
}

/// The request zoo of a chaos run: `distinct_graphs` augmented
/// series-parallel graphs of `nodes` tasks under the reference
/// platform, all mapped with `sp_first_fit` on `engine_threads`
/// threads.
pub fn build_requests(cfg: &ChaosLoadConfig) -> Vec<MapRequest> {
    let platform = Arc::new(Platform::reference());
    (0..cfg.distinct_graphs)
        .map(|i| {
            let seed = cfg.seed.wrapping_add(i as u64);
            let mut g = random_sp_graph(&SpGenConfig::new(cfg.nodes, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            MapRequest::from_mapper_config(
                Arc::new(g),
                Arc::clone(&platform),
                &MapperConfig {
                    engine: EngineConfig {
                        threads: Some(cfg.engine_threads),
                        ..EngineConfig::default()
                    },
                    ..MapperConfig::sp_first_fit()
                },
            )
        })
        .collect()
}

/// The direct (service-free) reference results of a request zoo — the
/// bit-identity baseline every service response is checked against.
pub fn reference_results(requests: &[MapRequest]) -> Vec<MapperResult> {
    requests
        .iter()
        .map(|r| {
            let cfg = r.mapper_config().expect("zoo requests are decomposition");
            decomposition_map(&r.graph, &r.platform, &cfg)
        })
        .collect()
}

/// Assert a service response equals its direct reference, field by
/// field (mapping, makespan, history, decision counters).
pub fn assert_identical(label: &str, got: &MapperResult, want: &MapperResult) {
    assert_eq!(got.mapping, want.mapping, "{label}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{label}: makespan diverged");
    assert_eq!(got.history, want.history, "{label}: history diverged");
    assert_eq!(got.batch, want.batch, "{label}: decision counters diverged");
}

/// Aggregated outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosLoadReport {
    /// Fault rounds driven.
    pub rounds: usize,
    /// Requests submitted across all rounds (excluding the clean pass).
    pub submitted: u64,
    /// Successful, bit-identity-checked responses.
    pub ok: u64,
    /// Injected panics contained to `ServiceError::Internal`.
    pub internal_faults: u64,
    /// Typed mapper errors (injected sweep degradation).
    pub mapper_errors: u64,
    /// Requests that exhausted their retry budget on overload.
    pub overload_give_ups: u64,
    /// Overload retries spent by the clients.
    pub retries: u64,
    /// Wall-clock of the fault rounds.
    pub seconds: f64,
    /// Successful mappings per second *while faults were firing*.
    pub goodput: f64,
    /// Armed plans that actually fired (an armed hit beyond a round's
    /// executions of its site stays silent — counted armed, not fired).
    pub faults_fired: u64,
    /// Fired-fault count per site name, in `FaultSite::ALL` order.
    pub per_site: Vec<(&'static str, u64)>,
    /// The fault-free pass over the zoo succeeded after all rounds.
    pub clean_pass_ok: bool,
}

/// Install (once, process-wide) a panic hook that swallows the default
/// "thread panicked" chatter of **injected** panics — they are expected
/// output of a chaos run, recognizable by
/// [`INJECTED_PANIC_PREFIX`](spmap_core::INJECTED_PANIC_PREFIX) — while
/// forwarding every organic panic to the previous hook untouched.
#[cfg(feature = "fault-injection")]
pub fn silence_injected_panics() {
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
                .is_some_and(|s| s.starts_with(spmap_core::INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Drive one chaos run and check the containment contract throughout;
/// see the module docs for the asserted properties.
#[cfg(feature = "fault-injection")]
pub fn run_chaos(cfg: &ChaosLoadConfig) -> ChaosLoadReport {
    use std::time::Instant;

    use spmap_core::faults::arm_kind;
    use spmap_core::{FaultSchedule, FaultSite, ServiceConfig};

    silence_injected_panics();

    let policy = RetryPolicy {
        max_retries: 10_000,
    };
    let requests = build_requests(cfg);
    let references = reference_results(&requests);

    // Half the clients get run slots and there is no queue, so overload
    // rejections (and the retrying clients' completion-denominated
    // backoff) are part of every round; the 1-byte cache budget keeps
    // the artifact-build fault site on the executed path of every
    // request instead of only the first per graph.
    let service = Arc::new(MapService::new(ServiceConfig {
        max_inflight: (cfg.clients / 2).max(1),
        max_queued: 0,
        cache_budget_bytes: 1,
        ..ServiceConfig::default()
    }));

    let mut schedule = FaultSchedule::new(cfg.seed);
    let mut per_site: Vec<(&'static str, u64)> =
        FaultSite::ALL.iter().map(|s| (s.name(), 0u64)).collect();
    let mut ok = 0u64;
    let mut internal_faults = 0u64;
    let mut mapper_errors = 0u64;
    let mut overload_give_ups = 0u64;
    let mut retries = 0u64;
    let mut faults_fired = 0u64;
    let start = Instant::now();
    for _round in 0..cfg.rounds {
        let (site, hit, kind) = schedule.next_map_plan(MAX_HIT);
        let arm = arm_kind(site, hit, kind);
        let round: Vec<(u64, u64, u64, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|client| {
                    let service = Arc::clone(&service);
                    let requests = &requests;
                    let references = &references;
                    scope.spawn(move || {
                        let (mut ok, mut internal, mut mapper, mut gave_up) = (0u64, 0, 0, 0);
                        let mut spent = 0u64;
                        for i in 0..cfg.requests_per_client {
                            let idx = (client + i) % requests.len();
                            let (outcome, r) = map_with_retry(&service, &requests[idx], policy);
                            spent += r;
                            match outcome {
                                Ok(resp) => {
                                    assert_identical(
                                        &format!("chaos client {client} request {i} (graph {idx})"),
                                        &resp.result,
                                        &references[idx],
                                    );
                                    ok += 1;
                                }
                                Err(ServiceError::Internal { .. }) => internal += 1,
                                Err(ServiceError::Mapper(_)) => mapper += 1,
                                Err(ServiceError::Overloaded { .. }) => gave_up += 1,
                                Err(other) => panic!("unexpected chaos outcome: {other}"),
                            }
                        }
                        (ok, internal, mapper, gave_up, spent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("a panic escaped the service's containment boundary")
                })
                .collect()
        });
        for (o, i, m, g, s) in round {
            ok += o;
            internal_faults += i;
            mapper_errors += m;
            overload_give_ups += g;
            retries += s;
        }
        if arm.fired() {
            faults_fired += 1;
            per_site[site as usize].1 += 1;
        }
        drop(arm);
        let stats = service.stats();
        assert_eq!(
            stats.admitted,
            stats.completed + stats.failed,
            "admission accounting must balance at round quiescence"
        );
    }
    let seconds = start.elapsed().as_secs_f64();

    // Fault-free clean pass: no fault leaked state into the service's
    // future — the same service still answers the whole zoo
    // bit-identically.
    for (i, req) in requests.iter().enumerate() {
        let resp = map_with_retry(&service, req, policy)
            .0
            .expect("clean pass maps");
        assert_identical(
            &format!("clean pass graph {i}"),
            &resp.result,
            &references[i],
        );
    }

    let submitted = (cfg.clients * cfg.requests_per_client * cfg.rounds) as u64;
    assert_eq!(
        submitted,
        ok + internal_faults + mapper_errors + overload_give_ups,
        "every submission must be classified exactly once"
    );

    ChaosLoadReport {
        rounds: cfg.rounds,
        submitted,
        ok,
        internal_faults,
        mapper_errors,
        overload_give_ups,
        retries,
        seconds,
        goodput: ok as f64 / seconds.max(1e-12),
        faults_fired,
        per_site,
        clean_pass_ok: true,
    }
}

/// Without the `fault-injection` feature there are no fault points to
/// arm — a chaos run would measure nothing.  Fail loudly with the fix.
#[cfg(not(feature = "fault-injection"))]
pub fn run_chaos(_cfg: &ChaosLoadConfig) -> ChaosLoadReport {
    panic!(
        "chaos mode needs armable fault points: rebuild with \
         `cargo run --release -p spmap-bench --features fault-injection \
         --bin perf_report -- --chaos`"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosLoadConfig {
        ChaosLoadConfig {
            clients: 2,
            rounds: 3,
            requests_per_client: 4,
            distinct_graphs: 2,
            nodes: 24,
            seed: 77,
            engine_threads: 2,
        }
    }

    #[test]
    fn retry_returns_immediately_when_admitted() {
        let requests = build_requests(&tiny());
        let service = MapService::new(spmap_core::ServiceConfig::default());
        let (outcome, retries) = map_with_retry(&service, &requests[0], RetryPolicy::default());
        assert!(outcome.is_ok());
        assert_eq!(retries, 0, "an admitted request must not be retried");
    }

    #[test]
    fn retrying_clients_survive_a_tight_admission_gate() {
        // Four closed-loop clients against a single run slot with no
        // queue: without retries the first rejection would fail a
        // request, with the policy every request eventually lands and
        // results stay bit-identical.
        let cfg = ChaosLoadConfig {
            clients: 4,
            requests_per_client: 3,
            ..tiny()
        };
        let requests = build_requests(&cfg);
        let references = reference_results(&requests);
        let service = MapService::new(spmap_core::ServiceConfig {
            max_inflight: 1,
            max_queued: 0,
            ..spmap_core::ServiceConfig::default()
        });
        let policy = RetryPolicy { max_retries: 1_000 };
        let retries: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|client| {
                    let (service, requests, references) = (&service, &requests, &references);
                    scope.spawn(move || {
                        let mut spent = 0u64;
                        for i in 0..cfg.requests_per_client {
                            let idx = (client + i) % requests.len();
                            let (outcome, r) = map_with_retry(service, &requests[idx], policy);
                            spent += r;
                            let resp = outcome.expect("retry budget exhausted");
                            assert_identical(
                                &format!("client {client} request {i}"),
                                &resp.result,
                                &references[idx],
                            );
                        }
                        spent
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .sum()
        });
        let stats = service.stats();
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.admitted, stats.completed + stats.failed);
        assert_eq!(
            stats.rejected, retries,
            "every overload rejection is one client retry"
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn chaos_run_contains_faults_and_passes_clean() {
        let report = run_chaos(&tiny());
        assert_eq!(report.submitted, 24);
        assert_eq!(
            report.submitted,
            report.ok + report.internal_faults + report.mapper_errors + report.overload_give_ups
        );
        assert!(report.clean_pass_ok);
        assert_eq!(
            report.faults_fired,
            report.per_site.iter().map(|(_, n)| n).sum::<u64>()
        );
    }
}
