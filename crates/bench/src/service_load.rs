//! Concurrent-client load generation against the long-lived
//! [`MapService`] — the measurement half of `perf_report --service`.
//!
//! The harness builds a small zoo of distinct request graphs, spawns
//! `clients` threads that each drive a closed loop of mapping requests
//! round-robin over the zoo, and reports sustained throughput,
//! latency percentiles, response-cache hit rate and the shard
//! utilization histogram aggregated from every client's thread-local
//! [`DispatchStats`].  Timing lives here, *not* in the service (the
//! service reads no clocks; see `spmap_core::service`).
//!
//! Bit-identity is asserted, not assumed: every response is compared
//! against the direct [`decomposition_map`] result for its graph, so
//! concurrency, cache temperature and shard spread can only change
//! *when* a mapping is computed, never *what*.

use std::sync::Arc;
use std::time::Instant;

use spmap_core::{
    decomposition_map, EngineConfig, MapRequest, MapResponse, MapService, MapperConfig,
    MapperResult, ResponseCacheStats, ServiceConfig, ServiceError, ServiceStats,
};
use spmap_graph::gen::{random_sp_graph, SpGenConfig};
use spmap_graph::{augment, AugmentConfig};
use spmap_model::Platform;
use spmap_par::{dispatch_stats, DispatchStats, MAX_SHARDS};

/// One load phase: `clients` threads, each submitting
/// `requests_per_client` requests.
#[derive(Clone, Copy, Debug)]
pub struct ServiceLoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits (closed loop: next request starts
    /// when the previous response lands).
    pub requests_per_client: usize,
    /// Distinct request graphs in the zoo (cache working set).
    pub distinct_graphs: usize,
    /// Tasks per request graph.
    pub nodes: usize,
    /// Base seed of the graph zoo.
    pub seed: u64,
    /// Engine threads per request (the per-request parallelism the
    /// sharded pool serves).
    pub engine_threads: usize,
    /// Retry policy for overload rejections.  `None` requires the
    /// service to be sized so no request is ever rejected (every
    /// rejection panics the client); `Some` lets clients outnumber
    /// the admission gate and back off on [`ServiceError::Overloaded`].
    pub retry: Option<RetryPolicy>,
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

/// Aggregated outcome of one load phase.
#[derive(Clone, Debug)]
pub struct ServiceLoadReport {
    /// Client threads of the phase.
    pub clients: usize,
    /// Requests completed (all of them — admission is sized to admit).
    pub completed: u64,
    /// Wall-clock of the phase (first submission to last response).
    pub seconds: f64,
    /// Sustained mappings per second.
    pub throughput: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Response-cache counters *of this phase* (warm-up excluded).
    pub cache: ResponseCacheStats,
    /// Pool batches per shard, summed over all clients.
    pub shard_batches: Vec<u64>,
    /// Cross-shard work steals, summed over all clients.
    pub steals: u64,
    /// Submission-lock waits, summed over all clients.
    pub submission_waits: u64,
    /// Overload retries spent, summed over all clients (0 when the
    /// phase ran without a [`RetryPolicy`]).
    pub retries: u64,
}

impl ServiceLoadReport {
    /// Cache hits / lookups of the phase.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache.hits as f64 / lookups as f64
        }
    }

    /// Shards that executed at least one batch during the phase.
    pub fn shards_used(&self) -> usize {
        self.shard_batches.iter().filter(|&&b| b > 0).count()
    }
}

/// The request zoo of a load run: `distinct_graphs` augmented
/// series-parallel graphs of `nodes` tasks under the reference
/// platform, all mapped with `sp_first_fit` on `engine_threads`
/// threads.
pub fn build_requests(cfg: &ServiceLoadConfig) -> Vec<MapRequest> {
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

/// Drive one load phase against `service`: spawn `cfg.clients` threads,
/// each submitting `cfg.requests_per_client` requests round-robin over
/// the zoo (offset by client id so concurrent clients mix graphs),
/// asserting every response against `references`.
///
/// The service's cache should be warm for a steady-state phase — run
/// [`warm_up`] first (cold-build time is reported separately by the
/// binary).
pub fn run_phase(
    service: &Arc<MapService>,
    requests: &[MapRequest],
    references: &[MapperResult],
    cfg: &ServiceLoadConfig,
) -> ServiceLoadReport {
    let cache_base = service.stats().cache;
    let start = Instant::now();
    let outcomes: Vec<(Vec<f64>, u64, DispatchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                let service = Arc::clone(service);
                scope.spawn(move || {
                    let base = dispatch_stats();
                    let mut latencies = Vec::with_capacity(cfg.requests_per_client);
                    let mut retries = 0u64;
                    for i in 0..cfg.requests_per_client {
                        let idx = (client + i) % requests.len();
                        let t0 = Instant::now();
                        let resp = match cfg.retry {
                            Some(policy) => {
                                let (outcome, spent) =
                                    map_with_retry(&service, &requests[idx], policy);
                                retries += spent;
                                outcome.expect("retry budget exhausted")
                            }
                            None => service
                                .map(&requests[idx])
                                .expect("load phase sized to be admitted"),
                        };
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        assert_identical(
                            &format!("client {client} request {i} (graph {idx})"),
                            &resp.result,
                            &references[idx],
                        );
                    }
                    (latencies, retries, dispatch_stats().since(&base))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut shard_batches = vec![0u64; MAX_SHARDS];
    let mut steals = 0u64;
    let mut submission_waits = 0u64;
    let mut retries = 0u64;
    for (lat, r, d) in &outcomes {
        latencies.extend_from_slice(lat);
        for (agg, &b) in shard_batches.iter_mut().zip(d.pool_shard_batches.iter()) {
            *agg += b;
        }
        steals += d.pool_steals;
        submission_waits += d.pool_submission_waits;
        retries += r;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let completed = latencies.len() as u64;
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let i = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[i.min(latencies.len() - 1)]
    };
    let cache_now = service.stats().cache;
    let cache = ResponseCacheStats {
        hits: cache_now.hits - cache_base.hits,
        misses: cache_now.misses - cache_base.misses,
        evictions: cache_now.evictions - cache_base.evictions,
        peak_bytes: cache_now.peak_bytes,
        peak_entries: cache_now.peak_entries,
    };
    ServiceLoadReport {
        clients: cfg.clients,
        completed,
        seconds,
        throughput: completed as f64 / seconds.max(1e-12),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        cache,
        shard_batches,
        steals,
        submission_waits,
        retries,
    }
}

/// Submit every zoo request once, serially, so later phases run against
/// a warm response cache.  Returns the cold-build seconds and asserts
/// bit-identity of the cold path too.
pub fn warm_up(
    service: &Arc<MapService>,
    requests: &[MapRequest],
    references: &[MapperResult],
) -> f64 {
    let start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        let resp = service.map(req).expect("warm-up admitted");
        assert_identical(&format!("warm-up graph {i}"), &resp.result, &references[i]);
    }
    start.elapsed().as_secs_f64()
}

/// A service sized for a load run: enough run slots and queue room that
/// `clients` closed-loop clients are never rejected.
pub fn service_for_load(clients: usize) -> Arc<MapService> {
    Arc::new(MapService::new(ServiceConfig {
        max_inflight: clients.max(1),
        max_queued: clients.max(1),
        ..ServiceConfig::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_par::pool::Pool;
    use spmap_par::{with_backend, with_pool, ParBackend};

    fn tiny() -> ServiceLoadConfig {
        ServiceLoadConfig {
            clients: 2,
            requests_per_client: 3,
            distinct_graphs: 2,
            nodes: 24,
            seed: 77,
            engine_threads: 2,
            retry: None,
        }
    }

    #[test]
    fn load_phase_completes_with_identical_results() {
        let cfg = tiny();
        let requests = build_requests(&cfg);
        let references = reference_results(&requests);
        let service = service_for_load(cfg.clients);
        let cold = warm_up(&service, &requests, &references);
        assert!(cold >= 0.0);
        let report = run_phase(&service, &requests, &references, &cfg);
        assert_eq!(report.completed, 6);
        assert!(report.throughput > 0.0);
        assert!(report.p50_ms <= report.p99_ms);
        assert_eq!(
            report.cache.misses, 0,
            "warmed cache must answer every phase request"
        );
        assert_eq!(report.cache_hit_rate(), 1.0);
        let svc = service.stats();
        assert_eq!(svc.rejected, 0, "load service must be sized to admit");
        assert!(svc.peak_inflight <= service.max_inflight());
    }

    #[test]
    fn retry_returns_immediately_when_admitted() {
        let cfg = tiny();
        let requests = build_requests(&cfg);
        let service = service_for_load(cfg.clients);
        let (outcome, retries) = map_with_retry(&service, &requests[0], RetryPolicy::default());
        assert!(outcome.is_ok());
        assert_eq!(retries, 0, "an admitted request must not be retried");
    }

    #[test]
    fn retrying_clients_survive_a_tight_admission_gate() {
        // Four closed-loop clients against a single run slot with no
        // queue: without retries this would panic on the first
        // rejection, with the policy every request eventually lands
        // and results stay bit-identical.
        let cfg = ServiceLoadConfig {
            clients: 4,
            retry: Some(RetryPolicy { max_retries: 1_000 }),
            ..tiny()
        };
        let requests = build_requests(&cfg);
        let references = reference_results(&requests);
        let service = Arc::new(spmap_core::MapService::new(spmap_core::ServiceConfig {
            max_inflight: 1,
            max_queued: 0,
            ..spmap_core::ServiceConfig::default()
        }));
        let _ = warm_up(&service, &requests, &references);
        let report = run_phase(&service, &requests, &references, &cfg);
        assert_eq!(report.completed, 12);
        let stats = service.stats();
        assert_eq!(stats.admitted, stats.completed + stats.failed);
        assert_eq!(
            stats.rejected, report.retries,
            "every overload rejection is one client retry"
        );
    }

    #[test]
    fn shard_count_does_not_change_results() {
        // The same zoo served through explicit 1-shard and 2-shard
        // pools must produce the same mappings as the direct path.
        let cfg = ServiceLoadConfig {
            clients: 1,
            requests_per_client: 2,
            ..tiny()
        };
        let requests = build_requests(&cfg);
        let references = reference_results(&requests);
        for shards in [1usize, 2] {
            let pool = Arc::new(Pool::with_shards(shards));
            with_pool(&pool, || {
                with_backend(ParBackend::Pool, || {
                    let service = service_for_load(cfg.clients);
                    let _ = warm_up(&service, &requests, &references);
                    let report = run_phase(&service, &requests, &references, &cfg);
                    assert_eq!(report.completed, 2);
                })
            });
        }
    }
}
