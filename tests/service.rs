//! Concurrency stress suite for the sharded pool and the mapping
//! service.
//!
//! The core guarantee of the sharded pool: shard choice affects only
//! *which threads execute* a batch, never its result.  Here eight
//! submitter threads interleave mapper and GA runs against shared
//! pools of every shard count (explicit 1, explicit 2, and the
//! `SPMAP_SHARDS` auto default), and every result must be bit-identical
//! to its serial reference.  The service
//! half pins the response cache (cold vs warm vs evicting — identical
//! results) and the admission gate's invariants (`peak_inflight` never
//! exceeds the bound; zero-queue services reject instead of buffering).

use std::sync::Arc;

use spmap::par::{with_pool, Pool};
use spmap::prelude::*;
use spmap_core::{
    decomposition_map_reference, EngineConfig, MapRequest, MapService, MapperResult, ServiceConfig,
    ServiceError,
};
use spmap_ga::{nsga2_map, nsga2_map_reference, GaConfig, GaResult};

/// Deterministic graph zoo (mirrors `tests/equivalence.rs`): SP,
/// almost-SP and layered non-SP shapes with the paper's augmentation.
fn graph_case(case: u64) -> TaskGraph {
    let nodes = 12 + (case * 7 % 24) as usize;
    let seed = case * 131 + 17;
    let mut g = match case % 3 {
        0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
        1 => almost_sp_graph(&SpGenConfig::new(nodes, seed), (case % 7) as usize),
        _ => {
            use spmap::graph::gen::{layered_random, LayeredConfig};
            layered_random(&LayeredConfig {
                layers: 3 + (case % 4) as usize,
                width: 2 + (case % 3) as usize,
                density: 0.5,
                seed,
                edge_bytes: 50e6,
            })
        }
    };
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

fn mapper_cfg(threads: usize) -> MapperConfig {
    MapperConfig {
        engine: EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        },
        ..MapperConfig::sp_first_fit()
    }
}

fn ga_cfg(threads: usize, seed: u64) -> GaConfig {
    GaConfig {
        population: 16,
        generations: 12,
        seed,
        threads: Some(threads),
        ..GaConfig::default()
    }
}

/// Engine result vs the *serial reference* result: everything the
/// reference produces must match bit for bit.  Decision counters are
/// not compared here — the reference path reports zeros by design;
/// the concurrent test below pins them against an engine baseline.
fn assert_mapper_identical(tag: &str, got: &MapperResult, want: &MapperResult) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(got.history, want.history, "{tag}: history diverged");
    assert_eq!(
        got.cpu_only_makespan, want.cpu_only_makespan,
        "{tag}: baseline diverged"
    );
}

fn assert_ga_identical(tag: &str, got: &GaResult, want: &GaResult) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(
        got.best_per_generation, want.best_per_generation,
        "{tag}: per-generation history diverged"
    );
}

/// Eight threads hammer one shared pool with interleaved mapper and GA
/// runs; every result must match its serial reference bit for bit, for
/// every shard count.  (`SPMAP_SHARDS` itself cannot be changed from
/// inside a test process — `with_pool` covers its values.)
#[test]
fn concurrent_mapper_and_ga_runs_are_bit_identical() {
    const SUBMITTERS: usize = 8;
    const ENGINE_THREADS: usize = 2;

    // Serial references, computed once up front.
    let graphs: Vec<TaskGraph> = (0..SUBMITTERS as u64).map(graph_case).collect();
    let platform = Platform::reference();
    let mapper_refs: Vec<MapperResult> = graphs
        .iter()
        .map(|g| decomposition_map_reference(g, &platform, &MapperConfig::sp_first_fit()))
        .collect();
    // Engine baselines, run serially: decision counters are
    // thread-count-invariant, so concurrent runs must reproduce them
    // exactly (the reference path reports zeros, so it cannot pin them).
    let engine_refs: Vec<MapperResult> = graphs
        .iter()
        .map(|g| decomposition_map(g, &platform, &mapper_cfg(ENGINE_THREADS)))
        .collect();
    let ga_refs: Vec<GaResult> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| nsga2_map_reference(g, &platform, &ga_cfg(1, 900 + i as u64)))
        .collect();

    for shards in [Some(1usize), Some(2), None] {
        let pool = Arc::new(match shards {
            Some(n) => Pool::with_shards(n),
            None => Pool::new(), // the SPMAP_SHARDS / auto default
        });
        let tag = format!("shards {shards:?}");
        std::thread::scope(|scope| {
            for (i, g) in graphs.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let platform = &platform;
                let mapper_want = &mapper_refs[i];
                let engine_want = &engine_refs[i];
                let ga_want = &ga_refs[i];
                let tag = &tag;
                scope.spawn(move || {
                    // Thread-local knobs must be installed on the
                    // submitter thread itself.
                    with_pool(&pool, || {
                        if i % 2 == 0 {
                            let r = decomposition_map(g, platform, &mapper_cfg(ENGINE_THREADS));
                            assert_mapper_identical(&format!("{tag}, mapper {i}"), &r, mapper_want);
                            assert_eq!(
                                r.batch, engine_want.batch,
                                "{tag}, mapper {i}: decision counters \
                                 not concurrency-invariant"
                            );
                            let r2 =
                                nsga2_map(g, platform, &ga_cfg(ENGINE_THREADS, 900 + i as u64));
                            assert_ga_identical(&format!("{tag}, ga {i}"), &r2, ga_want);
                        } else {
                            let r2 =
                                nsga2_map(g, platform, &ga_cfg(ENGINE_THREADS, 900 + i as u64));
                            assert_ga_identical(&format!("{tag}, ga {i}"), &r2, ga_want);
                            let r = decomposition_map(g, platform, &mapper_cfg(ENGINE_THREADS));
                            assert_mapper_identical(&format!("{tag}, mapper {i}"), &r, mapper_want);
                            assert_eq!(
                                r.batch, engine_want.batch,
                                "{tag}, mapper {i}: decision counters \
                                 not concurrency-invariant"
                            );
                        }
                    });
                });
            }
        });
    }
}

/// Cold build, warm cache hit and a byte-starved always-evicting cache
/// all return the same bits, on the default pool and on explicit 1- and
/// 2-shard pools; the hit/miss accounting tells the paths apart.
#[test]
fn artifact_cache_temperature_cannot_change_results() {
    let platform = Arc::new(Platform::reference());
    let requests: Vec<MapRequest> = (0..4u64)
        .map(|case| {
            MapRequest::from_mapper_config(
                Arc::new(graph_case(case)),
                Arc::clone(&platform),
                &mapper_cfg(2),
            )
        })
        .collect();
    let references: Vec<MapperResult> = requests
        .iter()
        .map(|r| decomposition_map_reference(&r.graph, &r.platform, &MapperConfig::sp_first_fit()))
        .collect();

    let cold_and_warm = |pool: &str| {
        let roomy = MapService::new(ServiceConfig::default());
        for (i, req) in requests.iter().enumerate() {
            let cold = roomy.map(req).expect("admitted");
            let warm = roomy.map(req).expect("admitted");
            assert!(
                !cold.cache_hit,
                "{pool}: first sight of graph {i} must build"
            );
            assert!(warm.cache_hit, "{pool}: second sight of graph {i} must hit");
            assert_eq!(cold.cache_key, warm.cache_key);
            assert_mapper_identical(&format!("{pool} cold {i}"), &cold.result, &references[i]);
            assert_mapper_identical(&format!("{pool} warm {i}"), &warm.result, &references[i]);
        }
        let stats = roomy.stats();
        assert_eq!(stats.cache.hits as usize, requests.len());
        assert_eq!(stats.cache.misses as usize, requests.len());
    };
    cold_and_warm("default pool");
    for shards in [1usize, 2] {
        with_pool(&Arc::new(Pool::with_shards(shards)), || {
            cold_and_warm(&format!("{shards}-shard pool"))
        });
    }

    let starved = MapService::new(ServiceConfig {
        cache_budget_bytes: 1, // every insert immediately evicts
        ..ServiceConfig::default()
    });
    for (i, req) in requests.iter().enumerate() {
        let evicting = starved.map(req).expect("admitted");
        assert_mapper_identical(&format!("evicting {i}"), &evicting.result, &references[i]);
    }
    let starved_stats = starved.stats();
    assert_eq!(
        starved_stats.cache.hits, 0,
        "a 1-byte budget can never serve a hit"
    );
    assert!(starved_stats.cache.evictions >= requests.len() as u64 - 1);
}

/// The admission gate under concurrent load: `peak_inflight` stays at
/// or under the configured bound while queued submitters drain, and a
/// zero-queue service rejects (with accurate occupancy) instead of
/// buffering.
#[test]
fn admission_control_bounds_and_rejects() {
    let platform = Arc::new(Platform::reference());
    let req = MapRequest::from_mapper_config(
        Arc::new(graph_case(5)),
        Arc::clone(&platform),
        &mapper_cfg(2),
    );
    let reference =
        decomposition_map_reference(&req.graph, &req.platform, &MapperConfig::sp_first_fit());

    // 8 submitters through 2 slots + queue room for the rest.
    let service = Arc::new(MapService::new(ServiceConfig {
        max_inflight: 2,
        max_queued: 6,
        ..ServiceConfig::default()
    }));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = Arc::clone(&service);
            let req = req.clone();
            let reference = &reference;
            scope.spawn(move || {
                let resp = service.map(&req).expect("queue has room for all");
                assert_mapper_identical("gated run", &resp.result, reference);
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.peak_inflight <= 2,
        "admission bound exceeded: {} concurrent runs",
        stats.peak_inflight
    );
    assert!(stats.peak_queued <= 6);

    // Zero queue, one slot, four racing submitters: losers must be
    // rejected with accurate occupancy, never buffered, and every
    // admitted run still returns the reference bits.  (Whether a given
    // submit wins or loses is timing-dependent; the assertions hold
    // either way, and the accounting below is checked exactly.)
    let tight = MapService::new(ServiceConfig {
        max_inflight: 1,
        max_queued: 0,
        ..ServiceConfig::default()
    });
    const RACERS: usize = 4;
    const TRIES: usize = 25;
    std::thread::scope(|scope| {
        for _ in 0..RACERS {
            let tight = &tight;
            let req = &req;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..TRIES {
                    match tight.map(req) {
                        Ok(resp) => assert_mapper_identical("racer", &resp.result, reference),
                        Err(err) => assert!(
                            matches!(
                                err,
                                ServiceError::Overloaded {
                                    inflight: 1,
                                    queued: 0,
                                    retry_hint: 1,
                                }
                            ),
                            "rejection must report accurate occupancy, got {err:?}"
                        ),
                    }
                }
            });
        }
    });
    let stats = tight.stats();
    assert_eq!(stats.peak_inflight, 1, "zero-queue bound is hard");
    assert_eq!(
        stats.admitted + stats.rejected,
        (RACERS * TRIES) as u64,
        "every submit is either admitted or rejected"
    );
    assert_eq!(stats.completed, stats.admitted, "admitted runs all finish");
}

/// Each session's perturbation life: lose the GPU, take an arrival wired
/// to the sink, get the GPU back, retire one task.  Deterministic per
/// session index.
fn perturbation_sequence(i: usize, g: &TaskGraph) -> Vec<Vec<Perturbation>> {
    let n = g.node_count() as u32;
    let sub = random_sp_graph(&SpGenConfig::new(5, 400 + i as u64));
    vec![
        vec![Perturbation::DeviceLost(DeviceId(1))],
        vec![Perturbation::TaskArrived {
            subgraph: sub,
            attach: vec![AttachEdge::Into {
                from: NodeId(n - 1),
                to_new: 0,
                bytes: 1e6,
            }],
        }],
        vec![Perturbation::DeviceRestored(DeviceId(1))],
        vec![Perturbation::TaskFinished(vec![NodeId(i as u32 % n)])],
    ]
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
    assert_eq!(
        got.session_key, want.session_key,
        "{tag}: session key diverged"
    );
    assert_eq!(got.warm, want.warm, "{tag}: path flag diverged");
    assert_eq!(got.noop, want.noop, "{tag}: noop flag diverged");
}

/// Session lifecycle under concurrency: one thread per session drives
/// its perturbation sequence through a shared service, across explicit
/// shard counts, and every remap outcome is bit-identical to serially
/// replaying the same sequence through a fresh standalone
/// [`RemapSession`].  Empty-perturbation remaps return
/// the incumbent bits at every point of the life cycle.
#[test]
fn concurrent_session_remaps_replay_bit_identically() {
    const SESSIONS: usize = 6;

    let platform = Arc::new(Platform::reference());
    let requests: Vec<MapRequest> = (0..SESSIONS as u64)
        .map(|case| {
            MapRequest::from_mapper_config(
                Arc::new(graph_case(case)),
                Arc::clone(&platform),
                &mapper_cfg(2),
            )
        })
        .collect();
    let sequences: Vec<Vec<Vec<Perturbation>>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| perturbation_sequence(i, &r.graph))
        .collect();

    // The serial replay references: a fresh standalone session per
    // request, stepped through the same sequence on this thread.
    let references: Vec<Vec<RemapOutcome>> = requests
        .iter()
        .zip(&sequences)
        .map(|(req, seq)| {
            let mut s = spmap::core::RemapSession::open(req, None).expect("reference session");
            seq.iter()
                .map(|batch| s.remap(batch).expect("reference remap"))
                .collect()
        })
        .collect();

    for shards in [1usize, 2] {
        let pool = Arc::new(Pool::with_shards(shards));
        let tag = format!("shards {shards}");
        let service = Arc::new(MapService::new(ServiceConfig {
            max_inflight: SESSIONS,
            max_queued: SESSIONS,
            ..ServiceConfig::default()
        }));
        std::thread::scope(|scope| {
            for (i, req) in requests.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let service = Arc::clone(&service);
                let seq = &sequences[i];
                let want = &references[i];
                let tag = &tag;
                scope.spawn(move || {
                    with_pool(&pool, || {
                        let opened = service.open_session(req).expect("open");
                        assert_eq!(
                            opened.result.mapping,
                            want_initial(req),
                            "{tag}, session {i}: opening map diverged"
                        );
                        for (step, batch) in seq.iter().enumerate() {
                            // An empty batch between real steps
                            // must hand back the incumbent bits.
                            let noop = service.remap(opened.id, &[]).expect("noop");
                            assert!(noop.noop, "{tag}, session {i}: empty batch ran");
                            let out = service.remap(opened.id, batch).expect("remap");
                            assert_eq!(
                                noop.mapping,
                                if step == 0 {
                                    opened.result.mapping.clone()
                                } else {
                                    want[step - 1].mapping.clone()
                                },
                                "{tag}, session {i}: noop changed bits"
                            );
                            assert_outcomes_identical(
                                &format!("{tag}, session {i}, step {step}"),
                                &out,
                                &want[step],
                            );
                        }
                        let closed = service.close_session(opened.id).expect("close");
                        let last = want.last().expect("non-empty sequence");
                        assert_eq!(closed.mapping, last.mapping);
                        assert_eq!(closed.makespan, last.makespan);
                    });
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.sessions_opened, SESSIONS as u64, "{tag}");
        assert_eq!(stats.sessions_closed, SESSIONS as u64, "{tag}");
        assert_eq!(stats.remaps, (SESSIONS * 4) as u64, "{tag}");
        assert_eq!(stats.remaps_noop, (SESSIONS * 4) as u64, "{tag}");
        assert_eq!(service.open_sessions(), 0, "{tag}");
    }
}

/// The opening full map a session must reproduce — computed directly.
fn want_initial(req: &MapRequest) -> Mapping {
    let cfg = req.mapper_config().expect("decomposition family");
    decomposition_map(&req.graph, &req.platform, &cfg).mapping
}

/// `close_session` racing an inflight `remap`: the close removes the
/// registry entry first and then waits out the session lock, so the
/// race has exactly two legal outcomes — pinned here over repeated
/// barrier-synchronized rounds.
///
/// * The remap fetched the session before the close removed it: both
///   proceed, serialized by the session lock.  If the remap locked
///   first, the close reads the post-remap state (`remaps == 1`, final
///   mapping == the remap's); if the close locked first, it reads the
///   initial state and the remap still completes on its own handle,
///   bit-identical to the reference.
/// * The close removed the entry first: the remap gets a typed
///   `UnknownSession` refusal, never a panic or a torn state.
#[test]
fn close_session_racing_inflight_remap_has_exactly_two_outcomes() {
    const ROUNDS: usize = 20;

    let platform = Arc::new(Platform::reference());
    let req = MapRequest::from_mapper_config(
        Arc::new(graph_case(3)),
        Arc::clone(&platform),
        &mapper_cfg(2),
    );
    let batch = vec![Perturbation::DeviceLost(DeviceId(1))];
    // The remap's reference outcome: a fresh standalone session stepped
    // once (the racing remap, when it runs, always starts from the
    // session's initial state — it is the only remap the session sees).
    let reference = {
        let mut s = spmap::core::RemapSession::open(&req, None).expect("reference session");
        s.remap(&batch).expect("reference remap")
    };

    let service = Arc::new(MapService::new(ServiceConfig {
        max_inflight: 2,
        max_queued: 2,
        ..ServiceConfig::default()
    }));
    let mut remaps_ok = 0u64;
    let mut unknown = 0u64;
    for round in 0..ROUNDS {
        let opened = service.open_session(&req).expect("open");
        let initial = opened.result.mapping.clone();
        let barrier = std::sync::Barrier::new(2);
        let (remap_outcome, closed) = std::thread::scope(|scope| {
            let remapper = {
                let service = Arc::clone(&service);
                let barrier = &barrier;
                let batch = &batch;
                scope.spawn(move || {
                    barrier.wait();
                    service.remap(opened.id, batch)
                })
            };
            let closer = {
                let service = Arc::clone(&service);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    service.close_session(opened.id).expect("single close")
                })
            };
            (
                remapper.join().expect("remap thread"),
                closer.join().expect("close thread"),
            )
        });

        assert!(!closed.poisoned, "round {round}: nothing panicked here");
        match remap_outcome {
            Ok(out) => {
                remaps_ok += 1;
                assert_outcomes_identical(&format!("round {round}"), &out, &reference);
                if closed.remaps == 1 {
                    // The remap locked first: the close read its commit.
                    assert_eq!(closed.mapping, out.mapping, "round {round}");
                    assert_eq!(closed.makespan, out.makespan, "round {round}");
                } else {
                    // The close locked first: it read the initial state
                    // and the remap finished on its own handle.
                    assert_eq!(closed.remaps, 0, "round {round}");
                    assert_eq!(closed.mapping, initial, "round {round}");
                }
            }
            Err(ServiceError::UnknownSession(id)) => {
                unknown += 1;
                assert_eq!(id, opened.id, "round {round}");
                assert_eq!(closed.remaps, 0, "round {round}");
                assert_eq!(closed.mapping, initial, "round {round}");
            }
            Err(other) => panic!("round {round}: unexpected remap outcome {other:?}"),
        }
    }

    let stats = service.stats();
    assert_eq!(stats.sessions_opened, ROUNDS as u64);
    assert_eq!(stats.sessions_closed, ROUNDS as u64);
    assert_eq!(stats.remaps, remaps_ok, "only Ok remaps are counted");
    assert_eq!(remaps_ok + unknown, ROUNDS as u64);
    assert_eq!(service.open_sessions(), 0);
    assert_eq!(
        stats.admitted,
        stats.completed + stats.failed,
        "accounting balances: a typed UnknownSession refusal is still a \
         completed request"
    );
}

/// A request that differs from a cached one in any field that can change
/// its result misses; the same content in fresh `Arc`s hits.
#[test]
fn response_cache_key_separates_every_result_relevant_field() {
    use spmap::graph::NodeId;
    use spmap_core::{Algo, CostModel, SubgraphStrategy};

    let platform = Arc::new(Platform::reference());
    let base = MapRequest::from_mapper_config(
        Arc::new(graph_case(4)),
        Arc::clone(&platform),
        &mapper_cfg(1),
    );
    let mut attr = graph_case(4);
    attr.task_mut(NodeId(2)).area += 50.0;
    let mut capped = base.clone();
    capped.limits.iteration_cap = Some(2);
    let mut restricted = base.clone();
    restricted.limits.devices = Some(vec![DeviceId(0), DeviceId(2)]);
    let mut threads = base.clone();
    threads.limits.engine.threads = Some(2);
    let variants = [
        (
            "task attribute",
            MapRequest {
                graph: Arc::new(attr),
                ..base.clone()
            },
        ),
        (
            "platform",
            MapRequest {
                platform: Arc::new(Platform::cpu_only()),
                ..base.clone()
            },
        ),
        ("algo", base.clone().with_algo(Algo::Exhaustive)),
        (
            "gamma",
            base.clone().with_algo(Algo::GammaThreshold { gamma: 1.5 }),
        ),
        (
            "strategy",
            MapRequest {
                strategy: SubgraphStrategy::SingleNode,
                ..base.clone()
            },
        ),
        (
            "cost model",
            MapRequest {
                cost_model: CostModel::Report {
                    schedules: 2,
                    seed: 3,
                },
                ..base.clone()
            },
        ),
        ("iteration cap", capped),
        ("devices", restricted),
        ("threads", threads),
    ];

    let service = MapService::new(ServiceConfig::default());
    let first = service.map(&base).expect("base maps");
    assert!(!first.cache_hit);
    for (what, req) in &variants {
        let resp = service.map(req).expect("variant maps");
        assert!(!resp.cache_hit, "changing the {what} must miss");
        assert_ne!(resp.cache_key, first.cache_key, "{what}");
    }
    let fresh = MapRequest::from_mapper_config(
        Arc::new(graph_case(4)),
        Arc::new(Platform::reference()),
        &mapper_cfg(1),
    );
    let again = service.map(&fresh).expect("fresh arcs map");
    assert!(again.cache_hit, "equal content in fresh Arcs must hit");
    assert_eq!(again.cache_key, first.cache_key);
    let stats = service.stats();
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1 + variants.len() as u64);
}

/// A hit replays every field of a direct `map_request` — mapping,
/// makespan, history, iterations, evaluations and decision counters —
/// except dispatch, which is zero because a hit dispatches nothing.
#[test]
fn response_cache_hits_replay_a_direct_map_request() {
    use spmap_core::{map_request, Algo, DispatchStats};

    let platform = Arc::new(Platform::reference());
    let service = MapService::new(ServiceConfig::default());
    for case in 0..4u64 {
        for threads in [1usize, 2] {
            let mut req = MapRequest::from_mapper_config(
                Arc::new(graph_case(case)),
                Arc::clone(&platform),
                &mapper_cfg(threads),
            );
            if case % 2 == 1 {
                req = req.with_algo(Algo::Exhaustive);
            }
            let tag = format!("case {case}, {threads} threads");
            let direct = map_request(&req).expect("direct maps");
            let cold = service.map(&req).expect("cold maps");
            let hot = service.map(&req).expect("hot maps");
            assert!(!cold.cache_hit && hot.cache_hit, "{tag}");
            assert_eq!(hot.result.mapping, direct.mapping, "{tag}");
            assert_eq!(
                hot.result.makespan.to_bits(),
                direct.makespan.to_bits(),
                "{tag}"
            );
            assert_eq!(
                hot.result.cpu_only_makespan.to_bits(),
                direct.cpu_only_makespan.to_bits(),
                "{tag}"
            );
            assert_eq!(hot.result.history, direct.history, "{tag}");
            assert_eq!(hot.result.iterations, direct.iterations, "{tag}");
            assert_eq!(hot.result.evaluations, direct.evaluations, "{tag}");
            assert_eq!(hot.result.batch, direct.batch, "{tag}");
            assert_eq!(hot.result.subgraph_count, direct.subgraph_count, "{tag}");
            assert_eq!(
                hot.result.checkpoint_peak_bytes, direct.checkpoint_peak_bytes,
                "{tag}"
            );
            assert_eq!(hot.result.dispatch, DispatchStats::default(), "{tag}");
        }
    }
}

/// Typed refusals are never cached: each retry runs (and refuses)
/// again, and the cache stays empty.
#[test]
fn response_cache_never_keeps_errors() {
    use spmap::graph::{GraphBuilder, Task};
    use spmap_core::{Algo, GaParams, MapperError};

    let platform = Arc::new(Platform::reference());
    let base = MapRequest::from_mapper_config(
        Arc::new(graph_case(2)),
        Arc::clone(&platform),
        &mapper_cfg(1),
    );
    let mut b = GraphBuilder::new();
    b.add_task(Task {
        complexity: f64::INFINITY,
        data_points: 1e7,
        parallelizability: 0.5,
        streamability: 1.0,
        area: 10.0,
        ..Task::default()
    });
    let nan = MapRequest::from_mapper_config(
        Arc::new(b.build().expect("one task")),
        Arc::clone(&platform),
        &MapperConfig::single_node(),
    );
    let service = MapService::new(ServiceConfig::default());
    for _ in 0..2 {
        assert!(matches!(
            service.map(&base.clone().with_algo(Algo::Ga(GaParams::default()))),
            Err(ServiceError::Mapper(MapperError::UnsupportedAlgo { .. }))
        ));
        assert!(matches!(
            service.map(&base.clone().with_algo(Algo::GammaThreshold { gamma: 0.5 })),
            Err(ServiceError::Mapper(MapperError::InvalidGamma))
        ));
        assert!(matches!(
            service.map(&nan),
            Err(ServiceError::Mapper(MapperError::NanDelta { .. }))
        ));
    }
    let stats = service.stats();
    assert_eq!(
        stats.cache.hits, 0,
        "no refusal was answered from the cache"
    );
    assert_eq!(
        stats.cache.misses, 2,
        "the NaN request looked up and missed twice"
    );
    assert_eq!(stats.cache.peak_entries, 0, "nothing was ever kept");
    assert_eq!(stats.completed, 6);
}
