//! Equivalence property suite for the candidate evaluation engine.
//!
//! The engine (`spmap_core::batch`) stacks parallel simulation, exact
//! lower-bound pruning and content-keyed memoization under the mapper's
//! inner loop.  None of that may change a single result: for random
//! graphs and platforms, the engine path must produce the **same makespan
//! history and final mapping, bit for bit**, as the straight serial
//! exhaustive scan (`decomposition_map_reference` — the seed
//! implementation kept as an executable specification).
//!
//! The same burden applies to the `report_makespan` cost model: the
//! multi-schedule incremental sweep (per-schedule checkpoints, running
//! cutoffs, `(fingerprint, schedule)` memoization) must reproduce the
//! reference serial sweep — one full `Evaluator::report_makespan` per
//! candidate per iteration — bit for bit, across thread counts and
//! schedule counts.
//!
//! And to the NSGA-II baseline: the engine-backed GA (`nsga2_map` —
//! fitness memoization, base-trail windowed replays, parallel
//! population simulation) must reproduce the kept serial reference
//! (`nsga2_map_reference`) per seed, bit for bit, across thread counts
//! and memo-capacity corners (tiny capacities force evictions; results
//! must not move).

use spmap::par::{with_backend, ParBackend};
use spmap::prelude::*;
use spmap_core::{decomposition_map_reference, CostModel, EngineConfig};

/// Deterministic graph zoo: SP graphs, almost-SP graphs and layered
/// non-SP DAGs, with the paper's attribute augmentation.
fn graph_case(case: u64) -> TaskGraph {
    let nodes = 12 + (case * 7 % 36) as usize;
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

fn platform_case(case: u64) -> Platform {
    match case % 4 {
        3 => Platform::cpu_gpu(),
        _ => Platform::reference(),
    }
}

fn engine_cfg(base: MapperConfig, threads: usize, prune: bool, memo: bool) -> MapperConfig {
    MapperConfig {
        engine: EngineConfig {
            threads: Some(threads),
            prune,
            memo,
            ..EngineConfig::default()
        },
        ..base
    }
}

fn assert_equivalent(
    g: &TaskGraph,
    p: &Platform,
    fast: &MapperConfig,
    slow: &MapperConfig,
    tag: &str,
) {
    let a = decomposition_map(g, p, fast);
    let b = decomposition_map_reference(g, p, slow);
    assert_eq!(a.mapping, b.mapping, "{tag}: final mapping differs");
    assert_eq!(a.makespan, b.makespan, "{tag}: makespan differs");
    assert_eq!(a.history, b.history, "{tag}: makespan history differs");
    assert_eq!(a.iterations, b.iterations, "{tag}: iteration count differs");
    assert_eq!(
        a.cpu_only_makespan, b.cpu_only_makespan,
        "{tag}: baseline differs"
    );
}

/// The headline property: parallel + pruned + memoized batches reproduce
/// the serial exhaustive scan exactly, over random graphs and platforms.
#[test]
fn batch_engine_matches_serial_exhaustive_scan() {
    for case in 0..18u64 {
        let g = graph_case(case);
        let p = platform_case(case);
        for base in [MapperConfig::series_parallel(), MapperConfig::single_node()] {
            let fast = engine_cfg(base, 8, true, true);
            let tag = format!("case {case} {:?}", base.strategy);
            assert_equivalent(&g, &p, &fast, &base, &tag);
        }
    }
}

/// Every ablation corner (each optimization on its own, and none at all)
/// is equally exact — a failure here isolates the broken layer.
#[test]
fn every_engine_ablation_is_exact() {
    for case in 0..6u64 {
        let g = graph_case(case + 100);
        let p = platform_case(case);
        let base = MapperConfig::series_parallel();
        for (threads, prune, memo) in [
            (1, false, false), // pure serial batch: the engine skeleton
            (1, true, false),  // pruning alone
            (1, false, true),  // memo alone
            (8, false, false), // parallelism alone
            (8, true, true),   // everything
        ] {
            let fast = engine_cfg(base, threads, prune, memo);
            let tag = format!("case {case} t{threads} prune={prune} memo={memo}");
            assert_equivalent(&g, &p, &fast, &base, &tag);
        }
    }
}

/// The γ-threshold family (FirstFit and the look-ahead variants) replays
/// the serial decision sequence exactly, including the speculative-wave
/// parallel path.
#[test]
fn gamma_threshold_waves_match_serial() {
    for case in 0..12u64 {
        let g = graph_case(case + 200);
        let p = platform_case(case);
        for gamma in [1.0, 2.0, 4.0] {
            let base = MapperConfig {
                heuristic: SearchHeuristic::GammaThreshold { gamma },
                ..MapperConfig::series_parallel()
            };
            let fast = engine_cfg(base, 8, true, true);
            let tag = format!("case {case} gamma {gamma}");
            assert_equivalent(&g, &p, &fast, &base, &tag);
        }
    }
}

/// The multi-schedule sweep, headline version: for every combination of
/// ≥3 thread counts and ≥2 schedule counts, the incremental
/// `report_makespan`-mode engine (pruning, memo, per-schedule windows
/// and running cutoffs) reproduces the reference serial sweep bit for
/// bit: final mapping, report makespans, acceptance history, iteration
/// count and baseline.
#[test]
fn report_sweep_matches_serial_reference_across_threads_and_schedules() {
    for case in 0..5u64 {
        let g = graph_case(case + 400);
        let p = platform_case(case);
        for schedules in [2usize, 5] {
            let base = MapperConfig {
                cost: CostModel::Report {
                    schedules,
                    seed: 0xbeef + case,
                },
                ..MapperConfig::series_parallel()
            };
            for threads in [1usize, 3, 8] {
                let fast = engine_cfg(base, threads, true, true);
                let tag = format!("case {case} k {schedules} t{threads}");
                assert_equivalent(&g, &p, &fast, &base, &tag);
            }
        }
    }
}

/// Every engine ablation corner is equally exact under the report cost
/// model — a failure here isolates the broken layer of the
/// multi-schedule path.
#[test]
fn report_sweep_ablations_are_exact() {
    for case in 0..4u64 {
        let g = graph_case(case + 500);
        let p = platform_case(case);
        let base = MapperConfig {
            cost: CostModel::Report {
                schedules: 3,
                seed: 99,
            },
            ..MapperConfig::series_parallel()
        };
        for (threads, prune, memo) in [
            (1, false, false), // pure multi-schedule skeleton
            (1, true, false),  // pruning alone
            (1, false, true),  // (fp, schedule) memo alone
            (8, false, false), // parallelism alone
            (8, true, true),   // everything
        ] {
            let fast = engine_cfg(base, threads, prune, memo);
            let tag = format!("report case {case} t{threads} prune={prune} memo={memo}");
            assert_equivalent(&g, &p, &fast, &base, &tag);
        }
    }
}

/// The γ-threshold speculative waves (now adaptively sized) replay the
/// serial decision sequence exactly under the report cost model too.
#[test]
fn report_gamma_waves_match_serial() {
    for case in 0..4u64 {
        let g = graph_case(case + 600);
        let p = platform_case(case);
        for gamma in [1.0, 2.0] {
            let base = MapperConfig {
                heuristic: SearchHeuristic::GammaThreshold { gamma },
                cost: CostModel::Report {
                    schedules: 2,
                    seed: 7,
                },
                ..MapperConfig::series_parallel()
            };
            let fast = engine_cfg(base, 8, true, true);
            let tag = format!("report case {case} gamma {gamma}");
            assert_equivalent(&g, &p, &fast, &base, &tag);
        }
    }
}

/// Thread count is not allowed to influence anything observable in the
/// report sweep either — including every engine statistic.
#[test]
fn report_results_and_stats_are_thread_invariant() {
    for case in 0..3u64 {
        let g = graph_case(case + 700);
        let p = platform_case(case);
        let base = MapperConfig {
            cost: CostModel::Report {
                schedules: 3,
                seed: 21,
            },
            ..MapperConfig::series_parallel()
        };
        let runs: Vec<_> = [1usize, 3, 8]
            .iter()
            .map(|&t| decomposition_map(&g, &p, &engine_cfg(base, t, true, true)))
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.mapping, runs[0].mapping, "case {case}");
            assert_eq!(r.makespan, runs[0].makespan, "case {case}");
            assert_eq!(r.history, runs[0].history, "case {case}");
            assert_eq!(r.batch, runs[0].batch, "case {case}: stats drifted");
            assert_eq!(r.evaluations, runs[0].evaluations, "case {case}");
        }
    }
}

/// The GA headline property: the engine-backed NSGA-II reproduces the
/// serial reference per seed — final mapping, best makespan, baseline
/// and the full per-generation history, bit for bit — for every worker
/// count (`SPMAP_THREADS`-style overrides 1, 3 and 8).
#[test]
fn engine_ga_matches_serial_reference_across_threads() {
    for case in 0..4u64 {
        let g = graph_case(case + 800);
        let p = platform_case(case);
        let cfg = |threads: Option<usize>| GaConfig {
            population: 20,
            generations: 25,
            seed: 11 + case,
            threads,
            ..GaConfig::default()
        };
        let slow = nsga2_map_reference(&g, &p, &cfg(None));
        for threads in [1usize, 3, 8] {
            let fast = nsga2_map(&g, &p, &cfg(Some(threads)));
            let tag = format!("case {case} t{threads}");
            assert_eq!(fast.mapping, slow.mapping, "{tag}: final mapping differs");
            assert_eq!(fast.makespan, slow.makespan, "{tag}: makespan differs");
            assert_eq!(
                fast.best_per_generation, slow.best_per_generation,
                "{tag}: history differs"
            );
            assert_eq!(
                fast.cpu_only_makespan, slow.cpu_only_makespan,
                "{tag}: baseline differs"
            );
        }
    }
}

/// Memo-capacity corners: a tiny fitness-memo capacity forces constant
/// evictions; the GA's results must not move by a bit, and the memo
/// must never exceed its capacity (observed via the engine statistics).
#[test]
fn ga_memo_capacity_corners_are_exact_and_bounded() {
    for case in 0..3u64 {
        let g = graph_case(case + 900);
        let p = platform_case(case);
        let cfg = |memo_capacity: usize| GaConfig {
            population: 16,
            generations: 20,
            seed: 5 + case,
            threads: Some(3),
            memo_capacity,
            ..GaConfig::default()
        };
        let slow = nsga2_map_reference(&g, &p, &cfg(0));
        for capacity in [0usize, 7, 64] {
            let fast = nsga2_map(&g, &p, &cfg(capacity));
            let tag = format!("case {case} capacity {capacity}");
            assert_eq!(fast.makespan, slow.makespan, "{tag}: makespan differs");
            assert_eq!(
                fast.best_per_generation, slow.best_per_generation,
                "{tag}: history differs"
            );
            assert_eq!(fast.mapping, slow.mapping, "{tag}: mapping differs");
            if capacity > 0 {
                assert!(
                    fast.engine.memo_peak <= capacity as u64,
                    "{tag}: memo grew past its capacity ({:?})",
                    fast.engine
                );
            }
            if capacity == 7 {
                assert!(
                    fast.engine.memo_evictions > 0,
                    "{tag}: a 7-entry memo over 20 generations must evict"
                );
            }
        }
    }
}

/// The mapper engine's memos obey the same capacity contract: a tiny
/// `EngineConfig::memo_capacity` forces evictions without moving any
/// result, and the peak sizes never exceed the configured cap.
#[test]
fn mapper_memo_capacity_corners_are_exact_and_bounded() {
    for case in 0..3u64 {
        let g = graph_case(case + 1000);
        let p = platform_case(case);
        let base = MapperConfig::series_parallel();
        let reference = decomposition_map_reference(&g, &p, &base);
        for capacity in [16usize, 0] {
            let fast = decomposition_map(
                &g,
                &p,
                &MapperConfig {
                    engine: EngineConfig {
                        threads: Some(4),
                        memo_capacity: capacity,
                        ..EngineConfig::default()
                    },
                    ..base
                },
            );
            let tag = format!("case {case} capacity {capacity}");
            assert_eq!(fast.mapping, reference.mapping, "{tag}");
            assert_eq!(fast.makespan, reference.makespan, "{tag}");
            assert_eq!(fast.history, reference.history, "{tag}");
            if capacity > 0 {
                assert!(
                    fast.batch.memo_peak <= capacity as u64
                        && fast.batch.sched_memo_peak <= capacity as u64,
                    "{tag}: a memo outgrew its capacity ({:?})",
                    fast.batch
                );
            }
        }
    }
}

/// The worker-pool runtime's headline property: for every execution
/// backend in {serial reference, scoped spawns, persistent pool} and
/// every `SPMAP_THREADS`-style worker count in {1, 3, 8}, the mapper
/// produces the identical mapping, makespan, history, iteration count
/// and baseline, bit for bit — and the engine's decision statistics
/// agree between the scoped and pooled backends at equal thread counts
/// (the backend only changes *which threads* run the simulations, never
/// what is simulated).
#[test]
fn pool_scoped_serial_bit_identity_across_thread_counts() {
    for case in 0..5u64 {
        let g = graph_case(case + 1100);
        let p = platform_case(case);
        for base in [
            MapperConfig::series_parallel(),
            MapperConfig {
                heuristic: SearchHeuristic::GammaThreshold { gamma: 2.0 },
                ..MapperConfig::series_parallel()
            },
        ] {
            let reference = decomposition_map_reference(&g, &p, &base);
            for threads in [1usize, 3, 8] {
                let cfg = engine_cfg(base, threads, true, true);
                let scoped = with_backend(ParBackend::Scoped, || decomposition_map(&g, &p, &cfg));
                let pooled = with_backend(ParBackend::Pool, || decomposition_map(&g, &p, &cfg));
                for (tag, r) in [("scoped", &scoped), ("pool", &pooled)] {
                    let tag = format!("case {case} t{threads} {tag} {:?}", base.heuristic);
                    assert_eq!(r.mapping, reference.mapping, "{tag}: mapping differs");
                    assert_eq!(r.makespan, reference.makespan, "{tag}: makespan differs");
                    assert_eq!(r.history, reference.history, "{tag}: history differs");
                    assert_eq!(
                        r.iterations, reference.iterations,
                        "{tag}: iterations differ"
                    );
                    assert_eq!(
                        r.cpu_only_makespan, reference.cpu_only_makespan,
                        "{tag}: baseline differs"
                    );
                }
                assert_eq!(
                    scoped.batch, pooled.batch,
                    "case {case} t{threads}: decision stats must not depend on the backend"
                );
                assert_eq!(
                    scoped.evaluations, pooled.evaluations,
                    "case {case} t{threads}"
                );
                if threads > 1 {
                    // The dispatch counters must prove the intended
                    // backend actually ran the parallel batches.
                    assert_eq!(scoped.dispatch.pool_batches, 0, "case {case} t{threads}");
                    assert_eq!(pooled.dispatch.scoped_batches, 0, "case {case} t{threads}");
                    assert_eq!(
                        scoped.dispatch.parallel_batches(),
                        pooled.dispatch.parallel_batches(),
                        "case {case} t{threads}: same batches, different transport"
                    );
                }
            }
        }
    }
}

/// Same burden for the report-mode sweep: {scoped, pool} × {1, 3, 8}
/// reproduce the reference serial multi-schedule sweep bit for bit.
#[test]
fn report_pool_scoped_serial_bit_identity() {
    for case in 0..3u64 {
        let g = graph_case(case + 1200);
        let p = platform_case(case);
        let base = MapperConfig {
            cost: CostModel::Report {
                schedules: 3,
                seed: 0xfeed + case,
            },
            ..MapperConfig::series_parallel()
        };
        let reference = decomposition_map_reference(&g, &p, &base);
        for threads in [1usize, 3, 8] {
            let cfg = engine_cfg(base, threads, true, true);
            for (tag, backend) in [("scoped", ParBackend::Scoped), ("pool", ParBackend::Pool)] {
                let r = with_backend(backend, || decomposition_map(&g, &p, &cfg));
                let tag = format!("report case {case} t{threads} {tag}");
                assert_eq!(r.mapping, reference.mapping, "{tag}");
                assert_eq!(r.makespan, reference.makespan, "{tag}");
                assert_eq!(r.history, reference.history, "{tag}");
            }
        }
    }
}

/// And for the GA: the engine-backed NSGA-II reproduces the serial
/// reference per seed under both parallel backends at every worker
/// count {1, 3, 8}, with engine statistics that are invariant across
/// backends *and* worker counts (every memo and trail decision lives on
/// the serial path).
#[test]
fn ga_pool_scoped_serial_bit_identity() {
    for case in 0..3u64 {
        let g = graph_case(case + 1300);
        let p = platform_case(case);
        let cfg = |threads: Option<usize>| GaConfig {
            population: 16,
            generations: 20,
            seed: 3 + case,
            threads,
            ..GaConfig::default()
        };
        let reference = nsga2_map_reference(&g, &p, &cfg(None));
        let mut stats = None;
        for threads in [1usize, 3, 8] {
            let scoped = with_backend(ParBackend::Scoped, || {
                nsga2_map(&g, &p, &cfg(Some(threads)))
            });
            let pooled = with_backend(ParBackend::Pool, || nsga2_map(&g, &p, &cfg(Some(threads))));
            for (tag, r) in [("scoped", &scoped), ("pool", &pooled)] {
                let tag = format!("ga case {case} t{threads} {tag}");
                assert_eq!(r.mapping, reference.mapping, "{tag}: mapping differs");
                assert_eq!(r.makespan, reference.makespan, "{tag}: makespan differs");
                assert_eq!(
                    r.best_per_generation, reference.best_per_generation,
                    "{tag}: history differs"
                );
                assert_eq!(
                    r.cpu_only_makespan, reference.cpu_only_makespan,
                    "{tag}: baseline differs"
                );
            }
            assert_eq!(
                scoped.engine, pooled.engine,
                "ga case {case} t{threads}: decision stats must not depend on the backend"
            );
            match &stats {
                None => stats = Some(scoped.engine),
                Some(s) => assert_eq!(
                    scoped.engine, *s,
                    "ga case {case} t{threads}: decision stats must not depend on the thread count"
                ),
            }
            if threads > 1 {
                assert_eq!(scoped.dispatch.pool_batches, 0, "ga case {case} t{threads}");
                assert_eq!(
                    pooled.dispatch.scoped_batches, 0,
                    "ga case {case} t{threads}"
                );
            }
        }
    }
}

/// Trail-cache capacity corners: a tiny `GaConfig::trail_cache_capacity`
/// forces constant trail eviction; the GA's results must not move by a
/// bit, the cache must never outgrow the cap (observed via
/// `trail_peak`), and eviction must actually happen.
#[test]
fn ga_trail_cache_capacity_corners_are_exact_and_bounded() {
    for case in 0..3u64 {
        let g = graph_case(case + 1500);
        let p = platform_case(case);
        let cfg = |trail_cache_capacity: usize| GaConfig {
            population: 16,
            generations: 25,
            seed: 29 + case,
            threads: Some(3),
            trail_cache_capacity,
            ..GaConfig::default()
        };
        let reference = nsga2_map_reference(&g, &p, &cfg(0));
        for capacity in [0usize, 2, 8] {
            let fast = nsga2_map(&g, &p, &cfg(capacity));
            let tag = format!("case {case} trail capacity {capacity}");
            assert_eq!(fast.mapping, reference.mapping, "{tag}: mapping differs");
            assert_eq!(fast.makespan, reference.makespan, "{tag}: makespan differs");
            assert_eq!(
                fast.best_per_generation, reference.best_per_generation,
                "{tag}: history differs"
            );
            if capacity > 0 {
                assert!(
                    fast.engine.trail_peak <= capacity as u64,
                    "{tag}: trail cache outgrew its capacity ({:?})",
                    fast.engine
                );
            }
            if capacity == 2 && fast.engine.trails_recorded > 2 {
                assert!(
                    fast.engine.trail_evictions > 0,
                    "{tag}: recording more trails than slots must evict ({:?})",
                    fast.engine
                );
            }
        }
    }
}

/// The scale-tier matrix: evaluation-table numbering {identity,
/// pop-order} × checkpoint layout {dense, suffix-sparse} are pure
/// layout choices — the mapper (both cost models) reproduces the serial
/// reference bit for bit in every cell, across worker counts {1, 3, 8}
/// and both parallel backends, with decision statistics that are
/// invariant across the whole matrix (layout must not change what the
/// engine computes, only where the bytes live).  A starved checkpoint
/// byte budget (which can only widen the snapshot interval) must not
/// move a result either, and the suffix-sparse layout must never hold
/// more snapshot bytes than dense.
#[test]
fn mapper_numbering_and_checkpoint_layout_matrix_bit_identity() {
    use spmap_core::Numbering;

    // (numbering, dense_checkpoints, checkpoint_budget_bytes)
    let cells = [
        (Numbering::Identity, false, 0usize),
        (Numbering::Identity, true, 0),
        (Numbering::PopOrder, true, 0),
        (Numbering::PopOrder, false, 0), // suffix-sparse, the default
        (Numbering::PopOrder, false, 4096), // starved per-trail budget
    ];
    for case in 0..3u64 {
        let g = graph_case(case + 1600);
        let p = platform_case(case);
        for cost in [
            CostModel::Bfs,
            CostModel::Report {
                schedules: 3,
                seed: 0xcafe + case,
            },
        ] {
            let base = MapperConfig {
                cost,
                ..MapperConfig::series_parallel()
            };
            let reference = decomposition_map_reference(&g, &p, &base);
            let mut stats = None;
            let mut dense_peak = 0u64;
            let mut suffix_peak = u64::MAX;
            for &(numbering, dense, budget) in &cells {
                for threads in [1usize, 3, 8] {
                    for (btag, backend) in
                        [("scoped", ParBackend::Scoped), ("pool", ParBackend::Pool)]
                    {
                        let cfg = MapperConfig {
                            engine: EngineConfig {
                                threads: Some(threads),
                                numbering,
                                dense_checkpoints: dense,
                                checkpoint_budget_bytes: budget,
                                ..EngineConfig::default()
                            },
                            ..base
                        };
                        let r = with_backend(backend, || decomposition_map(&g, &p, &cfg));
                        let tag = format!(
                            "case {case} {cost:?} {numbering:?} dense={dense} \
                             budget={budget} t{threads} {btag}"
                        );
                        assert_eq!(r.mapping, reference.mapping, "{tag}: mapping differs");
                        assert_eq!(r.makespan, reference.makespan, "{tag}: makespan differs");
                        assert_eq!(r.history, reference.history, "{tag}: history differs");
                        match &stats {
                            None => stats = Some(r.batch),
                            Some(s) => assert_eq!(
                                r.batch, *s,
                                "{tag}: decision stats must not depend on layout, \
                                 threads or backend"
                            ),
                        }
                        if numbering == Numbering::PopOrder && budget == 0 {
                            if dense {
                                dense_peak = dense_peak.max(r.checkpoint_peak_bytes);
                            } else {
                                suffix_peak = suffix_peak.min(r.checkpoint_peak_bytes);
                            }
                        }
                    }
                }
            }
            assert!(
                suffix_peak <= dense_peak,
                "case {case} {cost:?}: suffix-sparse snapshots held more bytes than \
                 dense ({suffix_peak} vs {dense_peak})"
            );
        }
    }
}

/// Same matrix for the GA: every numbering × layout × budget cell, at
/// every worker count and under both parallel backends, reproduces the
/// serial reference GA per seed bit for bit with matrix-invariant
/// engine statistics.
#[test]
fn ga_numbering_and_checkpoint_layout_matrix_bit_identity() {
    use spmap_core::Numbering;

    let cells = [
        (Numbering::Identity, false, 0usize),
        (Numbering::Identity, true, 0),
        (Numbering::PopOrder, true, 0),
        (Numbering::PopOrder, false, 0),
        (Numbering::PopOrder, false, 4096),
    ];
    for case in 0..3u64 {
        let g = graph_case(case + 1700);
        let p = platform_case(case);
        let cfg =
            |threads: Option<usize>, numbering: Numbering, dense: bool, budget: usize| GaConfig {
                population: 14,
                generations: 15,
                seed: 41 + case,
                threads,
                numbering,
                dense_checkpoints: dense,
                checkpoint_budget_bytes: budget,
                ..GaConfig::default()
            };
        let reference = nsga2_map_reference(&g, &p, &cfg(None, Numbering::default(), false, 0));
        let mut stats = None;
        let mut dense_peak = 0u64;
        let mut suffix_peak = u64::MAX;
        for &(numbering, dense, budget) in &cells {
            for threads in [1usize, 3, 8] {
                for (btag, backend) in [("scoped", ParBackend::Scoped), ("pool", ParBackend::Pool)]
                {
                    let r = with_backend(backend, || {
                        nsga2_map(&g, &p, &cfg(Some(threads), numbering, dense, budget))
                    });
                    let tag = format!(
                        "ga case {case} {numbering:?} dense={dense} budget={budget} \
                         t{threads} {btag}"
                    );
                    assert_eq!(r.mapping, reference.mapping, "{tag}: mapping differs");
                    assert_eq!(r.makespan, reference.makespan, "{tag}: makespan differs");
                    assert_eq!(
                        r.best_per_generation, reference.best_per_generation,
                        "{tag}: history differs"
                    );
                    assert_eq!(
                        r.cpu_only_makespan, reference.cpu_only_makespan,
                        "{tag}: baseline differs"
                    );
                    match &stats {
                        None => stats = Some(r.engine),
                        Some(s) => assert_eq!(
                            r.engine, *s,
                            "{tag}: engine stats must not depend on layout, threads \
                             or backend"
                        ),
                    }
                    if numbering == Numbering::PopOrder && budget == 0 {
                        if dense {
                            dense_peak = dense_peak.max(r.checkpoint_peak_bytes);
                        } else {
                            suffix_peak = suffix_peak.min(r.checkpoint_peak_bytes);
                        }
                    }
                }
            }
        }
        assert!(
            suffix_peak <= dense_peak,
            "ga case {case}: suffix-sparse trails held more bytes than dense \
             ({suffix_peak} vs {dense_peak})"
        );
    }
}

/// Thread count is not allowed to influence anything observable — runs
/// with 1, 3 and 8 workers must agree with each other in every field,
/// including the engine statistics.
#[test]
fn results_and_stats_are_thread_invariant() {
    for case in 0..6u64 {
        let g = graph_case(case + 300);
        let p = platform_case(case);
        let base = MapperConfig::series_parallel();
        let runs: Vec<_> = [1usize, 3, 8]
            .iter()
            .map(|&t| decomposition_map(&g, &p, &engine_cfg(base, t, true, true)))
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.mapping, runs[0].mapping, "case {case}");
            assert_eq!(r.makespan, runs[0].makespan, "case {case}");
            assert_eq!(r.history, runs[0].history, "case {case}");
            assert_eq!(r.batch, runs[0].batch, "case {case}: stats drifted");
            assert_eq!(r.evaluations, runs[0].evaluations, "case {case}");
        }
    }
}
