//! Golden pins for the decomposition mapper's search.
//!
//! `tests/equivalence.rs` proves the engine agrees with the serial
//! reference; it cannot see a change that moves both, nor one that only
//! moves the engine's work counters.  This suite pins, for a small
//! seeded corpus, everything a mapper run reports that is a pure
//! function of its inputs: the final makespan's f64 bits, the iteration
//! and evaluation counts, an FNV-1a digest of the final mapping and the
//! makespan history, and every `BatchStats` counter.  A second pin
//! holds the schedule positions the 1-thread runs step
//! (`MapperResult::positions`), recorded before the window kernel was
//! rewritten.
//!
//! The corpus has random SP, almost-SP and layered graphs and two
//! workflow families, 20–80 tasks each, on the reference platform.
//! Every graph runs FirstFit at 1 and 3 worker threads (the speculative
//! wave depends on the worker count, so its counters are pinned per
//! count) and the exhaustive search at 1 thread, all under BFS cost;
//! one graph also runs both searches under the report cost, once more
//! with memos small enough to evict.  Threads are set explicitly, so
//! the pins hold under any `SPMAP_THREADS`.
//!
//! Regenerate only for a deliberate change of decisions or counters:
//! `cargo test --test golden -- --nocapture`, then copy the printed
//! lines into `EXPECTED` (or `EXPECTED_POSITIONS`).

use spmap::graph::gen::{layered_random, LayeredConfig};
use spmap::prelude::*;
use spmap_core::{BatchStats, CostModel, EngineConfig, MapperResult};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The seeded corpus: `(label, graph)`.
fn corpus() -> Vec<(&'static str, TaskGraph)> {
    let augmented = |mut g: TaskGraph, seed: u64| {
        augment(&mut g, &AugmentConfig::default(), seed);
        g
    };
    let layered = |layers, width, density, seed| {
        layered_random(&LayeredConfig {
            layers,
            width,
            density,
            seed,
            edge_bytes: 50e6,
        })
    };
    vec![
        (
            "sp20",
            augmented(random_sp_graph(&SpGenConfig::new(20, 1)), 1),
        ),
        (
            "sp80",
            augmented(random_sp_graph(&SpGenConfig::new(80, 2)), 2),
        ),
        (
            "asp40",
            augmented(almost_sp_graph(&SpGenConfig::new(40, 3), 6), 3),
        ),
        (
            "asp70",
            augmented(almost_sp_graph(&SpGenConfig::new(70, 4), 15), 4),
        ),
        ("lay25", augmented(layered(5, 5, 0.5, 5), 5)),
        ("lay64", augmented(layered(8, 8, 0.35, 6), 6)),
        ("montage", Family::Montage.generate(40, 1)),
        ("epigenomics", Family::Epigenomics.generate(60, 2)),
    ]
}

/// The search configurations every graph runs: `(label, config)`.
fn configs() -> Vec<(&'static str, MapperConfig)> {
    let threads = |cfg: MapperConfig, n: usize| MapperConfig {
        engine: EngineConfig {
            threads: Some(n),
            ..EngineConfig::default()
        },
        ..cfg
    };
    vec![
        ("ff1", threads(MapperConfig::sp_first_fit(), 1)),
        ("ff3", threads(MapperConfig::sp_first_fit(), 3)),
        ("ex1", threads(MapperConfig::series_parallel(), 1)),
    ]
}

/// The configurations run on `REPORT_GRAPH` only: both searches under
/// the report cost, and the exhaustive one again with 64-entry memos so
/// both memos evict.
fn report_configs() -> Vec<(&'static str, MapperConfig)> {
    let serial = EngineConfig {
        threads: Some(1),
        ..EngineConfig::default()
    };
    let report = |cfg: MapperConfig, engine: EngineConfig| {
        MapperConfig { engine, ..cfg }.with_report_cost(3, 9)
    };
    vec![
        ("ff1-report", report(MapperConfig::sp_first_fit(), serial)),
        (
            "ex1-report",
            report(MapperConfig::series_parallel(), serial),
        ),
        (
            "ex1-report-memo64",
            report(
                MapperConfig::series_parallel(),
                EngineConfig {
                    memo_capacity: 64,
                    ..serial
                },
            ),
        ),
    ]
}

const REPORT_GRAPH: &str = "asp40";

/// `[simulated, memo_hits, pruned, aborted, trivial, sched_simulated,
/// sched_aborted, sched_memo_hits, memo_evictions, sched_memo_evictions,
/// memo_peak, sched_memo_peak]`.
fn counters(s: &BatchStats) -> [u64; 12] {
    [
        s.simulated,
        s.memo_hits,
        s.pruned,
        s.aborted,
        s.trivial,
        s.sched_simulated,
        s.sched_aborted,
        s.sched_memo_hits,
        s.memo_evictions,
        s.sched_memo_evictions,
        s.memo_peak,
        s.sched_memo_peak,
    ]
}

/// Digest of the final mapping and the makespan history.
fn outcome_digest(r: &MapperResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.mapping.len() as u64);
    for &d in r.mapping.as_slice() {
        h.word(u64::from(d.0));
    }
    h.word(r.history.len() as u64);
    for ms in &r.history {
        h.word(ms.to_bits());
    }
    h.0
}

/// One line per run, in corpus × config order: `case makespan-bits
/// iterations evaluations outcome-digest` and the twelve counters.
fn run_all() -> Vec<String> {
    let platform = Platform::reference();
    let mut rows = Vec::new();
    for (graph_label, g) in corpus() {
        let mut cases = configs();
        if graph_label == REPORT_GRAPH {
            cases.extend(report_configs());
        }
        for (cfg_label, cfg) in cases {
            let r = decomposition_map(&g, &platform, &cfg);
            if matches!(cfg.cost, CostModel::Bfs) {
                assert_eq!(
                    r.makespan.to_bits(),
                    r.history
                        .last()
                        .copied()
                        .unwrap_or(r.cpu_only_makespan)
                        .to_bits(),
                    "{graph_label}/{cfg_label}: makespan is not the last history entry"
                );
            }
            let stats: Vec<String> = counters(&r.batch).iter().map(u64::to_string).collect();
            rows.push(format!(
                "{graph_label}/{cfg_label} 0x{:016x} {} {} 0x{:016x} {}",
                r.makespan.to_bits(),
                r.iterations,
                r.evaluations,
                outcome_digest(&r),
                stats.join(" ")
            ));
        }
    }
    rows
}

/// Recorded pins, one `run_all` line each.
const EXPECTED: &str = "
sp20/ff1 0x3ffbe9630cf5d802 10 172 0x6833db66c25ba078 161 15 0 0 66 161 0 0 0 0 162 0
sp20/ff3 0x3ffbe9630cf5d802 10 292 0x6833db66c25ba078 281 14 0 0 68 281 0 0 0 0 274 0
sp20/ex1 0x3ffbe9630cf5d802 10 484 0x6833db66c25ba078 67 60 314 406 275 67 406 0 0 0 68 0
sp80/ff1 0x40159f7a862c9c14 24 923 0x7f19e42edc8debce 898 50 0 0 296 898 0 0 0 0 899 0
sp80/ff3 0x40159f7a862c9c14 24 1292 0x7f19e42edc8debce 1267 32 0 0 345 1267 0 0 0 0 1232 0
sp80/ex1 0x40159f7a862c9c14 20 3350 0x8e628273f8a635ce 259 118 2437 3070 2432 259 3070 0 0 0 256 0
asp40/ff1 0x400e05884e088199 15 479 0x6930fc6a69bf6117 463 52 0 0 198 463 0 0 0 0 464 0
asp40/ff3 0x400e05884e088199 15 637 0x6930fc6a69bf6117 621 28 0 0 209 621 0 0 0 0 597 0
asp40/ex1 0x400e05884e088199 15 1404 0x6930fc6a69bf6117 203 92 1033 1185 895 203 1185 0 0 0 200 0
asp40/ff1-report 0x400e7b75d6ffe438 8 1388 0x43e84759c40b660f 338 14 0 0 143 758 594 0 0 0 339 776
asp40/ex1-report 0x400e7b75d6ffe438 8 3732 0x43e84759c40b660f 101 46 380 823 567 197 3499 0 0 0 102 222
asp40/ex1-report-memo64 0x400e7b75d6ffe438 8 3732 0x43e84759c40b660f 101 46 380 823 567 197 3499 0 64 160 64 64
asp70/ff1 0x40165f2d42ae9569 43 1571 0x7e0ba1c9d98b4032 1527 175 0 0 401 1527 0 0 0 0 1528 0
asp70/ff3 0x40165f2d42ae9569 43 2311 0x7e0ba1c9d98b4032 2267 66 0 0 466 2267 0 0 0 0 2112 0
asp70/ex1 0x4015dec5ffa2cdea 16 2379 0xf50c86024a6f42cd 185 77 1674 2177 1803 185 2177 0 0 0 178 0
lay25/ff1 0x4006a4b55e86a264 11 195 0x4b1ef9aa8e93a1de 183 12 0 0 77 183 0 0 0 0 184 0
lay25/ff3 0x4006a4b55e86a264 11 327 0x4b1ef9aa8e93a1de 315 14 0 0 79 315 0 0 0 0 309 0
lay25/ex1 0x400750034f090ff6 6 387 0xce6469377366d1a4 59 38 146 321 234 59 321 0 0 0 60 0
lay64/ff1 0x401147bac8ab4ab3 23 461 0x593845b466c691bb 437 14 0 0 184 437 0 0 0 0 438 0
lay64/ff3 0x401147bac8ab4ab3 23 654 0x593845b466c691bb 630 7 0 0 191 630 0 0 0 0 624 0
lay64/ex1 0x401147bac8ab4ab3 22 2953 0x5c804184670b3df9 273 95 1166 2657 1743 273 2657 0 0 0 274 0
montage/ff1 0x402c9785a1210e0f 5 249 0x6b7ba16e647f3e21 243 23 0 0 107 243 0 0 0 0 244 0
montage/ff3 0x402c9785a1210e0f 5 361 0x6b7ba16e647f3e21 355 24 0 0 107 355 0 0 0 0 352 0
montage/ex1 0x402ca46cdac92027 4 520 0x1f0e656e8d9a8168 62 39 50 453 251 62 453 0 0 0 63 0
epigenomics/ff1 0x4020ecbc8103cb62 6 358 0x266dd7ee504bfab6 351 11 0 0 139 351 0 0 0 0 352 0
epigenomics/ff3 0x4020ecbc8103cb62 6 504 0x266dd7ee504bfab6 497 10 0 0 147 497 0 0 0 0 496 0
epigenomics/ex1 0x4020ecbc8103cb62 6 715 0xfa274fc6b3270444 157 31 256 551 454 157 551 0 0 0 158 0
";

#[test]
fn search_outcomes_and_counters_are_pinned() {
    let actual = run_all();
    for row in &actual {
        println!("{row}");
    }
    let expected: Vec<&str> = EXPECTED.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(actual.len(), expected.len(), "corpus size changed");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(
            a, e,
            "makespan bits, iterations, evaluations, outcome digest or BatchStats changed"
        );
    }
}

#[test]
fn corpus_is_in_the_pinned_size_range() {
    for (label, g) in corpus() {
        let n = g.node_count();
        assert!((20..=80).contains(&n), "{label}: {n} tasks");
    }
}

/// One line per 1-thread run, in corpus × config order: `case
/// positions`, the schedule positions the run stepped
/// (`MapperResult::positions`).  At one thread the count is a pure
/// function of the inputs, so a kernel rewrite that keeps every
/// decision must also keep it.
fn serial_positions() -> Vec<String> {
    let platform = Platform::reference();
    let mut rows = Vec::new();
    for (graph_label, g) in corpus() {
        let mut cases = configs();
        if graph_label == REPORT_GRAPH {
            cases.extend(report_configs());
        }
        for (cfg_label, cfg) in cases {
            if cfg.engine.threads != Some(1) {
                continue;
            }
            let r = decomposition_map(&g, &platform, &cfg);
            rows.push(format!("{graph_label}/{cfg_label} {}", r.positions));
        }
    }
    rows
}

/// Recorded pins, one `serial_positions` line each.
const EXPECTED_POSITIONS: &str = "
sp20/ff1 3184
sp20/ex1 5196
sp80/ff1 54416
sp80/ex1 151728
asp40/ff1 16144
asp40/ex1 29747
asp40/ff1-report 44207
asp40/ex1-report 62998
asp40/ex1-report-memo64 62998
asp70/ff1 90034
asp70/ex1 95523
lay25/ff1 4379
lay25/ex1 6190
lay64/ff1 21328
lay64/ex1 99913
montage/ff1 8854
montage/ex1 14848
epigenomics/ff1 15676
epigenomics/ex1 26847
";

#[test]
fn serial_positions_are_pinned() {
    let actual = serial_positions();
    for row in &actual {
        println!("{row}");
    }
    let expected: Vec<&str> = EXPECTED_POSITIONS
        .lines()
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(actual, expected, "schedule positions stepped changed");
}
