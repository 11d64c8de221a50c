//! Criterion micro-benchmarks backing the paper's cost claims:
//!
//! * the model evaluation is linear time (§III-A: "full-scale model-based
//!   evaluation, which can be computed in linear time"),
//! * the decomposition forest is linear time (§III-C),
//! * HEFT/PEFT run in microseconds (§IV-B: "below 10 µs"),
//! * the decomposition mappers and one GA generation, end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spmap_baselines::{heft, peft};
use spmap_core::{
    decomposition_map, decomposition_map_reference, CostModel, EngineConfig, MapperConfig,
};
use spmap_decomp::{decompose_forest, CutPolicy};
use spmap_ga::{nsga2_map, GaConfig};
use spmap_graph::gen::{layered_random, random_sp_graph, LayeredConfig, SpGenConfig};
use spmap_graph::{augment, ops, AugmentConfig, TaskGraph};
use spmap_model::{Evaluator, Mapping, Platform};

fn graph_of(n: usize) -> TaskGraph {
    let mut g = random_sp_graph(&SpGenConfig::new(n, 42));
    augment(&mut g, &AugmentConfig::default(), 42);
    g
}

fn bench_evaluator(c: &mut Criterion) {
    let platform = Platform::reference();
    let mut group = c.benchmark_group("evaluator_makespan");
    group.sample_size(30);
    for n in [50usize, 200, 800] {
        let g = graph_of(n);
        let mut ev = Evaluator::new(&g, &platform);
        let mapping = Mapping::all_default(&g, &platform);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ev.makespan_bfs(&mapping).unwrap())
        });
    }
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomposition_forest");
    group.sample_size(20);
    for n in [50usize, 200, 800] {
        let g = graph_of(n);
        let norm = ops::normalize_terminals(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default()))
        });
    }
    group.finish();
}

fn bench_list_schedulers(c: &mut Criterion) {
    let platform = Platform::reference();
    let g = graph_of(100);
    let mut group = c.benchmark_group("list_schedulers_100_tasks");
    group.sample_size(30);
    group.bench_function("heft", |b| b.iter(|| heft(&g, &platform)));
    group.bench_function("peft", |b| b.iter(|| peft(&g, &platform)));
    group.finish();
}

fn bench_mappers(c: &mut Criterion) {
    let platform = Platform::reference();
    let g = graph_of(30);
    let mut group = c.benchmark_group("decomposition_mapper_30_tasks");
    group.sample_size(10);
    for (name, cfg) in [
        ("single_node", MapperConfig::single_node()),
        ("series_parallel", MapperConfig::series_parallel()),
        ("sn_first_fit", MapperConfig::sn_first_fit()),
        ("sp_first_fit", MapperConfig::sp_first_fit()),
    ] {
        group.bench_function(name, |b| b.iter(|| decomposition_map(&g, &platform, &cfg)));
    }
    group.finish();
}

fn bench_ga(c: &mut Criterion) {
    let platform = Platform::reference();
    let g = graph_of(30);
    let mut group = c.benchmark_group("nsga2_30_tasks");
    group.sample_size(10);
    group.bench_function("10_generations", |b| {
        b.iter(|| {
            nsga2_map(
                &g,
                &platform,
                &GaConfig {
                    population: 30,
                    generations: 10,
                    seed: 1,
                    ..GaConfig::default()
                },
            )
        })
    });
    group.finish();
}

/// The headline comparison: a full `SeriesParallel`-strategy mapper run
/// through the serial seed path (`serial`: one full simulation per
/// candidate per iteration) versus the incremental + parallel candidate
/// engine (`batch`: windowed re-simulation, exact pruning, memoization,
/// worker threads) — both produce bit-identical mappings.
fn bench_candidate_scan(c: &mut Criterion) {
    let platform = Platform::reference();
    let mut group = c.benchmark_group("candidate_scan");
    group.sample_size(10);
    for n in [30usize, 60, 120] {
        let g = graph_of(n);
        let serial_cfg = MapperConfig::series_parallel();
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| decomposition_map_reference(&g, &platform, &serial_cfg))
        });
        let batch_cfg = MapperConfig {
            engine: EngineConfig::default(),
            ..MapperConfig::series_parallel()
        };
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
            b.iter(|| decomposition_map(&g, &platform, &batch_cfg))
        });
        // The multi-schedule reporting metric (§IV-A): each candidate is
        // a sweep of k+1 simulations — serial reference vs the engine's
        // per-schedule windowed sweep with running cutoffs.
        let report_cfg = MapperConfig {
            cost: CostModel::Report {
                schedules: 4,
                seed: 42,
            },
            ..MapperConfig::series_parallel()
        };
        group.bench_with_input(BenchmarkId::new("report_serial", n), &n, |b, _| {
            b.iter(|| decomposition_map_reference(&g, &platform, &report_cfg))
        });
        group.bench_with_input(BenchmarkId::new("report_batch", n), &n, |b, _| {
            b.iter(|| decomposition_map(&g, &platform, &report_cfg))
        });
    }
    // The GA population engine at the perf_report sweep shapes: fitness
    // memo, base-trail windowed replays and heap-free full replays on
    // one thread.
    for n in [256usize, 506] {
        let width = (n as f64).sqrt().round() as usize;
        let mut g = layered_random(&LayeredConfig {
            layers: n.div_ceil(width),
            width,
            density: 0.25,
            seed: 2025,
            edge_bytes: 50e6,
        });
        augment(&mut g, &AugmentConfig::default(), 2025);
        let ga = GaConfig {
            population: 100,
            generations: 40,
            seed: 2025,
            threads: Some(1),
            ..GaConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("ga", n), &n, |b, _| {
            b.iter(|| nsga2_map(&g, &platform, &ga))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_evaluator,
    bench_decomposition,
    bench_list_schedulers,
    bench_mappers,
    bench_ga,
    bench_candidate_scan
);
criterion_main!(benches);
