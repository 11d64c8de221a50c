//! `perf_report` — measures the incremental + parallel candidate engine
//! against the serial seed path and emits machine-readable
//! `BENCH_mapper.json`.
//!
//! For each graph size it runs the full `SeriesParallel`-strategy mapper
//! (exhaustive search) three ways:
//!
//! * `serial` — `decomposition_map_reference`, the seed implementation:
//!   one full simulation per candidate per iteration (one full *sweep*
//!   of `k + 1` simulations in `report_makespan` mode), single-threaded,
//! * `batch1` — the engine on **one** thread (isolates the pruning +
//!   memoization + windowing win; zero thread spawns),
//! * `batchN` — the engine on `--threads N` workers (default 8).
//!
//! Both cost models are measured: the breadth-first inner loop (`bfs`
//! rows) and the paper's multi-schedule reporting metric (`report` rows,
//! `--report-schedules k` random schedules on top of BFS; default 4,
//! `0` skips them).  All runs produce bit-identical mappings (asserted
//! here, proven at scale by `tests/equivalence.rs`), and the binary
//! **fails** if the incremental report sweep is slower than the
//! reference serial sweep — the CI perf gate.
//!
//! The NSGA-II baseline gets the same treatment (`ga` rows): the
//! engine-backed GA (`nsga2_map`, population engine: fitness memo +
//! base-trail windows + heap-free pop-order replays + parallel sims) is
//! measured against the kept serial reference (`nsga2_map_reference`),
//! with bit-identical per-seed best makespan/history asserted, a
//! fail-if-slower gate, and the memo-capacity invariant checked from
//! the engine statistics.  `--full` adds the 1024/2048-node sweep
//! points that the serial GA baseline previously made impractical.
//!
//! The GA's N-thread row runs on the persistent worker pool, the
//! small-batch workload the pool exists for: roughly one parallel batch
//! per generation, each paid for with condvar wakes of parked workers
//! (`pool_batches` / `pool_dispatches` in the JSON).
//!
//! Each GA row also reports the population engine's deterministic
//! work counters — stepped schedule `positions`, full/windowed
//! simulations and the `windowed_skip_rate` — on stdout and in the
//! JSON.
//! `--ga-only` runs just the GA rows (and their gates: GA exactness and
//! GA vs the serial reference) at the standard sizes,
//! without paying for the mapper sweeps.
//! `--sizes a,b,..` replaces the built-in size lists of both the mapper
//! and GA loops (including the `--full` 1024/2048 GA extension, which
//! used to be hardcoded).
//!
//! `--xl` switches to the **scale tier**: 10k/50k/100k-node layered
//! DAGs with constant average degree, measuring (a) the per-position
//! cost of the cache-conscious pop-order simulation kernel against a
//! 500-node baseline of the same shape (CI gate: ≤ 2x at the first XL
//! size — schedule-order renumbering keeps successor updates
//! near-sequential, so the kernel must stay close to its in-cache
//! figure when the tables outgrow L2), (b) a bounded `sp_first_fit`
//! mapper row per size (the 100k row proves the engine completes at
//! scale), and (c) a small GA row at the first size exercising
//! suffix-sparse base trails + the trail cache.  Every row reports its
//! peak checkpoint bytes, gated against the 32 MiB per-trail budget.
//! `--xl --quick` keeps only the first size — the CI smoke.
//!
//! `--remap` switches to the **remap tier**: warm-start remapping
//! sessions against runtime perturbations (device loss/recovery, task
//! arrival/completion, attribute drift) on 506/2048-node layered DAGs
//! (`--full` adds 10k).  Each perturbation kind is timed through the
//! warm neighborhood path and the from-scratch fallback on fresh
//! sessions (min of two replays each, replay bit-identity asserted),
//! and the binary **fails** if, for any perturbation kind at a gated
//! size, the warm remap makes more candidate decisions than the
//! from-scratch re-map (the deterministic gate) or, as a wall-clock
//! backstop, is not faster than it — the remap CI gate.
//!
//! `--chaos` switches to the **chaos tier** (requires building with
//! `--features fault-injection`): seeded fault rounds against a live
//! `MapService` — each round arms one `(site, hit, kind)` plan from the
//! deterministic `FaultSchedule` and drives concurrent retrying clients
//! through it.  The harness asserts the containment contract (typed
//! error to the faulted caller, bit-identical untouched responses,
//! balanced admission accounting, fault-free clean pass afterwards —
//! see docs/ROBUSTNESS.md) and reports goodput under chaos plus retry
//! and per-site fired-fault counters.  `--chaos --quick` is the CI
//! smoke.
//!
//! Each mode writes its own report file — `BENCH_mapper.json`
//! (standard), `BENCH_mapper_xl.json` (`--xl`), `BENCH_remap.json`
//! (`--remap`), `BENCH_chaos.json` (`--chaos`) — so CI cells can
//! upload all of them without clobbering; `--out <path>` overrides the
//! destination.  Service latency and throughput are measured by the
//! `perfbench/` benchmark (see `perfbench/README.md`), not here.
//!
//! Usage: `cargo run --release -p spmap-bench --bin perf_report
//!         [--quick] [--full] [--ga-only] [--xl] [--remap] [--chaos]
//!         [--threads 8] [--seed 2025] [--report-schedules 4]
//!         [--sizes a,b,..] [--out <path>]`

use std::time::Instant;

use spmap_bench::cli::Opts;
use spmap_bench::report::{Json, Row};
use spmap_core::{
    decomposition_map, decomposition_map_reference, CostModel, EngineConfig, MapperConfig,
};
use spmap_ga::{nsga2_map, nsga2_map_reference, GaConfig};
use spmap_graph::gen::{layered_random, LayeredConfig};
use spmap_graph::{augment, AugmentConfig, TaskGraph};
use spmap_model::{
    EvalScratch, EvalTables, Mapping, Platform, ScheduleCheckpoints,
    DEFAULT_CHECKPOINT_BUDGET_BYTES,
};

/// GA generation budget of the `ga` rows: the paper's §IV-A default in
/// real runs, trimmed for the `--quick` CI smoke.
const GA_GENERATIONS: usize = 500;
const GA_GENERATIONS_QUICK: usize = 250;

/// Write the mode's JSON report to its default file or the `--out`
/// override.
fn write_report(opts: &Opts, default_name: &str, report: &Row) {
    let path = opts.out.as_deref().unwrap_or(default_name);
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// A layered (non-series-parallel) DAG of ~`nodes` tasks with the
/// paper's attribute augmentation — the mapper's stress shape.
fn layered_dag(nodes: usize, seed: u64) -> TaskGraph {
    let width = (nodes as f64).sqrt().round() as usize;
    let layers = nodes.div_ceil(width);
    let mut g = layered_random(&LayeredConfig {
        layers,
        width,
        density: 0.25,
        seed,
        edge_bytes: 50e6,
    });
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

// ---- the XL scale tier (`--xl`) ----

/// XL graph sizes; `--quick` keeps only the first (the CI smoke) and
/// `--sizes` overrides the list outright.
const XL_SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// Baseline size of the per-position gate: the standard tier's largest
/// row re-generated in the XL shape, so the gate compares memory
/// layouts rather than graph families.
const XL_BASELINE_NODES: usize = 500;

/// The kernel CI gate: the first XL size's per-position time may cost
/// at most this multiple of the baseline's.  Schedule-order renumbering
/// makes the successor updates near-sequential, so the kernel should
/// stay close to its in-cache figure even once the tables leave L2.
const XL_KERNEL_GATE_RATIO: f64 = 2.0;

/// GA parameters of the XL GA row: enough generations to exercise the
/// suffix-sparse base trails and the trail cache at scale without
/// turning the smoke into a soak (the standard tier already measures
/// GA throughput).
const XL_GA_POPULATION: usize = 24;
const XL_GA_GENERATIONS: usize = 10;

/// A layered DAG with *constant* average out-degree (≈ 4 edges/node)
/// instead of the standard tier's constant `density` — whose degree
/// grows as `0.25·√n` and would change the per-position work itself at
/// 10k–100k nodes.  The kernel gate is about memory layout, not edge
/// count, so the XL shape holds the per-node work fixed across sizes.
fn xl_layered_dag(nodes: usize, seed: u64) -> TaskGraph {
    let width = (nodes as f64).sqrt().round() as usize;
    let layers = nodes.div_ceil(width);
    let mut g = layered_random(&LayeredConfig {
        layers,
        width,
        density: 4.0 / width as f64,
        seed,
        edge_bytes: 50e6,
    });
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

struct XlKernelRow {
    nodes: usize,
    edges: usize,
    /// Minimum observed wall time of one pop-order replay, per node.
    ns_per_position: f64,
    /// Snapshot payload of the checkpointed replay (suffix-sparse under
    /// the default pop-order numbering) — gated against the budget.
    checkpoint_bytes: usize,
    snapshot_every: usize,
}

/// Per-position cost of the cache-conscious simulation kernel: the
/// pop-order checkpointed replay (the exact path every windowed replay
/// and trail recording runs), timed on the all-default mapping, minimum
/// of a few repetitions to steady the clock.
fn measure_xl_kernel(g: &TaskGraph, p: &Platform) -> XlKernelRow {
    let n = g.node_count();
    let tables = EvalTables::new(g, p);
    let mut scratch = EvalScratch::for_tables(&tables);
    let mapping = Mapping::all_default(g, p);
    let every = ScheduleCheckpoints::auto_interval_for(n, 0);
    let mut ckpt = ScheduleCheckpoints::new(every);
    // The warm-up run also shapes the checkpoint store.
    let warm = tables
        .makespan_bfs_checkpointed(&mut scratch, &mapping, &mut ckpt)
        .expect("the all-default mapping simulates");
    let reps = (1_000_000 / n.max(1)).clamp(3, 50);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let ms = tables
            .makespan_bfs_checkpointed(&mut scratch, &mapping, &mut ckpt)
            .expect("the all-default mapping simulates");
        best = best.min(t.elapsed().as_secs_f64());
        assert_eq!(ms, warm, "kernel must be deterministic");
    }
    XlKernelRow {
        nodes: n,
        edges: g.edge_count(),
        ns_per_position: best * 1e9 / n as f64,
        checkpoint_bytes: ckpt.byte_len(),
        snapshot_every: every,
    }
}

struct XlMapperRow {
    seconds: f64,
    iterations: usize,
    evaluations: u64,
    checkpoint_peak_bytes: u64,
    improvement: f64,
}

/// A bounded mapper row: `sp_first_fit` under the BFS cost model with
/// an iteration cap of 2 — enough to push full batches of windowed
/// candidate evaluations through the engine at 10k–100k nodes (the
/// completion proof the tier exists for) without an open-ended greedy
/// descent.
fn measure_xl_mapper(g: &TaskGraph, p: &Platform, threads: usize) -> XlMapperRow {
    let cfg = MapperConfig {
        cost: CostModel::Bfs,
        iteration_cap: Some(2),
        engine: EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        },
        ..MapperConfig::sp_first_fit()
    };
    let t = Instant::now();
    let r = decomposition_map(g, p, &cfg);
    XlMapperRow {
        seconds: t.elapsed().as_secs_f64(),
        iterations: r.iterations,
        evaluations: r.evaluations,
        checkpoint_peak_bytes: r.checkpoint_peak_bytes,
        improvement: r.relative_improvement(),
    }
}

struct XlGaRow {
    nodes: usize,
    edges: usize,
    seconds: f64,
    evaluations: u64,
    positions: u64,
    checkpoint_peak_bytes: u64,
}

/// A small GA row at the first XL size: base trails, the trail
/// cache, and windowed replays all run at a node count where a dense
/// snapshot trail would cost ~8x the suffix-sparse one.
fn measure_xl_ga(g: &TaskGraph, p: &Platform, threads: usize, seed: u64) -> XlGaRow {
    let cfg = GaConfig {
        population: XL_GA_POPULATION,
        generations: XL_GA_GENERATIONS,
        seed,
        threads: Some(threads),
        ..GaConfig::default()
    };
    let t = Instant::now();
    let r = nsga2_map(g, p, &cfg);
    XlGaRow {
        nodes: g.node_count(),
        edges: g.edge_count(),
        seconds: t.elapsed().as_secs_f64(),
        evaluations: r.evaluations,
        positions: r.positions,
        checkpoint_peak_bytes: r.checkpoint_peak_bytes,
    }
}

/// The `--xl` entry point: measure, gate, write `BENCH_mapper_xl.json`.
fn run_xl(opts: &Opts) {
    let threads = opts.threads.unwrap_or(8);
    let sizes: Vec<usize> = match &opts.sizes {
        Some(s) => s.clone(),
        None if opts.quick => vec![XL_SIZES[0]],
        None => XL_SIZES.to_vec(),
    };
    let budget = DEFAULT_CHECKPOINT_BUDGET_BYTES;

    println!(
        "perf_report --xl: scale tier, pop-order kernel + suffix-sparse checkpoints \
         ({threads} threads; per-trail budget {} MiB)\n",
        budget >> 20
    );
    println!(
        "{:>7} {:>8} {:>9} {:>9} {:>11} {:>10} {:>9} {:>9}",
        "nodes", "edges", "ns/pos", "vs base", "ckpt bytes", "mapper", "iters", "peak MB"
    );

    let p = Platform::reference();
    let baseline = measure_xl_kernel(&xl_layered_dag(XL_BASELINE_NODES, opts.seed), &p);
    println!(
        "{:>7} {:>8} {:>9.1} {:>9} {:>11} {:>10} {:>9} {:>9}",
        baseline.nodes,
        baseline.edges,
        baseline.ns_per_position,
        "1.00x",
        baseline.checkpoint_bytes,
        "baseline",
        "-",
        "-"
    );

    let mut rows: Vec<(XlKernelRow, XlMapperRow)> = Vec::new();
    let mut ga_row = None;
    for (i, &nodes) in sizes.iter().enumerate() {
        let g = xl_layered_dag(nodes, opts.seed);
        let k = measure_xl_kernel(&g, &p);
        let m = measure_xl_mapper(&g, &p, threads);
        println!(
            "{:>7} {:>8} {:>9.1} {:>8.2}x {:>11} {:>9.2}s {:>9} {:>9.2}",
            k.nodes,
            k.edges,
            k.ns_per_position,
            k.ns_per_position / baseline.ns_per_position,
            k.checkpoint_bytes,
            m.seconds,
            m.iterations,
            m.checkpoint_peak_bytes as f64 / (1 << 20) as f64,
        );
        if i == 0 {
            ga_row = Some(measure_xl_ga(&g, &p, threads, opts.seed));
        }
        rows.push((k, m));
    }
    let ga = ga_row.expect("--xl needs at least one size");
    println!(
        "\nga xl row ({} nodes, pop {}, {} generations): {:.2}s, {} evaluations, \
         {} positions, peak trail {:.2} MB",
        ga.nodes,
        XL_GA_POPULATION,
        XL_GA_GENERATIONS,
        ga.seconds,
        ga.evaluations,
        ga.positions,
        ga.checkpoint_peak_bytes as f64 / (1 << 20) as f64,
    );

    // The kernel CI gate: per-position time at the first XL size within
    // 2x of the same-shape 500-node baseline.  A miss means the
    // renumbered layout stopped paying — per-position work is constant
    // by construction (fixed average degree), so only memory behavior
    // can move this ratio.
    let head = &rows[0].0;
    let ratio = head.ns_per_position / baseline.ns_per_position;
    println!(
        "xl kernel gate ({} nodes): {:.1} ns/position vs {:.1} baseline = {:.2}x (max {:.1}x)",
        head.nodes, head.ns_per_position, baseline.ns_per_position, ratio, XL_KERNEL_GATE_RATIO,
    );
    assert!(
        ratio <= XL_KERNEL_GATE_RATIO,
        "per-position kernel cost at {} nodes regressed to {:.2}x the {}-node baseline \
         ({:.1} vs {:.1} ns/position; gate {:.1}x)",
        head.nodes,
        ratio,
        baseline.nodes,
        head.ns_per_position,
        baseline.ns_per_position,
        XL_KERNEL_GATE_RATIO,
    );
    // The byte-budget CI gate: every snapshot trail the tier touched —
    // the raw kernel's checkpoint store, the mapper engine's per-trail
    // peak, the GA's trail cache and zero trail — fits the per-trail
    // budget.  `auto_interval_for` widens the snapshot interval to make
    // this hold by construction; the gate catches that math drifting
    // from the stores it is supposed to bound.
    for (k, m) in &rows {
        assert!(
            k.checkpoint_bytes <= budget,
            "kernel checkpoint store at {} nodes exceeds the per-trail budget: {} > {budget}",
            k.nodes,
            k.checkpoint_bytes,
        );
        assert!(
            (m.checkpoint_peak_bytes as usize) <= budget,
            "mapper engine checkpoint peak at {} nodes exceeds the per-trail budget: {} > {budget}",
            k.nodes,
            m.checkpoint_peak_bytes,
        );
    }
    assert!(
        (ga.checkpoint_peak_bytes as usize) <= budget,
        "GA checkpoint peak at {} nodes exceeds the per-trail budget: {} > {budget}",
        ga.nodes,
        ga.checkpoint_peak_bytes,
    );

    // ---- machine-readable report ----
    let xl_runs: Vec<Row> = rows
        .iter()
        .map(|(k, m)| {
            Row::new()
                .with("nodes", k.nodes)
                .with("edges", k.edges)
                .fixed("kernel_ns_per_position", k.ns_per_position, 2)
                .fixed(
                    "kernel_vs_baseline",
                    k.ns_per_position / baseline.ns_per_position,
                    3,
                )
                .with("checkpoint_bytes", k.checkpoint_bytes)
                .with("snapshot_every", k.snapshot_every)
                .fixed("mapper_seconds", m.seconds, 6)
                .with("mapper_iterations", m.iterations)
                .with("mapper_evaluations", m.evaluations)
                .with("mapper_checkpoint_peak_bytes", m.checkpoint_peak_bytes)
                .fixed("mapper_relative_improvement", m.improvement, 6)
        })
        .collect();
    let report = Row::new()
        .with("benchmark", "xl_scale_tier")
        .with("threads", threads)
        .with("quick", opts.quick)
        .with("seed", opts.seed)
        .with("checkpoint_budget_bytes", budget)
        .with("kernel_gate_ratio_max", XL_KERNEL_GATE_RATIO)
        .with(
            "baseline",
            Row::new()
                .with("nodes", baseline.nodes)
                .with("edges", baseline.edges)
                .fixed("kernel_ns_per_position", baseline.ns_per_position, 2)
                .with("checkpoint_bytes", baseline.checkpoint_bytes)
                .with("snapshot_every", baseline.snapshot_every),
        )
        .with("xl_runs", xl_runs)
        .with(
            "ga_xl",
            Row::new()
                .with("nodes", ga.nodes)
                .with("edges", ga.edges)
                .with("population", XL_GA_POPULATION)
                .with("generations", XL_GA_GENERATIONS)
                .fixed("seconds", ga.seconds, 6)
                .with("evaluations", ga.evaluations)
                .with("positions", ga.positions)
                .with("checkpoint_peak_bytes", ga.checkpoint_peak_bytes),
        )
        .with("kernel_gate_nodes", head.nodes)
        .fixed("kernel_vs_baseline", ratio, 3);
    write_report(opts, "BENCH_mapper_xl.json", &report);
}

// ---- the chaos tier (`--chaos`) ----

/// The `--chaos` entry point: seeded fault rounds against a live
/// service with retrying clients, containment + bit-identity + balance
/// asserted by the harness, goodput reported, write `BENCH_chaos.json`.
/// Requires the `fault-injection` feature (the harness fails loudly
/// with the rebuild command otherwise).
fn run_chaos(opts: &Opts) {
    use spmap_bench::chaos_load::{run_chaos, ChaosLoadConfig};

    let engine_threads = opts.threads.unwrap_or(2).max(2);
    let cfg = ChaosLoadConfig {
        clients: 4,
        rounds: if opts.quick { 6 } else { 24 },
        requests_per_client: if opts.quick { 3 } else { 6 },
        distinct_graphs: if opts.quick { 3 } else { 6 },
        nodes: if opts.quick { 48 } else { 96 },
        seed: opts.seed,
        engine_threads,
    };
    let shards = spmap_par::num_shards();
    println!(
        "perf_report --chaos: {} fault rounds x {} clients x {} requests \
         ({} distinct {}-node graphs, {} engine threads/request, {} pool \
         shards, seed {})\n",
        cfg.rounds,
        cfg.clients,
        cfg.requests_per_client,
        cfg.distinct_graphs,
        cfg.nodes,
        engine_threads,
        shards,
        cfg.seed,
    );

    let report = run_chaos(&cfg);

    println!(
        "chaos: {}/{} ok ({} contained panics, {} typed mapper errors, \
         {} retry give-ups), {} of {} armed faults fired, {} overload \
         retries absorbed",
        report.ok,
        report.submitted,
        report.internal_faults,
        report.mapper_errors,
        report.overload_give_ups,
        report.faults_fired,
        report.rounds,
        report.retries,
    );
    for (site, fired) in &report.per_site {
        if *fired > 0 {
            println!("  {site}: {fired} fired");
        }
    }
    println!(
        "goodput under chaos: {:7.1} maps/s over {:.2} s; clean pass {}",
        report.goodput,
        report.seconds,
        if report.clean_pass_ok { "ok" } else { "FAILED" },
    );

    // The containment gates proper (typed errors, bit-identity of
    // untouched responses, balanced accounting, clean pass) are
    // asserted inside `run_chaos` — reaching this point *is* the gate.
    let fired_per_site = report
        .per_site
        .iter()
        .fold(Row::new(), |row, &(site, fired)| row.with(site, fired));
    let json = Row::new()
        .with("benchmark", "map_service_chaos")
        .with("quick", opts.quick)
        .with("seed", cfg.seed)
        .with("nodes", cfg.nodes)
        .with("distinct_graphs", cfg.distinct_graphs)
        .with("engine_threads", engine_threads)
        .with("shards", shards)
        .with("clients", cfg.clients)
        .with("rounds", report.rounds)
        .with("submitted", report.submitted)
        .with("ok", report.ok)
        .with("internal_faults", report.internal_faults)
        .with("mapper_errors", report.mapper_errors)
        .with("overload_give_ups", report.overload_give_ups)
        .with("retries", report.retries)
        .fixed("seconds", report.seconds, 6)
        .fixed("goodput_per_sec", report.goodput, 3)
        .with("faults_fired", report.faults_fired)
        .with("fired_per_site", fired_per_site)
        .with("clean_pass_ok", report.clean_pass_ok);
    write_report(opts, "BENCH_chaos.json", &json);
}

// ---- the remap tier (`--remap`) ----

/// Node-count inputs of the remap tier; realized counts are reported
/// (`layered_dag(500)` realizes 506 nodes).  `--quick` keeps only the
/// first size, `--full` adds the 10k row, `--sizes` overrides outright.
const REMAP_SIZES: [usize; 2] = [500, 2048];
const REMAP_SIZE_FULL: usize = 10_000;

/// The remap CI gate: at every realized size of at least this many
/// nodes, every perturbation kind's warm remap must make at most as
/// many candidate decisions (`BatchStats::total`) as the from-scratch
/// re-map of the same patched instance, and must be faster.  Both
/// sides run the session's own heuristic through the same search
/// driver, so the comparison is pure search work: neighborhood from the
/// repaired incumbent vs every operation from the all-default mapping.
const REMAP_GATE_MIN_NODES: usize = 506;

/// The `--remap` entry point: per-perturbation-kind warm vs full
/// decisions and latency with replay identity asserted, gate, write
/// `BENCH_remap.json`.
fn run_remap(opts: &Opts) {
    use spmap_bench::remap_load::{measure_case, RemapCase, RemapMeasurement};
    use spmap_core::{map_request, AttachEdge, MapRequest, Perturbation, ResponseCache};
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::NodeId;
    use spmap_model::DeviceId;
    use std::sync::{Arc, Mutex};

    let threads = opts.threads.unwrap_or(8);
    let sizes: Vec<usize> = opts.sizes.clone().unwrap_or_else(|| {
        let mut s = if opts.quick {
            vec![REMAP_SIZES[0]]
        } else {
            REMAP_SIZES.to_vec()
        };
        if opts.full {
            s.push(REMAP_SIZE_FULL);
        }
        s
    });
    println!(
        "perf_report --remap: warm-start remap vs from-scratch re-map \
         ({threads} engine threads/session)\n"
    );

    let platform = Arc::new(Platform::reference());
    let mut rows: Vec<(usize, Vec<RemapMeasurement>)> = Vec::new();
    for &size in &sizes {
        let graph = Arc::new(layered_dag(size, opts.seed));
        let n = graph.node_count();
        let req = MapRequest::from_mapper_config(
            Arc::clone(&graph),
            Arc::clone(&platform),
            &MapperConfig {
                engine: EngineConfig {
                    threads: Some(threads),
                    ..EngineConfig::default()
                },
                ..MapperConfig::sp_first_fit()
            },
        );
        // One shared response cache per size: every session open inside
        // the measurement after the first skips the opening search.
        let cache = Mutex::new(ResponseCache::new(0));

        // Probe the initial full map so the lost device is one that
        // actually holds work (losing an idle device is a near-no-op).
        let probe = map_request(&req).expect("probe maps");
        let lost = probe
            .mapping
            .as_slice()
            .iter()
            .copied()
            .find(|&d| d != platform.default_device())
            .unwrap_or(DeviceId(1));

        let arrival = random_sp_graph(&SpGenConfig::new((n / 100).max(5), opts.seed + 1));
        let third = (n / 3) as u32;
        let mut grown = graph.task(NodeId(third)).clone();
        grown.area = grown.area * 2.0 + 100.0;
        let cases = [
            RemapCase {
                kind: "device_lost",
                setup: vec![],
                batch: vec![Perturbation::DeviceLost(lost)],
            },
            RemapCase {
                kind: "device_restored",
                setup: vec![vec![Perturbation::DeviceLost(lost)]],
                batch: vec![Perturbation::DeviceRestored(lost)],
            },
            RemapCase {
                kind: "task_arrived",
                setup: vec![],
                batch: vec![Perturbation::TaskArrived {
                    subgraph: arrival.clone(),
                    attach: vec![AttachEdge::Into {
                        from: NodeId((n - 1) as u32),
                        to_new: 0,
                        bytes: 1e6,
                    }],
                }],
            },
            RemapCase {
                kind: "task_finished",
                setup: vec![],
                batch: vec![Perturbation::TaskFinished(vec![
                    NodeId(0),
                    NodeId(third),
                    NodeId(2 * third),
                ])],
            },
            RemapCase {
                kind: "attributes_changed",
                setup: vec![],
                batch: vec![Perturbation::AttributesChanged {
                    nodes: vec![(NodeId(third), grown.clone())],
                }],
            },
        ];

        println!(
            "{n} nodes ({} edges):\n{:<20} {:>10} {:>10} {:>8} {:>14} {:>6} {:>10} {:>10}",
            graph.edge_count(),
            "perturbation",
            "warm",
            "full",
            "speedup",
            "neighborhood",
            "iters",
            "warm_dec",
            "full_dec"
        );
        let mut measured = Vec::new();
        for case in &cases {
            let m = measure_case(&req, &cache, case);
            if case.kind == "device_lost" {
                // Exactness: both paths vacate the lost device.
                assert!(
                    m.warm.mapping.as_slice().iter().all(|&d| d != lost),
                    "warm remap left work on the lost device"
                );
                assert!(
                    m.full.mapping.as_slice().iter().all(|&d| d != lost),
                    "full re-map left work on the lost device"
                );
            }
            println!(
                "{:<20} {:>8.2}ms {:>8.2}ms {:>7.2}x {:>8}/{:<5} {:>6} {:>10} {:>10}",
                m.kind,
                m.warm_seconds * 1e3,
                m.full_seconds * 1e3,
                m.speedup(),
                m.warm.neighborhood_ops,
                m.warm.op_count,
                m.warm.iterations,
                m.warm.batch.total(),
                m.full.batch.total(),
            );
            measured.push(m);
        }
        println!();
        rows.push((n, measured));
    }

    // The CI gate (see REMAP_GATE_MIN_NODES): deterministic decision
    // counts first, wall clock as a backstop.
    for (n, measured) in &rows {
        if *n < REMAP_GATE_MIN_NODES {
            continue;
        }
        for m in measured {
            let (warm, full) = (m.warm.batch.total(), m.full.batch.total());
            assert!(
                warm <= full,
                "warm {} remap at {n} nodes made {warm} candidate decisions vs \
                 {full} from scratch: the warm neighborhood is not paying off",
                m.kind,
            );
            assert!(
                m.warm_seconds < m.full_seconds,
                "warm {} remap at {n} nodes took {:.2} ms vs {:.2} ms from scratch \
                 despite {warm} vs {full} candidate decisions",
                m.kind,
                m.warm_seconds * 1e3,
                m.full_seconds * 1e3,
            );
        }
    }
    let gated: Vec<usize> = rows
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n >= REMAP_GATE_MIN_NODES)
        .collect();
    println!(
        "remap headline: every perturbation kind's warm remap made no more \
         candidate decisions than the from-scratch re-map, and was faster, \
         at every gated size ({gated:?})"
    );

    // ---- machine-readable report ----
    let json_rows: Vec<Row> = rows
        .iter()
        .map(|(n, measured)| {
            let cases: Vec<Row> = measured
                .iter()
                .map(|m| {
                    Row::new()
                        .with("kind", m.kind)
                        .fixed("warm_ms", m.warm_seconds * 1e3, 4)
                        .fixed("full_ms", m.full_seconds * 1e3, 4)
                        .fixed("speedup", m.speedup(), 3)
                        .fixed("quality_ratio", m.quality_ratio(), 6)
                        .with("neighborhood_ops", m.warm.neighborhood_ops)
                        .with("op_count", m.warm.op_count)
                        .with("iterations", m.warm.iterations)
                        .with("warm_decisions", m.warm.batch.total())
                        .with("full_decisions", m.full.batch.total())
                        .with("affected_nodes", m.warm.affected_nodes)
                        .fixed("warm_makespan", m.warm.makespan, 6)
                        .fixed("full_makespan", m.full.makespan, 6)
                })
                .collect();
            Row::new()
                .with("nodes", *n)
                .with("gate_enforced", *n >= REMAP_GATE_MIN_NODES)
                .with("cases", cases)
        })
        .collect();
    let report = Row::new()
        .with("benchmark", "remap_session")
        .with("quick", opts.quick)
        .with("seed", opts.seed)
        .with("threads", threads)
        .with("gate_min_nodes", REMAP_GATE_MIN_NODES)
        .with("rows", json_rows);
    write_report(opts, "BENCH_remap.json", &report);
}

struct Measurement {
    mode: &'static str,
    report_schedules: usize,
    nodes: usize,
    edges: usize,
    serial_seconds: f64,
    serial_evaluations: u64,
    batch1_seconds: f64,
    batchn_seconds: f64,
    batchn_evaluations: u64,
    simulated: u64,
    memo_hits: u64,
    pruned: u64,
    trivial: u64,
    sched_simulated: u64,
    sched_aborted: u64,
    sched_memo_hits: u64,
    iterations: usize,
}

impl Measurement {
    fn speedup_1t(&self) -> f64 {
        self.serial_seconds / self.batch1_seconds
    }

    fn speedup_nt(&self) -> f64 {
        self.serial_seconds / self.batchn_seconds
    }

    fn serial_ns_per_eval(&self) -> f64 {
        self.serial_seconds * 1e9 / self.serial_evaluations.max(1) as f64
    }

    /// Engine wall time divided by *candidate decisions* — the metric
    /// that shows where pruning/memoization pay: most decisions never
    /// reach a simulation.
    fn batch_ns_per_candidate(&self) -> f64 {
        let total = self.simulated + self.memo_hits + self.pruned + self.trivial;
        self.batchn_seconds * 1e9 / total.max(1) as f64
    }

    fn memo_hit_rate(&self) -> f64 {
        let denom = self.simulated + self.memo_hits;
        if denom == 0 {
            0.0
        } else {
            self.memo_hits as f64 / denom as f64
        }
    }

    /// The row's `runs` entry in `BENCH_mapper.json`.
    fn row(&self) -> Row {
        Row::new()
            .with("mode", self.mode)
            .with("report_schedules", self.report_schedules)
            .with("nodes", self.nodes)
            .with("edges", self.edges)
            .with("iterations", self.iterations)
            .fixed("serial_seconds", self.serial_seconds, 6)
            .with("serial_evaluations", self.serial_evaluations)
            .fixed("serial_mean_ns_per_eval", self.serial_ns_per_eval(), 1)
            .fixed("batch1_seconds", self.batch1_seconds, 6)
            .fixed("batchn_seconds", self.batchn_seconds, 6)
            .with("batchn_evaluations", self.batchn_evaluations)
            .fixed(
                "batch_mean_ns_per_candidate",
                self.batch_ns_per_candidate(),
                1,
            )
            .with("evals_skipped_by_pruning", self.pruned)
            .with("memo_hits", self.memo_hits)
            .fixed("memo_hit_rate", self.memo_hit_rate(), 4)
            .with("simulated", self.simulated)
            .with("trivial_skips", self.trivial)
            .with("schedule_sims", self.sched_simulated)
            .with("schedule_cutoff_aborts", self.sched_aborted)
            .with("schedule_memo_hits", self.sched_memo_hits)
            .fixed("speedup_1_thread", self.speedup_1t(), 3)
            .fixed("speedup_n_threads", self.speedup_nt(), 3)
    }
}

fn measure(nodes: usize, seed: u64, threads: usize, cost: CostModel) -> Measurement {
    let g = layered_dag(nodes, seed);
    let p = Platform::reference();
    let base = MapperConfig {
        cost,
        ..MapperConfig::series_parallel()
    };
    let (mode, report_schedules) = match cost {
        CostModel::Bfs => ("bfs", 0),
        CostModel::Report { schedules, .. } => ("report", schedules),
    };

    let t0 = Instant::now();
    let serial = decomposition_map_reference(&g, &p, &base);
    let serial_seconds = t0.elapsed().as_secs_f64();

    let engine = |t: usize| MapperConfig {
        engine: EngineConfig {
            threads: Some(t),
            ..EngineConfig::default()
        },
        ..base
    };
    let t1 = Instant::now();
    let batch1 = decomposition_map(&g, &p, &engine(1));
    let batch1_seconds = t1.elapsed().as_secs_f64();
    let tn = Instant::now();
    let batchn = decomposition_map(&g, &p, &engine(threads));
    let batchn_seconds = tn.elapsed().as_secs_f64();

    assert_eq!(
        serial.mapping, batch1.mapping,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.mapping, batchn.mapping,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.history, batchn.history,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.makespan, batchn.makespan,
        "engine must be exact ({mode})"
    );

    Measurement {
        mode,
        report_schedules,
        nodes: g.node_count(),
        edges: g.edge_count(),
        serial_seconds,
        serial_evaluations: serial.evaluations,
        batch1_seconds,
        batchn_seconds,
        batchn_evaluations: batchn.evaluations,
        simulated: batchn.batch.simulated,
        memo_hits: batchn.batch.memo_hits,
        pruned: batchn.batch.pruned,
        trivial: batchn.batch.trivial,
        sched_simulated: batchn.batch.sched_simulated,
        sched_aborted: batchn.batch.sched_aborted,
        sched_memo_hits: batchn.batch.sched_memo_hits,
        iterations: batchn.iterations,
    }
}

struct GaMeasurement {
    nodes: usize,
    edges: usize,
    generations: usize,
    serial_seconds: f64,
    serial_evaluations: u64,
    batch1_seconds: f64,
    /// N-thread row on the persistent pool.
    batchn_seconds: f64,
    /// Schedule positions the N-thread row actually stepped — the
    /// engine's deterministic simulation work.
    positions: u64,
    batchn_evaluations: u64,
    full_sims: u64,
    windowed_sims: u64,
    windowed_skip: u64,
    memo_hits: u64,
    batch_dups: u64,
    trails_recorded: u64,
    memo_peak: u64,
    memo_evictions: u64,
    /// Pool batches / parked-worker wakes of the N-thread row.
    pool_batches: u64,
    pool_dispatches: u64,
}

impl GaMeasurement {
    fn speedup_1t(&self) -> f64 {
        self.serial_seconds / self.batch1_seconds
    }

    fn speedup_nt(&self) -> f64 {
        self.serial_seconds / self.batchn_seconds
    }

    /// Mean fraction of schedule positions a windowed replay skipped
    /// (~26 % at 506 nodes).
    fn windowed_skip_rate(&self) -> f64 {
        let denom = self.windowed_sims * self.nodes as u64;
        if denom == 0 {
            0.0
        } else {
            self.windowed_skip as f64 / denom as f64
        }
    }

    fn memo_hit_rate(&self) -> f64 {
        let denom = self.full_sims + self.windowed_sims + self.memo_hits + self.batch_dups;
        if denom == 0 {
            0.0
        } else {
            (self.memo_hits + self.batch_dups) as f64 / denom as f64
        }
    }

    /// The row's `ga_runs` entry in `BENCH_mapper.json`.
    fn row(&self) -> Row {
        Row::new()
            .with("nodes", self.nodes)
            .with("edges", self.edges)
            .with("generations", self.generations)
            .fixed("serial_seconds", self.serial_seconds, 6)
            .with("serial_evaluations", self.serial_evaluations)
            .fixed("batch1_seconds", self.batch1_seconds, 6)
            .fixed("batchn_seconds", self.batchn_seconds, 6)
            .with("pool_batches", self.pool_batches)
            .with("pool_dispatches", self.pool_dispatches)
            .with("batchn_evaluations", self.batchn_evaluations)
            .with("positions", self.positions)
            .with("full_sims", self.full_sims)
            .with("windowed_sims", self.windowed_sims)
            .with("windowed_skip_positions", self.windowed_skip)
            .fixed("windowed_skip_rate", self.windowed_skip_rate(), 4)
            .with("memo_hits", self.memo_hits)
            .with("batch_dups", self.batch_dups)
            .fixed("memo_hit_rate", self.memo_hit_rate(), 4)
            .with("trails_recorded", self.trails_recorded)
            .with("memo_peak", self.memo_peak)
            .with("memo_evictions", self.memo_evictions)
            .fixed("speedup_1_thread", self.speedup_1t(), 3)
            .fixed("speedup_n_threads", self.speedup_nt(), 3)
    }
}

fn measure_ga(nodes: usize, seed: u64, threads: usize, generations: usize) -> GaMeasurement {
    let g = layered_dag(nodes, seed);
    let p = Platform::reference();
    let cfg = |t: Option<usize>| GaConfig {
        generations,
        seed,
        threads: t,
        ..GaConfig::default()
    };

    let t0 = Instant::now();
    let serial = nsga2_map_reference(&g, &p, &cfg(None));
    let serial_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let batch1 = nsga2_map(&g, &p, &cfg(Some(1)));
    let batch1_seconds = t1.elapsed().as_secs_f64();
    let tn = Instant::now();
    let batchn = nsga2_map(&g, &p, &cfg(Some(threads)));
    let batchn_seconds = tn.elapsed().as_secs_f64();

    for (tag, r) in [("1 thread", &batch1), ("N threads", &batchn)] {
        assert_eq!(serial.mapping, r.mapping, "GA engine must be exact ({tag})");
        assert_eq!(
            serial.makespan, r.makespan,
            "GA engine must be exact ({tag})"
        );
        assert_eq!(
            serial.best_per_generation, r.best_per_generation,
            "GA history must be bit-identical ({tag})"
        );
        assert_eq!(serial.cpu_only_makespan, r.cpu_only_makespan);
        // The eviction policy's observable contract: the memo never
        // outgrows its configured capacity over the whole run.
        let capacity = GaConfig::default().memo_capacity as u64;
        assert!(
            capacity == 0 || r.engine.memo_peak <= capacity,
            "GA fitness memo exceeded its capacity: {} > {capacity}",
            r.engine.memo_peak
        );
    }

    GaMeasurement {
        nodes: g.node_count(),
        edges: g.edge_count(),
        generations,
        serial_seconds,
        serial_evaluations: serial.evaluations,
        batch1_seconds,
        batchn_seconds,
        pool_batches: batchn.dispatch.pool_batches,
        pool_dispatches: batchn.dispatch.pool_dispatches,
        batchn_evaluations: batchn.evaluations,
        positions: batchn.positions,
        full_sims: batchn.engine.full_sims,
        windowed_sims: batchn.engine.windowed_sims,
        windowed_skip: batchn.engine.windowed_skip,
        memo_hits: batchn.engine.memo_hits,
        batch_dups: batchn.engine.batch_dups,
        trails_recorded: batchn.engine.trails_recorded,
        memo_peak: batchn.engine.memo_peak,
        memo_evictions: batchn.engine.memo_evictions,
    }
}

fn print_ga_row(m: &GaMeasurement) {
    println!(
        "{:>6} {:>6} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>8.2}x {:>8.2}x {:>12} {:>10} {:>8.1}%",
        "ga",
        m.nodes,
        m.edges,
        m.serial_seconds,
        m.batch1_seconds,
        m.batchn_seconds,
        m.speedup_1t(),
        m.speedup_nt(),
        "-", // the GA does not prune; its windowed replays get their own line
        m.memo_hits,
        100.0 * m.memo_hit_rate(),
    );
    println!(
        "       {} pool batches, {} wakes; windowed sims {}, positions {} (skip rate {:.1}%)",
        m.pool_batches,
        m.pool_dispatches,
        m.windowed_sims,
        m.positions,
        100.0 * m.windowed_skip_rate(),
    );
}

fn print_row(m: &Measurement) {
    println!(
        "{:>6} {:>6} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>8.2}x {:>8.2}x {:>12} {:>10} {:>8.1}%",
        m.mode,
        m.nodes,
        m.edges,
        m.serial_seconds,
        m.batch1_seconds,
        m.batchn_seconds,
        m.speedup_1t(),
        m.speedup_nt(),
        m.pruned,
        m.memo_hits,
        100.0 * m.memo_hit_rate(),
    );
}

fn main() {
    let opts = Opts::parse();
    if opts.chaos {
        // The chaos tier is its own report: seeded fault injection,
        // containment checks, goodput under retry, its own JSON schema.
        run_chaos(&opts);
        return;
    }
    if opts.remap {
        // The remap tier is its own report: session warm-start latency
        // vs the from-scratch fallback, its own JSON schema and gate.
        run_remap(&opts);
        return;
    }
    if opts.xl {
        // The scale tier is its own report: different graph shape,
        // different gates, its own JSON schema.
        run_xl(&opts);
        return;
    }
    let threads = opts.threads.unwrap_or(8);
    let report_k = opts.report_schedules.unwrap_or(4);
    let default_sizes: &[usize] = if opts.quick {
        &[60, 120]
    } else {
        &[120, 250, 500]
    };
    // `--sizes` replaces the built-in sweep for the mapper *and* GA
    // loops (below it also suppresses the `--full` GA extension).
    let sizes: Vec<usize> = opts.sizes.clone().unwrap_or_else(|| default_sizes.to_vec());
    let sizes: &[usize] = &sizes;

    println!(
        "perf_report: SeriesParallel mapper, serial seed path vs candidate engine \
         ({threads} threads; report mode: {report_k} random schedules)\n"
    );
    println!(
        "{:>6} {:>6} {:>7} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "mode",
        "nodes",
        "edges",
        "serial",
        "batch1",
        "batchN",
        "x1",
        "xN",
        "pruned",
        "memo",
        "hit%"
    );

    let mut rows = Vec::new();
    if !opts.ga_only {
        for &nodes in sizes {
            let m = measure(nodes, opts.seed, threads, CostModel::Bfs);
            print_row(&m);
            rows.push(m);
        }
        if report_k > 0 {
            for &nodes in sizes {
                let m = measure(
                    nodes,
                    opts.seed,
                    threads,
                    CostModel::Report {
                        schedules: report_k,
                        seed: opts.seed,
                    },
                );
                print_row(&m);
                rows.push(m);
            }
        }
    }
    // The GA baseline, same treatment.  `--full` adds the sweep points
    // the serial GA used to make impractical.
    let ga_generations = if opts.quick {
        GA_GENERATIONS_QUICK
    } else {
        GA_GENERATIONS
    };
    let mut ga_sizes: Vec<usize> = sizes.to_vec();
    if opts.full && opts.sizes.is_none() {
        // The former hardcoded `--full` extension; an explicit `--sizes`
        // list is taken literally instead.
        ga_sizes.extend([1024, 2048]);
    }
    let mut ga_rows = Vec::new();
    for &nodes in &ga_sizes {
        let m = measure_ga(nodes, opts.seed, threads, ga_generations);
        print_ga_row(&m);
        ga_rows.push(m);
    }

    let bfs_head = rows.iter().rev().find(|m| m.mode == "bfs");
    assert!(
        opts.ga_only || bfs_head.is_some(),
        "at least one BFS size outside --ga-only"
    );
    if let Some(head) = bfs_head {
        println!(
            "\nbfs headline ({} nodes, {} threads): {:.2}x vs seed serial path \
             ({:.1} ns/eval serial, {:.1} ns/candidate batched)",
            head.nodes,
            threads,
            head.speedup_nt(),
            head.serial_ns_per_eval(),
            head.batch_ns_per_candidate(),
        );
    }
    let report_head = rows.iter().rev().find(|m| m.mode == "report");
    if let Some(head) = report_head {
        println!(
            "report headline ({} nodes, {} schedules, {} threads): {:.2}x vs reference \
             serial sweep ({} schedule sims, {} cutoff-aborted, {} memo-answered)",
            head.nodes,
            head.report_schedules + 1,
            threads,
            head.speedup_nt(),
            head.sched_simulated,
            head.sched_aborted,
            head.sched_memo_hits,
        );
        // The CI perf gate: the incremental multi-schedule sweep must
        // never lose to the reference serial sweep (it is expected to
        // win by a wide algorithmic margin — windowing, running
        // cutoffs, per-schedule memo — so 1.0x is a generous floor).
        assert!(
            head.speedup_nt() >= 1.0,
            "incremental report sweep slower than the reference serial sweep: {:.2}x",
            head.speedup_nt()
        );
    }
    let ga_head = ga_rows.last().expect("at least one GA size");
    println!(
        "ga headline ({} nodes, {} generations, {} threads): {:.2}x vs serial reference GA \
         ({} full sims, {} windowed [{:.0}% skipped], {} memo hits, {} trails)",
        ga_head.nodes,
        ga_head.generations,
        threads,
        ga_head.speedup_nt(),
        ga_head.full_sims,
        ga_head.windowed_sims,
        100.0 * ga_head.windowed_skip_rate(),
        ga_head.memo_hits,
        ga_head.trails_recorded,
    );
    // The GA perf gate: the engine-backed GA must never lose to the
    // serial reference in its best configuration (memoization, windows,
    // heap-free replays; threads stack on real multi-core hardware).
    // The gate takes the better of the 1-thread and N-thread rows
    // because the GA path dispatches ~one small parallel batch per
    // generation: on a box with fewer cores than `--threads`, the
    // N-thread row measures pure oversubscription (the xN column
    // still reports it honestly), while on real multi-core hardware it
    // is the winner.
    let ga_best = ga_head.speedup_1t().max(ga_head.speedup_nt());
    assert!(
        ga_best >= 1.0,
        "engine-backed GA slower than the serial reference GA: {ga_best:.2}x"
    );

    // ---- machine-readable report ----
    let report = Row::new()
        .with("benchmark", "candidate_engine_mapper")
        .with("threads", threads)
        .with("quick", opts.quick)
        .with("seed", opts.seed)
        .with("report_schedules", report_k)
        .with(
            "runs",
            rows.iter().map(Measurement::row).collect::<Vec<_>>(),
        )
        .with(
            "ga_runs",
            ga_rows.iter().map(GaMeasurement::row).collect::<Vec<_>>(),
        )
        .with("ga_generations", ga_generations)
        .with("ga_headline_nodes", ga_head.nodes)
        .fixed("ga_headline_speedup", ga_head.speedup_nt(), 3)
        .fixed("ga_windowed_skip_rate", ga_head.windowed_skip_rate(), 4)
        .with("headline_nodes", bfs_head.map(|h| h.nodes))
        .with(
            "headline_speedup",
            bfs_head.map(|h| Json::Fixed(h.speedup_nt(), 3)),
        )
        .with("report_headline_nodes", report_head.map(|h| h.nodes))
        .with(
            "report_headline_speedup",
            report_head.map(|h| Json::Fixed(h.speedup_nt(), 3)),
        );
    write_report(&opts, "BENCH_mapper.json", &report);
}
