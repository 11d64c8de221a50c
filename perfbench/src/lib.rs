//! Shared half of the spmap service benchmark: command-line arguments,
//! seeded workload inputs, per-item best-of-passes bookkeeping, response
//! checks and the result line.
//!
//! Everything here compiles against the request/response surface only
//! (`MapService`, `MapRequest`, `Algo`, `Limits`, `RuntimeConfig`,
//! `Perturbation`, `RemapSession`, `map_request` and the graph
//! generators), so a refactor of the layers underneath can break at most
//! the traced tool (`src/bin/trace.rs`), never the timed binary.  See
//! `README.md` for the metrics, the workloads and why each was chosen.

use std::sync::{Arc, OnceLock};
// lint:allow(no-wallclock-in-decisions): the benchmark times service calls from outside; no program decision reads this clock.
use std::time::Instant;

use spmap_core::{
    map_request, Algo, AttachEdge, Limits, MapRequest, MapResponse, MapService, MapperResult,
    Perturbation, RemapOutcome, RemapSession, RuntimeConfig, ServiceConfig, ServiceError,
};
use spmap_graph::gen::{layered_random, random_sp_graph, LayeredConfig, SpGenConfig};
use spmap_graph::{augment, AugmentConfig, NodeId, TaskGraph};
use spmap_model::{Mapping, Platform};
use spmap_workflows::{augment_ps, Family};

// ---- command line ----

/// The three workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-shot mapping, every request a cache miss.
    MapCold,
    /// Repeat traffic, every timed request a cache hit.
    MapHot,
    /// Run-time remapping sessions replaying a 5-step cycle.
    RemapChurn,
}

impl Workload {
    /// Parse a `--workload` value.
    fn parse(name: &str) -> Option<Self> {
        match name {
            "map_cold" => Some(Workload::MapCold),
            "map_hot" => Some(Workload::MapHot),
            "remap_churn" => Some(Workload::RemapChurn),
            _ => None,
        }
    }

    /// The workload's name as written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MapCold => "map_cold",
            Workload::MapHot => "map_hot",
            Workload::RemapChurn => "remap_churn",
        }
    }
}

/// Engine threads of every workload, pinned so that ambient `SPMAP_*`
/// variables cannot change a workload.  One: at two threads (both vCPUs
/// of the measuring host) the pool's wake-ups made `map_hot` spread 25 %
/// between runs (`README.md`).
pub const ENGINE_THREADS: usize = 1;

/// Parsed command line: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1> [--tiny]`.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget; passes repeat until it is spent (and at least
    /// [`MIN_PASSES`] ran).
    pub seconds: f64,
    pub trace: bool,
    /// Self-test scale: a dozen small items instead of the full set.
    pub tiny: bool,
}

impl Args {
    /// Parse `argv` without the program name.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut tiny = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("seconds"))?;
                    if !(seconds >= 0.0 && seconds.is_finite()) {
                        return Err(bad("seconds"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            tiny,
        })
    }
}

// ---- clock and host probe ----

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // lint:allow(no-wallclock-in-decisions): benchmark-side timer; outside the program under test.
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint:allow(no-wallclock-in-decisions): benchmark-side timer; outside the program under test.
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` and return its wall time in seconds with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = now_ns();
    let r = std::hint::black_box(f());
    (1e-9 * (now_ns() - t0) as f64, r)
}

/// Best-of-5 time (ms) of a fixed integer loop that does not touch the
/// program: printed beside the metrics at the start and the end of a
/// run, so host drift can be told apart from a regression.
pub fn host_probe_ms() -> f64 {
    (0..5)
        .map(|_| {
            timed(|| {
                let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
                for _ in 0..2_000_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                x
            })
            .0
        })
        .fold(f64::INFINITY, f64::min)
        * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---- seeded inputs ----

/// SplitMix64: the benchmark's own seeded stream, so the inputs depend
/// only on `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0xa076_1d64_78bd_642f)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Graph families of the map workloads: the nine WfCommons-style
/// workflows, the paper's random SP graphs (§IV-B) and layered non-SP
/// DAGs, which need the Alg. 1 forest decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Workflow(Family),
    SeriesParallel,
    Layered,
}

/// The 11 shapes, in the order items cycle through them.
fn shapes() -> Vec<Shape> {
    let mut s: Vec<Shape> = Family::all().into_iter().map(Shape::Workflow).collect();
    s.push(Shape::SeriesParallel);
    s.push(Shape::Layered);
    s
}

/// Build one augmented task graph of about `tasks` nodes.
fn build_graph(shape: Shape, tasks: usize, seed: u64) -> TaskGraph {
    match shape {
        Shape::Workflow(f) => {
            let mut g = f.generate(tasks, seed);
            augment_ps(&mut g, seed ^ 0xabcd);
            g
        }
        Shape::SeriesParallel => {
            let mut g = random_sp_graph(&SpGenConfig::new(tasks, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            g
        }
        Shape::Layered => {
            let width = (tasks as f64).sqrt().round().max(1.0) as usize;
            let mut g = layered_random(&LayeredConfig {
                layers: tasks.div_ceil(width),
                width,
                density: 0.25,
                seed,
                edge_bytes: 50e6,
            });
            augment(&mut g, &AugmentConfig::default(), seed);
            g
        }
    }
}

/// One map item: a distinct graph and the algorithm it is requested with.
pub struct MapItem {
    pub label: String,
    pub request: MapRequest,
}

/// Size strata per shape of the map mixes (11 shapes × 15 = 165 items).
const MAP_STRATA: usize = 15;

/// The map mix: every shape at every size stratum, sizes log-uniform over
/// `[lo, hi]` with a seeded jitter inside each stratum.  Stratifying keeps
/// the total work of a mix nearly constant across seeds, so a seed changes
/// the graphs, not the load; the jitter keeps items of one stratum from
/// clumping at one size, which would make the percentiles jumpy.
/// `exhaustive_half` requests every other stratum of each shape
/// (alternating by shape) with `Algo::Exhaustive`.
fn map_mix(seed: u64, strata: usize, lo: f64, hi: f64, exhaustive_half: bool) -> Vec<MapItem> {
    let platform = Arc::new(Platform::reference());
    let shapes = shapes();
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    for rank in 0..strata {
        for (k, &shape) in shapes.iter().enumerate() {
            let u = (rank as f64 + rng.unit()) / strata as f64;
            let tasks = (lo * (hi / lo).powf(u)).round() as usize;
            let gseed = rng.next_u64();
            let graph = Arc::new(build_graph(shape, tasks, gseed));
            let algo = if exhaustive_half && (rank + k) % 2 == 1 {
                Algo::Exhaustive
            } else {
                Algo::first_fit()
            };
            let label = format!(
                "{:?}-{}-{}",
                shape,
                graph.node_count(),
                if algo == Algo::Exhaustive { "ex" } else { "ff" }
            );
            items.push(MapItem {
                label,
                request: MapRequest::new(graph, Arc::clone(&platform)).with_algo(algo),
            });
        }
    }
    items
}

/// The map workload's items: 165 graphs of 20–150 tasks for `map_cold`,
/// 20–120 for `map_hot` (half of them exhaustive), or 11 graphs of 20–60
/// tasks at self-test scale.  The sizes keep most calls under ~5 ms:
/// on a shared host a short call often finds a quiet moment to run in,
/// while a long call cannot avoid the slow ones (see `README.md`).
pub fn map_items(args: &Args) -> Vec<MapItem> {
    let hot = args.workload == Workload::MapHot;
    let (strata, lo, hi) = match (args.tiny, hot) {
        (true, _) => (1, 20.0, 60.0),
        (false, false) => (MAP_STRATA, 20.0, 150.0),
        (false, true) => (MAP_STRATA, 20.0, 120.0),
    };
    map_mix(args.seed, strata, lo, hi, hot)
}

/// Session count and graph size of `remap_churn` (full or self-test scale).
pub fn churn_scale(tiny: bool) -> (usize, usize) {
    if tiny {
        (3, 40)
    } else {
        (64, 60)
    }
}

/// The fixed probe graph a fresh `map_cold` service maps as its health
/// check (seed-independent, so the preparation cost is too).
pub fn probe_request() -> MapRequest {
    MapRequest::new(
        Arc::new(build_graph(Shape::SeriesParallel, 200, 0x0b5e)),
        Arc::new(Platform::reference()),
    )
}

/// Shapes of the remap sessions: layered DAGs alternating with the
/// workflow families whose mappings use the accelerators (`bwa` and
/// `seismology` are transfer-bound and stay on the CPU).
fn session_shape(i: usize) -> Shape {
    const FAMILIES: [Family; 7] = [
        Family::Montage,
        Family::Epigenomics,
        Family::Genome1000,
        Family::Cycles,
        Family::Soykb,
        Family::Srasearch,
        Family::Blast,
    ];
    if i.is_multiple_of(2) {
        Shape::Layered
    } else {
        Shape::Workflow(FAMILIES[(i / 2) % FAMILIES.len()])
    }
}

/// Opening requests of the sessions: ~`tasks`-node graphs, pinned to
/// [`ENGINE_THREADS`] (sessions take their engine threads from the
/// request, not from the service).
fn session_requests(seed: u64, count: usize, tasks: usize) -> Vec<MapItem> {
    let platform = Arc::new(Platform::reference());
    let mut rng = Rng::new(seed ^ 0x5e55);
    (0..count)
        .map(|i| {
            let shape = session_shape(i);
            let graph = Arc::new(build_graph(shape, tasks, rng.next_u64()));
            let mut limits = Limits::default();
            limits.engine.threads = Some(ENGINE_THREADS);
            MapItem {
                label: format!("{:?}-{}", shape, graph.node_count()),
                request: MapRequest::new(graph, Arc::clone(&platform)).with_limits(limits),
            }
        })
        .collect()
}

/// Steps of the session cycle, in replay order.
pub const STEP_KINDS: [&str; 5] = ["lost", "arrived", "attrs", "finished", "restored"];

/// The 5-step cycle a session replays, derived from its opening graph
/// and initial mapping: lose the accelerator holding the most tasks,
/// receive a small SP job wired from a source to a sink, change the
/// attributes of a few tasks, finish the arrived job, restore the lost
/// device.
fn session_cycle(
    graph: &TaskGraph,
    initial: &Mapping,
    platform: &Platform,
    seed: u64,
) -> Vec<Vec<Perturbation>> {
    let default = platform.default_device();
    let lost = platform
        .device_ids()
        .filter(|&d| d != default)
        .max_by_key(|&d| (initial.count_on(d), std::cmp::Reverse(d.index())))
        .expect("the platform has an accelerator");
    let mut job = random_sp_graph(&SpGenConfig::new(8, seed));
    augment(&mut job, &AugmentConfig::default(), seed);
    let n = graph.node_count();
    let source = graph
        .nodes()
        .find(|&v| graph.in_degree(v) == 0)
        .expect("a DAG has a source");
    let sink = graph
        .nodes()
        .filter(|&v| graph.out_degree(v) == 0)
        .last()
        .expect("a DAG has a sink");
    let arrived = job.node_count();
    let mut rng = Rng::new(seed);
    let changed = (0..4)
        .map(|_| {
            let v = NodeId((rng.next_u64() % n as u64) as u32);
            let mut task = graph.task(v).clone();
            task.complexity *= 0.5 + rng.unit();
            task.area = 8.0 * task.complexity;
            (v, task)
        })
        .collect();
    vec![
        vec![Perturbation::DeviceLost(lost)],
        vec![Perturbation::TaskArrived {
            subgraph: job,
            attach: vec![
                AttachEdge::Into {
                    from: source,
                    to_new: 0,
                    bytes: 50e6,
                },
                AttachEdge::OutOf {
                    from_new: arrived - 1,
                    to: sink,
                    bytes: 50e6,
                },
            ],
        }],
        vec![Perturbation::AttributesChanged { nodes: changed }],
        vec![Perturbation::TaskFinished(
            (n..n + arrived).map(|v| NodeId(v as u32)).collect(),
        )],
        vec![Perturbation::DeviceRestored(lost)],
    ]
}

/// A session's opening request, its cycle and the reference outcome of
/// every step from a directly driven [`RemapSession`] replica.
pub struct SessionItem {
    pub label: String,
    pub request: MapRequest,
    pub cycle: Vec<Vec<Perturbation>>,
    pub opened: Expected,
    pub steps: Vec<Expected>,
    /// CPU-only makespan of the patched graph after each step.
    pub cpu_only: Vec<f64>,
}

/// Open a replica of each session directly, derive its cycle and record
/// the reference bits of every step.
pub fn session_items(seed: u64, count: usize, tasks: usize) -> Vec<SessionItem> {
    session_requests(seed, count, tasks)
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let mut replica = RemapSession::open(&item.request, None).expect("session opens");
            let opened = Expected::of_result(replica.initial());
            let cycle = session_cycle(
                &item.request.graph,
                &opened.mapping,
                &item.request.platform,
                seed.wrapping_mul(31).wrapping_add(i as u64),
            );
            let mut steps = Vec::new();
            let mut cpu_only = Vec::new();
            for batch in &cycle {
                let out = replica.remap(batch).expect("replica step applies");
                steps.push(Expected::of_outcome(&out));
                cpu_only.push(cpu_only_makespan(&MapRequest::new(
                    Arc::clone(replica.graph()),
                    Arc::clone(replica.platform()),
                )));
            }
            SessionItem {
                label: item.label,
                request: item.request,
                cycle,
                opened,
                steps,
                cpu_only,
            }
        })
        .collect()
}

/// Makespan of the all-default-device mapping of `req`'s graph: the same
/// request restricted to the default device.
pub fn cpu_only_makespan(req: &MapRequest) -> f64 {
    let mut cpu = req.clone();
    cpu.limits.devices = Some(vec![req.platform.default_device()]);
    map_request(&cpu).expect("a CPU-only request maps").makespan
}

/// Relative makespan improvement over the CPU-only mapping.
pub fn improvement(cpu_only: f64, makespan: f64) -> f64 {
    (cpu_only - makespan) / cpu_only
}

// ---- response checks ----

/// The bits a response must reproduce: mapping, makespan and history.
#[derive(Clone, Debug)]
pub struct Expected {
    pub mapping: Mapping,
    pub makespan: f64,
    pub history: Vec<f64>,
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Expected {
    pub fn of_result(r: &MapperResult) -> Self {
        Self {
            mapping: r.mapping.clone(),
            makespan: r.makespan,
            history: r.history.clone(),
        }
    }

    fn of_outcome(o: &RemapOutcome) -> Self {
        Self {
            mapping: o.mapping.clone(),
            makespan: o.makespan,
            history: o.history.clone(),
        }
    }

    /// Bit-identity on mapping, makespan and history.
    fn matches(&self, mapping: &Mapping, makespan: f64, history: &[f64]) -> bool {
        self.mapping == *mapping
            && self.makespan.to_bits() == makespan.to_bits()
            && same_bits(&self.history, history)
    }

    pub fn matches_result(&self, r: &MapperResult) -> bool {
        self.matches(&r.mapping, r.makespan, &r.history)
    }

    pub fn matches_outcome(&self, o: &RemapOutcome) -> bool {
        self.matches(&o.mapping, o.makespan, &o.history)
    }
}

/// What is wrong with the response to a `what` request for `item`, if
/// anything: an error, the wrong `cache_hit`, or bits that differ from
/// `expect`.
pub fn map_problem(
    what: &str,
    item: &MapItem,
    expect: &Expected,
    want_hit: bool,
    resp: &Result<MapResponse, ServiceError>,
) -> Option<String> {
    let label = &item.label;
    match resp {
        Err(e) => Some(format!("{what} {label}: {e}")),
        Ok(r) if r.cache_hit != want_hit => Some(format!(
            "{what} {label}: cache_hit = {}, expected {want_hit}",
            r.cache_hit
        )),
        Ok(r) if !expect.matches_result(&r.result) => Some(format!(
            "{what} {label}: response bits differ from the reference"
        )),
        Ok(_) => None,
    }
}

/// Attempted and failed operations, with the first few failures named.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `problem` names what went wrong, if anything.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(p);
            }
        }
    }

    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// A service with [`ENGINE_THREADS`] pinned.
pub fn service() -> MapService {
    MapService::new(ServiceConfig {
        runtime: RuntimeConfig {
            threads: Some(ENGINE_THREADS),
            ..RuntimeConfig::default()
        },
        ..ServiceConfig::default()
    })
}

// ---- passes and statistics ----

/// Passes run at least this often, whatever the time budget.
const MIN_PASSES: usize = 3;

/// Run `pass(p)` for `p = 0, 1, …` until `seconds` are spent and at least
/// [`MIN_PASSES`] ran; returns the pass count.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize)) -> usize {
    let t0 = now_ns();
    let mut p = 0;
    while p < MIN_PASSES || 1e-9 * ((now_ns() - t0) as f64) < seconds {
        pass(p);
        p += 1;
    }
    p
}

/// The item order of pass `p`: all `n` items, rotated by a pass-dependent
/// offset so each item meets a different neighbourhood every pass.
pub fn rotation(n: usize, p: usize) -> impl Iterator<Item = usize> {
    let step = (n as f64 * 0.618_034).round() as usize;
    let offset = (p * step.max(1)) % n.max(1);
    (0..n).map(move |j| (offset + j) % n)
}

/// Per-item fastest observation.
pub struct Best(pub Vec<f64>);

impl Best {
    pub fn new(n: usize) -> Self {
        Self(vec![f64::INFINITY; n])
    }

    pub fn observe(&mut self, item: usize, seconds: f64) {
        let b = &mut self.0[item];
        *b = b.min(seconds);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The Harrell–Davis estimate of quantile `q ∈ (0, 1)` of `values`: a
/// Beta-weighted mean of all order statistics.  It has a much smaller
/// sampling spread than a single interpolated order statistic, which is
/// what lets a percentile over ~150 items repeat across seeds.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut prev = 0.0;
    v.iter()
        .enumerate()
        .map(|(i, x)| {
            let cdf = inc_beta(a, b, (i + 1) as f64 / n);
            let w = cdf - prev;
            prev = cdf;
            w * x
        })
        .sum()
}

/// Regularized incomplete beta function `I_x(a, b)`, by the continued
/// fraction of Numerical Recipes §6.4 (modified Lentz).
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

// ---- output ----

/// One metric: name, value and unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The run-context line printed before the result: seed, host, pinned
/// threads, pass count, and the item counts (`items`, then one more named
/// count: the timed run's preparation items or the traced run's sessions).
pub fn context_line(args: &Args, passes: usize, items: usize, more: (&str, usize)) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads\": {}, \"passes\": {}, \"items\": {}, \"{}\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        nproc,
        ENGINE_THREADS,
        passes,
        items,
        more.0,
        more.1
    )
}

/// Print failures to stderr and the context, probe and result lines to
/// stdout; the result line comes last.
pub fn emit(context: &str, probe: (f64, f64), tally: &Tally, metrics: &[Metric]) {
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{context}");
    println!(
        "{{\"host_probe_ms\": {{\"start\": {:.4}, \"end\": {:.4}}}}}",
        probe.0, probe.1
    );
    if tally.failed > 0 {
        println!(
            "{{\"failures\": {}, \"first\": {:?}}}",
            tally.failed, tally.failures
        );
    }
    println!("{}", result_line(tally, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_values() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 51.0).abs() < 1e-9);
        // Symmetric data: the 10th and 90th percentiles mirror each other.
        assert!((quantile(&v, 0.1) + quantile(&v, 0.9) - 102.0).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((inc_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
    }
}
