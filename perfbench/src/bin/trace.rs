//! The traced run: per-layer metrics of one workload.
//!
//! ```text
//! trace --workload <map_cold|map_hot|remap_churn> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! Spans are recorded from outside, around calls into each layer's public
//! functions: the service call (`MapService::map` / `remap`), and beside
//! it the same item driven through the layers one by one — decomposition
//! (`series_parallel_subgraphs`), evaluation tables (`EvalTables`), engine
//! setup (`CandidateBatch`), the direct `map_request`, one model
//! evaluation of the returned mapping, and for sessions the direct
//! `RemapSession::remap` and `remap_full`.  A restore probe times the
//! restoration of a few larger sessions warm and from scratch, and the
//! `spmap-par` counters come from the items run once more, untimed, at
//! the pool's thread count on `map_hot`.  Self times are differences:
//! search = `map_request` − decomposition − tables − engine setup, and the
//! service's own time = the service call − the layers it ran.  As in the
//! timed run, every time is the item's fastest pass.  Spans stay in memory
//! and are written to `out/` when the run ends; end-to-end metrics always
//! come from the untraced binary.
//!
//! This binary reaches into the layers, so a refactor may break it; it is
//! a separate target so that the timed binary never breaks with it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use spmap_core::{map_request, CandidateBatch, MapRequest, RemapSession, SubgraphStrategy};
use spmap_decomp::series_parallel_subgraphs;
use spmap_model::{EvalScratch, EvalTables};
use spmap_par::{dispatch_stats, with_backend, DispatchStats, ParBackend};

use perfbench::{
    churn_scale, context_line, emit, host_probe_ms, map_items, map_problem, metric, now_ns,
    probe_request, rotation, run_passes, service, session_items, timed, Args, Best, Expected,
    MapItem, Metric, SessionItem, Tally, Workload, ENGINE_THREADS, STEP_KINDS,
};

/// Engine threads of the `spmap-par` measurement on `map_hot`: both vCPUs
/// of the measuring host, so batches dispatch to the pool.  The other
/// workloads measure at [`ENGINE_THREADS`], where the pool stays idle.
const PAR_THREADS: usize = 2;

/// Sessions and graph size of the restore probe (full, self-test scale).
/// At 250 tasks a warm restoration loses to `remap_full`; at the 60
/// tasks of `remap_churn` it still wins.
fn restore_probe_scale(tiny: bool) -> (usize, usize) {
    if tiny {
        (1, 60)
    } else {
        (3, 250)
    }
}

/// One recorded outside call.
struct Span {
    name: &'static str,
    item: usize,
    pass: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log plus each call name's per-item fastest time.
struct Tracer {
    spans: Vec<Span>,
    best: BTreeMap<&'static str, Best>,
    items: usize,
    pass: usize,
}

impl Tracer {
    fn new(items: usize) -> Self {
        Self {
            spans: Vec::new(),
            best: BTreeMap::new(),
            items,
            pass: 0,
        }
    }

    fn observe(&mut self, name: &'static str, item: usize, seconds: f64) {
        let items = self.items;
        self.best
            .entry(name)
            .or_insert_with(|| Best::new(items))
            .observe(item, seconds);
    }

    /// Run `f` as span `name` of `item` under `parent`.
    fn span<R>(
        &mut self,
        name: &'static str,
        item: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = now_ns();
        let r = std::hint::black_box(f());
        let end_ns = now_ns();
        self.spans.push(Span {
            name,
            item,
            pass: self.pass,
            parent,
            start_ns,
            end_ns,
        });
        self.observe(name, item, 1e-9 * (end_ns - start_ns) as f64);
        r
    }

    /// Time `f` without recording a span: the untraced twin of a traced
    /// call, for `trace.overhead_share`.
    fn untraced<R>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> R) -> R {
        let (t, r) = timed(f);
        self.observe(name, item, t);
        r
    }

    /// Open an item's root span; [`Tracer::close`] sets its end.
    fn open(&mut self, name: &'static str, item: usize) -> usize {
        let now = now_ns();
        self.spans.push(Span {
            name,
            item,
            pass: self.pass,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, root: usize) {
        self.spans[root].end_ns = now_ns();
    }

    /// Per-item fastest seconds of call `name`.
    fn times(&self, name: &str) -> Vec<f64> {
        self.best
            .get(name)
            .map_or_else(|| vec![f64::NAN; self.items], |b| b.0.clone())
    }

    /// Write the spans as JSON lines, ids offset by `first_id`.
    fn write(&self, out: &mut impl Write, first_id: usize) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + first_id).to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"item\": {}, \"pass\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                id + first_id,
                s.name,
                s.item,
                s.pass,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Deterministic work counters of one map item.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct MapCounts {
    subgraphs: u64,
    evaluations: u64,
    iterations: u64,
    simulated: u64,
    memo_hits: u64,
    pruned: u64,
    aborted: u64,
    trivial: u64,
    decisions: u64,
    checkpoint_bytes: u64,
    cache_hit: bool,
}

/// Sum of the dispatch counters the per-layer metrics report.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct Dispatch {
    pool_batches: u64,
    pool_dispatches: u64,
    serial_batches: u64,
    steals: u64,
    submission_waits: u64,
}

impl Dispatch {
    fn add(&mut self, d: &DispatchStats) {
        self.pool_batches += d.pool_batches;
        self.pool_dispatches += d.pool_dispatches;
        self.serial_batches += d.serial_batches;
        self.steals += d.pool_steals;
        self.submission_waits += d.pool_submission_waits;
    }
}

/// Run `f` and add the calling thread's dispatch-counter delta to `acc`.
fn counting<R>(acc: &mut Dispatch, f: impl FnOnce() -> R) -> R {
    let d0 = dispatch_stats();
    let r = f();
    acc.add(&dispatch_stats().since(&d0));
    r
}

/// `req` with its engine threads pinned.
fn pinned(req: &MapRequest, threads: usize) -> MapRequest {
    let mut r = req.clone();
    r.limits.engine.threads = Some(threads);
    r
}

/// Drive one map request through the layers one by one, a span per
/// layer, check the result against `expect` and return its counters.
fn layer_spans(
    tr: &mut Tracer,
    tally: &mut Tally,
    item: (usize, &MapItem),
    parent: usize,
    expect: &Expected,
) -> MapCounts {
    let (j, it) = item;
    let req = pinned(&it.request, ENGINE_THREADS);
    let cfg = req.mapper_config().expect("a decomposition request");
    let SubgraphStrategy::SeriesParallel { cut_policy } = cfg.strategy else {
        unreachable!("the workloads request series-parallel subgraphs")
    };
    let (g, p) = (&*req.graph, &*req.platform);
    let subgraphs = tr.span("decomp", j, Some(parent), || {
        series_parallel_subgraphs(g, cut_policy)
            .subgraphs()
            .to_vec()
    });
    let n_subgraphs = subgraphs.len() as u64;
    let tables = tr.span("model.tables", j, Some(parent), || {
        EvalTables::with_numbering(g, p, cfg.engine.numbering)
    });
    let devices = p.device_ids().collect();
    let engine = tr.span("engine.setup", j, Some(parent), || {
        CandidateBatch::with_shared_tables(&tables, subgraphs, devices, cfg.engine, cfg.cost)
    });
    drop(engine);
    let res = tr.span("map_request", j, Some(parent), || map_request(&req));
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            tally.record(Some(format!("direct map {}: {e}", it.label)));
            return MapCounts::default();
        }
    };
    let mut scratch = EvalScratch::new(g.node_count(), p.device_count());
    let eval = tr.span("model.eval", j, Some(parent), || {
        tables.makespan_bfs(&mut scratch, &res.mapping)
    });
    let ok = expect.matches_result(&res) && eval.map(f64::to_bits) == Some(res.makespan.to_bits());
    tally.record((!ok).then(|| format!("direct map {}: bits differ", it.label)));
    let b = res.batch;
    MapCounts {
        subgraphs: n_subgraphs,
        evaluations: res.evaluations,
        iterations: res.iterations as u64,
        simulated: b.simulated,
        memo_hits: b.memo_hits,
        pruned: b.pruned,
        aborted: b.aborted,
        trivial: b.trivial,
        decisions: b.total(),
        checkpoint_bytes: res.checkpoint_peak_bytes,
        cache_hit: false,
    }
}

/// Record a counter snapshot from pass 0, and a failure if a later pass
/// disagrees: work counters must repeat exactly.
fn pin<T: PartialEq>(tally: &mut Tally, slot: &mut Option<T>, now: T, what: &str) {
    match slot {
        None => *slot = Some(now),
        Some(first) if *first != now => tally.record(Some(format!(
            "{what}: work counters changed between passes"
        ))),
        Some(_) => {}
    }
}

/// Per-step work counters of every session: `(evaluations,
/// neighborhood ops, cache hit)` indexed `[session][step]`.
type StepCounts = Vec<Vec<(u64, u64, bool)>>;

/// One pass over the map items: each item through an untraced and a
/// traced service, then layer by layer.
struct MapPass<'a> {
    items: &'a [MapItem],
    expected: &'a [Expected],
    /// Whether timed calls are cache hits (`map_hot`) — the services are
    /// warmed with every item first.
    hot: bool,
    /// Whether the items go through `MapService::map` at all
    /// (`remap_churn` reaches the map layers only through `open_session`).
    via_service: bool,
    /// The health-check graph a fresh `map_cold` service maps first.
    probe: MapRequest,
}

impl MapPass<'_> {
    /// Returns each item's counters and the traced service's peak cache
    /// bytes (0 without services).
    fn run(&self, tr: &mut Tracer, tally: &mut Tally, p: usize) -> (Vec<MapCounts>, usize) {
        let services = self.via_service.then(|| {
            let (svc_u, svc_t) = (service(), service());
            for svc in [&svc_u, &svc_t] {
                if self.hot {
                    for it in self.items {
                        svc.map(&it.request).expect("warm-up maps");
                    }
                } else {
                    svc.map(&self.probe).expect("probe maps");
                }
            }
            (svc_u, svc_t)
        });
        let mut counts = vec![MapCounts::default(); self.items.len()];
        for j in rotation(self.items.len(), p + 1) {
            let it = &self.items[j];
            let root = tr.open("item", j);
            let mut hit = false;
            if let Some((svc_u, svc_t)) = &services {
                // The untraced twin goes first on even passes, second on
                // odd ones, so call order does not bias the overhead.
                if p.is_multiple_of(2) {
                    let _ = tr.untraced("untraced.map", j, || svc_u.map(&it.request));
                }
                let r = tr.span("service.map", j, Some(root), || svc_t.map(&it.request));
                if !p.is_multiple_of(2) {
                    let _ = tr.untraced("untraced.map", j, || svc_u.map(&it.request));
                }
                tally.record(map_problem("map", it, &self.expected[j], self.hot, &r));
                hit = r.is_ok_and(|r| r.cache_hit);
            }
            let c = layer_spans(tr, tally, (j, it), root, &self.expected[j]);
            tr.close(root);
            counts[j] = MapCounts {
                cache_hit: hit,
                ..c
            };
        }
        let resident = services.map_or(0, |(_, svc_t)| svc_t.stats().cache.peak_bytes);
        (counts, resident)
    }
}

/// One pass over the sessions: open each on an untraced and a traced
/// service, then replay the cycle step by step through both services,
/// a direct replica, and `remap_full` on a fork replayed to the same
/// state.  Session `s` opens as item `s`; its step `k` is item
/// `s * steps + k` of `tr`.  Returns the per-step counters and the traced
/// service's peak cache bytes.
fn session_pass(
    tr: &mut Tracer,
    tally: &mut Tally,
    sessions: &[SessionItem],
    p: usize,
) -> (StepCounts, usize) {
    let steps = STEP_KINDS.len();
    let (svc_u, svc_t) = (service(), service());
    let mut ids = Vec::new();
    let mut replicas = Vec::new();
    for (s, it) in sessions.iter().enumerate() {
        let open_u = svc_u.open_session(&it.request).expect("untraced open");
        let open_t = tr.span("session.open", s, None, || svc_t.open_session(&it.request));
        tally.record(match &open_t {
            Ok(r) if it.opened.matches_result(&r.result) => None,
            Ok(_) => Some(format!("open {}: bits differ", it.label)),
            Err(e) => Some(format!("open {}: {e}", it.label)),
        });
        ids.push((open_u.id, open_t.ok().map(|r| r.id)));
        replicas.push(RemapSession::open(&it.request, None).expect("replica opens"));
    }
    let mut counts = vec![vec![(0, 0, false); steps]; sessions.len()];
    for (k, _) in STEP_KINDS.iter().enumerate() {
        for s in rotation(sessions.len(), p + k + 1) {
            let (it, item, batch) = (&sessions[s], s * steps + k, &sessions[s].cycle[k]);
            let (id_u, id_t) = ids[s];
            let root = tr.open("step", item);
            if p.is_multiple_of(2) {
                let _ = tr.untraced("untraced.remap", item, || svc_u.remap(id_u, batch));
            }
            let traced = id_t
                .map(|id| tr.span("service.remap", item, Some(root), || svc_t.remap(id, batch)));
            if !p.is_multiple_of(2) {
                let _ = tr.untraced("untraced.remap", item, || svc_u.remap(id_u, batch));
            }
            tally.record(match &traced {
                Some(Ok(o)) if it.steps[k].matches_outcome(o) => None,
                Some(Ok(_)) => Some(format!("step {k} of {}: bits differ", it.label)),
                Some(Err(e)) => Some(format!("step {k} of {}: {e}", it.label)),
                None => Some(format!("step {k} of {}: session did not open", it.label)),
            });
            let direct = tr
                .span("session.remap", item, Some(root), || {
                    replicas[s].remap(batch)
                })
                .expect("replica step applies");
            let mut fork = RemapSession::open(&it.request, None).expect("fork opens");
            for earlier in &it.cycle[..k] {
                fork.remap(earlier).expect("fork replays");
            }
            tr.span("session.full", item, Some(root), || fork.remap_full(batch))
                .expect("remap_full applies");
            tr.close(root);
            counts[s][k] = (
                direct.batch.simulated + direct.batch.aborted,
                direct.neighborhood_ops as u64,
                direct.cache_hit,
            );
        }
    }
    for (id_u, id_t) in ids {
        let _ = svc_u.close_session(id_u);
        if let Some(id) = id_t {
            let _ = svc_t.close_session(id);
        }
    }
    (counts, svc_t.stats().cache.peak_bytes)
}

/// The map items once more, untimed, at `threads` engine threads on the
/// pool backend: the summed dispatch-counter deltas and evaluations, with
/// each result checked against the reference bits.
fn par_run(
    tally: &mut Tally,
    items: &[MapItem],
    expected: &[Expected],
    threads: usize,
) -> (Dispatch, u64) {
    let mut dispatch = Dispatch::default();
    let mut evaluations = 0;
    for (it, expect) in items.iter().zip(expected) {
        let req = pinned(&it.request, threads);
        let r = counting(&mut dispatch, || {
            with_backend(ParBackend::Pool, || map_request(&req))
        });
        tally.record(match r {
            Ok(r) if expect.matches_result(&r) => {
                evaluations += r.evaluations;
                None
            }
            Ok(_) => Some(format!(
                "map {} at {threads} threads: bits differ",
                it.label
            )),
            Err(e) => Some(format!("map {} at {threads} threads: {e}", it.label)),
        });
    }
    (dispatch, evaluations)
}

/// One pass of the restore probe: each session replayed directly up to
/// its restoration, which is then timed warm (`remap`) and from scratch
/// (`remap_full` on a second replica at the same state).  Returns the
/// evaluations of each warm restoration.
fn restore_probe(tr: &mut Tracer, tally: &mut Tally, sessions: &[SessionItem]) -> Vec<u64> {
    let last = STEP_KINDS.len() - 1;
    sessions
        .iter()
        .enumerate()
        .map(|(s, it)| {
            let replay = || {
                let mut r = RemapSession::open(&it.request, None).expect("replica opens");
                for batch in &it.cycle[..last] {
                    r.remap(batch).expect("replica replays");
                }
                r
            };
            let (mut warm, mut full) = (replay(), replay());
            let batch = &it.cycle[last];
            let w = tr
                .span("restore.warm", s, None, || warm.remap(batch))
                .expect("warm restoration applies");
            tr.span("restore.full", s, None, || full.remap_full(batch))
                .expect("remap_full applies");
            tally.record(
                (!it.steps[last].matches_outcome(&w))
                    .then(|| format!("restore probe {}: bits differ", it.label)),
            );
            w.batch.simulated + w.batch.aborted
        })
        .collect()
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(2);
        }
    };
    let probe_start = host_probe_ms();
    let mut tally = Tally::default();
    let churn = args.workload == Workload::RemapChurn;

    // The items that reach the map layers (the mix, or the sessions'
    // opening requests) and the sessions.  The map workloads bypass
    // sessions; a small probe of 60-task sessions gives the session
    // layer measured values there too.
    let (items, sessions) = if churn {
        let (count, tasks) = churn_scale(args.tiny);
        let sessions = session_items(args.seed, count, tasks);
        let items = sessions
            .iter()
            .map(|s| MapItem {
                label: s.label.clone(),
                request: s.request.clone(),
            })
            .collect();
        (items, sessions)
    } else {
        let probe = session_items(args.seed, if args.tiny { 2 } else { 4 }, 60);
        (map_items(&args), probe)
    };
    let expected: Vec<Expected> = items
        .iter()
        .map(|it| Expected::of_result(&map_request(&it.request).expect("reference maps")))
        .collect();
    let par_threads = if args.workload == Workload::MapHot {
        PAR_THREADS
    } else {
        ENGINE_THREADS
    };
    let (dispatch, par_evaluations) = par_run(&mut tally, &items, &expected, par_threads);
    let (probe_count, probe_tasks) = restore_probe_scale(args.tiny);
    let restore_sessions = session_items(args.seed ^ 0x7e57, probe_count, probe_tasks);

    let (n, steps) = (items.len(), STEP_KINDS.len());
    let mut map_tr = Tracer::new(n);
    let mut sess_tr = Tracer::new(sessions.len() * steps);
    let mut restore_tr = Tracer::new(restore_sessions.len());
    let mut map_counts = None;
    let mut step_counts = None;
    let mut restore_counts = None;
    let mut resident_bytes = None;
    let map_pass = MapPass {
        items: &items,
        expected: &expected,
        hot: args.workload == Workload::MapHot,
        via_service: !churn,
        probe: probe_request(),
    };
    let passes = run_passes(args.seconds, |p| {
        map_tr.pass = p;
        sess_tr.pass = p;
        restore_tr.pass = p;
        let (counts, map_resident) = map_pass.run(&mut map_tr, &mut tally, p);
        pin(&mut tally, &mut map_counts, counts, "map items");
        let (counts, sess_resident) = session_pass(&mut sess_tr, &mut tally, &sessions, p);
        pin(&mut tally, &mut step_counts, counts, "session steps");
        let counts = restore_probe(&mut restore_tr, &mut tally, &restore_sessions);
        pin(&mut tally, &mut restore_counts, counts, "restore probe");
        let resident = if churn { sess_resident } else { map_resident };
        pin(&mut tally, &mut resident_bytes, resident, "cache residency");
    });
    let probe_end = host_probe_ms();

    let map_counts = map_counts.unwrap_or_default();
    let step_counts = step_counts.unwrap_or_default();
    let resident_kib = resident_bytes.unwrap_or(0) as f64 / 1024.0;
    let sum = |f: fn(&MapCounts) -> u64| map_counts.iter().map(f).sum::<u64>() as f64;
    let per_item = |f: fn(&MapCounts) -> u64| sum(f) / n as f64;
    let decomp = map_tr.times("decomp");
    let tables = map_tr.times("model.tables");
    let setup = map_tr.times("engine.setup");
    let direct = map_tr.times("map_request");
    let search: Vec<f64> = (0..n)
        .map(|j| direct[j] - decomp[j] - tables[j] - setup[j])
        .collect();
    let tasks: f64 = items
        .iter()
        .map(|it| it.request.graph.node_count() as f64)
        .sum();

    // The service layer: its own time is the service call minus the
    // layers it ran (a hit skips the tables; a remap runs the session).
    let (service_self, traced, untraced, hit_share) = if churn {
        let svc = sess_tr.times("service.remap");
        let own = sess_tr.times("session.remap");
        let hits = step_counts.iter().flatten().filter(|c| c.2).count();
        (
            svc.iter().zip(&own).map(|(a, b)| a - b).collect::<Vec<_>>(),
            svc,
            sess_tr.times("untraced.remap"),
            hits as f64 / (sessions.len() * steps) as f64,
        )
    } else {
        let svc = map_tr.times("service.map");
        let self_t = (0..n)
            .map(|j| {
                let ran = decomp[j] + setup[j] + search[j];
                svc[j]
                    - if map_counts[j].cache_hit {
                        ran
                    } else {
                        ran + tables[j]
                    }
            })
            .collect();
        (
            self_t,
            svc,
            map_tr.times("untraced.map"),
            per_item(|c| u64::from(c.cache_hit)),
        )
    };

    let mut metrics: Vec<Metric> = vec![
        metric("decomp.ms", mean(&decomp) * 1e3, "ms"),
        metric("decomp.subgraphs", per_item(|c| c.subgraphs), "count"),
        metric("model.tables_ms", mean(&tables) * 1e3, "ms"),
        metric(
            "model.eval_ns_per_task",
            map_tr.times("model.eval").iter().sum::<f64>() * 1e9 / tasks,
            "ns",
        ),
        metric("engine.setup_ms", mean(&setup) * 1e3, "ms"),
        metric("engine.evaluations", per_item(|c| c.evaluations), "count"),
        metric("engine.simulated", per_item(|c| c.simulated), "count"),
        metric("engine.memo_hits", per_item(|c| c.memo_hits), "count"),
        metric("engine.pruned", per_item(|c| c.pruned), "count"),
        metric("engine.aborted", per_item(|c| c.aborted), "count"),
        metric("engine.trivial", per_item(|c| c.trivial), "count"),
        metric(
            "engine.simulated_share",
            sum(|c| c.simulated) / sum(|c| c.decisions),
            "ratio",
        ),
        metric(
            "engine.checkpoint_kib",
            per_item(|c| c.checkpoint_bytes) / 1024.0,
            "KiB",
        ),
        metric("search.ms", mean(&search) * 1e3, "ms"),
        metric("search.iterations", per_item(|c| c.iterations), "count"),
        metric(
            "search.ns_per_evaluation",
            search.iter().sum::<f64>() * 1e9 / sum(|c| c.evaluations),
            "ns",
        ),
        metric("service.self_ms", mean(&service_self) * 1e3, "ms"),
        metric("service.cache_hit_share", hit_share, "ratio"),
        metric("service.cache_resident_kib", resident_kib, "KiB"),
        metric(
            "session.open_ms",
            mean(&sess_tr.times("session.open")[..sessions.len()]) * 1e3,
            "ms",
        ),
    ];
    let per_session = sessions.len().max(1) as f64;
    for (k, kind) in STEP_KINDS.iter().enumerate() {
        let step_ms = |name: &str| {
            let t = sess_tr.times(name);
            (0..sessions.len()).map(|s| t[s * steps + k]).sum::<f64>() * 1e3 / per_session
        };
        let step_count = |f: fn(&(u64, u64, bool)) -> u64| {
            step_counts.iter().map(|c| f(&c[k])).sum::<u64>() as f64 / per_session
        };
        metrics.extend([
            metric(format!("session.{kind}_ms"), step_ms("session.remap"), "ms"),
            metric(
                format!("session.full_{kind}_ms"),
                step_ms("session.full"),
                "ms",
            ),
            metric(
                format!("session.{kind}_evaluations"),
                step_count(|c| c.0),
                "count",
            ),
            metric(
                format!("session.{kind}_neighborhood_ops"),
                step_count(|c| c.1),
                "count",
            ),
        ]);
    }
    let restore_ms = |name: &str| mean(&restore_tr.times(name)) * 1e3;
    let restore_counts = restore_counts.unwrap_or_default();
    let calls = n as f64;
    metrics.extend([
        metric(
            "session.large_restored_ms",
            restore_ms("restore.warm"),
            "ms",
        ),
        metric(
            "session.large_full_restored_ms",
            restore_ms("restore.full"),
            "ms",
        ),
        metric(
            "session.large_restored_evaluations",
            restore_counts.iter().sum::<u64>() as f64 / restore_counts.len().max(1) as f64,
            "count",
        ),
        metric(
            "par.pool_batches",
            dispatch.pool_batches as f64 / calls,
            "count",
        ),
        metric(
            "par.pool_dispatches",
            dispatch.pool_dispatches as f64 / calls,
            "count",
        ),
        metric(
            "par.serial_batches",
            dispatch.serial_batches as f64 / calls,
            "count",
        ),
        metric("par.steals", dispatch.steals as f64 / calls, "count"),
        metric(
            "par.submission_waits",
            dispatch.submission_waits as f64 / calls,
            "count",
        ),
        metric(
            "par.evaluations_over_serial",
            par_evaluations as f64 / sum(|c| c.evaluations),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            traced.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0,
            "ratio",
        ),
    ]);

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    if let Err(e) = write_spans(&path, &[&map_tr, &sess_tr, &restore_tr]) {
        eprintln!("trace: could not write {}: {e}", path.display());
    }
    let context = context_line(&args, passes, n, ("sessions", sessions.len()));
    emit(&context, (probe_start, probe_end), &tally, &metrics);
}

/// Write every tracer's spans to `path` as JSON lines.
fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut first_id = 0;
    for tr in tracers {
        tr.write(&mut out, first_id)?;
        first_id += tr.spans.len();
    }
    out.flush()
}
