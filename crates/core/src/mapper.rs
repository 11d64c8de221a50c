//! The decomposition mapping loop (paper §III-A/B/C).
//!
//! Candidate evaluation — the inner loop that dominates the runtime —
//! goes through the incremental + parallel engine in [`crate::batch`];
//! [`decomposition_map_reference`] keeps the original strictly serial
//! probe loop as an executable specification that the engine is tested
//! against (identical mappings, makespans and history, bit for bit).

use std::fmt;

use spmap_decomp::{series_parallel_subgraphs, single_node_subgraphs, CutPolicy};
use spmap_graph::{NodeId, TaskGraph};
use spmap_model::{DeviceId, EvalTables, Evaluator, Mapping, Platform};
use spmap_par::DispatchStats;

use crate::batch::{BatchStats, CandidateBatch, EngineConfig};
use crate::threshold::gamma_threshold_search;

/// Which makespan the mapper minimizes (and reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostModel {
    /// Makespan under the deterministic breadth-first schedule — the
    /// optimizers' classic inner-loop cost function.
    #[default]
    Bfs,
    /// The paper's reporting metric (§IV-A): the minimum makespan over
    /// the breadth-first schedule and `schedules` seeded random
    /// topological schedules.  Each candidate evaluation is a *sweep* of
    /// `schedules + 1` simulations; the engine checkpoints and windows
    /// every schedule (docs/PERF.md).
    Report {
        /// Number of random topological schedules on top of BFS.
        schedules: usize,
        /// Base seed; schedule `i` uses `seed + i`.
        seed: u64,
    },
}

/// A typed failure of a mapper run.
///
/// The searches order candidates by improvement deltas; a NaN delta (an
/// upstream NaN or `∞ − ∞` makespan, e.g. from non-finite task
/// attributes) has no place in that order — every comparison against it
/// is silently false, so the priority queue would degrade into an
/// arbitrary scan.  Instead of mis-searching, the run aborts with this
/// error (infinite makespans are fine: `±∞` deltas order correctly and
/// are handled as "no improvement" / "always an improvement").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapperError {
    /// Candidate `op` evaluated to a NaN improvement delta.
    NanDelta {
        /// The offending operation id (`subgraph * device_count + device`).
        op: OpId,
    },
    /// The request names an algorithm family this entry point cannot
    /// execute — e.g. a [`crate::Algo::Ga`] request handed to the
    /// decomposition mapper instead of `spmap_ga::nsga2_map_request`.
    UnsupportedAlgo {
        /// The requested algorithm family.
        algo: &'static str,
    },
    /// The γ-threshold look-ahead divisor is NaN or below 1.
    InvalidGamma,
    /// The request restricts candidates to a device the platform does
    /// not have.
    UnknownDevice {
        /// The out-of-range device.
        device: DeviceId,
    },
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperError::NanDelta { op } => write!(
                f,
                "candidate operation {op} evaluated to a NaN makespan improvement \
                 (non-finite task attributes or an ∞ − ∞ makespan delta); \
                 the search order would be meaningless"
            ),
            MapperError::UnsupportedAlgo { algo } => write!(
                f,
                "algorithm family '{algo}' is not executable by this entry point \
                 (route Algo::Ga requests through spmap_ga::nsga2_map_request)"
            ),
            MapperError::InvalidGamma => write!(
                f,
                "the γ-threshold look-ahead divisor must be a number >= 1 (got NaN or less)"
            ),
            MapperError::UnknownDevice { device } => write!(
                f,
                "the device restriction names {device:?}, which the platform does not have"
            ),
        }
    }
}

impl std::error::Error for MapperError {}

/// Which candidate subgraph set to use (paper §III-B vs. §III-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubgraphStrategy {
    /// Every task alone.
    SingleNode,
    /// Single nodes plus the operations of the series-parallel
    /// decomposition forest.
    SeriesParallel {
        /// Conflict-cut policy for non-series-parallel graphs.
        cut_policy: CutPolicy,
    },
}

/// How to search the operation space in each iteration (paper §III-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SearchHeuristic {
    /// Re-evaluate every operation every iteration (the basic variant).
    Exhaustive,
    /// Priority-queue look-ahead pruned by expected improvements; `γ = 1`
    /// is the FirstFit heuristic.
    GammaThreshold {
        /// Look-ahead divisor (≥ 1).
        gamma: f64,
    },
}

impl SearchHeuristic {
    /// The paper's FirstFit heuristic (`γ = 1`).
    pub fn first_fit() -> Self {
        SearchHeuristic::GammaThreshold { gamma: 1.0 }
    }

    /// Reject a γ that is NaN or below 1 with
    /// [`MapperError::InvalidGamma`].
    pub(crate) fn validate(self) -> Result<Self, MapperError> {
        match self {
            SearchHeuristic::GammaThreshold { gamma } if gamma.is_nan() || gamma < 1.0 => {
                Err(MapperError::InvalidGamma)
            }
            h => Ok(h),
        }
    }
}

/// Full mapper configuration.
#[derive(Clone, Copy, Debug)]
pub struct MapperConfig {
    /// Candidate subgraph set.
    pub strategy: SubgraphStrategy,
    /// Per-iteration search heuristic.
    pub heuristic: SearchHeuristic,
    /// Maximum number of improvement iterations; `None` uses the paper's
    /// suggested cap of `n` (the task count).
    pub iteration_cap: Option<usize>,
    /// The makespan the search minimizes: the breadth-first schedule
    /// (default) or the paper's multi-schedule reporting metric.
    pub cost: CostModel,
    /// Candidate-engine tuning (threads, pruning, memoization).  The
    /// defaults are right for production use; benchmarks and tests use
    /// the switches for ablations.
    pub engine: EngineConfig,
}

impl MapperConfig {
    /// `SingleNode` with exhaustive search (paper's "SingleNode").
    pub fn single_node() -> Self {
        Self {
            strategy: SubgraphStrategy::SingleNode,
            heuristic: SearchHeuristic::Exhaustive,
            iteration_cap: None,
            cost: CostModel::Bfs,
            engine: EngineConfig::default(),
        }
    }

    /// This configuration with the `report_makespan` cost model:
    /// minimize the best makespan over BFS plus `schedules` random
    /// topological schedules seeded from `seed`.
    pub fn with_report_cost(mut self, schedules: usize, seed: u64) -> Self {
        self.cost = CostModel::Report { schedules, seed };
        self
    }

    /// `SeriesParallel` with exhaustive search (paper's "SeriesParallel").
    pub fn series_parallel() -> Self {
        Self {
            strategy: SubgraphStrategy::SeriesParallel {
                cut_policy: CutPolicy::default(),
            },
            heuristic: SearchHeuristic::Exhaustive,
            iteration_cap: None,
            cost: CostModel::Bfs,
            engine: EngineConfig::default(),
        }
    }

    /// Paper's "SNFirstFit".
    pub fn sn_first_fit() -> Self {
        Self {
            heuristic: SearchHeuristic::first_fit(),
            ..Self::single_node()
        }
    }

    /// Paper's "SPFirstFit".
    pub fn sp_first_fit() -> Self {
        Self {
            heuristic: SearchHeuristic::first_fit(),
            ..Self::series_parallel()
        }
    }
}

/// Result of a decomposition-mapping run.
#[derive(Clone, Debug)]
pub struct MapperResult {
    /// The final mapping.
    pub mapping: Mapping,
    /// Makespan of the final mapping under the breadth-first schedule.
    pub makespan: f64,
    /// Makespan of the all-CPU default mapping (the improvement baseline).
    pub cpu_only_makespan: f64,
    /// Number of applied improvement iterations.
    pub iterations: usize,
    /// Number of full model evaluations performed.
    pub evaluations: u64,
    /// Size of the candidate subgraph set.
    pub subgraph_count: usize,
    /// Makespan after each applied iteration (strictly decreasing).
    pub history: Vec<f64>,
    /// Candidate-engine decision counters (zero for the serial
    /// reference path).  Thread-count-invariant — pinned by the
    /// equivalence suite.
    pub batch: BatchStats,
    /// How the engine's parallel batches were dispatched (serial fast
    /// path / persistent-pool wakes; zero for the serial reference
    /// path).  Unlike [`MapperResult::batch`] these counters
    /// intentionally vary with the thread count: they price the
    /// dispatch overhead the run paid.  Covers every search path —
    /// exhaustive sweeps and the γ-threshold speculative waves both
    /// dispatch through the same engine.
    pub dispatch: DispatchStats,
    /// Largest single checkpoint trail the engine held (bytes; zero for
    /// the serial reference path, which keeps no snapshot trails).  The
    /// number `EngineConfig::checkpoint_budget_bytes` gates; purely
    /// informational for results — snapshot layout never changes bits.
    pub checkpoint_peak_bytes: u64,
}

impl MapperResult {
    /// Relative improvement over the pure-CPU mapping (≥ 0 by design).
    pub fn relative_improvement(&self) -> f64 {
        spmap_model::relative_improvement(self.cpu_only_makespan, self.makespan)
    }
}

/// Relative improvement threshold below which a candidate is not
/// considered an improvement (guards against float noise cycles).
pub(crate) const REL_EPS: f64 = 1e-9;

/// An operation index: `subgraph * device_count + device`.
pub type OpId = usize;

/// The candidate subgraph set of `strategy` on `graph`.
pub(crate) fn build_subgraphs(graph: &TaskGraph, strategy: SubgraphStrategy) -> Vec<Vec<NodeId>> {
    match strategy {
        SubgraphStrategy::SingleNode => single_node_subgraphs(graph).subgraphs().to_vec(),
        SubgraphStrategy::SeriesParallel { cut_policy } => {
            series_parallel_subgraphs(graph, cut_policy)
                .subgraphs()
                .to_vec()
        }
    }
}

/// Run decomposition-based mapping (paper §III) on `graph` over
/// `platform` through the incremental + parallel candidate engine,
/// returning the typed error instead of panicking on NaN deltas.
pub fn try_decomposition_map(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
) -> Result<MapperResult, MapperError> {
    try_decomposition_map_on(graph, platform, cfg, None)
}

/// The driver behind [`try_decomposition_map`] and
/// [`crate::map_request`]: builds the tables and the candidate subgraph
/// set, then runs [`search_subgraphs`].
pub(crate) fn try_decomposition_map_on(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
    devices: Option<&[DeviceId]>,
) -> Result<MapperResult, MapperError> {
    let tables = EvalTables::with_numbering(graph, platform, cfg.engine.numbering);
    let subgraphs = build_subgraphs(graph, cfg.strategy);
    search_subgraphs(&tables, subgraphs, cfg, devices)
}

/// Decomposition mapping on pre-built evaluation tables and a pre-built
/// candidate subgraph set ([`build_subgraphs`] of the tables' graph
/// under `cfg.strategy`), optionally restricting the candidate device
/// list (`None` = every platform device).  Restricting devices is exact
/// — an avoided device contributes no exec, link or area term — and is
/// how availability-limited requests (device loss) are executed without
/// platform surgery.  A session passes a clone of the subgraph set it
/// keeps, so a graph is decomposed once.
///
/// # Panics
///
/// If `cfg.engine.numbering` disagrees with the numbering the tables
/// were built under (see [`CandidateBatch::with_shared_tables`]).
pub(crate) fn search_subgraphs<'g>(
    tables: &'g EvalTables<'g>,
    subgraphs: Vec<Vec<NodeId>>,
    cfg: &MapperConfig,
    devices: Option<&[DeviceId]>,
) -> Result<MapperResult, MapperError> {
    let devices: Vec<DeviceId> = match devices {
        Some(ds) => ds.to_vec(),
        None => tables.platform().device_ids().collect(),
    };
    let engine =
        CandidateBatch::with_shared_tables(tables, subgraphs, devices, cfg.engine, cfg.cost);
    let ops: Vec<OpId> = (0..engine.op_count()).collect();
    drive_search(engine, cfg, &ops)
}

/// The one greedy search loop: run `cfg`'s heuristic over the
/// operations `ops` (ascending op ids) from the engine's base mapping.
/// A full map passes every op from the all-default base; a warm remap
/// passes its neighborhood from the repaired incumbent.  Decisions do
/// not depend on where the tables came from.  `cpu_only_makespan` of
/// the result is the base mapping's makespan.
pub(crate) fn drive_search(
    mut engine: CandidateBatch<'_>,
    cfg: &MapperConfig,
    ops: &[OpId],
) -> Result<MapperResult, MapperError> {
    let cpu_only = engine.current_makespan();
    let cap = cfg
        .iteration_cap
        .unwrap_or(engine.tables().graph().node_count().max(1));

    let (iterations, history) = match cfg.heuristic.validate()? {
        SearchHeuristic::Exhaustive => exhaustive_search(&mut engine, ops, cap, cfg.engine.prune)?,
        SearchHeuristic::GammaThreshold { gamma } => {
            gamma_threshold_search(&mut engine, ops, cap, gamma)?
        }
    };

    Ok(MapperResult {
        makespan: engine.current_makespan(),
        cpu_only_makespan: cpu_only,
        iterations,
        evaluations: engine.evaluations(),
        subgraph_count: engine.subgraphs().len(),
        history,
        batch: engine.stats(),
        dispatch: engine.dispatch(),
        checkpoint_peak_bytes: engine.checkpoint_peak_bytes(),
        mapping: engine.mapping().clone(),
    })
}

/// Run decomposition-based mapping (paper §III) on `graph` over
/// `platform` through the incremental + parallel candidate engine.
///
/// Panics on [`MapperError`] (NaN improvement deltas from non-finite
/// task attributes); use [`try_decomposition_map`] to handle that as a
/// value.
pub fn decomposition_map(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
) -> MapperResult {
    try_decomposition_map(graph, platform, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// The basic variant: evaluate every operation of `ops` in every
/// iteration and commit the best one (paper §III-A steps 2–4), one
/// engine batch per iteration.
fn exhaustive_search(
    engine: &mut CandidateBatch<'_>,
    ops: &[OpId],
    cap: usize,
    prune: bool,
) -> Result<(usize, Vec<f64>), MapperError> {
    let mut history = Vec::new();
    let mut iterations = 0;
    while iterations < cap {
        let deltas = engine.evaluate_ops(ops, prune);
        // Serial reduce in ascending op order: ties go to the lowest op
        // id, exactly like the serial reference — thread arrival order
        // cannot influence the choice.
        let mut best: Option<(OpId, f64)> = None;
        for (&op, &delta) in ops.iter().zip(&deltas) {
            if delta.is_nan() {
                return Err(MapperError::NanDelta { op });
            }
            if engine.improves(delta) && best.is_none_or(|(_, b)| delta > b) {
                best = Some((op, delta));
            }
        }
        match best {
            Some((op, _)) => {
                engine.commit(op);
                history.push(engine.current_makespan());
                iterations += 1;
            }
            None => break,
        }
    }
    Ok((iterations, history))
}

/// Run decomposition-based mapping through the original strictly serial
/// candidate scan, returning the typed error instead of panicking on NaN
/// deltas.  See [`decomposition_map_reference`].
pub fn try_decomposition_map_reference(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
) -> Result<MapperResult, MapperError> {
    let subgraphs = build_subgraphs(graph, cfg.strategy);
    let devices: Vec<DeviceId> = platform.device_ids().collect();
    let mut ctx = RefCtx {
        evaluator: Evaluator::new(graph, platform),
        mapping: Mapping::all_default(graph, platform),
        cur: 0.0,
        undo: Vec::with_capacity(graph.node_count()),
        cost: cfg.cost,
        subgraphs,
        devices,
    };
    ctx.cur = ctx.cost_makespan().expect("default mapping is feasible");
    let cpu_only = ctx.cur;
    let cap = cfg.iteration_cap.unwrap_or(graph.node_count().max(1));

    let (iterations, history) = match cfg.heuristic.validate()? {
        SearchHeuristic::Exhaustive => ctx.exhaustive(cap)?,
        SearchHeuristic::GammaThreshold { gamma } => ctx.gamma_threshold(cap, gamma)?,
    };

    let subgraph_count = ctx.subgraphs.len();
    Ok(MapperResult {
        makespan: ctx.cur,
        cpu_only_makespan: cpu_only,
        iterations,
        evaluations: ctx.evaluator.stats().evaluations,
        subgraph_count,
        history,
        batch: BatchStats::default(),
        dispatch: DispatchStats::default(),
        checkpoint_peak_bytes: 0,
        mapping: ctx.mapping,
    })
}

/// Run decomposition-based mapping through the original strictly serial
/// candidate scan — one probe (full simulation, or one full sweep of
/// `schedules + 1` simulations under [`CostModel::Report`]) per candidate
/// per iteration, no pruning, no memoization, no threads.
///
/// This is the executable specification the engine is verified against:
/// `decomposition_map` must produce the identical mapping, makespan and
/// history for every input (see `tests/equivalence.rs`).  It is also the
/// baseline that `perf_report` measures speedups from.
pub fn decomposition_map_reference(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
) -> MapperResult {
    try_decomposition_map_reference(graph, platform, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Shared state of one serial reference run.
struct RefCtx<'g> {
    evaluator: Evaluator<'g>,
    subgraphs: Vec<Vec<NodeId>>,
    devices: Vec<DeviceId>,
    mapping: Mapping,
    cur: f64,
    undo: Vec<(NodeId, DeviceId)>,
    cost: CostModel,
}

impl RefCtx<'_> {
    fn op_count(&self) -> usize {
        self.subgraphs.len() * self.devices.len()
    }

    /// The configured cost of the working mapping, exactly as the seed
    /// implementation computed it (`report_makespan` re-derives every
    /// random rank vector on each call).
    fn cost_makespan(&mut self) -> Option<f64> {
        match self.cost {
            CostModel::Bfs => self.evaluator.makespan_bfs(&self.mapping),
            CostModel::Report { schedules, seed } => {
                self.evaluator
                    .report_makespan(&self.mapping, schedules, seed)
            }
        }
    }

    /// Apply `op` to the working mapping, recording undo info.  Returns
    /// `false` (and records nothing) if the operation is a no-op.
    fn apply(&mut self, op: OpId) -> bool {
        let m = self.devices.len();
        let d = self.devices[op % m];
        let sub = &self.subgraphs[op / m];
        self.undo.clear();
        for &v in sub {
            let old = self.mapping.device(v);
            if old != d {
                self.undo.push((v, old));
                self.mapping.set(v, d);
            }
        }
        !self.undo.is_empty()
    }

    fn revert(&mut self) {
        for &(v, d) in self.undo.iter().rev() {
            self.mapping.set(v, d);
        }
        self.undo.clear();
    }

    /// Evaluate the improvement of `op` against the current makespan and
    /// revert.  Returns `NEG_INFINITY` for no-ops and infeasible mappings.
    fn probe(&mut self, op: OpId) -> f64 {
        if !self.apply(op) {
            return f64::NEG_INFINITY;
        }
        let delta = match self.cost_makespan() {
            Some(ms) => self.cur - ms,
            None => f64::NEG_INFINITY,
        };
        self.revert();
        delta
    }

    /// Apply `op` permanently and update the current makespan.
    fn commit(&mut self, op: OpId) {
        let changed = self.apply(op);
        debug_assert!(changed, "committing a no-op");
        self.undo.clear();
        self.cur = self
            .cost_makespan()
            .expect("committed operations are feasible");
    }

    fn improves(&self, delta: f64) -> bool {
        delta > self.cur * REL_EPS
    }

    fn exhaustive(&mut self, cap: usize) -> Result<(usize, Vec<f64>), MapperError> {
        let mut history = Vec::new();
        let mut iterations = 0;
        while iterations < cap {
            let mut best: Option<(OpId, f64)> = None;
            for op in 0..self.op_count() {
                let delta = self.probe(op);
                if delta.is_nan() {
                    return Err(MapperError::NanDelta { op });
                }
                if self.improves(delta) && best.is_none_or(|(_, b)| delta > b) {
                    best = Some((op, delta));
                }
            }
            match best {
                Some((op, _)) => {
                    self.commit(op);
                    history.push(self.cur);
                    iterations += 1;
                }
                None => break,
            }
        }
        Ok((iterations, history))
    }

    /// The original serial γ-threshold search (see `crate::threshold` for
    /// the algorithm description; the engine version replays exactly this
    /// decision sequence).
    fn gamma_threshold(
        &mut self,
        cap: usize,
        gamma: f64,
    ) -> Result<(usize, Vec<f64>), MapperError> {
        use crate::threshold::Key;
        use std::collections::BinaryHeap;

        let op_count = self.op_count();
        let mut expected = vec![f64::INFINITY; op_count];
        let mut evaluated = vec![false; op_count];
        let mut history = Vec::new();
        let mut iterations = 0;

        while iterations < cap {
            let mut heap: BinaryHeap<(Key, OpId)> = BinaryHeap::with_capacity(op_count);
            for (op, &exp) in expected.iter().enumerate() {
                heap.push((Key::new(exp).map_err(|_| MapperError::NanDelta { op })?, op));
            }
            evaluated.iter_mut().for_each(|e| *e = false);
            let mut found: Option<(OpId, f64)> = None;

            while let Some((key, op)) = heap.pop() {
                let exp = key.get();
                if evaluated[op] {
                    continue;
                }
                if let Some((_, delta)) = found {
                    if exp <= delta / gamma {
                        break;
                    }
                }
                evaluated[op] = true;
                let delta = self.probe(op);
                if delta.is_nan() {
                    return Err(MapperError::NanDelta { op });
                }
                expected[op] = delta;
                if self.improves(delta) && found.is_none_or(|(_, best)| delta > best) {
                    found = Some((op, delta));
                }
            }

            match found {
                Some((op, _)) => {
                    self.commit(op);
                    history.push(self.cur);
                    iterations += 1;
                }
                None => break,
            }
        }
        Ok((iterations, history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{chain, fork_join, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, Task};
    use spmap_model::relative_improvement;

    const CPU: DeviceId = DeviceId(0);
    const GPU: DeviceId = DeviceId(1);
    const FPGA: DeviceId = DeviceId(2);

    /// A chain whose interior profits from FPGA streaming but where a
    /// *single* task offload loses to the transfer cost: the scenario of
    /// paper §III-B's local-minimum discussion.
    fn streaming_chain() -> TaskGraph {
        let mut g = chain(6, 1e9);
        for v in 0..6 {
            let t = g.task_mut(NodeId(v));
            *t = Task {
                name: format!("t{v}"),
                complexity: 20.0,
                data_points: 1.25e8,
                parallelizability: 0.0,
                streamability: 7.0,
                area: 120.0,
            };
        }
        g
    }

    #[test]
    fn single_node_gets_stuck_in_local_minimum() {
        let g = streaming_chain();
        let p = Platform::reference();
        let r = decomposition_map(&g, &p, &MapperConfig::single_node());
        // Every single-task move costs more in transfers than it saves.
        assert_eq!(r.iterations, 0, "single-node must find no improvement");
        assert_eq!(r.relative_improvement(), 0.0);
        assert_eq!(r.makespan, r.cpu_only_makespan);
    }

    #[test]
    fn series_parallel_escapes_via_chain_move() {
        let g = streaming_chain();
        let p = Platform::reference();
        let r = decomposition_map(&g, &p, &MapperConfig::series_parallel());
        assert!(
            r.relative_improvement() > 0.25,
            "chain offload must be a large win, got {}",
            r.relative_improvement()
        );
        // The interior of the chain moved to the FPGA.  (The endpoints may
        // follow in later single-node iterations: once the interior
        // streams, joining the stream is free transfer-wise.)
        for v in 1..5 {
            assert_eq!(r.mapping.device(NodeId(v)), FPGA, "task {v}");
        }
        let _ = CPU;
    }

    #[test]
    fn gpu_wins_perfectly_parallel_independent_tasks() {
        let mut g = fork_join(4, 1e6);
        for v in 0..6 {
            let t = g.task_mut(NodeId(v));
            t.complexity = 20.0;
            t.data_points = 1.25e8;
            t.parallelizability = 1.0;
            t.streamability = 1.0;
            t.area = 160.0;
        }
        let p = Platform::reference();
        let r = decomposition_map(&g, &p, &MapperConfig::single_node());
        assert!(r.relative_improvement() > 0.1);
        // At least one middle task lands on the GPU.
        let on_gpu = (1..5)
            .filter(|&v| r.mapping.device(NodeId(v)) == GPU)
            .count();
        assert!(
            on_gpu >= 1,
            "expected GPU offload, mapping: {:?}",
            r.mapping
        );
    }

    #[test]
    fn never_worse_than_cpu_only_and_always_feasible() {
        let p = Platform::reference();
        for seed in 0..8 {
            let mut g = random_sp_graph(&SpGenConfig::new(30, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            for cfg in [
                MapperConfig::single_node(),
                MapperConfig::series_parallel(),
                MapperConfig::sn_first_fit(),
                MapperConfig::sp_first_fit(),
            ] {
                let r = decomposition_map(&g, &p, &cfg);
                assert!(
                    r.makespan <= r.cpu_only_makespan * (1.0 + 1e-9),
                    "worse than baseline (seed {seed}, {cfg:?})"
                );
                assert!(r.mapping.is_area_feasible(&g, &p));
                // History strictly decreasing.
                let mut prev = r.cpu_only_makespan;
                for &h in &r.history {
                    assert!(h < prev, "history not decreasing");
                    prev = h;
                }
                assert_eq!(r.history.len(), r.iterations);
            }
        }
    }

    #[test]
    fn first_fit_matches_exhaustive_quality_with_fewer_evals() {
        let p = Platform::reference();
        let mut worse = 0;
        let mut eval_savings = 0i64;
        for seed in 20..28 {
            let mut g = random_sp_graph(&SpGenConfig::new(40, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            // Compare candidate *decisions* (work per heuristic), not raw
            // simulations: pruning shrinks both sides' simulation counts.
            let ex = decomposition_map(&g, &p, &MapperConfig::series_parallel());
            let ff = decomposition_map(&g, &p, &MapperConfig::sp_first_fit());
            let ex_imp = relative_improvement(ex.cpu_only_makespan, ex.makespan);
            let ff_imp = relative_improvement(ff.cpu_only_makespan, ff.makespan);
            if ff_imp < ex_imp - 0.05 {
                worse += 1;
            }
            eval_savings += ex.batch.total() as i64 - ff.batch.total() as i64;
        }
        assert!(worse <= 2, "FirstFit quality collapsed on {worse}/8 graphs");
        assert!(
            eval_savings > 0,
            "FirstFit must save evaluations overall (saved {eval_savings})"
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let mut g = random_sp_graph(&SpGenConfig::new(40, 2));
        augment(&mut g, &AugmentConfig::default(), 2);
        let p = Platform::reference();
        let cfg = MapperConfig {
            iteration_cap: Some(2),
            ..MapperConfig::single_node()
        };
        let r = decomposition_map(&g, &p, &cfg);
        assert!(r.iterations <= 2);
    }

    #[test]
    fn deterministic() {
        let mut g = random_sp_graph(&SpGenConfig::new(35, 6));
        augment(&mut g, &AugmentConfig::default(), 6);
        let p = Platform::reference();
        for cfg in [
            MapperConfig::series_parallel(),
            MapperConfig::sp_first_fit(),
        ] {
            let a = decomposition_map(&g, &p, &cfg);
            let b = decomposition_map(&g, &p, &cfg);
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.batch, b.batch);
        }
    }

    #[test]
    fn cpu_only_platform_yields_no_ops() {
        let mut g = random_sp_graph(&SpGenConfig::new(20, 1));
        augment(&mut g, &AugmentConfig::default(), 1);
        let p = Platform::cpu_only();
        let r = decomposition_map(&g, &p, &MapperConfig::series_parallel());
        assert_eq!(r.iterations, 0);
        assert_eq!(r.mapping, Mapping::all_default(&g, &p));
    }

    #[test]
    fn gamma_above_one_explores_at_least_first_fit() {
        let mut g = random_sp_graph(&SpGenConfig::new(40, 9));
        augment(&mut g, &AugmentConfig::default(), 9);
        let p = Platform::reference();
        let ff = decomposition_map(&g, &p, &MapperConfig::sp_first_fit());
        let gamma2 = decomposition_map(
            &g,
            &p,
            &MapperConfig {
                heuristic: SearchHeuristic::GammaThreshold { gamma: 2.0 },
                ..MapperConfig::series_parallel()
            },
        );
        assert!(gamma2.batch.total() >= ff.batch.total());
        assert!(gamma2.makespan <= ff.makespan * (1.0 + 1e-6) || gamma2.makespan <= ff.makespan);
    }

    #[test]
    fn report_mode_engine_matches_reference() {
        // Same headline guarantee under the report_makespan cost model:
        // engine and serial reference agree bit for bit on the final
        // mapping, the *report* makespan and the history.
        let p = Platform::reference();
        for seed in [1u64, 7] {
            let mut g = random_sp_graph(&SpGenConfig::new(25, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            for base in [
                MapperConfig::series_parallel(),
                MapperConfig::sp_first_fit(),
            ] {
                let cfg = base.with_report_cost(3, 42);
                let engine_cfg = MapperConfig {
                    engine: EngineConfig {
                        threads: Some(4),
                        ..EngineConfig::default()
                    },
                    ..cfg
                };
                let fast = decomposition_map(&g, &p, &engine_cfg);
                let slow = decomposition_map_reference(&g, &p, &cfg);
                assert_eq!(fast.mapping, slow.mapping, "seed {seed}");
                assert_eq!(fast.makespan, slow.makespan, "seed {seed}");
                assert_eq!(fast.history, slow.history, "seed {seed}");
                assert_eq!(fast.cpu_only_makespan, slow.cpu_only_makespan);
            }
        }
    }

    #[test]
    fn report_mode_result_is_the_report_metric_of_the_final_mapping() {
        // The `makespan` field of a report-mode run must be exactly the
        // paper's reporting metric of the returned mapping (bitwise),
        // and — min over a superset of schedules — it can never exceed
        // the BFS makespan of that same mapping.  Likewise the baseline:
        // the report metric of the all-CPU mapping never exceeds its
        // BFS makespan.
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(30, 4));
        augment(&mut g, &AugmentConfig::default(), 4);
        let (k, seed) = (4usize, 11u64);
        let rep = decomposition_map(
            &g,
            &p,
            &MapperConfig::series_parallel().with_report_cost(k, seed),
        );
        let mut ev = Evaluator::new(&g, &p);
        assert_eq!(
            ev.report_makespan(&rep.mapping, k, seed),
            Some(rep.makespan),
            "result field must be the report metric of the final mapping"
        );
        let bfs_of_final = ev.makespan_bfs(&rep.mapping).unwrap();
        assert!(
            rep.makespan <= bfs_of_final,
            "min over a schedule superset: {} > {}",
            rep.makespan,
            bfs_of_final
        );
        let bfs = decomposition_map(&g, &p, &MapperConfig::series_parallel());
        assert!(
            rep.cpu_only_makespan <= bfs.cpu_only_makespan,
            "report baseline must not exceed the BFS baseline"
        );
    }

    /// A graph whose every execution time is ∞ produces an ∞ baseline
    /// makespan and ∞ candidate makespans, so every improvement delta is
    /// `∞ − ∞ = NaN` — the regression scenario for the Key-ordering
    /// audit.  All search paths must surface the typed error instead of
    /// silently mis-searching (or panicking deep in a heap).
    fn nan_graph() -> TaskGraph {
        let mut g = fork_join(3, 1e6);
        for v in 0..g.node_count() {
            let t = g.task_mut(NodeId(v as u32));
            t.complexity = f64::INFINITY;
            t.data_points = 1e7;
            t.parallelizability = 0.5;
            t.streamability = 1.0;
            t.area = 10.0;
        }
        g
    }

    #[test]
    fn nan_deltas_surface_as_typed_errors_not_misordering() {
        let g = nan_graph();
        let p = Platform::reference();
        for cfg in [
            MapperConfig::single_node(),
            MapperConfig::sn_first_fit(),
            MapperConfig {
                heuristic: SearchHeuristic::GammaThreshold { gamma: 2.0 },
                ..MapperConfig::single_node()
            },
        ] {
            let err = try_decomposition_map(&g, &p, &cfg)
                .expect_err("NaN deltas must be a typed error (engine path)");
            assert!(matches!(err, MapperError::NanDelta { .. }), "{err}");
            // The error is descriptive and displayable.
            assert!(err.to_string().contains("NaN"));
            let err = try_decomposition_map_reference(&g, &p, &cfg)
                .expect_err("NaN deltas must be a typed error (reference path)");
            assert!(matches!(err, MapperError::NanDelta { .. }), "{err}");
        }
    }

    #[test]
    fn finite_runs_report_no_error() {
        let mut g = random_sp_graph(&SpGenConfig::new(20, 3));
        augment(&mut g, &AugmentConfig::default(), 3);
        let p = Platform::reference();
        assert!(try_decomposition_map(&g, &p, &MapperConfig::sp_first_fit()).is_ok());
        assert!(try_decomposition_map_reference(&g, &p, &MapperConfig::series_parallel()).is_ok());
    }

    #[test]
    fn engine_matches_reference_on_all_heuristics() {
        // The headline guarantee, in miniature (the full randomized
        // version lives in tests/equivalence.rs): engine and serial
        // reference agree bit for bit on mapping, makespan and history.
        let p = Platform::reference();
        for seed in [0, 3, 14] {
            let mut g = random_sp_graph(&SpGenConfig::new(30, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            for cfg in [
                MapperConfig::series_parallel(),
                MapperConfig::single_node(),
                MapperConfig::sp_first_fit(),
                MapperConfig {
                    heuristic: SearchHeuristic::GammaThreshold { gamma: 3.0 },
                    ..MapperConfig::series_parallel()
                },
            ] {
                let engine_cfg = MapperConfig {
                    engine: EngineConfig {
                        threads: Some(4),
                        ..EngineConfig::default()
                    },
                    ..cfg
                };
                let fast = decomposition_map(&g, &p, &engine_cfg);
                let slow = decomposition_map_reference(&g, &p, &cfg);
                assert_eq!(fast.mapping, slow.mapping, "seed {seed} {cfg:?}");
                assert_eq!(fast.makespan, slow.makespan, "seed {seed} {cfg:?}");
                assert_eq!(fast.history, slow.history, "seed {seed} {cfg:?}");
                assert_eq!(fast.iterations, slow.iterations);
            }
        }
    }
}
