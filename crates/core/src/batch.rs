//! The incremental + parallel candidate evaluation engine.
//!
//! Both search heuristics of the decomposition mapper spend essentially
//! all of their time evaluating candidate operations "map subgraph `S` to
//! device `d`" against the full model-based evaluator.  The seed
//! implementation ran one strictly serial `O((V+E) log V)` simulation per
//! candidate per iteration.  [`CandidateBatch`] replaces that inner loop
//! with three stacked optimizations, none of which changes any result
//! (see `docs/PERF.md` for the exactness arguments):
//!
//! 1. **Memoization by mapping content.**  The evaluator is a pure
//!    function of the full mapping, so makespans are memoized under the
//!    mapping's Zobrist fingerprint (`spmap_model::MappingFingerprint`),
//!    maintained in `O(k)` per candidate with `k` remapped tasks.  A memo
//!    entry can never go stale — keying by content is the sound
//!    refinement of "invalidate when an applied move intersects the
//!    candidate's region": after a committed move, a candidate hits
//!    exactly when its resulting full mapping was already evaluated
//!    (e.g. every device-variant and every enclosing subgraph of the
//!    committed operation).
//! 2. **Exact lower-bound pruning.**  A candidate is skipped without
//!    simulation when a cheap lower bound on its resulting makespan
//!    already proves it cannot *strictly* beat the incumbent improvement
//!    (or the improvement threshold).  The bound combines per-device
//!    serialization loads, per-link transfer loads and single-task spans
//!    — base aggregates that the first pruned sweep on each base mapping
//!    builds, adjusted in `O(k)` per candidate — and is deflated by a
//!    relative safety margin so float drift can never flip a true
//!    improvement into a prune.  Ties are therefore never pruned, and the serial
//!    first-lowest-index tie-break is preserved bit for bit.
//! 3. **Parallel simulation.**  Candidates that survive 1–2 are simulated
//!    in fixed-size chunks through `spmap_par::par_map_with`, one
//!    reusable [`spmap_model::EvalScratch`] (plus a device copy of the
//!    base mapping in the tables' internal numbering, patched per
//!    candidate) per worker against a shared immutable
//!    [`spmap_model::EvalTables`].
//!    Results are reduced serially in candidate-index order, so thread
//!    arrival order can never influence a tie-break, and
//!    `SPMAP_THREADS=1` degenerates to the serial fast path with zero
//!    thread spawns.
//!
//! All three layers generalize to the paper's *reporting metric*
//! (`CostModel::Report`): a candidate is then scored by the minimum
//! makespan over a fixed set of schedules (BFS + `k` seeded random
//! topological orders, [`spmap_model::ReportSchedules`]).  Each schedule
//! keeps its own base-mapping checkpoint trail
//! ([`spmap_model::CheckpointSet`]) so every schedule of a candidate's
//! sweep is windowed from its own earliest affected position; schedules
//! of one candidate run under a *running* cutoff (`min(incumbent
//! cutoff, best schedule so far)` — an aborted schedule provably cannot
//! be the reported minimum); and completed per-schedule makespans are
//! memoized under `(fingerprint, schedule)` so partially-swept mappings
//! resume where they left off.  The BFS cost model is simply the
//! single-schedule instance of the same path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use spmap_graph::{NodeId, TaskGraph};
use spmap_model::{
    CheckpointSet, DeviceId, EvalScratch, EvalTables, Mapping, MappingFingerprint, Numbering,
    Platform, ReportSchedules, WindowSim,
};
use spmap_par::{par_map_with_threads, DispatchStats, WorkerStates};

use crate::mapper::{CostModel, OpId, REL_EPS};

/// Schedule-set size cap: candidates track their unresolved schedules in
/// a `u64` bitmask, so at most 63 random schedules ride on top of BFS.
/// Far beyond the paper's `k` (§IV-A uses a handful).
pub const MAX_SCHEDULES: usize = 64;

/// Relative safety margin by which candidate lower bounds are deflated
/// before they may prune: the incremental load bookkeeping performs a
/// handful of f64 adds per candidate (error ~1e-15 relative), so 1e-9
/// guarantees a bound can never exceed the true makespan's neighborhood
/// and flip a tie or a true improvement into a prune.
const BOUND_SLACK: f64 = 1e-9;

/// Default memo capacity: generous (a million entries is ~50 MB per memo)
/// but bounded, so multi-hour sweep runs on huge graphs cannot grow the
/// memos without limit.  `0` disables eviction entirely.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

/// The hasher of every map keyed by a mapping fingerprint: the memos
/// below and the population engine's trail-cache and batch-dedup maps.
///
/// Fingerprints are already SplitMix-mixed 128-bit values, so SipHash
/// over them buys nothing; this folds each written word into one `u64`
/// with a multiply (so a trailing schedule index still spreads over the
/// high bits the table probes with).  The keys are Zobrist fingerprints
/// of mappings, not bytes received from outside the process, so giving
/// up SipHash's protection against crafted collisions costs nothing
/// here.  The hasher is fixed and seed-free, which
/// makes the maps' iteration order a function of their contents — but
/// no decision depends on that order: memo eviction selects by access
/// stamp (docs/DETERMINISM.md, invariant 5).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(29) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64 ^ (x >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` of [`FingerprintHasher`].
pub(crate) type FingerprintHash = BuildHasherDefault<FingerprintHasher>;

/// A makespan memo with access-generation-stamped LRU eviction.
///
/// Every read and write stamps the entry with a monotonically increasing
/// access generation.  When an insert pushes the map past `capacity`, the
/// oldest half of the entries (by stamp) is evicted in one batch —
/// amortized `O(1)` bookkeeping per insert, and the map never exceeds
/// `capacity` entries.  Eviction can never change a result: memo entries
/// are pure values (the makespan of a mapping content), so losing one
/// merely costs a re-simulation.  All reads and writes happen on the
/// serial reduce path, so the stamp sequence — and with it the eviction
/// pattern — is deterministic and thread-invariant.
#[derive(Clone, Debug)]
pub(crate) struct BoundedMemo<K> {
    map: HashMap<K, (f64, u64), FingerprintHash>,
    clock: u64,
    capacity: usize,
    evictions: u64,
    peak: usize,
}

impl<K: std::hash::Hash + Eq + Copy> BoundedMemo<K> {
    /// An empty memo holding at most `capacity` entries (`0` = unbounded).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::default(),
            clock: 0,
            capacity,
            evictions: 0,
            peak: 0,
        }
    }

    /// Look up `k`, refreshing its LRU stamp on a hit.
    pub(crate) fn get(&mut self, k: &K) -> Option<f64> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(k).map(|e| {
            e.1 = clock;
            e.0
        })
    }

    /// Insert (or refresh) `k -> v`.  When a new key would push the map
    /// past `capacity`, the oldest half of the entries is evicted first,
    /// so the map never exceeds `capacity` — not even transiently.
    pub(crate) fn insert(&mut self, k: K, v: f64) {
        self.clock += 1;
        if self.capacity != 0 && self.map.len() >= self.capacity && !self.map.contains_key(&k) {
            self.evict();
        }
        self.map.insert(k, (v, self.clock));
        if self.map.len() > self.peak {
            self.peak = self.map.len();
        }
        // The "never exceeds capacity, not even transiently" contract
        // above (docs/DETERMINISM.md).
        #[cfg(feature = "strict-invariants")]
        assert!(
            self.capacity == 0 || self.map.len() <= self.capacity,
            "strict-invariants: memo grew past its capacity ({} > {})",
            self.map.len(),
            self.capacity
        );
    }

    /// Drop the oldest entries so a new insert still fits: only the
    /// newest `capacity / 2` (at most `capacity - 1`) survive.  Stamps
    /// are unique (the clock increments on every touch), so the cutoff
    /// is exact and deterministic.
    fn evict(&mut self) {
        let keep = (self.capacity / 2).min(self.capacity - 1);
        let drop = self.map.len() - keep;
        // lint:allow(no-unordered-iteration): collecting stamps to select an exact cutoff — any visit order yields the same multiset, and stamps are unique.
        let mut stamps: Vec<u64> = self.map.values().map(|&(_, s)| s).collect();
        // Stamp uniqueness is what makes the eviction cutoff exact and
        // iteration-order-independent; a duplicate would make the set of
        // survivors depend on hash order (docs/DETERMINISM.md).
        #[cfg(feature = "strict-invariants")]
        {
            let mut sorted = stamps.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                n,
                "strict-invariants: duplicate LRU stamps in memo eviction"
            );
        }
        let (_, &mut cutoff, _) = stamps.select_nth_unstable(drop - 1);
        // lint:allow(no-unordered-iteration): retain by a pure per-entry stamp predicate — the surviving set is order-independent.
        self.map.retain(|_, &mut (_, s)| s > cutoff);
        debug_assert_eq!(self.map.len(), keep);
        self.evictions += drop as u64;
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Total entries evicted over this memo's lifetime.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Largest entry count ever held (≤ capacity when one is set).
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

/// Tuning knobs of the candidate engine.  The defaults are what
/// `decomposition_map` uses; the ablation switches exist for benchmarks
/// and tests (e.g. the equivalence suite runs all 2×2 combinations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count; `None` reads `SPMAP_THREADS` / the machine
    /// parallelism via `spmap_par::num_threads`.
    pub threads: Option<usize>,
    /// Candidates simulated per parallel dispatch.  Fixed (not derived
    /// from the thread count) so the exhaustive path's set of simulated
    /// candidates — and with it every statistic — is identical for any
    /// worker count.  (The γ-threshold search's *speculation wave* does
    /// scale with the worker count, so its counters are only
    /// reproducible for a fixed thread configuration; results are
    /// always identical.)
    pub chunk_size: usize,
    /// Enable exact lower-bound pruning.
    pub prune: bool,
    /// Enable content-keyed memoization.
    pub memo: bool,
    /// Entry cap for each of the two memos (the full-mapping memo and the
    /// `(fingerprint, schedule)` memo), enforced by generation-stamped
    /// LRU eviction; `0` = unbounded.  Eviction only ever costs
    /// re-simulation — it cannot change any result.
    pub memo_capacity: usize,
    /// Node numbering of the evaluation tables' per-node arrays.  A pure
    /// layout choice — results are bit-identical either way; the
    /// pop-order default keeps the simulation kernel near-sequential at
    /// 10k–100k nodes (see docs/PERF.md "Scale tier").
    pub numbering: Numbering,
    /// Pin every checkpoint store to the dense snapshot layout even when
    /// the numbering would allow suffix-sparse snapshots (ablation /
    /// bit-identity test cells; dense costs ~2× the snapshot bytes).
    pub dense_checkpoints: bool,
    /// Per-trail checkpoint byte budget: the snapshot interval widens
    /// until one schedule's snapshot trail fits (`0` = the 32 MiB
    /// default, [`spmap_model::DEFAULT_CHECKPOINT_BUDGET_BYTES`]).
    /// Purely a memory/replay-length trade — never affects results.
    pub checkpoint_budget_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: None,
            chunk_size: 64,
            prune: true,
            memo: true,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            numbering: Numbering::default(),
            dense_checkpoints: false,
            checkpoint_budget_bytes: 0,
        }
    }
}

impl EngineConfig {
    /// Effective worker count (see [`resolve_threads`]).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// The worker count of an engine configured with `threads`.  An
/// explicit `Some(n)` is honored verbatim (tests rely on really getting
/// `n` workers); only the `None` default is capped at the machine's
/// parallelism, because simulation is CPU-bound and oversubscribed
/// workers only add scheduling overhead.  Shared by the mapper engine
/// and the population engine.
pub(crate) fn resolve_threads(threads: Option<usize>) -> usize {
    match threads {
        Some(n) => n.max(1),
        None => spmap_par::num_threads().clamp(1, spmap_par::machine_parallelism()),
    }
}

/// Where the engine's candidate verdicts came from, accumulated over a
/// whole mapper run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Candidates settled by a full list-schedule simulation.
    pub simulated: u64,
    /// Candidates settled by a memoized makespan (no simulation).
    pub memo_hits: u64,
    /// Candidates skipped because their lower bound proved they cannot
    /// win the iteration.
    pub pruned: u64,
    /// Candidate simulations aborted mid-run by the makespan cutoff
    /// (`finish + up_min > cutoff`): strictly worse than the incumbent,
    /// proven before the schedule completed.
    pub aborted: u64,
    /// Candidates skipped without simulation as no-ops or FPGA-area
    /// infeasible (decided by incremental bookkeeping alone).
    pub trivial: u64,
    /// Individual schedule re-simulations run to completion (one
    /// candidate is a sweep of up to `schedules + 1` of these in
    /// `report_makespan` mode; exactly one in BFS mode).
    pub sched_simulated: u64,
    /// Individual schedule re-simulations aborted by the per-candidate
    /// *running* cutoff (`min(incumbent cutoff, best schedule so far)`).
    pub sched_aborted: u64,
    /// Schedule makespans answered by the `(fingerprint, schedule)` memo
    /// without re-simulation.
    pub sched_memo_hits: u64,
    /// Entries dropped from the full-mapping memo by LRU eviction.
    pub memo_evictions: u64,
    /// Entries dropped from the `(fingerprint, schedule)` memo by LRU
    /// eviction.
    pub sched_memo_evictions: u64,
    /// Largest entry count the full-mapping memo ever held (stays at or
    /// below `EngineConfig::memo_capacity` when a capacity is set).
    pub memo_peak: u64,
    /// Largest entry count the `(fingerprint, schedule)` memo ever held.
    pub sched_memo_peak: u64,
}

impl BatchStats {
    /// All candidate decisions made.
    pub fn total(&self) -> u64 {
        self.simulated + self.memo_hits + self.pruned + self.aborted + self.trivial
    }

    /// Fraction of non-trivial candidates answered from the memo.
    pub fn memo_hit_rate(&self) -> f64 {
        let denom = self.simulated + self.memo_hits;
        if denom == 0 {
            0.0
        } else {
            self.memo_hits as f64 / denom as f64
        }
    }
}

/// Per-worker state: an evaluation scratch plus a private copy of the
/// engine's base mapping in the tables' internal numbering — the device
/// view the window kernel replays against.  The copy is re-gathered once
/// per base generation and patched per candidate through the undo log,
/// so no window pays a mapping gather.
struct Worker {
    scratch: EvalScratch,
    /// `devices[v_int]`: the base mapping (plus the current candidate's
    /// moves while it is simulated), internal numbering.
    devices: Vec<DeviceId>,
    /// `(node, its base device)` of every node the current candidate
    /// moved (external ids).
    undo: Vec<(NodeId, DeviceId)>,
    generation: u64,
}

impl Worker {
    /// Bring the device copy up to base `generation` if it is stale.
    #[inline]
    fn sync(&mut self, tables: &EvalTables<'_>, base: &Mapping, generation: u64) {
        if self.generation != generation {
            tables.gather_internal(base, &mut self.devices);
            self.generation = generation;
        }
    }

    /// Move node `v` to device `d`, logging its base device for
    /// [`Self::revert`] (a no-op when `v` already sits on `d`).
    #[inline]
    fn apply(&mut self, tables: &EvalTables<'_>, v: NodeId, d: DeviceId) {
        let slot = &mut self.devices[tables.internal_index(v)];
        if *slot != d {
            self.undo.push((v, *slot));
            *slot = d;
        }
    }

    /// Restore every node the current candidate moved.
    #[inline]
    fn revert(&mut self, tables: &EvalTables<'_>) {
        for &(v, old) in self.undo.iter().rev() {
            self.devices[tables.internal_index(v)] = old;
        }
        self.undo.clear();
    }
}

/// A candidate evaluation awaiting simulation.
struct Pending {
    /// Position in the caller's op slice (for writing the delta back).
    slot: usize,
    op: OpId,
    /// The op's subgraph index and device, split once by `evaluate_ops`.
    sub: usize,
    dev: DeviceId,
    fp: u128,
    /// Upper bound on the achievable improvement (`+inf` when pruning is
    /// off).
    bound: f64,
    /// Ordering key: the candidate's improvement when last evaluated
    /// (best-first scanning raises the incumbent — and with it the
    /// cutoff — as early as possible).
    expected: f64,
    /// Bitmask of schedules still needing a window simulation (bit `s` =
    /// schedule `s`); schedules answered by the `(fp, schedule)` memo
    /// are cleared.
    mask: u64,
    /// Minimum over the memo-answered schedules (`+inf` if none): the
    /// starting value of the candidate's running best.
    best_known: f64,
}

/// Worker-side outcome of one candidate's multi-schedule sweep.
struct CandidateSim {
    /// `min(best_known, completed schedule makespans)` — the candidate's
    /// exact report makespan whenever `aborted == 0` or the value is at
    /// or below the incumbent cutoff (see `evaluate_ops`).
    best: f64,
    /// Number of schedule simulations that ran to completion.
    completed: u32,
    /// `(schedule, makespan)` of the completed schedules, destined for
    /// the `(fp, schedule)` memo.  Populated only when banking is on
    /// (memoization enabled *and* more than one schedule); an empty
    /// `Vec` never allocates, so the single-schedule BFS hot path stays
    /// allocation-free per candidate.
    banked: Vec<(u32, f64)>,
    /// Schedule simulations aborted by the running cutoff.
    aborted: u32,
}

/// Where a [`CandidateBatch`]'s evaluation tables come from: built for
/// this run (the classic path) or borrowed from a shared, pre-built
/// artifact (the service path, where repeat graphs skip table
/// construction entirely).  `Deref` makes the two indistinguishable to
/// the engine — every `self.tables.…` site reads through it.
// One instance lives per engine (never in collections), so the size
// spread between the owned tables and the borrow is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum TablesSource<'g> {
    /// Tables built by and owned by this engine.
    Owned(EvalTables<'g>),
    /// Tables shared from a longer-lived owner (e.g. a session's
    /// `EvalArtifact`).  Immutable, so sharing cannot perturb results.
    Shared(&'g EvalTables<'g>),
}

impl<'g> std::ops::Deref for TablesSource<'g> {
    type Target = EvalTables<'g>;

    #[inline]
    fn deref(&self) -> &EvalTables<'g> {
        match self {
            TablesSource::Owned(t) => t,
            TablesSource::Shared(t) => t,
        }
    }
}

/// The candidate evaluation engine of one mapper run: shared immutable
/// [`EvalTables`], the current mapping with its fingerprint and load
/// aggregates, the makespan memo, and one worker state per thread.
pub struct CandidateBatch<'g> {
    tables: TablesSource<'g>,
    /// Shared with the session that built it, so a warm remap does not
    /// copy the set.
    subgraphs: Arc<[Vec<NodeId>]>,
    devices: Vec<DeviceId>,
    cfg: EngineConfig,
    threads: usize,
    workers: WorkerStates<Worker>,
    mapping: Mapping,
    fingerprint: MappingFingerprint,
    generation: u64,
    /// Current (best committed) makespan under the configured cost model
    /// (BFS, or min over the report schedules).
    cur: f64,
    /// Exact cost-model makespans keyed by mapping fingerprint, bounded
    /// by `EngineConfig::memo_capacity` via LRU eviction.
    memo: BoundedMemo<u128>,
    /// The fixed schedule set the cost model sweeps: `[BFS]` in BFS mode,
    /// `[BFS, k random topological orders]` in `report_makespan` mode.
    schedules: ReportSchedules,
    /// Exact *per-schedule* makespans keyed by `(fingerprint, schedule)`
    /// — a candidate aborted under the running cutoff still banks every
    /// schedule value it did complete.  Unused (empty) with a single
    /// schedule, where `memo` already is the schedule-0 memo.  Bounded by
    /// `EngineConfig::memo_capacity` via LRU eviction.
    sched_memo: BoundedMemo<(u128, u32)>,
    /// Per-schedule makespans of the current base mapping.
    base_sched: Vec<f64>,
    /// Per FPGA device: mapped area of the base (0 for others); rebuilt
    /// on every base change, since every candidate's area check reads it.
    area_used: Vec<f64>,
    // --- prune aggregates of the base mapping, read only by
    // `candidate_lower_bound` and so rebuilt only by a pruned sweep ---
    /// The base `generation` the prune aggregates below describe (`0` =
    /// never built).  An unpruned search (FirstFit) never builds them.
    aggregates_generation: u64,
    /// Per *temporal* device: sum of mapped execution times (0 for FPGAs).
    dev_load: Vec<f64>,
    /// Per directed link `from*m+to`: sum of crossing transfer times.
    link_load: Vec<f64>,
    /// Static bound: `max_v min_d exec(v, d)` — some task must run.
    max_min_exec: f64,
    /// Critical-path scores of the base mapping, sorted descending:
    /// `(path_floor(v) + span(v, base device), v)`.  The best score whose
    /// node is *outside* a candidate's region is a sound path bound that
    /// survives the candidate unchanged.
    path_scores: Vec<(f64, u32)>,
    /// Base state snapshots, one store per schedule (rebuilt on every
    /// commit), for windowed candidate re-simulation under any schedule.
    checkpoints: CheckpointSet,
    /// Per-op improvement when last evaluated (`+inf` before the first
    /// evaluation) — the best-first scan order of `evaluate_ops`.
    expected: Vec<f64>,
    /// Region membership stamps for O(1) "is node in candidate" tests.
    mark: Vec<u64>,
    /// Target device of each node stamped in the current candidate
    /// region (valid only where `mark[v] == mark_gen`): the op's
    /// device.
    target: Vec<DeviceId>,
    mark_gen: u64,
    /// The candidates of the current sweep awaiting simulation; kept
    /// between calls so a sweep reuses the previous one's allocation.
    pending: Vec<Pending>,
    /// Simulation outcomes of the current chunk, reused like `pending`.
    results: Vec<CandidateSim>,
    stats: BatchStats,
    /// The engine thread's `spmap_par` dispatch counters at
    /// construction; [`Self::dispatch`] diffs against this to report how
    /// this run's batches were dispatched (serial / pool).
    dispatch_base: DispatchStats,
}

impl<'g> CandidateBatch<'g> {
    /// Build the BFS-cost engine for one run: tables, the all-default
    /// base mapping, and its aggregates.
    pub fn new(
        graph: &'g TaskGraph,
        platform: &'g Platform,
        subgraphs: Vec<Vec<NodeId>>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
    ) -> Self {
        Self::with_cost(graph, platform, subgraphs, devices, cfg, CostModel::Bfs)
    }

    /// Build the engine for one run under an explicit cost model.  With
    /// [`CostModel::Report`], every candidate is scored by the minimum
    /// makespan over the fixed schedule set, each schedule windowed from
    /// its own checkpoint trail.
    pub fn with_cost(
        graph: &'g TaskGraph,
        platform: &'g Platform,
        subgraphs: Vec<Vec<NodeId>>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
        cost: CostModel,
    ) -> Self {
        let tables = EvalTables::with_numbering(graph, platform, cfg.numbering);
        Self::from_source(
            TablesSource::Owned(tables),
            subgraphs.into(),
            devices,
            cfg,
            cost,
            None,
        )
    }

    /// Build the engine on *pre-built* shared tables (e.g. a session's
    /// `EvalArtifact`), skipping table construction.  Because the tables
    /// are immutable and every engine input beyond them is per-run, an
    /// engine on shared tables is bit-identical to one that built its
    /// own.
    ///
    /// # Panics
    ///
    /// If `cfg.numbering` disagrees with the numbering the tables were
    /// laid out under (a mismatched artifact would silently evaluate a
    /// different interior order).
    pub fn with_shared_tables(
        tables: &'g EvalTables<'g>,
        subgraphs: Vec<Vec<NodeId>>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
        cost: CostModel,
    ) -> Self {
        Self::with_shared_set(tables, subgraphs.into(), devices, cfg, cost, None)
    }

    /// [`Self::with_shared_tables`] on a shared subgraph set, from `base`
    /// or (`None`) the all-default mapping.
    pub(crate) fn with_shared_set(
        tables: &'g EvalTables<'g>,
        subgraphs: Arc<[Vec<NodeId>]>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
        cost: CostModel,
        base: Option<Mapping>,
    ) -> Self {
        assert_eq!(
            cfg.numbering,
            tables.numbering(),
            "shared tables were built under a different numbering than the engine config"
        );
        if let Some(base) = &base {
            assert_eq!(
                base.len(),
                tables.graph().node_count(),
                "warm-start base mapping does not match the graph's node count"
            );
        }
        Self::from_source(
            TablesSource::Shared(tables),
            subgraphs,
            devices,
            cfg,
            cost,
            base,
        )
    }

    /// [`Self::with_shared_tables`], warm-started from an explicit base
    /// mapping instead of the all-default one.  The engine's incremental
    /// machinery is base-agnostic — aggregates, memo seeds and
    /// checkpoint trails are all rebuilt from whatever base it starts
    /// on — so a remapping session can resume search from an incumbent
    /// mapping with every exactness guarantee intact.
    ///
    /// # Panics
    ///
    /// If the numberings disagree (as in [`Self::with_shared_tables`]),
    /// if `base.len()` differs from the graph's node count, or if the
    /// base mapping is infeasible under the tables' platform.
    pub fn with_shared_tables_warm(
        tables: &'g EvalTables<'g>,
        subgraphs: Arc<[Vec<NodeId>]>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
        cost: CostModel,
        base: Mapping,
    ) -> Self {
        Self::with_shared_set(tables, subgraphs, devices, cfg, cost, Some(base))
    }

    fn from_source(
        tables: TablesSource<'g>,
        subgraphs: Arc<[Vec<NodeId>]>,
        devices: Vec<DeviceId>,
        cfg: EngineConfig,
        cost: CostModel,
        base: Option<Mapping>,
    ) -> Self {
        let graph = tables.graph();
        let platform = tables.platform();
        let schedules = match cost {
            CostModel::Bfs => ReportSchedules::bfs_only(graph),
            CostModel::Report { schedules, seed } => {
                assert!(
                    schedules < MAX_SCHEDULES,
                    "at most {} random report schedules (got {schedules}); \
                     widen the candidate schedule bitmask in spmap-core/src/batch.rs",
                    MAX_SCHEDULES - 1
                );
                ReportSchedules::new(graph, schedules, seed)
            }
        };
        let threads = cfg.effective_threads();
        let mapping = base.unwrap_or_else(|| Mapping::all_default(graph, platform));
        // Generation 0 is never a base generation, so every worker
        // gathers the base on its first candidate.
        let workers = WorkerStates::new(threads, |_| Worker {
            scratch: EvalScratch::for_tables(&tables),
            devices: Vec::with_capacity(graph.node_count()),
            undo: Vec::with_capacity(graph.node_count()),
            generation: 0,
        });
        let max_min_exec = graph
            .nodes()
            .map(|v| tables.min_exec_time(v))
            .fold(0.0, f64::max);
        let n = graph.node_count();
        let op_count = subgraphs.len() * devices.len();
        let mut engine = Self {
            fingerprint: MappingFingerprint::of(&mapping),
            generation: 1,
            cur: 0.0,
            memo: BoundedMemo::new(cfg.memo_capacity),
            sched_memo: BoundedMemo::new(cfg.memo_capacity),
            base_sched: vec![0.0; schedules.len()],
            area_used: Vec::new(),
            aggregates_generation: 0,
            dev_load: Vec::new(),
            link_load: Vec::new(),
            max_min_exec,
            path_scores: Vec::new(),
            checkpoints: CheckpointSet::for_schedules_budgeted(
                &schedules,
                n,
                cfg.checkpoint_budget_bytes,
                cfg.dense_checkpoints,
            ),
            expected: vec![f64::INFINITY; op_count],
            mark: vec![0; n],
            target: vec![DeviceId(0); n],
            mark_gen: 0,
            pending: Vec::new(),
            results: Vec::new(),
            stats: BatchStats::default(),
            dispatch_base: spmap_par::dispatch_stats(),
            tables,
            schedules,
            subgraphs,
            devices,
            cfg,
            threads,
            workers,
            mapping,
        };
        engine.rebuild_area();
        engine.cur = engine.simulate_base().expect("base mapping is feasible");
        engine.memoize_base();
        engine
    }

    /// The shared evaluation tables.
    pub fn tables(&self) -> &EvalTables<'g> {
        &self.tables
    }

    /// The candidate subgraph set.
    pub fn subgraphs(&self) -> &[Vec<NodeId>] {
        &self.subgraphs
    }

    /// The device list.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Number of candidate operations (`subgraphs × devices`).
    pub fn op_count(&self) -> usize {
        self.subgraphs.len() * self.devices.len()
    }

    /// The `(subgraph, device)` of an operation id.
    #[inline]
    pub fn op_parts(&self, op: OpId) -> (&[NodeId], DeviceId) {
        let m = self.devices.len();
        (&self.subgraphs[op / m], self.devices[op % m])
    }

    /// Effective worker thread count of this engine.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current base mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The current (best committed) makespan.
    pub fn current_makespan(&self) -> f64 {
        self.cur
    }

    /// `true` if `delta` is a real improvement on the current makespan
    /// (guards against float-noise cycles, like the serial reference).
    #[inline]
    pub fn improves(&self, delta: f64) -> bool {
        delta > self.cur * REL_EPS
    }

    /// Candidate-decision counters accumulated so far (including the
    /// memos' live eviction counters and peak sizes).
    pub fn stats(&self) -> BatchStats {
        let mut s = self.stats;
        s.memo_evictions = self.memo.evictions();
        s.sched_memo_evictions = self.sched_memo.evictions();
        s.memo_peak = self.memo.peak() as u64;
        s.sched_memo_peak = self.sched_memo.peak() as u64;
        s
    }

    /// How this engine's parallel batches were dispatched so far
    /// (serial fast path / persistent-pool wakes) — the calling
    /// thread's `spmap_par` counters since construction.  Unlike
    /// [`Self::stats`], these counters *do* vary with the thread count;
    /// that variation is their purpose (they price the dispatch
    /// overhead a configuration paid), which is why they
    /// live beside, not inside, the thread-invariant [`BatchStats`].
    pub fn dispatch(&self) -> DispatchStats {
        spmap_par::dispatch_stats().since(&self.dispatch_base)
    }

    /// Largest single checkpoint trail currently held (bytes) — the
    /// per-trail number [`EngineConfig::checkpoint_budget_bytes`]
    /// gates.  Shapes are fixed once the base schedules are recorded,
    /// so "current" is also the peak.
    pub fn checkpoint_peak_bytes(&self) -> u64 {
        self.checkpoints.max_store_bytes() as u64
    }

    /// Current entry count of the full-mapping memo.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Current entry count of the `(fingerprint, schedule)` memo.
    pub fn sched_memo_len(&self) -> usize {
        self.sched_memo.len()
    }

    /// Total full simulations run so far (all workers).
    pub fn evaluations(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.scratch.stats().evaluations)
            .sum()
    }

    /// Schedule positions stepped so far (all workers).
    pub fn positions(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.scratch.stats().positions)
            .sum()
    }

    /// Evaluate the improvement delta of every operation in `ops`
    /// against the current makespan, in one batch.
    ///
    /// Overwrites `deltas` with one delta per op, in input order (a
    /// caller that reuses the buffer pays no allocation per sweep):
    /// `cur - makespan(op)`,
    /// or `NEG_INFINITY` for no-ops, area-infeasible candidates and —
    /// when `prune` is on — candidates whose bound proves they cannot
    /// strictly beat the best delta of this batch (such candidates can
    /// never be committed, so the mapper's choice is unaffected).
    ///
    /// The deltas are bit-identical to serial re-simulation of
    /// every op; only the amount of work spent differs.
    pub fn evaluate_ops(&mut self, ops: &[OpId], prune: bool, deltas: &mut Vec<f64>) {
        deltas.clear();
        // An Error-kind injected fault degrades the sweep into NaN
        // deltas, which both search drivers (exhaustive and threshold,
        // full map or warm remap) convert to a typed
        // `MapperError::NanDelta` — the engine's one typed error path.
        if crate::faults::fault_point(crate::faults::FaultSite::CandidateSweep) {
            deltas.resize(ops.len(), f64::NAN);
            return;
        }
        if prune {
            self.ensure_prune_aggregates();
        }
        let threshold = self.cur * REL_EPS;
        deltas.resize(ops.len(), f64::NEG_INFINITY);
        let mut pending = std::mem::take(&mut self.pending);
        let mut results = std::mem::take(&mut self.results);
        pending.clear();
        // Incumbent: the best delta already known in this batch (memo
        // hits count — they are exact).  Only *strictly* better bounds
        // may prune, so ties always go to simulation and the
        // lowest-index winner is preserved.
        let mut incumbent = f64::NEG_INFINITY;
        let m = self.devices.len();
        for (slot, &op) in ops.iter().enumerate() {
            let (sub, dev) = (op / m, self.devices[op % m]);
            match self.classify(sub, dev, prune) {
                Verdict::Trivial => {
                    self.stats.trivial += 1;
                    if prune {
                        self.expected[op] = f64::NEG_INFINITY;
                    }
                }
                Verdict::Memoized(ms) => {
                    self.stats.memo_hits += 1;
                    let delta = self.cur - ms;
                    deltas[slot] = delta;
                    if prune {
                        self.expected[op] = delta;
                    }
                    if delta > incumbent {
                        incumbent = delta;
                    }
                }
                Verdict::Simulate {
                    fp,
                    bound,
                    mask,
                    best_known,
                } => {
                    pending.push(Pending {
                        slot,
                        op,
                        sub,
                        dev,
                        fp,
                        bound,
                        expected: self.expected[op],
                        mask,
                        best_known,
                    });
                }
            }
        }
        if prune {
            // Best-first by last-known improvement (index-ascending on
            // ties, so the order — and with it every statistic — is
            // deterministic): the incumbent and the simulation cutoff
            // tighten as early as possible.
            pending.sort_by(|a, b| b.expected.total_cmp(&a.expected).then(a.op.cmp(&b.op)));
        }
        let chunk_size = self.cfg.chunk_size.max(1);
        let mut next = 0usize;
        while next < pending.len() {
            let cut = max_beatable(threshold, incumbent);
            if prune {
                // A candidate is provably out when its bound cannot
                // strictly beat the incumbent, or cannot clear the
                // improvement threshold at all.  Equality with the
                // incumbent is NOT pruned: a lower-index tie must win.
                while next < pending.len() && cannot_win(pending[next].bound, incumbent, threshold)
                {
                    self.expected[pending[next].op] = pending[next].bound;
                    self.stats.pruned += 1;
                    next += 1;
                }
                if next >= pending.len() {
                    break;
                }
            }
            let mut end = (next + chunk_size).min(pending.len());
            if prune {
                // Trim the tail of the chunk likewise.
                while end > next + 1 && cannot_win(pending[end - 1].bound, incumbent, threshold) {
                    end -= 1;
                }
            }
            let chunk = &pending[next..end];
            // The cutoff a candidate must *strictly* exceed to be proven
            // useless; ties survive, so index-order tie-breaks hold.
            let cutoff = if prune { self.cur - cut } else { f64::INFINITY };
            self.simulate_chunk(chunk, cutoff, &mut results);
            for (p, r) in chunk.iter().zip(&results) {
                self.stats.sched_simulated += u64::from(r.completed);
                self.stats.sched_aborted += u64::from(r.aborted);
                // `banked` is populated only with memoization on and >1
                // schedule (empty otherwise).
                for &(s, ms) in &r.banked {
                    self.sched_memo.insert((p.fp, s), ms);
                }
                // The candidate's sweep minimum is exact when every
                // schedule resolved to a value, or when it lands at or
                // below the incumbent cutoff (every aborted schedule is
                // then *strictly* above it, so the min is unaffected —
                // the running-cutoff argument in docs/PERF.md).
                if r.aborted == 0 || r.best <= cutoff {
                    let delta = self.cur - r.best;
                    deltas[p.slot] = delta;
                    self.stats.simulated += 1;
                    if prune {
                        self.expected[p.op] = delta;
                    }
                    if self.cfg.memo {
                        self.memo.insert(p.fp, r.best);
                    }
                    if delta > incumbent {
                        incumbent = delta;
                    }
                } else {
                    // Every schedule proved > cutoff: delta < cut,
                    // strictly — never the winner.
                    self.stats.aborted += 1;
                    if prune {
                        self.expected[p.op] = p.bound.min(cut);
                    }
                }
            }
            next = end;
        }
        self.pending = pending;
        self.results = results;
    }

    /// Apply `op` permanently: update the mapping, fingerprint, load
    /// aggregates and current makespan.
    pub fn commit(&mut self, op: OpId) {
        let (sub, d) = self.op_parts(op);
        let changed: Vec<(NodeId, DeviceId)> = sub
            .iter()
            .filter_map(|&v| {
                let old = self.mapping.device(v);
                (old != d).then_some((v, old))
            })
            .collect();
        debug_assert!(!changed.is_empty(), "committing a no-op");
        for &(v, old) in &changed {
            self.fingerprint.toggle(v, old, d);
            self.mapping.set(v, d);
        }
        self.generation += 1;
        // Exact rebuild instead of incremental update: commits are rare
        // (≤ n per run) and a fresh accumulation keeps the area sums free
        // of float drift across iterations.  The prune aggregates wait
        // for the next pruned sweep (`ensure_prune_aggregates`).  The
        // base simulation is always re-run (never memo-answered) because
        // it also records the per-schedule snapshot trails every window
        // needs.
        self.rebuild_area();
        self.cur = self
            .simulate_base()
            .expect("committed operations are feasible");
        self.memoize_base();
    }

    /// Classify one candidate, subgraph `sub` moved to device `d`,
    /// without simulating it.
    fn classify(&mut self, sub: usize, d: DeviceId, prune: bool) -> Verdict {
        let dm = self.tables.device_count();
        let sub = &self.subgraphs[sub];
        // Mark the changed region and fold its effects in one pass.
        self.mark_gen += 1;
        let mark_gen = self.mark_gen;
        let mut fp = self.fingerprint;
        let mut any = false;
        let mut area = [0.0f64; 8];
        area[..dm].copy_from_slice(&self.area_used);
        for &v in sub {
            let old = self.mapping.device(v);
            if old == d {
                continue;
            }
            any = true;
            self.mark[v.index()] = mark_gen;
            self.target[v.index()] = d;
            fp.toggle(v, old, d);
            if self.tables.is_fpga_device(old) {
                area[old.index()] -= self.tables.task_area(v);
            }
            if self.tables.is_fpga_device(d) {
                area[d.index()] += self.tables.task_area(v);
            }
        }
        if !any {
            return Verdict::Trivial;
        }
        for (dev, &used) in area.iter().enumerate().take(dm) {
            let id = DeviceId(dev as u32);
            if !self.tables.is_fpga_device(id) {
                continue;
            }
            let limit = self.tables.area_capacity(id) + 1e-9;
            // The incremental sum and the evaluator's fresh node-order
            // sum can disagree in the last ulps.  Decisions far from the
            // limit are unaffected; hairline cases are re-decided with
            // the exact accumulation the reference path uses, so the
            // feasibility verdict can never diverge from it.
            let guard = 1e-12 * (1.0 + limit.abs());
            let over = if (used - limit).abs() <= guard {
                self.exact_candidate_area(id) > limit
            } else {
                used > limit
            };
            if over {
                return Verdict::Trivial;
            }
        }
        if self.cfg.memo {
            if let Some(ms) = self.memo.get(&fp.value()) {
                return Verdict::Memoized(ms);
            }
        }
        // Partial sweep reuse: any schedule whose makespan for this exact
        // mapping is already banked under `(fp, schedule)` is cleared
        // from the simulation mask; its value seeds the running best.
        let s_count = self.schedules.len();
        let mut mask: u64 = u64::MAX >> (64 - s_count as u32);
        let mut best_known = f64::INFINITY;
        if self.cfg.memo && s_count > 1 {
            for s in 0..s_count {
                if let Some(ms) = self.sched_memo.get(&(fp.value(), s as u32)) {
                    mask &= !(1 << s);
                    self.stats.sched_memo_hits += 1;
                    if ms < best_known {
                        best_known = ms;
                    }
                }
            }
            if mask == 0 {
                // Every schedule known: the min is the exact report
                // makespan — promote it to the full-mapping memo.
                self.memo.insert(fp.value(), best_known);
                return Verdict::Memoized(best_known);
            }
        }
        let bound = if prune {
            self.cur - self.candidate_lower_bound(sub.iter().map(|&v| (v, d))) * (1.0 - BOUND_SLACK)
        } else {
            f64::INFINITY
        };
        Verdict::Simulate {
            fp: fp.value(),
            bound,
            mask,
            best_known,
        }
    }

    /// FPGA area of device `dev` under the current candidate (marked
    /// region moved to its stamped `target` devices), accumulated in
    /// node-index order — the exact sequence
    /// `EvalTables::area_feasible` uses, so the result is bit-identical
    /// to what the reference path would sum.
    fn exact_candidate_area(&self, dev: DeviceId) -> f64 {
        let mut used = 0.0f64;
        for (i, &base_d) in self.mapping.as_slice().iter().enumerate() {
            let d = if self.mark[i] == self.mark_gen {
                self.target[i]
            } else {
                base_d
            };
            if d == dev {
                used += self.tables.task_area(NodeId(i as u32));
            }
        }
        used
    }

    /// An exact lower bound on the makespan of the candidate mapping
    /// (base with every `(v, d_v)` of `moved` applied).  Callers must
    /// have stamped the changed region into `self.mark`/`self.target`
    /// with the current `mark_gen`; pairs whose node is unmarked (no-op
    /// reassignments) are skipped.  Operations pass every node with the
    /// same device.
    ///
    /// Three sound components, each `≤ makespan` of *any* schedule the
    /// evaluator can produce (see docs/PERF.md for the arguments):
    ///
    /// * temporal device load: tasks on a CPU/GPU serialize,
    /// * directed link load: transfers on one link serialize,
    /// * single-task spans: `max(max_v min_d exec, max_{v moved} exec)`.
    fn candidate_lower_bound<I>(&self, moved: I) -> f64
    where
        I: Iterator<Item = (NodeId, DeviceId)> + Clone,
    {
        debug_assert_eq!(
            self.aggregates_generation, self.generation,
            "prune aggregates are stale: pruned sweeps build them on entry"
        );
        let dm = self.tables.device_count();
        let mut dev_load = [0.0f64; 8];
        dev_load[..dm].copy_from_slice(&self.dev_load);
        let mut link_load = [0.0f64; 64];
        link_load[..dm * dm].copy_from_slice(&self.link_load);
        let mut moved_span: f64 = 0.0;
        for (v, d) in moved.clone() {
            if self.mark[v.index()] != self.mark_gen {
                continue; // already on d
            }
            let old = self.mapping.device(v);
            if !self.tables.is_fpga_device(old) {
                dev_load[old.index()] -= self.tables.exec_time(v, old);
            }
            let ev = self.tables.exec_time(v, d);
            if !self.tables.is_fpga_device(d) {
                dev_load[d.index()] += ev;
            }
            moved_span = moved_span.max(ev);
            // Re-route the transfer load of every incident edge.  Edges
            // with both endpoints in the region are handled once, from
            // their source side.
            let g = self.tables.graph();
            for &e in g.out_edges(v) {
                let edge = g.edge(e);
                let w = edge.dst;
                let old_to = self.mapping.device(w);
                let new_to = if self.mark[w.index()] == self.mark_gen {
                    self.target[w.index()]
                } else {
                    old_to
                };
                relink(
                    &mut link_load,
                    dm,
                    edge.bytes,
                    &self.tables,
                    (old, old_to),
                    (d, new_to),
                );
            }
            for &e in g.in_edges(v) {
                let edge = g.edge(e);
                let u = edge.src;
                if self.mark[u.index()] == self.mark_gen {
                    continue; // counted from u's out-edge loop
                }
                let du = self.mapping.device(u);
                relink(
                    &mut link_load,
                    dm,
                    edge.bytes,
                    &self.tables,
                    (du, old),
                    (du, d),
                );
            }
        }
        let mut lb = self.max_min_exec.max(moved_span);
        for &load in dev_load.iter().take(dm) {
            lb = lb.max(load);
        }
        for &load in link_load.iter().take(dm * dm) {
            lb = lb.max(load);
        }
        // Critical-path component.  For every node, `path_floor(v) +
        // span(v, its device)` is a sound makespan bound (docs/PERF.md);
        // nodes outside the region keep their base span, so the best
        // pre-sorted base score not in the region survives as-is, and
        // moved nodes contribute with their span on the target device.
        for &(score, v) in &self.path_scores {
            if score <= lb {
                break; // sorted descending: nothing better follows
            }
            if self.mark[v as usize] != self.mark_gen {
                lb = score;
                break;
            }
        }
        for (v, d) in moved {
            if self.mark[v.index()] != self.mark_gen {
                continue;
            }
            let target_fill = if self.tables.is_fpga_device(d) {
                self.tables.fill_fraction(d)
            } else {
                1.0
            };
            let span = target_fill * self.tables.exec_time(v, d);
            lb = lb.max(self.tables.path_floor(v) + span);
        }
        lb
    }

    /// Simulate the candidates of one chunk in parallel (or serially for
    /// one thread — zero spawns) into `out`, in chunk order: each worker
    /// syncs its private device copy to the base, applies the
    /// candidate's moves, and sweeps the candidate's unresolved
    /// schedules — each windowed from the candidate's first affected
    /// position *under that schedule*, with a running cutoff
    /// `min(cutoff, best schedule so far)` (a schedule aborted by the
    /// running cutoff is strictly worse than some other schedule of the
    /// same candidate, so it can never be the reported minimum).  Area
    /// feasibility was prechecked.
    fn simulate_chunk(&mut self, chunk: &[Pending], cutoff: f64, out: &mut Vec<CandidateSim>) {
        let tables = &self.tables;
        let schedules = &self.schedules;
        let checkpoints = &self.checkpoints;
        let base = &self.mapping;
        let generation = self.generation;
        let subgraphs = &self.subgraphs;
        let bank = self.cfg.memo && self.schedules.len() > 1;
        par_map_with_threads(self.threads, &mut self.workers, chunk, out, |w, _, p| {
            // Fires *inside* a pool worker when threads ≥ 2, so an
            // injected panic exercises the pool's panic protocol
            // (first payload wins, batch drains, caller re-raises)
            // before the service boundary contains it.
            crate::faults::fault_point(crate::faults::FaultSite::PoolBatch);
            w.sync(tables, base, generation);
            for &v in &subgraphs[p.sub] {
                w.apply(tables, v, p.dev);
            }
            let sim = sweep_candidate(tables, schedules, checkpoints, w, p, cutoff, bank);
            w.revert(tables);
            sim
        });
    }

    /// Simulate the current base mapping on worker 0's scratch under
    /// *every* schedule of the set, recording each schedule's snapshot
    /// trail for windowed re-simulation; returns the cost-model makespan
    /// (min over schedules, folded in schedule order exactly like the
    /// reference metric).
    fn simulate_base(&mut self) -> Option<f64> {
        let scratch = &mut self.workers.first_mut().scratch;
        let mut best: Option<f64> = None;
        for s in 0..self.schedules.len() {
            let ms = self.tables.makespan_order_checkpointed(
                scratch,
                &self.mapping,
                self.schedules.order(s),
                self.checkpoints.get_mut(s),
            )?;
            self.base_sched[s] = ms;
            best = Some(match best {
                None => ms,
                Some(b) => b.min(ms),
            });
        }
        best
    }

    /// Bank the base mapping's exact makespans: the cost-model value
    /// under its fingerprint, and (with several schedules) every
    /// per-schedule value under `(fingerprint, schedule)`.
    fn memoize_base(&mut self) {
        if !self.cfg.memo {
            return;
        }
        let fp = self.fingerprint.value();
        self.memo.insert(fp, self.cur);
        if self.schedules.len() > 1 {
            for (s, &ms) in self.base_sched.iter().enumerate() {
                self.sched_memo.insert((fp, s as u32), ms);
            }
        }
    }

    /// Recompute the per-FPGA area sums of the base mapping from scratch.
    fn rebuild_area(&mut self) {
        let dm = self.tables.device_count();
        self.area_used.clear();
        self.area_used.resize(dm, 0.0);
        for v in self.tables.graph().nodes() {
            let d = self.mapping.device(v);
            if self.tables.is_fpga_device(d) {
                self.area_used[d.index()] += self.tables.task_area(v);
            }
        }
    }

    /// Bring the prune aggregates up to the current base, rebuilding
    /// them from scratch if the base changed since they were built.
    /// Called on entry to every pruned sweep, so an unpruned search
    /// never pays for them.
    fn ensure_prune_aggregates(&mut self) {
        if self.aggregates_generation == self.generation {
            return;
        }
        self.aggregates_generation = self.generation;
        let dm = self.tables.device_count();
        let g = self.tables.graph();
        self.dev_load.clear();
        self.dev_load.resize(dm, 0.0);
        self.link_load.clear();
        self.link_load.resize(dm * dm, 0.0);
        for v in g.nodes() {
            let d = self.mapping.device(v);
            if !self.tables.is_fpga_device(d) {
                self.dev_load[d.index()] += self.tables.exec_time(v, d);
            }
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let from = self.mapping.device(edge.src);
            let to = self.mapping.device(edge.dst);
            if from != to {
                self.link_load[from.index() * dm + to.index()] +=
                    self.tables.transfer_time(edge.bytes, from, to);
            }
        }
        self.path_scores.clear();
        for v in g.nodes() {
            let d = self.mapping.device(v);
            let span = if self.tables.is_fpga_device(d) {
                self.tables.fill_fraction(d) * self.tables.exec_time(v, d)
            } else {
                self.tables.exec_time(v, d)
            };
            self.path_scores
                .push((self.tables.path_floor(v) + span, v.0));
        }
        self.path_scores
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    }
}

/// Sweep the unresolved schedules (`p.mask`) of one candidate whose
/// moves are already applied to `w.devices` (undo log in `w.undo`):
/// each schedule is windowed from the candidate's minimum earliest-read
/// position over all changed nodes *under that schedule*, under the
/// running cutoff `min(cutoff, best schedule so far)`.
fn sweep_candidate(
    tables: &EvalTables<'_>,
    schedules: &ReportSchedules,
    checkpoints: &CheckpointSet,
    w: &mut Worker,
    p: &Pending,
    cutoff: f64,
    bank: bool,
) -> CandidateSim {
    let mut best = p.best_known;
    let mut completed = 0u32;
    let mut banked: Vec<(u32, f64)> = Vec::new();
    let mut aborted = 0u32;
    for s in 0..schedules.len() {
        if p.mask & (1 << s) == 0 {
            continue;
        }
        let order = schedules.order(s);
        let from_pos = order.window_start_over(w.undo.iter().map(|&(v, _)| v));
        let running = if best < cutoff { best } else { cutoff };
        match tables.makespan_order_window_internal(
            &mut w.scratch,
            &w.devices,
            order,
            checkpoints.get(s),
            from_pos,
            running,
        ) {
            WindowSim::Done(ms) => {
                completed += 1;
                if bank {
                    banked.push((s as u32, ms));
                }
                if ms < best {
                    best = ms;
                }
            }
            WindowSim::Cutoff => aborted += 1,
        }
    }
    CandidateSim {
        best,
        completed,
        banked,
        aborted,
    }
}

/// The smallest delta a candidate must strictly beat to matter: the
/// improvement threshold, or the batch incumbent once one exists.
#[inline]
fn max_beatable(threshold: f64, incumbent: f64) -> f64 {
    incumbent.max(threshold)
}

/// `true` if a candidate with improvement upper bound `bound` provably
/// cannot be the committed winner: it cannot *strictly* beat the
/// incumbent (a tie loses to the incumbent only on higher index, so ties
/// must still be simulated), or it cannot clear the improvement
/// threshold (where ties are also non-improvements).
#[inline]
fn cannot_win(bound: f64, incumbent: f64, threshold: f64) -> bool {
    bound < incumbent || bound <= threshold
}

/// Move one edge's transfer-load contribution between links.
#[inline]
fn relink(
    link_load: &mut [f64],
    dm: usize,
    bytes: f64,
    tables: &EvalTables<'_>,
    old: (DeviceId, DeviceId),
    new: (DeviceId, DeviceId),
) {
    if old == new {
        return;
    }
    if old.0 != old.1 {
        link_load[old.0.index() * dm + old.1.index()] -= tables.transfer_time(bytes, old.0, old.1);
    }
    if new.0 != new.1 {
        link_load[new.0.index() * dm + new.1.index()] += tables.transfer_time(bytes, new.0, new.1);
    }
}

/// What the incremental bookkeeping decided about one candidate.
enum Verdict {
    /// No-op or area-infeasible: never an improvement.
    Trivial,
    /// Known cost-model makespan from the memo.
    Memoized(f64),
    /// Needs simulation of the schedules in `mask`; `bound` caps its
    /// achievable delta and `best_known` is the min over the
    /// memo-answered schedules.
    Simulate {
        fp: u128,
        bound: f64,
        mask: u64,
        best_known: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_decomp::{series_parallel_subgraphs, CutPolicy};
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig};
    use spmap_model::Evaluator;

    /// [`CandidateBatch::evaluate_ops`] into a fresh buffer.
    fn sweep(eng: &mut CandidateBatch<'_>, ops: &[OpId], prune: bool) -> Vec<f64> {
        let mut deltas = Vec::new();
        eng.evaluate_ops(ops, prune, &mut deltas);
        deltas
    }

    fn setup(seed: u64) -> (TaskGraph, Platform) {
        let mut g = random_sp_graph(&SpGenConfig::new(40, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        (g, Platform::reference())
    }

    fn engine<'g>(g: &'g TaskGraph, p: &'g Platform, cfg: EngineConfig) -> CandidateBatch<'g> {
        let subgraphs = series_parallel_subgraphs(g, CutPolicy::default())
            .subgraphs()
            .to_vec();
        let devices: Vec<DeviceId> = p.device_ids().collect();
        CandidateBatch::new(g, p, subgraphs, devices, cfg)
    }

    /// Reference deltas: serial probe of every op, exactly like the seed
    /// mapper's inner loop.
    fn reference_deltas(g: &TaskGraph, p: &Platform, eng: &CandidateBatch<'_>) -> Vec<f64> {
        let mut ev = Evaluator::new(g, p);
        let mut mapping = eng.mapping().clone();
        let cur = eng.current_makespan();
        (0..eng.op_count())
            .map(|op| {
                let (sub, d) = eng.op_parts(op);
                let undo: Vec<(NodeId, DeviceId)> = sub
                    .iter()
                    .filter_map(|&v| {
                        let old = mapping.device(v);
                        (old != d).then_some((v, old))
                    })
                    .collect();
                if undo.is_empty() {
                    return f64::NEG_INFINITY;
                }
                for &(v, _) in &undo {
                    mapping.set(v, d);
                }
                let delta = match ev.makespan_bfs(&mapping) {
                    Some(ms) => cur - ms,
                    None => f64::NEG_INFINITY,
                };
                for &(v, old) in undo.iter().rev() {
                    mapping.set(v, old);
                }
                delta
            })
            .collect()
    }

    #[test]
    fn unpruned_batch_matches_serial_probe_bitwise() {
        for seed in [1, 5, 9] {
            let (g, p) = setup(seed);
            let mut eng = engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(4),
                    memo: false,
                    prune: false,
                    ..EngineConfig::default()
                },
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let batch = sweep(&mut eng, &ops, false);
            let reference = reference_deltas(&g, &p, &eng);
            assert_eq!(batch, reference, "seed {seed}");
        }
    }

    #[test]
    fn pruned_batch_preserves_the_winning_candidate() {
        for seed in [2, 6, 11] {
            let (g, p) = setup(seed);
            let mut eng = engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(4),
                    ..Default::default()
                },
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let pruned = sweep(&mut eng, &ops, true);
            let reference = reference_deltas(&g, &p, &eng);
            let threshold = eng.current_makespan() * REL_EPS;
            let pick = |d: &[f64]| {
                d.iter().enumerate().filter(|(_, &x)| x > threshold).fold(
                    None::<(usize, f64)>,
                    |best, (i, &x)| {
                        if best.is_none_or(|(_, b)| x > b) {
                            Some((i, x))
                        } else {
                            best
                        }
                    },
                )
            };
            assert_eq!(pick(&pruned), pick(&reference), "seed {seed}");
            assert!(eng.stats().pruned > 0, "pruning fired (seed {seed})");
            // Every non-pruned delta is bit-identical to the reference.
            for (i, (&a, &b)) in pruned.iter().zip(&reference).enumerate() {
                if a != f64::NEG_INFINITY {
                    assert_eq!(a, b, "op {i} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn memo_hits_after_commit_are_exact() {
        let (g, p) = setup(3);
        let mut eng = engine(
            &g,
            &p,
            EngineConfig {
                threads: Some(2),
                ..Default::default()
            },
        );
        let ops: Vec<OpId> = (0..eng.op_count()).collect();
        let deltas = sweep(&mut eng, &ops, false);
        let threshold = eng.current_makespan() * REL_EPS;
        let (best_op, best_delta) =
            deltas
                .iter()
                .enumerate()
                .fold(
                    (0, f64::NEG_INFINITY),
                    |acc, (i, &d)| {
                        if d > acc.1 {
                            (i, d)
                        } else {
                            acc
                        }
                    },
                );
        assert!(
            best_delta > threshold,
            "test graph must have an improvement"
        );
        let before = eng.current_makespan();
        eng.commit(best_op);
        let expected = before - best_delta;
        assert!(
            (eng.current_makespan() - expected).abs() <= 1e-12 * before,
            "cur after commit"
        );
        // Re-evaluating everything after the commit: results must again
        // match the serial probe, and the committed op's device-variants
        // (same subgraph, other devices) must be answered by the memo.
        let hits_before = eng.stats().memo_hits;
        let again = sweep(&mut eng, &ops, false);
        let reference = reference_deltas(&g, &p, &eng);
        assert_eq!(again, reference);
        assert!(eng.stats().memo_hits > hits_before, "memo produced hits");
    }

    #[test]
    fn lower_bound_never_exceeds_true_makespan() {
        // The heart of the exactness argument: for every candidate,
        // bound >= true delta (equivalently LB <= true makespan).
        for seed in [4, 7, 13] {
            let (g, p) = setup(seed);
            let mut eng = engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(1),
                    ..Default::default()
                },
            );
            let reference = reference_deltas(&g, &p, &eng);
            // `classify` reads the prune aggregates that a pruned sweep
            // builds on entry; this test calls it directly.
            eng.ensure_prune_aggregates();
            for (op, &true_delta) in reference.iter().enumerate().take(eng.op_count()) {
                let m = eng.devices.len();
                let verdict = eng.classify(op / m, eng.devices[op % m], true);
                if let Verdict::Simulate { bound, .. } = verdict {
                    if true_delta != f64::NEG_INFINITY {
                        assert!(
                            bound >= true_delta,
                            "op {op} seed {seed}: bound {bound} < delta {true_delta}"
                        );
                    }
                }
            }
        }
    }

    fn report_engine<'g>(
        g: &'g TaskGraph,
        p: &'g Platform,
        cfg: EngineConfig,
        k: usize,
        seed: u64,
    ) -> CandidateBatch<'g> {
        let subgraphs = series_parallel_subgraphs(g, CutPolicy::default())
            .subgraphs()
            .to_vec();
        let devices: Vec<DeviceId> = p.device_ids().collect();
        CandidateBatch::with_cost(
            g,
            p,
            subgraphs,
            devices,
            cfg,
            CostModel::Report { schedules: k, seed },
        )
    }

    /// Reference report-mode deltas: serial sweep of every op through
    /// `Evaluator::report_makespan`, exactly like the seed metric.
    fn reference_report_deltas(
        g: &TaskGraph,
        p: &Platform,
        eng: &CandidateBatch<'_>,
        k: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut ev = Evaluator::new(g, p);
        let mut mapping = eng.mapping().clone();
        let cur = eng.current_makespan();
        (0..eng.op_count())
            .map(|op| {
                let (sub, d) = eng.op_parts(op);
                let undo: Vec<(NodeId, DeviceId)> = sub
                    .iter()
                    .filter_map(|&v| {
                        let old = mapping.device(v);
                        (old != d).then_some((v, old))
                    })
                    .collect();
                if undo.is_empty() {
                    return f64::NEG_INFINITY;
                }
                for &(v, _) in &undo {
                    mapping.set(v, d);
                }
                let delta = match ev.report_makespan(&mapping, k, seed) {
                    Some(ms) => cur - ms,
                    None => f64::NEG_INFINITY,
                };
                for &(v, old) in undo.iter().rev() {
                    mapping.set(v, old);
                }
                delta
            })
            .collect()
    }

    #[test]
    fn report_mode_unpruned_batch_matches_serial_sweep_bitwise() {
        for (seed, k) in [(1u64, 2usize), (5, 4), (9, 3)] {
            let (g, p) = setup(seed);
            let mut eng = report_engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(4),
                    memo: false,
                    prune: false,
                    ..EngineConfig::default()
                },
                k,
                seed ^ 0xabc,
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let batch = sweep(&mut eng, &ops, false);
            let reference = reference_report_deltas(&g, &p, &eng, k, seed ^ 0xabc);
            assert_eq!(batch, reference, "seed {seed} k {k}");
            assert!(
                eng.stats().sched_aborted > 0,
                "running cutoff should abort some non-minimal schedules (seed {seed})"
            );
        }
    }

    #[test]
    fn report_mode_pruned_batch_preserves_the_winning_candidate() {
        for (seed, k) in [(2u64, 3usize), (6, 2)] {
            let (g, p) = setup(seed);
            let mut eng = report_engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(4),
                    ..Default::default()
                },
                k,
                seed,
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let pruned = sweep(&mut eng, &ops, true);
            let reference = reference_report_deltas(&g, &p, &eng, k, seed);
            let threshold = eng.current_makespan() * REL_EPS;
            let pick = |d: &[f64]| {
                d.iter().enumerate().filter(|(_, &x)| x > threshold).fold(
                    None::<(usize, f64)>,
                    |best, (i, &x)| {
                        if best.is_none_or(|(_, b)| x > b) {
                            Some((i, x))
                        } else {
                            best
                        }
                    },
                )
            };
            assert_eq!(pick(&pruned), pick(&reference), "seed {seed} k {k}");
            for (i, (&a, &b)) in pruned.iter().zip(&reference).enumerate() {
                if a != f64::NEG_INFINITY {
                    assert_eq!(a, b, "op {i} seed {seed} k {k}");
                }
            }
        }
    }

    #[test]
    fn report_mode_schedule_memo_reuses_partial_sweeps() {
        let (g, p) = setup(3);
        let k = 3;
        let mut eng = report_engine(
            &g,
            &p,
            EngineConfig {
                threads: Some(2),
                ..Default::default()
            },
            k,
            77,
        );
        let ops: Vec<OpId> = (0..eng.op_count()).collect();
        let deltas = sweep(&mut eng, &ops, false);
        let threshold = eng.current_makespan() * REL_EPS;
        let (best_op, best_delta) =
            deltas
                .iter()
                .enumerate()
                .fold(
                    (0, f64::NEG_INFINITY),
                    |acc, (i, &d)| {
                        if d > acc.1 {
                            (i, d)
                        } else {
                            acc
                        }
                    },
                );
        assert!(
            best_delta > threshold,
            "test graph must have an improvement"
        );
        eng.commit(best_op);
        // Re-evaluating after the commit must again match the serial
        // sweep bitwise, and the banked (fingerprint, schedule) values
        // must produce hits.
        let again = sweep(&mut eng, &ops, false);
        let reference = reference_report_deltas(&g, &p, &eng, k, 77);
        assert_eq!(again, reference);
        assert!(
            eng.stats().memo_hits > 0 || eng.stats().sched_memo_hits > 0,
            "memoization produced no hits at all: {:?}",
            eng.stats()
        );
    }

    #[test]
    fn report_mode_thread_count_does_not_change_results() {
        let (g, p) = setup(8);
        let mut results = Vec::new();
        for threads in [1, 2, 8] {
            let mut eng = report_engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(threads),
                    ..Default::default()
                },
                3,
                8,
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let deltas = sweep(&mut eng, &ops, true);
            results.push((deltas, eng.stats()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2], "stats and deltas thread-invariant");
    }

    #[test]
    fn tiny_memo_capacity_is_respected_and_exact() {
        for seed in [2u64, 8] {
            let (g, p) = setup(seed);
            let run = |capacity: usize| {
                let mut eng = engine(
                    &g,
                    &p,
                    EngineConfig {
                        threads: Some(2),
                        memo_capacity: capacity,
                        ..EngineConfig::default()
                    },
                );
                let ops: Vec<OpId> = (0..eng.op_count()).collect();
                let mut all = Vec::new();
                for _ in 0..3 {
                    all.push(sweep(&mut eng, &ops, false));
                }
                (all, eng.stats(), eng.memo_len())
            };
            let (unbounded, _, _) = run(0);
            let (tiny, stats, len) = run(8);
            assert_eq!(unbounded, tiny, "seed {seed}: eviction changed a delta");
            assert!(
                stats.memo_evictions > 0,
                "seed {seed}: capacity 8 must evict"
            );
            assert!(len <= 8, "seed {seed}: memo above capacity ({len})");
            assert!(
                stats.memo_peak <= 8,
                "seed {seed}: peak above capacity ({stats:?})"
            );
        }
    }

    #[test]
    fn report_mode_memo_capacity_is_respected_and_exact() {
        let (g, p) = setup(5);
        let k = 3;
        let run = |capacity: usize| {
            let mut eng = report_engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(2),
                    memo_capacity: capacity,
                    ..EngineConfig::default()
                },
                k,
                9,
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let mut all = Vec::new();
            for _ in 0..3 {
                all.push(sweep(&mut eng, &ops, false));
            }
            (all, eng.stats(), eng.memo_len(), eng.sched_memo_len())
        };
        let (unbounded, _, _, _) = run(0);
        let (tiny, stats, len, sched_len) = run(16);
        assert_eq!(unbounded, tiny, "eviction changed a report-mode delta");
        assert!(
            stats.memo_evictions > 0 || stats.sched_memo_evictions > 0,
            "capacity 16 must evict in one of the memos: {stats:?}"
        );
        assert!(len <= 16 && sched_len <= 16, "a memo exceeded its capacity");
        assert!(stats.memo_peak <= 16 && stats.sched_memo_peak <= 16);
    }

    /// The two engines of the lazy-aggregate tests: one that builds its
    /// prune aggregates on the all-default base (directly, which leaves
    /// the op expectations alone) and is then driven
    /// through `commits` unpruned FirstFit commits on shared tables, and
    /// a fresh warm-started engine on the driven engine's final mapping.
    /// Memos are off, so the two engines' counters can only differ
    /// through the lower bounds — that is, through the prune aggregates.
    fn driven_and_fresh<'g>(
        tables: &'g EvalTables<'g>,
        cost: CostModel,
        commits: usize,
    ) -> (CandidateBatch<'g>, CandidateBatch<'g>) {
        let cfg = EngineConfig {
            threads: Some(1),
            memo: false,
            ..Default::default()
        };
        let subgraphs = series_parallel_subgraphs(tables.graph(), CutPolicy::default())
            .subgraphs()
            .to_vec();
        let devices: Vec<DeviceId> = tables.platform().device_ids().collect();
        let mut driven = CandidateBatch::with_shared_tables(
            tables,
            subgraphs.clone(),
            devices.clone(),
            cfg,
            cost,
        );
        driven.ensure_prune_aggregates();
        let built = driven.aggregates_generation;
        assert_eq!(built, driven.generation);
        let ops: Vec<OpId> = (0..driven.op_count()).collect();
        let (iterations, _) =
            crate::threshold::gamma_threshold_search(&mut driven, &ops, commits, 1.0)
                .expect("finite deltas");
        assert_eq!(
            iterations, commits,
            "the search must commit {commits} times"
        );
        assert_eq!(
            driven.aggregates_generation, built,
            "FirstFit never prunes, so it must never rebuild the prune aggregates"
        );
        let fresh = CandidateBatch::with_shared_tables_warm(
            tables,
            subgraphs.into(),
            devices,
            cfg,
            cost,
            driven.mapping().clone(),
        );
        (driven, fresh)
    }

    /// Counter increments of `after` over `before`.
    fn stats_since(after: BatchStats, before: BatchStats) -> BatchStats {
        BatchStats {
            simulated: after.simulated - before.simulated,
            memo_hits: after.memo_hits - before.memo_hits,
            pruned: after.pruned - before.pruned,
            aborted: after.aborted - before.aborted,
            trivial: after.trivial - before.trivial,
            sched_simulated: after.sched_simulated - before.sched_simulated,
            sched_aborted: after.sched_aborted - before.sched_aborted,
            sched_memo_hits: after.sched_memo_hits - before.sched_memo_hits,
            memo_evictions: after.memo_evictions - before.memo_evictions,
            sched_memo_evictions: after.sched_memo_evictions - before.sched_memo_evictions,
            memo_peak: after.memo_peak,
            sched_memo_peak: after.sched_memo_peak,
        }
    }

    const LAZY_COSTS: [CostModel; 2] = [
        CostModel::Bfs,
        CostModel::Report {
            schedules: 3,
            seed: 5,
        },
    ];

    #[test]
    fn lazy_prune_aggregates_match_a_fresh_engine_for_ops() {
        for seed in [4, 9] {
            let (g, p) = setup(seed);
            let tables = EvalTables::new(&g, &p);
            for cost in LAZY_COSTS {
                let (mut driven, mut fresh) = driven_and_fresh(&tables, cost, 3);
                let ops: Vec<OpId> = (0..driven.op_count()).collect();
                let before = driven.stats();
                let a = sweep(&mut driven, &ops, true);
                let b = sweep(&mut fresh, &ops, true);
                let tag = format!("seed {seed}, {cost:?}");
                assert_eq!(driven.aggregates_generation, driven.generation, "{tag}");
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{tag}: deltas differ");
                assert_eq!(
                    stats_since(driven.stats(), before),
                    stats_since(fresh.stats(), BatchStats::default()),
                    "{tag}: counters differ"
                );
                assert!(fresh.stats().pruned > 0, "{tag}: nothing was pruned");
            }
        }
    }

    #[test]
    fn first_fit_search_builds_no_prune_aggregates() {
        for seed in [4, 9, 13] {
            let (g, p) = setup(seed);
            for cost in LAZY_COSTS {
                let cfg = EngineConfig {
                    threads: Some(1),
                    ..Default::default()
                };
                let mut eng = match cost {
                    CostModel::Bfs => engine(&g, &p, cfg),
                    CostModel::Report { schedules, seed } => {
                        report_engine(&g, &p, cfg, schedules, seed)
                    }
                };
                let ops: Vec<OpId> = (0..eng.op_count()).collect();
                let (iterations, _) =
                    crate::threshold::gamma_threshold_search(&mut eng, &ops, usize::MAX, 1.0)
                        .expect("finite deltas");
                assert!(iterations > 0, "seed {seed}, {cost:?}: nothing committed");
                assert_eq!(
                    eng.aggregates_generation, 0,
                    "seed {seed}, {cost:?}: FirstFit built prune aggregates"
                );
            }
        }
    }

    #[test]
    fn prune_aggregates_follow_pruned_sweeps_not_commits() {
        let (g, p) = setup(4);
        let mut eng = engine(
            &g,
            &p,
            EngineConfig {
                threads: Some(1),
                ..Default::default()
            },
        );
        let ops: Vec<OpId> = (0..eng.op_count()).collect();
        assert_eq!(eng.aggregates_generation, 0, "setup builds none");
        let mut commits = 0;
        for _ in 0..3 {
            let deltas = sweep(&mut eng, &ops, true);
            assert_eq!(eng.aggregates_generation, eng.generation, "pruned sweep");
            let best = (0..ops.len())
                .filter(|&i| eng.improves(deltas[i]))
                .max_by(|&i, &j| deltas[i].total_cmp(&deltas[j]).then(j.cmp(&i)));
            let Some(op) = best else { break };
            eng.commit(op);
            commits += 1;
            sweep(&mut eng, &ops, false);
            assert!(
                eng.aggregates_generation < eng.generation,
                "neither a commit nor an unpruned sweep rebuilds"
            );
        }
        assert!(commits > 0, "the search must commit at least once");
    }

    #[test]
    fn bounded_memo_is_lru_and_bounded() {
        let mut memo: BoundedMemo<u64> = BoundedMemo::new(4);
        for k in 0..4u64 {
            memo.insert(k, k as f64);
        }
        assert_eq!(memo.len(), 4);
        // Touch 0 and 1, then insert new keys: 2 and 3 must go first.
        assert_eq!(memo.get(&0), Some(0.0));
        assert_eq!(memo.get(&1), Some(1.0));
        memo.insert(4, 4.0);
        assert!(memo.len() <= 4);
        assert_eq!(memo.get(&2), None, "LRU entry must be evicted");
        assert_eq!(memo.get(&1), Some(1.0), "recently used entry survives");
        assert!(memo.evictions() > 0);
        assert!(memo.peak() <= 4);
        // Unbounded: never evicts.
        let mut unbounded: BoundedMemo<u64> = BoundedMemo::new(0);
        for k in 0..1000u64 {
            unbounded.insert(k, 0.0);
        }
        assert_eq!(unbounded.len(), 1000);
        assert_eq!(unbounded.evictions(), 0);
    }

    /// Eviction must not depend on `HashMap` iteration order: replaying
    /// one access sequence against a hash-free oracle (a `Vec` with the
    /// same stamp bookkeeping and the same oldest-half cutoff) must give
    /// identical hits, misses, survivors and eviction counts at every
    /// step.  Guards the unique-stamp `select_nth_unstable` argument in
    /// `BoundedMemo::evict` (docs/DETERMINISM.md).
    #[test]
    fn bounded_memo_eviction_is_hash_order_independent() {
        const CAPACITY: usize = 16;

        struct Oracle {
            entries: Vec<(u64, f64, u64)>, // (key, value, stamp)
            clock: u64,
            evictions: u64,
        }
        impl Oracle {
            fn get(&mut self, k: u64) -> Option<f64> {
                self.clock += 1;
                let clock = self.clock;
                self.entries.iter_mut().find(|e| e.0 == k).map(|e| {
                    e.2 = clock;
                    e.1
                })
            }
            fn insert(&mut self, k: u64, v: f64) {
                self.clock += 1;
                let known = self.entries.iter().any(|e| e.0 == k);
                if self.entries.len() >= CAPACITY && !known {
                    let keep = (CAPACITY / 2).min(CAPACITY - 1);
                    let drop = self.entries.len() - keep;
                    let mut stamps: Vec<u64> = self.entries.iter().map(|e| e.2).collect();
                    stamps.sort_unstable();
                    let cutoff = stamps[drop - 1];
                    self.entries.retain(|e| e.2 > cutoff);
                    self.evictions += drop as u64;
                }
                match self.entries.iter_mut().find(|e| e.0 == k) {
                    Some(e) => {
                        e.1 = v;
                        e.2 = self.clock;
                    }
                    None => self.entries.push((k, v, self.clock)),
                }
            }
        }

        let mut memo: BoundedMemo<u64> = BoundedMemo::new(CAPACITY);
        let mut oracle = Oracle {
            entries: Vec::new(),
            clock: 0,
            evictions: 0,
        };
        // Deterministic mixed get/insert stream over a key space ~4x the
        // capacity so eviction fires many times.
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % (4 * CAPACITY as u64);
            if state & 1 == 0 {
                assert_eq!(memo.get(&key), oracle.get(key), "step {step} key {key}");
            } else {
                let v = step as f64;
                memo.insert(key, v);
                oracle.insert(key, v);
            }
            assert_eq!(memo.len(), oracle.entries.len(), "step {step}");
            assert_eq!(memo.evictions(), oracle.evictions, "step {step}");
        }
        // Final sweep: every key agrees on membership and value.
        for key in 0..4 * CAPACITY as u64 {
            assert_eq!(memo.get(&key), oracle.get(key), "final key {key}");
        }
        assert!(memo.evictions() > 0, "stream must have forced evictions");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (g, p) = setup(8);
        let mut results = Vec::new();
        for threads in [1, 2, 8] {
            let mut eng = engine(
                &g,
                &p,
                EngineConfig {
                    threads: Some(threads),
                    ..Default::default()
                },
            );
            let ops: Vec<OpId> = (0..eng.op_count()).collect();
            let deltas = sweep(&mut eng, &ops, true);
            results.push((deltas, eng.stats()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2], "stats and deltas thread-invariant");
    }
}
