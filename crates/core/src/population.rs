//! Population evaluation: batches of whole candidate mappings.
//!
//! The decomposition mapper's engine ([`crate::batch::CandidateBatch`])
//! scores *moves against one shared base mapping*.  Population-based
//! searches — the NSGA-II baseline of the paper's §IV-A comparison —
//! need the dual: score a whole population of mappings per generation,
//! where each member is naturally described as a small delta against
//! a parent rather than against a global incumbent.
//!
//! [`PopulationEval`] reuses the engine's machinery for that shape:
//!
//! * **Content-keyed memoization** (`BoundedMemo`): populations repeat
//!   themselves heavily — elitist survivors resurface, crossover of
//!   converged parents reproduces known genomes, and ~37 % of offspring
//!   escape mutation entirely — so fitness values memoized under the
//!   mapping fingerprint answer a growing share of evaluations as the
//!   population converges.  Duplicates *within* one batch are coalesced
//!   too: one simulation serves every identical candidate.  Bounded by
//!   the same generation-stamped LRU policy as the mapper memos.
//! * **Base-relative windowed re-simulation with a cross-batch trail
//!   cache**: a candidate that differs from a base mapping only in
//!   nodes first read at pop position `p` shares the base's exact
//!   schedule state before `p` (the same argument as the mapper's
//!   candidate windows, see docs/PERF.md).  Checkpoint trails are
//!   content-keyed by the base's fingerprint and cached *across*
//!   batches — an elitist survivor keeps parenting offspring for many
//!   generations, so its trail is recorded once and pays out for its
//!   whole lifetime.  Every candidate windows independently against
//!   its nearest cached base trail, or replays from the shared
//!   all-zero snapshot.  The recording gate is purely a *cost*
//!   heuristic — windowed and full simulations produce bit-identical
//!   makespans, so neither the gate nor an eviction can ever change a
//!   result.
//! * **Parallel simulation** over `spmap-par` worker states, with all
//!   memo reads/writes and every trail decision on the serial
//!   coordinating path, so results *and* memo state are
//!   thread-invariant.
//!
//! The evaluator is BFS-schedule only (the GA's fitness function); the
//! multi-schedule report metric stays the mapper engine's domain.

use std::collections::HashMap;
use std::sync::RwLock;

use spmap_graph::TaskGraph;
use spmap_model::{
    EvalScratch, EvalTables, Mapping, Numbering, Platform, ScheduleCheckpoints, WindowSim,
};
use spmap_par::{par_map_with_threads, DispatchStats, WorkerStates};

use crate::batch::{resolve_threads, BoundedMemo, FingerprintHash, DEFAULT_MEMO_CAPACITY};

/// Tuning knobs of the population evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationConfig {
    /// Worker thread count; `None` reads `SPMAP_THREADS` / the machine
    /// parallelism via `spmap_par::num_threads`.
    pub threads: Option<usize>,
    /// Fitness-memo entry cap (generation-stamped LRU; `0` = unbounded).
    pub memo_capacity: usize,
    /// Trail-cache slot cap (LRU; `0` = the memory-budget heuristic
    /// [`trail_cache_cap`] — ~64 MB of snapshots, clamped to
    /// `[4, 256]` slots).  Eviction can never change a result.
    pub trail_cache_capacity: usize,
    /// Node numbering of the evaluation tables (layout only; results
    /// are bit-identical — see `spmap_model::Numbering`).
    pub numbering: Numbering,
    /// Pin all checkpoint trails (cached base trails and the zero
    /// trail) to the dense snapshot layout (ablation / bit-identity
    /// cells; ~2× the snapshot bytes of suffix-sparse).
    pub dense_checkpoints: bool,
    /// Per-trail checkpoint byte budget (`0` = the 32 MiB default);
    /// widens the snapshot interval, never changes results.
    pub checkpoint_budget_bytes: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            threads: None,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            trail_cache_capacity: 0,
            numbering: Numbering::default(),
            dense_checkpoints: false,
            checkpoint_budget_bytes: 0,
        }
    }
}

/// Decision counters of a [`PopulationEval`], accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PopulationStats {
    /// Candidates settled by a full from-scratch simulation.
    pub full_sims: u64,
    /// Candidates settled by a windowed replay from a cached base
    /// trail.
    pub windowed_sims: u64,
    /// Candidates answered by the fitness memo without simulation.
    pub memo_hits: u64,
    /// Candidates coalesced onto an identical candidate of the same
    /// batch (one simulation served both).
    pub batch_dups: u64,
    /// FPGA-area-infeasible candidates (no simulation at all).
    pub infeasible: u64,
    /// Base checkpoint trails recorded (one full simulation each).
    pub trails_recorded: u64,
    /// Total schedule positions skipped by windowed replays (each full
    /// simulation processes `n` positions; this is the windows' saved
    /// work, before snapshot-granularity rounding).
    pub windowed_skip: u64,
    /// Trails dropped from the trail cache by LRU eviction.
    pub trail_evictions: u64,
    /// Largest slot count the trail cache ever held (stays at or below
    /// `PopulationConfig::trail_cache_capacity` when a cap is set).
    pub trail_peak: u64,
    /// Entries dropped from the fitness memo by LRU eviction.
    pub memo_evictions: u64,
    /// Largest entry count the fitness memo ever held (stays at or
    /// below `PopulationConfig::memo_capacity` when a capacity is set).
    pub memo_peak: u64,
}
/// One population member awaiting evaluation: a full candidate mapping,
/// optionally described as a delta against a base mapping of the batch.
#[derive(Clone, Copy, Debug)]
pub struct DeltaCandidate<'a> {
    /// The complete candidate mapping (the delta already applied).
    pub mapping: &'a Mapping,
    /// The mapping's content fingerprint
    /// (`spmap_model::MappingFingerprint::value`); callers maintain it
    /// in `O(k)` from a parent's fingerprint by toggling the changed
    /// assignments.
    pub fingerprint: u128,
    /// Index into the `bases` slice of the [`PopulationEval::evaluate`]
    /// call this candidate is windowed against, or `None` for a
    /// free-standing mapping (always fully simulated on a memo miss).
    pub base: Option<usize>,
    /// A *valid* window start: the candidate and its base mapping must
    /// agree on every task whose device assignment is read before this
    /// breadth-first pop position.  The minimum earliest-read position
    /// over all changed nodes is the exact (latest sound) start; any
    /// smaller value is also sound and merely replays more.  Ignored
    /// when `base` is `None`.
    pub window_start: usize,
}

/// A base mapping candidates of one batch may window against.
#[derive(Clone, Copy, Debug)]
pub struct PopBase<'a> {
    /// The base mapping.
    pub mapping: &'a Mapping,
    /// Its content fingerprint — the trail-cache key.
    pub fingerprint: u128,
}

/// Trail-cache memory budget: the slot count is scaled so the cache
/// stays within this budget on any graph size, clamped to `[4, 256]`
/// slots.
const TRAIL_CACHE_BYTES: usize = 64 << 20;

/// Trail-cache slot count for an `n`-task graph at snapshot interval
/// `every` (the `trail_cache_capacity = 0` heuristic).  Always sized
/// from the *suffix-sparse* per-trail estimate
/// (`~n²/(2·every)` f64 entries + 1 bit each + per-snapshot device/link
/// state), deliberately ignoring the configured numbering/layout: the
/// cap feeds eviction decisions, and those must stay identical across
/// the bit-identity matrix (dense cells may overshoot the byte budget
/// by ≤ 2×, which the docs call out).
fn trail_cache_cap(n: usize, every: usize) -> usize {
    let n = n.max(1);
    let count = n / every.max(1) + 1;
    let entries = count * n - every * (count * count.saturating_sub(1)) / 2;
    let per_trail = entries * 8 + entries / 8 + count * (8 + 64 + 1) * 8;
    (TRAIL_CACHE_BYTES / per_trail.max(1)).clamp(4, 256)
}

/// Record a new trail only when its batch's children skip at least one
/// full simulation's worth of pop positions — recording costs one full
/// simulation, so the gate guarantees it pays for itself within the
/// batch, and cross-batch reuse is pure profit.
const TRAIL_GAIN_MIN: usize = 1;

/// A content-keyed LRU cache of base checkpoint trails.  `RwLock` per
/// slot: recording takes the write lock (each slot written by exactly
/// one worker), windowed replays share the read lock.
struct TrailCache {
    /// base fingerprint -> slot.
    slots: HashMap<u128, usize, FingerprintHash>,
    stores: Vec<RwLock<ScheduleCheckpoints>>,
    /// LRU stamp per slot (monotone clock; touched on every use).
    stamp: Vec<u64>,
    clock: u64,
    evictions: u64,
    capacity: usize,
    /// Snapshot interval of every stored trail (pop positions).
    every: usize,
    /// Pin newly reserved stores to the dense snapshot layout
    /// (`PopulationConfig::dense_checkpoints`).
    dense: bool,
}

impl TrailCache {
    fn new(n: usize, every: usize, capacity: usize, dense: bool) -> Self {
        Self {
            slots: HashMap::default(),
            stores: Vec::new(),
            stamp: Vec::new(),
            clock: 0,
            evictions: 0,
            capacity: if capacity == 0 {
                trail_cache_cap(n, every)
            } else {
                capacity
            },
            every,
            dense,
        }
    }

    /// Largest single trail currently held (bytes).  Shapes are fixed
    /// at first recording, so this is monotone over a run.
    fn peak_bytes(&self) -> usize {
        self.stores
            .iter()
            .map(|s| s.read().unwrap().byte_len())
            .max()
            .unwrap_or(0)
    }

    /// The slot of `fp`'s trail, refreshing its LRU stamp.
    fn get(&mut self, fp: u128) -> Option<usize> {
        self.clock += 1;
        let clock = self.clock;
        self.slots.get(&fp).copied().inspect(|&s| {
            self.stamp[s] = clock;
        })
    }

    /// Reserve a slot for `fp`, evicting the LRU trail at capacity —
    /// but never a slot the current batch already references
    /// (`pinned`): an in-batch reference holds a raw slot index, so
    /// reassigning its store mid-batch would window candidates against
    /// the wrong base's prefix state.  Returns `None` when every slot
    /// is pinned (the batch then falls back to full simulation for
    /// this base's children — always correct, merely slower).  The
    /// caller records into the returned slot's store and must pin it.
    fn reserve(&mut self, fp: u128, pinned: &mut Vec<bool>) -> Option<usize> {
        self.clock += 1;
        let slot = if self.stores.len() < self.capacity {
            let store = if self.dense {
                ScheduleCheckpoints::new_dense(self.every)
            } else {
                ScheduleCheckpoints::new(self.every)
            };
            self.stores.push(RwLock::new(store));
            self.stamp.push(0);
            pinned.push(false);
            self.stores.len() - 1
        } else {
            let slot = self
                .stamp
                .iter()
                .enumerate()
                .filter(|&(s, _)| !pinned[s])
                .min_by_key(|&(_, &st)| st)
                .map(|(s, _)| s)?;
            // lint:allow(no-unordered-iteration): retain by a pure value predicate (drop the one fingerprint mapped to the evicted slot) — order-independent.
            self.slots.retain(|_, &mut s| s != slot);
            self.evictions += 1;
            slot
        };
        self.slots.insert(fp, slot);
        self.stamp[slot] = self.clock;
        #[cfg(feature = "strict-invariants")]
        {
            assert!(
                self.stores.len() <= self.capacity,
                "strict-invariants: trail cache grew past its capacity ({} > {})",
                self.stores.len(),
                self.capacity
            );
            assert_eq!(
                self.stamp.len(),
                self.stores.len(),
                "strict-invariants: trail cache stamp/store length mismatch"
            );
            // Slot exclusivity: at most one live fingerprint per store,
            // or two bases would window against each other's prefixes.
            // lint:allow(no-unordered-iteration): collecting slot indices for a uniqueness check — any visit order yields the same sorted multiset.
            let mut owned: Vec<usize> = self.slots.values().copied().collect();
            owned.sort_unstable();
            let n = owned.len();
            owned.dedup();
            assert_eq!(
                owned.len(),
                n,
                "strict-invariants: two fingerprints share a trail cache slot"
            );
        }
        Some(slot)
    }

    /// Forget `fp`'s trail (e.g. its recording failed).
    fn forget(&mut self, fp: u128) {
        self.slots.remove(&fp);
    }
}

/// The population evaluation engine: shared immutable [`EvalTables`],
/// a bounded fitness memo, the cross-batch trail cache, and one
/// simulation scratch per worker.
pub struct PopulationEval<'g> {
    tables: EvalTables<'g>,
    threads: usize,
    workers: WorkerStates<EvalScratch>,
    memo: BoundedMemo<u128>,
    trails: TrailCache,
    /// The all-zero snapshot — the shared initial state of every
    /// simulation.  Candidates without a usable window restore it at
    /// position 0: a full-length replay through the precomputed pop
    /// order, bit-identical to the heap-driven simulation but without
    /// the ready-heap's `O(log V)` per pop.
    zero_trail: ScheduleCheckpoints,
    stats: PopulationStats,
    /// The engine thread's `spmap_par` dispatch counters at
    /// construction; [`Self::dispatch`] diffs against this.
    dispatch_base: DispatchStats,
}

impl<'g> PopulationEval<'g> {
    /// Build the evaluator for one `(graph, platform)` pair.
    pub fn new(graph: &'g TaskGraph, platform: &'g Platform, cfg: PopulationConfig) -> Self {
        let tables = EvalTables::with_numbering(graph, platform, cfg.numbering);
        let threads = resolve_threads(cfg.threads);
        let n = graph.node_count();
        let m = platform.device_count();
        let every = ScheduleCheckpoints::auto_interval_for(n, cfg.checkpoint_budget_bytes);
        // The zero trail may use the suffix-sparse layout whenever the
        // tables are pop-order numbered — the population engine only
        // ever replays the BFS order.
        let suffix = tables.suffix_windows() && !cfg.dense_checkpoints;
        let workers = WorkerStates::new(threads, |_| EvalScratch::for_tables(&tables));
        Self {
            threads,
            workers,
            memo: BoundedMemo::new(cfg.memo_capacity),
            trails: TrailCache::new(n, every, cfg.trail_cache_capacity, cfg.dense_checkpoints),
            zero_trail: ScheduleCheckpoints::zeroed_with_layout(n, m, n + 1, suffix),
            stats: PopulationStats::default(),
            dispatch_base: spmap_par::dispatch_stats(),
            tables,
        }
    }

    /// The shared evaluation tables.
    pub fn tables(&self) -> &EvalTables<'g> {
        &self.tables
    }

    /// Effective worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decision counters accumulated so far (including the live
    /// eviction counters and the memo/trail-cache peak sizes).
    pub fn stats(&self) -> PopulationStats {
        let mut s = self.stats;
        s.memo_evictions = self.memo.evictions();
        s.memo_peak = self.memo.peak() as u64;
        s.trail_evictions = self.trails.evictions;
        s.trail_peak = self.trails.stores.len() as u64;
        s
    }

    /// How this evaluator's parallel batches were dispatched so far
    /// (serial fast path / persistent-pool wakes) — the calling
    /// thread's `spmap_par` counters since construction.  Lives beside,
    /// not inside, the thread-invariant [`PopulationStats`]: dispatch
    /// counters vary with the thread count by design.
    pub fn dispatch(&self) -> DispatchStats {
        spmap_par::dispatch_stats().since(&self.dispatch_base)
    }

    /// Current entry count of the fitness memo.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Largest single checkpoint trail (bytes) the engine currently
    /// holds — cached base trails and the zero trail.  Trail shapes
    /// are fixed once recorded, so this is the run's peak; it is the
    /// per-trail number `PopulationConfig::checkpoint_budget_bytes`
    /// gates.
    pub fn checkpoint_peak_bytes(&self) -> u64 {
        self.trails.peak_bytes().max(self.zero_trail.byte_len()) as u64
    }

    /// Total simulations run so far (all workers; trail recordings and
    /// windowed replays both count one each).
    pub fn evaluations(&self) -> u64 {
        self.workers.iter().map(|w| w.stats().evaluations).sum()
    }

    /// Total schedule positions stepped so far (all workers) — the
    /// engine's real simulation work after snapshot-granularity
    /// rounding; `evaluations * n - positions` is what the windows
    /// actually saved.
    pub fn positions(&self) -> u64 {
        self.workers.iter().map(|w| w.stats().positions).sum()
    }

    /// Evaluate one batch of candidates (typically a GA generation)
    /// under the breadth-first schedule.  Returns one makespan per
    /// candidate, in input order; `None` marks an FPGA-area-infeasible
    /// mapping.
    ///
    /// Every returned makespan is bit-identical to a from-scratch
    /// `makespan_bfs` of the candidate's mapping: memo entries are pure
    /// values, coalesced duplicates share a fingerprint (hence a
    /// mapping), and every windowed replay restores the exact prefix
    /// state of a base schedule that agrees with the candidate before
    /// the window start (docs/PERF.md).  All memo reads/writes and
    /// every trail decision happen on this (serial) calling path, so
    /// results, statistics, memo and cache state are
    /// thread-invariant.
    pub fn evaluate(
        &mut self,
        bases: &[PopBase<'_>],
        cands: &[DeltaCandidate<'_>],
    ) -> Vec<Option<f64>> {
        let n = self.tables.node_count();
        let mut results: Vec<Option<f64>> = vec![None; cands.len()];
        // Serial memo pass; misses become pending `(index, window)`.
        // Duplicate fingerprints within the batch coalesce onto the
        // first occurrence.
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut first_of: HashMap<u128, usize, FingerprintHash> = HashMap::default();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            if let Some(ms) = self.memo.get(&c.fingerprint) {
                results[i] = Some(ms);
                self.stats.memo_hits += 1;
                continue;
            }
            if let Some(&first) = first_of.get(&c.fingerprint) {
                dups.push((i, first));
                self.stats.batch_dups += 1;
                continue;
            }
            first_of.insert(c.fingerprint, i);
            let from_pos = match c.base {
                Some(_) => c.window_start.min(n),
                None => 0,
            };
            pending.push((i, from_pos));
        }
        // Area feasibility on the serial path: only candidates that
        // will simulate may credit their window to a base's trail
        // recording gain, and the verdict is cheap next to a
        // simulation.
        let mut feas: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
        for &(i, from_pos) in &pending {
            if self.tables.area_feasible(cands[i].mapping) {
                feas.push((i, from_pos));
            } else {
                self.stats.infeasible += 1;
            }
        }
        if !feas.is_empty() {
            self.simulate(bases, cands, &feas, &mut results);
        }
        for (i, first) in dups {
            results[i] = results[first];
        }
        results
    }

    /// Look up cached trails for every base referenced in `refs` and
    /// record new ones where the summed window gain clears the
    /// recording gate.  `refs` holds one `(base, window start)` pair
    /// per feasible candidate windowed against that base; the window
    /// start is the pop-position saving the candidate credits to a
    /// freshly recorded trail.  Returns the usable trail slot per base.
    /// All cache decisions stay on this serial path; only the
    /// recordings themselves run in parallel.
    fn resolve_trails(
        &mut self,
        bases: &[PopBase<'_>],
        refs: &[(usize, usize)],
    ) -> Vec<Option<usize>> {
        let n = self.tables.node_count();
        let mut trail_slot: Vec<Option<usize>> = vec![None; bases.len()];
        let mut gain: Vec<usize> = vec![0; bases.len()];
        let mut referenced: Vec<bool> = vec![false; bases.len()];
        for &(b, _) in refs {
            referenced[b] = true;
        }
        // Look up cached trails once per referenced base, in ascending
        // *base index* order rather than in `refs` order: the LRU clock
        // stamps every lookup, so a canonical lookup order makes the
        // cache's stamp sequence — and with it every future eviction —
        // a function of the set of bases the batch references, not of
        // how many candidates reference each base or in which order
        // they arrive.
        for (b, &refd) in referenced.iter().enumerate() {
            if refd {
                trail_slot[b] = self.trails.get(bases[b].fingerprint);
            }
        }
        for &(b, g) in refs {
            if trail_slot[b].is_none() {
                gain[b] += g;
            }
        }
        // Slots the current batch references hold raw indices into the
        // cache, so eviction must not reassign them mid-batch: pin
        // every looked-up slot, and every slot as it is reserved.
        let mut pinned: Vec<bool> = vec![false; self.trails.stores.len()];
        for slot in trail_slot.iter().flatten() {
            pinned[*slot] = true;
        }
        let mut record: Vec<(usize, usize)> = Vec::new(); // (base, slot)
        let mut aliases: Vec<(usize, usize)> = Vec::new(); // duplicate-fp bases
        for b in 0..bases.len() {
            if trail_slot[b].is_some() || gain[b] < TRAIL_GAIN_MIN * n {
                continue;
            }
            // A duplicate-fingerprint base (identical mapping, common in
            // converged populations) may already have reserved a slot
            // earlier in this loop: one recording serves both.
            if let Some(slot) = self.trails.get(bases[b].fingerprint) {
                aliases.push((b, slot));
                continue;
            }
            if let Some(slot) = self.trails.reserve(bases[b].fingerprint, &mut pinned) {
                pinned[slot] = true;
                record.push((b, slot));
            }
            // `None`: every slot is pinned by this batch — skip the
            // trail; this base's children fall back to full replays.
        }
        let tables = &self.tables;
        let threads = self.threads;
        let trails = &self.trails;
        let base_ms: Vec<Option<f64>> =
            par_map_with_threads(threads, &mut self.workers, &record, |w, _, item| {
                let &(b, slot) = item;
                let mut store = trails.stores[slot]
                    .write()
                    .expect("trail recording never panics");
                tables.makespan_order_checkpointed(
                    w,
                    bases[b].mapping,
                    tables.bfs_order(),
                    &mut store,
                )
            });
        // An infeasible base has no usable snapshots: drop its cache
        // entry (and every alias to its slot) so nothing windows
        // against garbage.
        let mut failed: Vec<bool> = vec![false; self.trails.stores.len()];
        for (&(b, slot), ms) in record.iter().zip(&base_ms) {
            if ms.is_some() {
                trail_slot[b] = Some(slot);
                self.stats.trails_recorded += 1;
            } else {
                self.trails.forget(bases[b].fingerprint);
                failed[slot] = true;
            }
        }
        for (b, slot) in aliases {
            if !failed[slot] {
                trail_slot[b] = Some(slot);
            }
        }
        // A freshly recorded trail also computed its base's exact
        // makespan — keep it hot in the memo.
        for (&(b, _), ms) in record.iter().zip(&base_ms) {
            if let Some(ms) = *ms {
                self.memo.insert(bases[b].fingerprint, ms);
            }
        }
        trail_slot
    }

    /// Simulate the feasible pending candidates: every candidate
    /// independently windows against its nearest cached base trail,
    /// or replays from the zero state.
    fn simulate(
        &mut self,
        bases: &[PopBase<'_>],
        cands: &[DeltaCandidate<'_>],
        feas: &[(usize, usize)],
        results: &mut [Option<f64>],
    ) {
        let refs: Vec<(usize, usize)> = feas
            .iter()
            .filter_map(|&(i, from_pos)| cands[i].base.map(|b| (b, from_pos)))
            .collect();
        let trail_slot = self.resolve_trails(bases, &refs);
        // Simulate the pending candidates in parallel: windowed from
        // the base trail where one exists, from scratch otherwise.
        let items: Vec<(usize, usize, Option<usize>)> = feas
            .iter()
            .map(|&(i, from_pos)| (i, from_pos, cands[i].base.and_then(|b| trail_slot[b])))
            .collect();
        let tables = &self.tables;
        let trails = &self.trails;
        let zero_trail = &self.zero_trail;
        let sims: Vec<f64> =
            par_map_with_threads(self.threads, &mut self.workers, &items, |w, _, item| {
                let &(i, from_pos, trail) = item;
                let store;
                let (ckpt, from_pos) = match trail {
                    Some(slot) => {
                        store = trails.stores[slot]
                            .read()
                            .expect("trail readers never panic");
                        (&*store, from_pos)
                    }
                    // No base trail: replay everything from the shared
                    // zero state — still heap-free through the pop order.
                    None => (zero_trail, 0),
                };
                match tables.makespan_bfs_window(w, cands[i].mapping, ckpt, from_pos, f64::INFINITY)
                {
                    WindowSim::Done(ms) => ms,
                    WindowSim::Cutoff => {
                        unreachable!("no cutoff under an infinite bound")
                    }
                }
            });
        // Serial wrap-up: stats and memo inserts in candidate order.
        for (&(i, from_pos, trail), &ms) in items.iter().zip(&sims) {
            if trail.is_some() {
                self.stats.windowed_sims += 1;
                self.stats.windowed_skip += from_pos as u64;
            } else {
                self.stats.full_sims += 1;
            }
            self.memo.insert(cands[i].fingerprint, ms);
            results[i] = Some(ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId};
    use spmap_model::{DeviceId, Evaluator, MappingFingerprint};

    fn setup(seed: u64) -> (TaskGraph, Platform) {
        let mut g = random_sp_graph(&SpGenConfig::new(40, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        (g, Platform::reference())
    }

    /// A child mapping: its base's index, the mapping, and the nodes it
    /// changed from that base.
    type Child = (usize, Mapping, Vec<NodeId>);

    /// A family of base mappings plus single/multi-node children of each.
    fn zoo(g: &TaskGraph) -> (Vec<Mapping>, Vec<Child>) {
        let n = g.node_count();
        let bases: Vec<Mapping> = (0..3u32)
            .map(|b| {
                Mapping::from_vec(
                    (0..n)
                        .map(|i| DeviceId(((i as u32).wrapping_mul(3).wrapping_add(b)) % 2))
                        .collect(),
                )
            })
            .collect();
        let mut children = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            for t in 0..6u32 {
                let mut m = base.clone();
                let mut changed = Vec::new();
                for j in 0..=(t % 3) {
                    let v = NodeId((t.wrapping_mul(7).wrapping_add(j * 11)) % n as u32);
                    let d = DeviceId((m.device(v).0 + 1) % 2);
                    if m.device(v) != d && !changed.contains(&v) {
                        m.set(v, d);
                        changed.push(v);
                    }
                }
                children.push((bi, m, changed));
            }
        }
        (bases, children)
    }

    fn base_refs(bases: &[Mapping]) -> Vec<PopBase<'_>> {
        bases
            .iter()
            .map(|m| PopBase {
                mapping: m,
                fingerprint: MappingFingerprint::of(m).value(),
            })
            .collect()
    }

    fn cand_refs<'a>(
        g: &TaskGraph,
        p: &Platform,
        children: &'a [(usize, Mapping, Vec<NodeId>)],
    ) -> Vec<DeltaCandidate<'a>> {
        let tables = EvalTables::new(g, p);
        children
            .iter()
            .map(|(bi, m, changed)| DeltaCandidate {
                mapping: m,
                fingerprint: MappingFingerprint::of(m).value(),
                base: Some(*bi),
                window_start: changed
                    .iter()
                    .map(|&v| tables.earliest_read_pos(v))
                    .min()
                    .unwrap_or(g.node_count()),
            })
            .collect()
    }

    #[test]
    fn population_results_match_serial_reference_bitwise() {
        for seed in [1u64, 5, 9] {
            let (g, p) = setup(seed);
            let (bases, children) = zoo(&g);
            for threads in [1usize, 4] {
                let mut pe = PopulationEval::new(
                    &g,
                    &p,
                    PopulationConfig {
                        threads: Some(threads),
                        ..PopulationConfig::default()
                    },
                );
                let bases_v = base_refs(&bases);
                let cands = cand_refs(&g, &p, &children);
                let got = pe.evaluate(&bases_v, &cands);
                let mut ev = Evaluator::new(&g, &p);
                for (c, r) in children.iter().zip(&got) {
                    assert_eq!(
                        *r,
                        ev.makespan_bfs(&c.1),
                        "seed {seed} t{threads}: population fitness drifted"
                    );
                }
                // A second pass over the same candidates is pure memo.
                let sims_before = pe.stats().full_sims + pe.stats().windowed_sims;
                let again = pe.evaluate(&bases_v, &cands);
                assert_eq!(got, again);
                assert_eq!(
                    pe.stats().full_sims + pe.stats().windowed_sims,
                    sims_before,
                    "second pass must be memo-only"
                );
            }
        }
    }

    #[test]
    fn batch_duplicates_are_coalesced() {
        let (g, p) = setup(2);
        let (bases, mut children) = zoo(&g);
        // Duplicate every child once.
        let copies: Vec<_> = children.clone();
        children.extend(copies);
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        let mut pe = PopulationEval::new(
            &g,
            &p,
            PopulationConfig {
                threads: Some(2),
                ..PopulationConfig::default()
            },
        );
        let got = pe.evaluate(&bases_v, &cands);
        let half = got.len() / 2;
        assert_eq!(&got[..half], &got[half..], "duplicates must agree");
        assert!(pe.stats().batch_dups >= half as u64 - bases.len() as u64);
        let mut ev = Evaluator::new(&g, &p);
        for (c, r) in children.iter().zip(&got) {
            assert_eq!(*r, ev.makespan_bfs(&c.1));
        }
    }

    #[test]
    fn trail_cache_survives_across_batches() {
        let (g, p) = setup(3);
        let n = g.node_count();
        let base = Mapping::all_default(&g, &p);
        let tables = EvalTables::new(&g, &p);
        // Children touching only late-read nodes: every batch windows.
        let mut late_nodes: Vec<NodeId> = g.nodes().collect();
        late_nodes.sort_by_key(|&v| std::cmp::Reverse(tables.earliest_read_pos(v)));
        let children: Vec<(Mapping, Vec<NodeId>)> = late_nodes
            .iter()
            .take(6)
            .map(|&v| {
                let mut m = base.clone();
                m.set(v, DeviceId(1));
                (m, vec![v])
            })
            .collect();
        let total_gain: usize = children
            .iter()
            .map(|(_, ch)| tables.earliest_read_pos(ch[0]))
            .sum();
        // A fresh trail is credited with every child's full window —
        // the recording-gate arithmetic this test pins.
        let mut pe = PopulationEval::new(
            &g,
            &p,
            PopulationConfig {
                threads: Some(1),
                ..PopulationConfig::default()
            },
        );
        let base_fp = MappingFingerprint::of(&base).value();
        let bases_v = [PopBase {
            mapping: &base,
            fingerprint: base_fp,
        }];
        let mut ev = Evaluator::new(&g, &p);
        for round in 0..2 {
            let cands: Vec<DeltaCandidate<'_>> = children
                .iter()
                .map(|(m, ch)| DeltaCandidate {
                    mapping: m,
                    fingerprint: MappingFingerprint::of(m).value(),
                    base: Some(0),
                    window_start: tables.earliest_read_pos(ch[0]),
                })
                .collect();
            let got = pe.evaluate(&bases_v, &cands);
            for ((m, _), r) in children.iter().zip(&got) {
                assert_eq!(*r, ev.makespan_bfs(m), "round {round}");
            }
        }
        if total_gain >= n {
            assert_eq!(
                pe.stats().trails_recorded,
                1,
                "one trail, recorded once, reused next batch: {:?}",
                pe.stats()
            );
            assert!(pe.stats().windowed_sims > 0);
        }
    }

    #[test]
    fn tiny_trail_cache_pins_in_batch_slots_and_stays_exact() {
        // More trail-worthy bases per batch than cache slots: reserves
        // beyond the pinned capacity must fall back to full replays
        // (never reassign an in-batch slot), and cross-batch eviction
        // churn must never move a result.
        let (g, p) = setup(11);
        let n = g.node_count();
        let tables = EvalTables::new(&g, &p);
        let mut late: Vec<NodeId> = g.nodes().collect();
        late.sort_by_key(|&v| std::cmp::Reverse(tables.earliest_read_pos(v)));
        let late = &late[..4.min(late.len())];
        // Distinct bases: the default mapping with one early node moved.
        let bases: Vec<Mapping> = (0..8u32)
            .map(|b| {
                let mut m = Mapping::all_default(&g, &p);
                m.set(NodeId(b % n as u32), DeviceId(1));
                m
            })
            .collect();
        // Each base gets one child per late-read node, so every base's
        // summed window gain clears the recording gate.
        let mut children: Vec<(usize, Mapping, Vec<NodeId>)> = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            for &v in late {
                let mut m = base.clone();
                m.set(v, DeviceId((m.device(v).0 + 1) % 2));
                children.push((bi, m, vec![v]));
            }
        }
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        let mut pe = PopulationEval::new(
            &g,
            &p,
            PopulationConfig {
                threads: Some(2),
                trail_cache_capacity: 3,
                ..PopulationConfig::default()
            },
        );
        let mut ev = Evaluator::new(&g, &p);
        for round in 0..3 {
            let got = pe.evaluate(&bases_v, &cands);
            for ((_, m, _), r) in children.iter().zip(&got) {
                assert_eq!(*r, ev.makespan_bfs(m), "round {round}");
            }
        }
        let stats = pe.stats();
        assert!(
            stats.trails_recorded <= 3,
            "at most capacity trails per batch, and round 2+ is memo-only: {stats:?}"
        );
        assert!(
            stats.trail_peak <= 3,
            "trail cache outgrew its capacity: {stats:?}"
        );
    }

    #[test]
    fn tiny_memo_capacity_evicts_but_never_changes_results() {
        let (g, p) = setup(7);
        let (bases, children) = zoo(&g);
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        let run = |capacity: usize| {
            let mut pe = PopulationEval::new(
                &g,
                &p,
                PopulationConfig {
                    threads: Some(2),
                    memo_capacity: capacity,
                    ..PopulationConfig::default()
                },
            );
            let mut all = Vec::new();
            for _ in 0..3 {
                all.push(pe.evaluate(&bases_v, &cands));
            }
            (all, pe.stats(), pe.memo_len())
        };
        let (unbounded, _, _) = run(0);
        let (tiny, stats, len) = run(4);
        assert_eq!(unbounded, tiny, "eviction changed a fitness value");
        assert!(stats.memo_evictions > 0, "capacity 4 must evict: {stats:?}");
        assert!(len <= 4, "memo exceeded its capacity: {len}");
        assert!(stats.memo_peak <= 4, "peak exceeded capacity: {stats:?}");
    }

    #[test]
    fn infeasible_candidates_are_reported_not_simulated() {
        let (g, p) = setup(6);
        let n = g.node_count();
        // Mapping everything onto the FPGA blows any realistic budget
        // once areas are inflated.
        let mut g2 = g.clone();
        for v in 0..n {
            g2.task_mut(NodeId(v as u32)).area = 1e6;
        }
        let all_fpga = Mapping::uniform(n, DeviceId(2));
        let ok = Mapping::all_default(&g2, &p);
        let cands = [
            DeltaCandidate {
                mapping: &all_fpga,
                fingerprint: MappingFingerprint::of(&all_fpga).value(),
                base: None,
                window_start: 0,
            },
            DeltaCandidate {
                mapping: &ok,
                fingerprint: MappingFingerprint::of(&ok).value(),
                base: None,
                window_start: 0,
            },
        ];
        let mut pe = PopulationEval::new(
            &g2,
            &p,
            PopulationConfig {
                threads: Some(1),
                ..PopulationConfig::default()
            },
        );
        let got = pe.evaluate(&[], &cands);
        assert_eq!(got[0], None, "infeasible must be None");
        assert!(got[1].is_some(), "feasible must evaluate");
        assert_eq!(pe.stats().infeasible, 1, "{:?}", pe.stats());
    }
}
