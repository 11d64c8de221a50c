//! The response cache: whole mapper results, addressed by everything
//! that determines them.
//!
//! A decomposition mapping is a pure function of graph, platform and
//! configuration — the engine reads no clocks and its decisions are
//! thread-count invariant (docs/DETERMINISM.md).  A repeat request can
//! therefore be answered with the stored result of its first run: a
//! hit skips decomposition, table construction and the search.  It
//! costs `O(1)` in both the graph size and the number of resident
//! entries: two memo reads (graph and platform memoize their
//! fingerprints, see `spmap_model::fingerprint`), one hash-map probe,
//! two ordered-index updates (`O(log n)`) and the clone of the result.
//!
//! ## Key soundness
//!
//! [`response_key`] chains [`graph_fingerprint`] and
//! [`platform_fingerprint`] (exactly the inputs the evaluator and the
//! decomposition read; names are excluded) with every field of the
//! resolved [`MapperConfig`] and the request's device restriction:
//! strategy and cut policy, heuristic and γ bits, iteration cap, cost
//! model with schedules and seed, and the whole [`EngineConfig`].  The
//! engine knobs are in the key on purpose.  Mappings, makespans and
//! histories never depend on them, but the γ-search's `evaluations`
//! and batch counters scale with its speculation wave, which follows
//! the worker count (see [`EngineConfig::chunk_size`]), and memo
//! capacities and checkpoint budgets show in the counters too.  With
//! them keyed — the thread count resolved through
//! [`EngineConfig::effective_threads`] after the service's runtime fill
//! — a hit replays every [`MapperResult`] field exactly, except
//! `dispatch`: a hit dispatched nothing, so it reports zero dispatch
//! work.  The key is built by exhaustive destructuring, so a new
//! configuration field does not compile until it is keyed.  A 128-bit
//! collision (birthday bound ≈ `k²/2^129` over `k` distinct requests)
//! would replay a wrong-but-deterministic response, the same trade the
//! engine's mapping memo makes.
//!
//! ## Eviction
//!
//! [`ResponseCache`] is a byte-budgeted LRU: entries carry a monotone,
//! unique use stamp, and an insert evicts the stalest entries until the
//! budget holds.  An entry larger than the whole budget is not kept (and
//! counts as an eviction), so a 1-byte budget caches nothing.  Storage
//! is two indexes: a `HashMap` from key to entry, which is only ever
//! probed by key and never iterated, so its order cannot reach a
//! decision; and a `BTreeMap` from stamp to key, whose first element is
//! the next victim.  Neither a lookup nor an insert walks the resident
//! entries, and an eviction costs `O(log n)`.  The budget counts both
//! indexes' per-entry cost (`entry_bytes`).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};

use spmap_decomp::CutPolicy;
use spmap_graph::TaskGraph;
use spmap_model::{
    graph_fingerprint, platform_fingerprint, ContentHash, DeviceId, Numbering, Platform,
};
use spmap_par::DispatchStats;

use crate::batch::EngineConfig;
use crate::mapper::{
    CostModel, MapperConfig, MapperError, MapperResult, SearchHeuristic, SubgraphStrategy,
};
use crate::request::MapRequest;
use crate::runtime::RuntimeConfig;

/// Default response-cache budget.
pub const DEFAULT_RESPONSE_BUDGET_BYTES: usize = 64 << 20;

/// The 128-bit key of the response to mapping `graph` on `platform`
/// with `cfg`, restricted to `devices` (see the module docs).
pub(crate) fn response_key(
    graph: &TaskGraph,
    platform: &Platform,
    cfg: &MapperConfig,
    devices: Option<&[DeviceId]>,
) -> u128 {
    let MapperConfig {
        strategy,
        heuristic,
        iteration_cap,
        cost,
        engine,
    } = *cfg;
    let EngineConfig {
        threads: _, // keyed as `effective_threads()` below
        chunk_size,
        prune,
        memo,
        memo_capacity,
        numbering,
        dense_checkpoints,
        checkpoint_budget_bytes,
    } = engine;
    let mut h = ContentHash::new(0x7265_7370); // "resp"
    h.absorb_u128(graph_fingerprint(graph));
    h.absorb_u128(platform_fingerprint(platform));
    match strategy {
        SubgraphStrategy::SingleNode => h.absorb(1),
        SubgraphStrategy::SeriesParallel { cut_policy } => {
            h.absorb(2);
            match cut_policy {
                CutPolicy::SmallestSubtree => h.absorb(1),
                CutPolicy::LargestSubtree => h.absorb(2),
                CutPolicy::FirstActive => h.absorb(3),
                CutPolicy::Random { seed } => {
                    h.absorb(4);
                    h.absorb(seed);
                }
            }
        }
    }
    match heuristic {
        SearchHeuristic::Exhaustive => h.absorb(1),
        SearchHeuristic::GammaThreshold { gamma } => {
            h.absorb(2);
            h.absorb_f64(gamma);
        }
    }
    match iteration_cap {
        None => h.absorb(0),
        Some(cap) => {
            h.absorb(1);
            h.absorb(cap as u64);
        }
    }
    match cost {
        CostModel::Bfs => h.absorb(1),
        CostModel::Report { schedules, seed } => {
            h.absorb(2);
            h.absorb(schedules as u64);
            h.absorb(seed);
        }
    }
    h.absorb(engine.effective_threads() as u64);
    h.absorb(chunk_size as u64);
    h.absorb(u64::from(prune));
    h.absorb(u64::from(memo));
    h.absorb(memo_capacity as u64);
    h.absorb(match numbering {
        Numbering::Identity => 1,
        Numbering::PopOrder => 2,
    });
    h.absorb(u64::from(dense_checkpoints));
    h.absorb(checkpoint_budget_bytes as u64);
    match devices {
        None => h.absorb(0),
        Some(ds) => {
            h.absorb(1);
            h.absorb(ds.len() as u64);
            for d in ds {
                h.absorb(u64::from(d.0));
            }
        }
    }
    h.finish()
}

/// Validate `req`, resolve its engine knobs against `runtime`
/// (precedence: explicit request > runtime > environment; the thread
/// count is pinned to its effective value, so the run and its key agree)
/// and key its response.  Every cached entry point — one-shot maps and
/// session opens — starts here.
pub(crate) fn resolve(
    req: &MapRequest,
    runtime: &RuntimeConfig,
) -> Result<(MapperConfig, u128), MapperError> {
    let mut cfg = req.mapper_config()?;
    if cfg.engine.threads.is_none() {
        cfg.engine.threads = runtime.threads;
    }
    cfg.engine.threads = Some(cfg.engine.effective_threads());
    if cfg.engine.checkpoint_budget_bytes == 0 {
        cfg.engine.checkpoint_budget_bytes = runtime.checkpoint_budget_bytes;
    }
    let key = response_key(
        &req.graph,
        &req.platform,
        &cfg,
        req.limits.devices.as_deref(),
    );
    Ok((cfg, key))
}

/// Answer `key` from `cache`, or run `miss` and keep its result.  The
/// miss runs outside the lock, so a request for a different key never
/// waits behind a search.  Only `Ok` results are inserted: a mapper
/// error returns before the insert and a panic unwinds past it, so
/// neither is ever cached.  Returns the result and whether it was a hit.
pub(crate) fn cached(
    cache: Option<&Mutex<ResponseCache>>,
    key: u128,
    miss: impl FnOnce() -> Result<MapperResult, MapperError>,
) -> Result<(MapperResult, bool), MapperError> {
    let Some(cache) = cache else {
        return miss().map(|r| (r, false));
    };
    if let Some(hit) = lock(cache).lookup(key) {
        return Ok((hit, true));
    }
    let result = miss()?;
    lock(cache).insert(key, &result);
    Ok((result, false))
}

/// Recover-and-continue on poison: the miss runs outside the lock, and
/// every locked section is a lookup or an insert whose bookkeeping holds
/// at every statement (docs/ROBUSTNESS.md).
fn lock(cache: &Mutex<ResponseCache>) -> MutexGuard<'_, ResponseCache> {
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counters of one [`ResponseCache`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller maps and inserts).
    pub misses: u64,
    /// Entries evicted to hold the byte budget, plus entries too large
    /// for the whole budget that were never kept.
    pub evictions: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: usize,
    /// High-water mark of resident entries.
    pub peak_entries: usize,
}

struct Entry {
    /// Stored with zeroed `dispatch`, the value a hit reports.
    result: MapperResult,
    /// Monotone, unique last-use stamp: the entry's key in the LRU index.
    stamp: u64,
    bytes: usize,
}

/// Approximate heap footprint of one entry, the unit of the budget: the
/// hash-map slot (key, entry and control byte), the LRU index's
/// `(stamp, key)` pair, and the result's heap arrays.
fn entry_bytes(r: &MapperResult) -> usize {
    std::mem::size_of::<(u128, Entry)>()
        + 1
        + std::mem::size_of::<(u64, u128)>()
        + r.mapping.len() * std::mem::size_of::<DeviceId>()
        + r.history.len() * std::mem::size_of::<f64>()
}

/// A byte-budgeted LRU of [`MapperResult`]s keyed by [`response_key`].
/// Not internally synchronized: the service wraps it in a `Mutex` and
/// maps outside the lock.
pub struct ResponseCache {
    /// Probed by key only, never iterated.  Keeps the default SipHash:
    /// a key is an unkeyed, invertible hash of caller-supplied content,
    /// so a fixed fold would let a caller search offline for requests
    /// whose keys share one bucket.
    entries: HashMap<u128, Entry>,
    /// Use stamp -> key, oldest first: the eviction order.
    lru: BTreeMap<u64, u128>,
    clock: u64,
    budget_bytes: usize,
    cur_bytes: usize,
    stats: ResponseCacheStats,
}

impl ResponseCache {
    /// An empty cache holding at most ~`budget_bytes` of responses
    /// (`0` selects [`DEFAULT_RESPONSE_BUDGET_BYTES`]).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            budget_bytes: if budget_bytes == 0 {
                DEFAULT_RESPONSE_BUDGET_BYTES
            } else {
                budget_bytes
            },
            cur_bytes: 0,
            stats: ResponseCacheStats::default(),
        }
    }

    /// The entry under `key`, re-stamped with the current clock.
    fn touch(&mut self, key: u128) -> Option<&Entry> {
        let e = self.entries.get_mut(&key)?;
        self.lru.remove(&e.stamp);
        e.stamp = self.clock;
        self.lru.insert(self.clock, key);
        Some(e)
    }

    /// The response cached under `key`, refreshing its LRU stamp.
    pub(crate) fn lookup(&mut self, key: u128) -> Option<MapperResult> {
        self.clock += 1;
        match self.touch(key).map(|e| e.result.clone()) {
            Some(hit) => {
                self.stats.hits += 1;
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Keep `result` under `key`, evicting least-recently-used entries
    /// until the budget holds.  A concurrent miss may have inserted the
    /// same key first; its entry stays (the results are identical).
    pub(crate) fn insert(&mut self, key: u128, result: &MapperResult) {
        self.clock += 1;
        if self.touch(key).is_some() {
            return;
        }
        let result = MapperResult {
            dispatch: DispatchStats::default(),
            ..result.clone()
        };
        let bytes = entry_bytes(&result);
        if bytes > self.budget_bytes {
            self.stats.evictions += 1;
            return;
        }
        let stamp = self.clock;
        self.entries.insert(
            key,
            Entry {
                result,
                stamp,
                bytes,
            },
        );
        self.lru.insert(stamp, key);
        self.cur_bytes += bytes;
        while self.cur_bytes > self.budget_bytes {
            // The new entry fits the budget alone and holds the newest
            // stamp, so it is never the victim.
            let (_, oldest) = self.lru.pop_first().expect("over budget, so non-empty");
            let evicted = self.entries.remove(&oldest).expect("indexes agree");
            self.cur_bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.cur_bytes);
        self.stats.peak_entries = self.stats.peak_entries.max(self.entries.len());
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResponseCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::decomposition_map;
    use crate::request::{Algo, GaParams};
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId};
    use std::sync::Arc;

    fn graph(nodes: usize, seed: u64) -> TaskGraph {
        let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        g
    }

    fn request(nodes: usize, seed: u64) -> MapRequest {
        MapRequest::new(
            Arc::new(graph(nodes, seed)),
            Arc::new(Platform::reference()),
        )
    }

    fn key(req: &MapRequest) -> u128 {
        resolve(req, &RuntimeConfig::default()).expect("valid").1
    }

    fn result(nodes: usize, seed: u64) -> MapperResult {
        let req = request(nodes, seed);
        let cfg = req.mapper_config().expect("decomposition family");
        decomposition_map(&req.graph, &req.platform, &cfg)
    }

    #[test]
    fn every_result_relevant_field_changes_the_key() {
        let base = request(16, 3);
        let with_engine = |f: fn(&mut EngineConfig)| {
            let mut r = base.clone();
            f(&mut r.limits.engine);
            r
        };
        let mut attr = (*base.graph).clone();
        attr.task_mut(NodeId(4)).complexity *= 1.5;
        let mut capped = base.clone();
        capped.limits.iteration_cap = Some(3);
        let mut restricted = base.clone();
        restricted.limits.devices = Some(vec![DeviceId(0), DeviceId(1)]);
        let mut reordered = base.clone();
        reordered.limits.devices = Some(vec![DeviceId(1), DeviceId(0)]);
        let variants = [
            MapRequest {
                graph: Arc::new(attr),
                ..base.clone()
            },
            MapRequest {
                platform: Arc::new(Platform::cpu_only()),
                ..base.clone()
            },
            base.clone().with_algo(Algo::Exhaustive),
            base.clone().with_algo(Algo::GammaThreshold { gamma: 2.0 }),
            MapRequest {
                strategy: SubgraphStrategy::SingleNode,
                ..base.clone()
            },
            MapRequest {
                strategy: SubgraphStrategy::SeriesParallel {
                    cut_policy: CutPolicy::Random { seed: 5 },
                },
                ..base.clone()
            },
            MapRequest {
                cost_model: CostModel::Report {
                    schedules: 2,
                    seed: 7,
                },
                ..base.clone()
            },
            capped,
            restricted,
            reordered,
            with_engine(|e| e.threads = Some(e.effective_threads() + 1)),
            with_engine(|e| e.chunk_size += 1),
            with_engine(|e| e.prune = !e.prune),
            with_engine(|e| e.memo = !e.memo),
            with_engine(|e| e.memo_capacity += 1),
            with_engine(|e| e.numbering = Numbering::Identity),
            with_engine(|e| e.dense_checkpoints = !e.dense_checkpoints),
            with_engine(|e| e.checkpoint_budget_bytes = 1 << 20),
        ];
        let mut seen = vec![key(&base)];
        for (i, v) in variants.iter().enumerate() {
            let k = key(v);
            assert!(!seen.contains(&k), "variant {i} collided");
            seen.push(k);
        }
    }

    #[test]
    fn same_content_in_fresh_arcs_keys_the_same() {
        let a = request(16, 3);
        let b = request(16, 3);
        assert!(!Arc::ptr_eq(&a.graph, &b.graph));
        assert_eq!(key(&a), key(&b));
        // An unset thread count keys as its effective value.
        let mut pinned = a.clone();
        pinned.limits.engine.threads = Some(a.limits.engine.effective_threads());
        assert_eq!(key(&a), key(&pinned));
        // The runtime fills what the request leaves unset, not more.
        let runtime = RuntimeConfig {
            threads: Some(pinned.limits.engine.effective_threads() + 1),
            ..RuntimeConfig::default()
        };
        let filled = |r: &MapRequest| resolve(r, &runtime).expect("valid").1;
        assert_ne!(filled(&a), key(&a));
        assert_eq!(filled(&pinned), key(&pinned));
    }

    #[test]
    fn cache_hits_and_refreshes_lru() {
        let mut cache = ResponseCache::new(usize::MAX);
        let r = result(12, 1);
        assert!(cache.lookup(7).is_none());
        cache.insert(7, &r);
        let got = cache.lookup(7).expect("cached");
        assert_eq!(got.mapping, r.mapping);
        assert_eq!(got.history, r.history);
        assert_eq!(got.batch, r.batch);
        assert_eq!(got.evaluations, r.evaluations);
        assert_eq!(
            got.dispatch,
            DispatchStats::default(),
            "a hit dispatched nothing"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cache_evicts_stalest_under_budget_but_keeps_newest() {
        let rs: Vec<MapperResult> = (0..4).map(|i| result(12, i)).collect();
        let most = rs.iter().map(entry_bytes).max().expect("four results");
        // Budget of one entry: every insert evicts the previous one.
        let mut cache = ResponseCache::new(most);
        for (k, r) in rs.iter().enumerate() {
            cache.insert(k as u128, r);
            assert_eq!(cache.entries.len(), 1, "budget holds exactly the newest");
            assert!(cache.lookup(k as u128).is_some());
        }
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.lookup(0).is_none(), "stalest evicted");

        // Roomier budget: the LRU victim is the *unused* entry.
        let three = rs[..3].iter().map(entry_bytes).sum::<usize>();
        let mut cache = ResponseCache::new(three + entry_bytes(&rs[3]) - 1);
        for (k, r) in rs.iter().take(3).enumerate() {
            cache.insert(k as u128, r);
        }
        cache.lookup(0);
        cache.lookup(1);
        cache.insert(3, &rs[3]); // evicts entry 2, the stalest
        assert!(cache.lookup(2).is_none());
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn insert_race_keeps_the_resident_entry() {
        let mut cache = ResponseCache::new(usize::MAX);
        let r = result(12, 2);
        cache.insert(9, &r);
        let bytes = cache.cur_bytes;
        cache.insert(9, &r);
        assert_eq!(cache.entries.len(), 1, "a double insert stores one entry");
        assert_eq!(cache.cur_bytes, bytes);
    }

    #[test]
    fn entries_larger_than_the_budget_are_not_retained() {
        let r = result(12, 4);
        let mut cache = ResponseCache::new(entry_bytes(&r) - 1);
        cache.insert(1, &r);
        assert!(cache.entries.is_empty());
        assert_eq!(cache.cur_bytes, 0);
        assert_eq!(cache.stats().evictions, 1, "a refused entry counts");
        assert_eq!(cache.stats().peak_entries, 0);
        let mut starved = ResponseCache::new(1);
        starved.insert(1, &r);
        assert!(
            starved.lookup(1).is_none(),
            "a 1-byte budget caches nothing"
        );
    }

    #[test]
    fn errors_and_panics_are_never_cached() {
        let cache = Mutex::new(ResponseCache::new(0));
        let refused = cached(Some(&cache), 1, || Err(MapperError::InvalidGamma));
        assert_eq!(refused.err(), Some(MapperError::InvalidGamma));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cached(Some(&cache), 2, || panic!("search died"))
        }));
        assert!(unwound.is_err());
        assert!(lock(&cache).entries.is_empty(), "nothing was inserted");
        let (r, hit) = cached(Some(&cache), 1, || Ok(result(12, 5))).expect("maps");
        assert!(!hit, "the refused key is still a miss");
        let (again, hit) = cached(Some(&cache), 1, || unreachable!()).expect("hit");
        assert!(hit);
        assert_eq!(again.mapping, r.mapping);

        // Validation errors refuse before any key exists.
        let ga = request(12, 6).with_algo(Algo::Ga(GaParams::default()));
        assert!(matches!(
            resolve(&ga, &RuntimeConfig::default()),
            Err(MapperError::UnsupportedAlgo { .. })
        ));
    }

    /// The linear-scan LRU the indexed cache replaced, kept as the
    /// executable spec of its policy: same clock, same stamps, same
    /// budget unit, victims found by scanning for the minimum stamp.
    struct ReferenceCache {
        entries: Vec<(u128, u64, usize)>,
        clock: u64,
        budget_bytes: usize,
        cur_bytes: usize,
        stats: ResponseCacheStats,
        victims: Vec<u128>,
    }

    impl ReferenceCache {
        fn new(budget_bytes: usize) -> Self {
            Self {
                entries: Vec::new(),
                clock: 0,
                budget_bytes,
                cur_bytes: 0,
                stats: ResponseCacheStats::default(),
                victims: Vec::new(),
            }
        }

        fn lookup(&mut self, key: u128) -> bool {
            self.clock += 1;
            let clock = self.clock;
            match self.entries.iter_mut().find(|e| e.0 == key) {
                Some(e) => {
                    e.1 = clock;
                    self.stats.hits += 1;
                    true
                }
                None => {
                    self.stats.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: u128, bytes: usize) {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                e.1 = self.clock;
                return;
            }
            if bytes > self.budget_bytes {
                self.stats.evictions += 1;
                return;
            }
            self.entries.push((key, self.clock, bytes));
            self.cur_bytes += bytes;
            while self.cur_bytes > self.budget_bytes {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("entries is non-empty");
                let evicted = self.entries.swap_remove(oldest);
                self.cur_bytes -= evicted.2;
                self.stats.evictions += 1;
                self.victims.push(evicted.0);
            }
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.cur_bytes);
            self.stats.peak_entries = self.stats.peak_entries.max(self.entries.len());
        }

        /// Resident keys, least recently used first.
        fn lru_order(&self) -> Vec<u128> {
            let mut by_age = self.entries.clone();
            by_age.sort_by_key(|e| e.1);
            by_age.into_iter().map(|e| e.0).collect()
        }
    }

    impl ResponseCache {
        /// Resident keys, least recently used first.
        fn lru_order(&self) -> Vec<u128> {
            self.lru.values().copied().collect()
        }
    }

    #[test]
    fn indexed_cache_matches_the_linear_reference() {
        // Results of several sizes, so evictions free different amounts.
        let rs: Vec<MapperResult> = [6, 12, 20, 33].iter().map(|&n| result(n, 1)).collect();
        let largest = rs.iter().map(entry_bytes).max().expect("four results");
        for budget in [1, largest, 3 * largest, 5 * largest + 7] {
            let mut fast = ResponseCache::new(budget);
            let mut slow = ReferenceCache::new(budget);
            let mut seen_victims = 0;
            let mut state = 0x5eed_u64 ^ budget as u64;
            for step in 0..3000 {
                state = spmap_graph::fingerprint::mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
                let key = u128::from(state % 24);
                let r = &rs[(state >> 8) as usize % rs.len()];
                if state >> 40 & 1 == 0 {
                    let hit = fast.lookup(key);
                    assert_eq!(hit.is_some(), slow.lookup(key), "step {step}");
                } else {
                    let before = fast.lru_order();
                    fast.insert(key, r);
                    slow.insert(key, entry_bytes(r));
                    // Victims leave in the reference's order: the
                    // oldest of the pre-insert order go first.
                    let after = fast.lru_order();
                    let gone: Vec<u128> =
                        before.into_iter().filter(|k| !after.contains(k)).collect();
                    assert_eq!(gone, slow.victims[seen_victims..], "step {step} victims");
                    seen_victims = slow.victims.len();
                }
                assert_eq!(fast.lru_order(), slow.lru_order(), "step {step} order");
                assert_eq!(fast.stats(), slow.stats, "step {step} stats");
                assert_eq!(fast.cur_bytes, slow.cur_bytes, "step {step} bytes");
                assert_eq!(fast.entries.len(), fast.lru.len(), "indexes agree");
            }
            if budget > 1 {
                assert!(
                    slow.stats.evictions > 0 && slow.stats.hits > 0,
                    "budget {budget}"
                );
            }
        }
    }

    #[test]
    fn twenty_thousand_entries_hit_at_both_ends() {
        let r = result(6, 2);
        let mut cache = ResponseCache::new(usize::MAX);
        let n = 20_000u128;
        for k in 0..n {
            cache.insert(k, &r);
        }
        assert_eq!(cache.entries.len(), 20_000);
        assert_eq!(
            cache.lru.first_key_value(),
            Some((&1, &0)),
            "first insert is oldest"
        );
        assert!(cache.lookup(n - 1).is_some(), "last-inserted key");
        assert!(cache.lookup(0).is_some(), "first-inserted key");
        assert!(cache.lookup(n).is_none());
        assert_eq!(cache.lru.last_key_value(), Some((&(n as u64 + 2), &0)));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().peak_entries, 20_000);
    }
}
