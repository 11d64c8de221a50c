//! γ-threshold search (paper §III-D).
//!
//! After the first full sweep, every operation carries an *expected*
//! improvement — the improvement it showed when last evaluated.  Each
//! iteration visits operations in descending order of expectation (the
//! pop order of a max-priority queue, kept as a persistent
//! [`PassOrder`]); once an actual improvement `Δ` has been found, only
//! operations whose expectation exceeds `Δ/γ` are still evaluated
//! ("look-ahead").  Re-evaluated operations update their expectation.
//! The iteration commits the best improvement found; if a complete pass
//! over the queue finds none, the algorithm terminates — and because an
//! exhausted pass re-evaluates *every* operation against the final
//! mapping, this naturally realizes the paper's "in the last iteration,
//! we recompute every possible mapping".
//!
//! `γ = 1` is the **FirstFit** variant: the first found improvement is
//! committed unless an operation with a *higher* expectation is still
//! pending (i.e. the found improvement was "significantly smaller than
//! the previously expected improvement").
//!
//! ## Parallelization: speculative waves
//!
//! The algorithm is inherently sequential — whether an operation is
//! evaluated at all depends on the deltas of the operations popped
//! before it.  To still extract parallelism without changing a single
//! decision, the engine version pops the next `W` operations (the exact
//! prefix the serial loop would consider next), simulates them as one
//! batch through [`CandidateBatch`], and then *replays* the serial
//! decision sequence over the precomputed results: expectations update
//! in pop order, and the moment the look-ahead cutoff fires, the
//! remaining speculative results are discarded — their expectations are
//! **not** updated, exactly as if they had never been evaluated.
//! Discarded simulations are not wasted: their makespans stay in the
//! engine's content-keyed memo and answer later evaluations of the same
//! mapping for free.
//!
//! The wave depth `W` is **adaptive** ([`WaveController`]): it grows
//! while recent waves are consumed in full (the look-ahead cutoff rarely
//! fires, so deeper speculation turns into pure parallelism) and shrinks
//! while most speculated results are being discarded (the cutoff fires
//! early, so deep waves are wasted simulations).  The controller is a
//! pure function of the replay sequence — which is itself wave-size
//! independent — so runs are deterministic for a fixed thread
//! configuration, and the committed results are identical for *any*.
//!
//! With one worker thread the wave size is pinned to 1 and the loop *is*
//! the serial algorithm (zero speculation, zero spawns).

use std::cmp::Ordering;

use crate::batch::CandidateBatch;
use crate::mapper::{MapperError, OpId};

/// The error of [`Key::new`]: a NaN can never participate in the
/// expectation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NanKey;

/// An `f64` expectation with total order: the sort key of the pass
/// order.
///
/// `±∞` are legitimate expectations (`+∞` = "never evaluated", `-∞` =
/// "no-op / infeasible") and order exactly like `f64::total_cmp` places
/// them.  NaN is rejected at construction: under `total_cmp` a positive
/// NaN sorts *above* `+∞`, so a single NaN expectation would silently
/// hijack the front of every pass — the caller converts the rejection
/// into [`MapperError::NanDelta`] instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Key(f64);

impl Key {
    /// Wrap a finite-or-infinite expectation; NaN is a typed error.
    pub(crate) fn new(x: f64) -> Result<Self, NanKey> {
        if x.is_nan() {
            Err(NanKey)
        } else {
            Ok(Key(x))
        }
    }

    /// The wrapped expectation (never NaN).
    pub(crate) fn get(self) -> f64 {
        self.0
    }

    /// The key's place in the `total_cmp` order as an unsigned integer:
    /// `a.cmp(&b) == a.rank().cmp(&b.rank())`.
    pub(crate) fn rank(self) -> u64 {
        let bits = self.0.to_bits();
        if bits >> 63 == 1 {
            // Negative: a larger magnitude ranks lower.
            !bits
        } else {
            // Non-negative: above every negative value.
            bits | (1 << 63)
        }
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Profile-guided speculation depth: how many pending pops are simulated
/// per batch.
///
/// Replaces the fixed `4 × threads` wave with a controller driven by the
/// observed *accept rate* — the fraction of each speculated wave the
/// serial replay actually consumed before the look-ahead cutoff fired.
/// A high recent accept rate (tracked as an exponential moving average)
/// doubles the wave up to `16 × threads` (≤ 256): speculation is being
/// consumed, so deeper waves are pure parallel win.  A low rate halves
/// it down to `threads`: the cutoff keeps firing early and discarded
/// simulations are wasted work.  Serial runs (≤ 1 thread) are pinned at
/// 1 — bit-for-bit the textbook loop, zero speculation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaveController {
    size: usize,
    min: usize,
    max: usize,
    /// EMA of per-wave accept rates, seeded optimistically at 1.0.
    accept: f64,
}

/// EMA smoothing: one half of each new observation.
const WAVE_EMA_ALPHA: f64 = 0.5;
/// Accept-rate above which the wave doubles.
const WAVE_GROW_AT: f64 = 0.75;
/// Accept-rate below which the wave halves.
const WAVE_SHRINK_AT: f64 = 0.35;

impl WaveController {
    pub(crate) fn new(threads: usize) -> Self {
        if threads <= 1 {
            Self {
                size: 1,
                min: 1,
                max: 1,
                accept: 1.0,
            }
        } else {
            // The floor (one wave slot per worker) takes precedence over
            // the waste ceiling on absurdly wide machines, so the wave
            // stays pinned at `threads` there instead of oscillating
            // above the cap.
            let max = (16 * threads).min(256).max(threads);
            Self {
                size: (4 * threads).min(max),
                min: threads,
                max,
                accept: 1.0,
            }
        }
    }

    /// Current speculation depth.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Fold one wave's outcome (`consumed` of `speculated` results used
    /// by the replay) into the moving accept rate and resize.
    pub(crate) fn record(&mut self, speculated: usize, consumed: usize) {
        if speculated == 0 || self.max == 1 {
            return;
        }
        debug_assert!(consumed <= speculated);
        let rate = consumed as f64 / speculated as f64;
        self.accept = WAVE_EMA_ALPHA * rate + (1.0 - WAVE_EMA_ALPHA) * self.accept;
        if self.accept > WAVE_GROW_AT {
            self.size = (self.size * 2).min(self.max);
        } else if self.accept < WAVE_SHRINK_AT {
            self.size = (self.size / 2).max(self.min);
        }
    }
}

/// The visiting order of a γ-search pass: every position of the op list,
/// sorted by `(expected key, position)` descending — exactly the pop
/// order of a `BinaryHeap<(Key, usize)>` built from the same
/// expectations, so ties visit the higher position (op id) first.
///
/// The order persists across passes.  A pass walks a prefix of it and
/// re-keys only positions in that prefix; the untouched suffix is still
/// sorted, so [`Self::rekey_prefix`] sorts the prefix under its new keys
/// and merges it back into the suffix instead of rebuilding a heap of
/// all K keys.  Each entry packs `(key rank, position)` into one `u128`
/// (see [`entry`]), so sorting and merging compare plain integers.  Both
/// buffers are allocated once per search.
pub(crate) struct PassOrder {
    order: Vec<u128>,
    /// Scratch for the walked prefix while it is re-sorted.
    walked: Vec<u128>,
}

/// The order entry of position `i` under `key`: its `(key, position)`
/// pair as one integer that compares like the pair.
fn entry(key: Key, i: usize) -> u128 {
    (u128::from(key.rank()) << 64) | i as u128
}

impl PassOrder {
    /// The order of `k` positions that all hold the same key (the
    /// initial `+∞`): descending position.
    pub(crate) fn new(k: usize) -> Self {
        let inf = Key(f64::INFINITY);
        Self {
            order: (0..k).rev().map(|i| entry(inf, i)).collect(),
            walked: Vec::with_capacity(k),
        }
    }

    /// The positions at visiting ranks `range`, in visiting order.
    pub(crate) fn positions(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = usize> + '_ {
        // The low 64 bits of an entry are its position.
        self.order[range].iter().map(|&e| e as u64 as usize)
    }

    /// Restore the order after a pass that walked its first `walked`
    /// positions, some of which now hold new keys in `expected`.
    ///
    /// The walked entries are re-keyed and sorted aside, then placed
    /// back one by one: each finds its slot in the still-sorted suffix
    /// by binary search, and the suffix run in front of it moves up with
    /// one block copy — `O(w log K)` comparisons plus at most K moved
    /// entries.
    pub(crate) fn rekey_prefix(&mut self, walked: usize, expected: &[Key]) {
        self.walked.clear();
        self.walked.extend(self.order[..walked].iter().map(|&e| {
            let i = e as u64 as usize;
            entry(expected[i], i)
        }));
        self.walked.sort_unstable_by(|a, b| b.cmp(a));
        // `write` trails `read` (the next unplaced suffix entry) by the
        // walked entries still to place, so a block copy never
        // overwrites an unread entry.  Entries are unique (positions
        // differ), so every slot is fully determined.
        let (mut write, mut read) = (0, walked);
        for &e in &self.walked {
            let ahead = self.order[read..].partition_point(|&x| x > e);
            self.order.copy_within(read..read + ahead, write);
            write += ahead;
            read += ahead;
            self.order[write] = e;
            write += 1;
        }
        // Every walked entry is placed: `write == read`, and the rest of
        // the suffix already sits in its final slots.
        debug_assert_eq!(write, read);
    }
}

/// Run the γ-threshold search over the operations `ops` (ascending op
/// ids) through the candidate engine; returns `(iterations, history)`.
/// A full run passes every op; a warm remap passes its neighborhood.
///
/// Expectations are indexed by position in `ops` and start at `+∞`, so
/// the first iteration degenerates to a sweep of `ops` exactly as the
/// paper describes ("we assign an expected makespan improvement to each
/// mapping operation after the first iteration").  The decision
/// sequence — which operations get evaluated, their expectation
/// updates, and the committed winner — is identical to the serial
/// reference for every wave size; see the module docs.
///
/// A NaN improvement delta aborts with [`MapperError::NanDelta`] before
/// it can silently corrupt the expectation order (see [`Key`]).
pub(crate) fn gamma_threshold_search(
    engine: &mut CandidateBatch<'_>,
    ops: &[OpId],
    cap: usize,
    gamma: f64,
) -> Result<(usize, Vec<f64>), MapperError> {
    let mut wave = WaveController::new(engine.threads());
    let mut expected = vec![Key(f64::INFINITY); ops.len()];
    let mut order = PassOrder::new(ops.len());
    // Per-wave buffers, reused by every wave of every pass.
    let mut wave_pos: Vec<usize> = Vec::with_capacity(wave.size());
    let mut wave_ops: Vec<OpId> = Vec::with_capacity(wave.size());
    let mut deltas: Vec<f64> = Vec::with_capacity(wave.size());
    let mut history = Vec::new();
    let mut iterations = 0;

    while iterations < cap {
        // A pass visits positions in `order`, the pop order of a max-heap
        // of the pass-start expectations: keys re-assigned during the
        // pass take effect from the next pass on.
        let mut found: Option<(OpId, f64)> = None;
        let mut walked = 0usize;

        'pass: while walked < ops.len() {
            // Speculatively take the next `wave.size()` positions —
            // exactly the prefix the serial loop would consider next.
            let end = (walked + wave.size()).min(ops.len());
            wave_pos.clear();
            wave_pos.extend(order.positions(walked..end));
            walked = end;
            wave_ops.clear();
            wave_ops.extend(wave_pos.iter().map(|&i| ops[i]));
            // One parallel batch (memoized, unpruned: the γ-search needs
            // every delta it asks for, because deltas become the next
            // iteration's expectations).
            engine.evaluate_ops(&wave_ops, false, &mut deltas);
            // Serial replay of the decision sequence.
            let mut consumed = 0usize;
            let mut cut_short = false;
            for ((&i, &op), &delta) in wave_pos.iter().zip(&wave_ops).zip(&deltas) {
                if let Some((_, best)) = found {
                    // Look-ahead bound: only operations whose expected
                    // improvement exceeds Δ/γ are still worth
                    // evaluating; everything speculated beyond this
                    // point is discarded unseen.
                    if expected[i].get() <= best / gamma {
                        cut_short = true;
                        break;
                    }
                }
                // The one place a key is assigned, so the order can
                // never hold a NaN.
                expected[i] = Key::new(delta).map_err(|_| MapperError::NanDelta { op })?;
                consumed += 1;
                if engine.improves(delta) && found.is_none_or(|(_, best)| delta > best) {
                    found = Some((op, delta));
                }
            }
            wave.record(wave_pos.len(), consumed);
            if cut_short {
                break 'pass;
            }
        }

        match found {
            Some((op, _)) => {
                engine.commit(op);
                history.push(engine.current_makespan());
                iterations += 1;
                order.rekey_prefix(walked, &expected);
            }
            None => break,
        }
    }
    Ok((iterations, history))
}

#[cfg(test)]
mod tests {
    use super::{gamma_threshold_search, Key, NanKey, PassOrder, WaveController};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn key(x: f64) -> Key {
        Key::new(x).expect("finite or infinite key")
    }

    thread_local! {
        /// Allocations made on this thread.  Const-initialised and
        /// without a destructor, so the allocator can touch it without
        /// allocating or re-entering itself.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// The test binary's allocator: `System`, counting every allocation
    /// per thread, so tests running in parallel cannot disturb each
    /// other's counts.
    struct CountingAlloc;

    fn count_alloc() {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    fn allocs_on_this_thread() -> u64 {
        ALLOCS.with(Cell::get)
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping only
    // bumps a thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_alloc();
            // SAFETY: forwarded verbatim under the caller's contract.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_alloc();
            // SAFETY: forwarded verbatim under the caller's contract.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: `ptr` was allocated by this allocator (i.e. `System`)
        // with `layout`, as `dealloc`'s contract requires.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded verbatim under the caller's contract.
            unsafe { System.dealloc(ptr, layout) }
        }

        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is valid, as `realloc`'s contract requires.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_alloc();
            // SAFETY: forwarded verbatim under the caller's contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// One SplitMix64 step: the seeded source of the property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn pass_order_visits_positions_in_heap_pop_order() {
        // Over random expectation vectors and several re-keyed passes,
        // the persistent order must list positions exactly as a
        // `BinaryHeap<(Key, usize)>` of the same keys pops them —
        // including ties (higher position first), ±∞ and ±0.0.
        use std::collections::BinaryHeap;
        const SPECIAL: [f64; 6] = [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.5, 1e-300];
        for seed in 0..300u64 {
            let mut rng = seed;
            let k = 1 + (splitmix(&mut rng) % 48) as usize;
            let mut expected = vec![key(f64::INFINITY); k];
            let mut order = PassOrder::new(k);
            for pass in 0..8 {
                let mut heap: BinaryHeap<(Key, usize)> =
                    expected.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                let pops: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|(_, i)| i)).collect();
                let visits: Vec<usize> = order.positions(0..k).collect();
                assert_eq!(visits, pops, "seed {seed} pass {pass}");
                // A pass walks a prefix and re-keys most (not all) of it:
                // speculated-but-discarded positions keep their key.
                let walked = (splitmix(&mut rng) % (k as u64 + 1)) as usize;
                for i in order.positions(0..walked) {
                    let r = splitmix(&mut rng);
                    if r.is_multiple_of(5) {
                        continue;
                    }
                    let x = if r.is_multiple_of(3) {
                        SPECIAL[(r >> 8) as usize % SPECIAL.len()]
                    } else {
                        // Few distinct finite values, so ties are common.
                        ((r >> 8) % 7) as f64 - 3.0
                    };
                    expected[i] = key(x);
                }
                order.rekey_prefix(walked, &expected);
            }
        }
    }

    #[test]
    fn serial_search_allocates_per_pass_not_per_candidate() {
        // With one worker, the γ-search reuses its pass order, wave and
        // delta buffers and the engine reuses its result buffer, so its
        // allocations grow with passes (commits, memo growth), not with
        // the hundreds of candidates each pass evaluates.
        use crate::batch::{CandidateBatch, EngineConfig};
        use spmap_decomp::{series_parallel_subgraphs, CutPolicy};
        use spmap_graph::gen::{random_sp_graph, SpGenConfig};
        use spmap_graph::{augment, AugmentConfig};
        use spmap_model::Platform;

        let mut g = random_sp_graph(&SpGenConfig::new(60, 7));
        augment(&mut g, &AugmentConfig::default(), 7);
        let p = Platform::reference();
        let subgraphs = series_parallel_subgraphs(&g, CutPolicy::default()).into_vec();
        let cfg = EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        };
        let mut eng = CandidateBatch::new(&g, &p, subgraphs, p.device_ids().collect(), cfg);
        let ops: Vec<usize> = (0..eng.op_count()).collect();
        let before = allocs_on_this_thread();
        let (iterations, _) =
            gamma_threshold_search(&mut eng, &ops, usize::MAX, 1.0).expect("finite deltas");
        let allocs = allocs_on_this_thread() - before;
        let evaluated = eng.stats().total();
        let passes = iterations as u64 + 1;
        assert!(
            evaluated >= 20 * passes,
            "the fixture must evaluate many candidates per pass \
             ({evaluated} over {passes} passes)"
        );
        assert!(
            allocs <= 3 * passes + 32,
            "{allocs} allocations for {passes} passes and {evaluated} evaluated candidates"
        );
    }

    #[test]
    fn key_orders_like_f64_with_infinities() {
        let mut keys = [
            key(1.0),
            key(f64::NEG_INFINITY),
            key(f64::INFINITY),
            key(0.5),
        ];
        keys.sort();
        let vals: Vec<f64> = keys.iter().map(|k| k.get()).collect();
        assert_eq!(vals, vec![f64::NEG_INFINITY, 0.5, 1.0, f64::INFINITY]);
    }

    #[test]
    fn key_rejects_nan_with_typed_error() {
        // Regression: under `total_cmp` a positive NaN sorts above +∞,
        // so a NaN expectation would win every heap pop.  Construction
        // must refuse it instead of silently misordering.
        assert_eq!(Key::new(f64::NAN), Err(NanKey));
        assert_eq!(Key::new(-f64::NAN), Err(NanKey));
        assert!(
            Key::new(f64::INFINITY).is_ok(),
            "+inf is a legal initial expectation"
        );
        assert!(
            Key::new(f64::NEG_INFINITY).is_ok(),
            "-inf is the no-op sentinel"
        );
        assert!(Key::new(0.0).is_ok());
    }

    #[test]
    fn heap_pops_max_first() {
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        h.push((key(0.2), 0usize));
        h.push((key(f64::INFINITY), 1));
        h.push((key(-1.0), 2));
        assert_eq!(h.pop().unwrap().1, 1);
        assert_eq!(h.pop().unwrap().1, 0);
        assert_eq!(h.pop().unwrap().1, 2);
    }

    #[test]
    fn wave_serial_is_pinned_at_one() {
        let mut w = WaveController::new(1);
        assert_eq!(w.size(), 1);
        for _ in 0..10 {
            w.record(1, 1);
        }
        assert_eq!(w.size(), 1, "serial never speculates");
        assert!(WaveController::new(8).size() > 1);
    }

    #[test]
    fn wave_grows_on_full_consumption_and_shrinks_on_waste() {
        let mut w = WaveController::new(4);
        let start = w.size();
        // Fully consumed waves: accept EMA stays at 1.0, wave doubles to
        // the cap.
        for _ in 0..8 {
            let s = w.size();
            w.record(s, s);
        }
        assert!(w.size() > start, "full waves must grow speculation");
        assert!(w.size() <= 16 * 4, "cap respected");
        let peak = w.size();
        // Wasted waves (cutoff fires immediately): EMA decays, wave
        // shrinks back to the floor.
        for _ in 0..16 {
            let s = w.size();
            w.record(s, 0);
        }
        assert!(w.size() < peak, "wasted waves must shrink speculation");
        assert_eq!(w.size(), 4, "never below the worker count");
    }

    #[test]
    fn wave_never_escapes_its_bounds_even_on_very_wide_machines() {
        // threads > 256: the per-worker floor exceeds the waste ceiling;
        // the wave must stay pinned at `threads`, never bounce above.
        let mut w = WaveController::new(512);
        assert_eq!(w.size(), 512);
        for i in 0..12 {
            let s = w.size();
            w.record(s, if i % 2 == 0 { 0 } else { s });
            assert_eq!(w.size(), 512, "pinned: floor == cap");
        }
    }

    #[test]
    fn wave_controller_is_deterministic() {
        let run = || {
            let mut w = WaveController::new(8);
            let mut sizes = Vec::new();
            for i in 0..20usize {
                let s = w.size();
                w.record(s, if i % 3 == 0 { s } else { s / 2 });
                sizes.push(w.size());
            }
            sizes
        };
        assert_eq!(run(), run());
    }
}
