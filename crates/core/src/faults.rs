//! Deterministic fault injection: named fault sites the chaos suite can
//! arm one at a time.
//!
//! The mapping service promises *fault containment*: a panic inside an
//! admitted request becomes a typed, caller-local
//! [`ServiceError::Internal`](crate::ServiceError::Internal) while every
//! concurrent request keeps its bit-identical response
//! (docs/ROBUSTNESS.md).  That promise is only worth something if it is
//! exercised, so production code paths carry named **fault points** —
//! no-ops in normal builds, armable under the `fault-injection` cargo
//! feature:
//!
//! * [`FaultSite::ArtifactBuild`] — before an evaluation-table build:
//!   a one-shot map's response-cache miss, a session open (an
//!   [`EvalArtifact`]) and a session's rebuild for a patched graph,
//! * [`FaultSite::CandidateSweep`] — at the head of
//!   `CandidateBatch::evaluate_ops`, the engine sweep every search
//!   family drives,
//! * [`FaultSite::PoolBatch`] — inside the per-worker simulation
//!   closure, so the panic unwinds *through the worker pool's* panic
//!   protocol before reaching the service boundary,
//! * [`FaultSite::SessionCompile`] — at the head of a session's pure
//!   perturbation-compile step,
//! * [`FaultSite::SessionCommit`] — at the session's commit boundary,
//!   before any field is mutated.
//!
//! [`EvalArtifact`]: spmap_model::EvalArtifact
//!
//! ## Determinism
//!
//! Arming is `(site, hit, kind)`: the `hit`-th execution of `site` after
//! arming fires, every other execution is untouched.  Hit counters are
//! process-global atomics, so *which thread* trips the fault under
//! concurrency is scheduler-dependent — but the schedule itself (which
//! site, which hit, panic or error) is a pure function of the caller's
//! seed via [`FaultSchedule`], and every property the chaos suite
//! asserts (typed error to the faulted caller, bit-identical unfaulted
//! responses, balanced accounting, clean pass afterwards) holds on
//! every replay.  The module reads no clocks and iterates no hash
//! maps; `FaultSchedule` is a splitmix64 stream of the seed alone.
//!
//! Arming returns a [`FaultArm`] guard that holds a global registry
//! lock, so concurrent tests arming faults serialize instead of
//! clobbering each other's schedules; dropping the guard disarms.

/// A named production code point where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// An evaluation-table build (a one-shot cache miss, or a session's
    /// artifact build).
    ArtifactBuild,
    /// The candidate-engine sweep (`CandidateBatch::evaluate_ops`).
    CandidateSweep,
    /// A per-worker simulation closure inside the parallel pool batch.
    PoolBatch,
    /// A session's perturbation-compile step (pure; precedes commit).
    SessionCompile,
    /// A session's commit boundary (before any session field mutates).
    SessionCommit,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::ArtifactBuild,
        FaultSite::CandidateSweep,
        FaultSite::PoolBatch,
        FaultSite::SessionCompile,
        FaultSite::SessionCommit,
    ];

    /// Stable display name (used in panic payloads and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ArtifactBuild => "artifact-build",
            FaultSite::CandidateSweep => "candidate-sweep",
            FaultSite::PoolBatch => "pool-batch",
            FaultSite::SessionCompile => "session-compile",
            FaultSite::SessionCommit => "session-commit",
        }
    }

    #[cfg(feature = "fault-injection")]
    fn idx(self) -> usize {
        self as usize
    }
}

/// What an armed fault does when its `(site, hit)` matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognizable payload (see
    /// [`INJECTED_PANIC_PREFIX`]); exercises the containment boundary.
    Panic,
    /// Make [`fault_point`] return `true`; the call site degrades into
    /// its *typed* error path (e.g. the candidate sweep reports NaN
    /// deltas, which every driver converts to
    /// [`MapperError::NanDelta`](crate::MapperError::NanDelta)).  Sites
    /// without a typed degradation ignore this and treat `true` as a
    /// no-op — the seeded schedule only arms `Error` where it means
    /// something.
    Error,
}

/// Panic payloads of injected panics start with this prefix, so tests
/// can tell an injected fault from an organic one.
pub const INJECTED_PANIC_PREFIX: &str = "spmap-faults: injected panic at ";

#[cfg(feature = "fault-injection")]
mod armed {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard};

    use super::{FaultKind, FaultSite, INJECTED_PANIC_PREFIX};

    /// Serializes arming across threads: one armed schedule at a time.
    static REGISTRY: Mutex<()> = Mutex::new(());
    /// Per-site execution counters since the last arm.
    static HITS: [AtomicU64; 5] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    /// Index of the armed site; `usize::MAX` = disarmed.
    static ARMED_SITE: AtomicUsize = AtomicUsize::new(usize::MAX);
    static ARMED_HIT: AtomicU64 = AtomicU64::new(0);
    static ARMED_ERROR_KIND: AtomicBool = AtomicBool::new(false);
    static FIRED: AtomicBool = AtomicBool::new(false);

    /// Guard of one armed fault; dropping it disarms.  Holds the
    /// registry lock so concurrent arms serialize.
    pub struct FaultArm {
        _serial: MutexGuard<'static, ()>,
    }

    impl FaultArm {
        /// Whether the armed `(site, hit)` has fired since arming.
        pub fn fired(&self) -> bool {
            FIRED.load(Ordering::SeqCst)
        }
    }

    impl Drop for FaultArm {
        fn drop(&mut self) {
            ARMED_SITE.store(usize::MAX, Ordering::SeqCst);
        }
    }

    /// Arm a panic at the `hit`-th execution of `site` (1-based).
    pub fn arm(site: FaultSite, hit: u64) -> FaultArm {
        arm_kind(site, hit, FaultKind::Panic)
    }

    /// Arm a fault of `kind` at the `hit`-th execution of `site`.
    pub fn arm_kind(site: FaultSite, hit: u64, kind: FaultKind) -> FaultArm {
        // A previous test may have poisoned the registry by panicking
        // while armed (that is the whole point of the Panic kind);
        // arming only needs exclusion, not the protected unit value.
        let serial = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        for h in &HITS {
            h.store(0, Ordering::SeqCst);
        }
        FIRED.store(false, Ordering::SeqCst);
        ARMED_HIT.store(hit.max(1), Ordering::SeqCst);
        ARMED_ERROR_KIND.store(kind == FaultKind::Error, Ordering::SeqCst);
        ARMED_SITE.store(site.idx(), Ordering::SeqCst);
        FaultArm { _serial: serial }
    }

    /// The armed check behind [`super::fault_point`].
    pub fn fault_point(site: FaultSite) -> bool {
        let hit = HITS[site.idx()].fetch_add(1, Ordering::SeqCst) + 1;
        if ARMED_SITE.load(Ordering::SeqCst) != site.idx()
            || hit != ARMED_HIT.load(Ordering::SeqCst)
        {
            return false;
        }
        FIRED.store(true, Ordering::SeqCst);
        if ARMED_ERROR_KIND.load(Ordering::SeqCst) {
            return true;
        }
        panic!("{INJECTED_PANIC_PREFIX}{} (hit {hit})", site.name());
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{arm, arm_kind, fault_point, FaultArm};

/// Fault check at a named production site.  Returns `true` when an
/// `Error`-kind fault is firing here — the caller degrades into its
/// typed error path; a `Panic`-kind fault never returns.  Compiled to a
/// constant `false` without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fault_point(_site: FaultSite) -> bool {
    false
}

/// A deterministic `(site, hit, kind)` stream: the chaos harness's
/// schedule is a pure function of its seed (splitmix64), so a chaos run
/// is replayable bit-identically from `(seed, round)` alone.  Plain
/// data — available with or without the `fault-injection` feature.
#[derive(Clone, Copy, Debug)]
pub struct FaultSchedule {
    state: u64,
}

impl FaultSchedule {
    /// A schedule seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw splitmix64 draw.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next `(site, hit, kind)` plan, with `hit` in `1..=max_hit`.
    /// `Error` kind is only drawn for [`FaultSite::CandidateSweep`] —
    /// the one site with a typed degradation.
    pub fn next_plan(&mut self, max_hit: u64) -> (FaultSite, u64, FaultKind) {
        let site = FaultSite::ALL[(self.next_u64() % FaultSite::ALL.len() as u64) as usize];
        let hit = 1 + self.next_u64() % max_hit.max(1);
        let kind = if site == FaultSite::CandidateSweep && self.next_u64().is_multiple_of(2) {
            FaultKind::Error
        } else {
            FaultKind::Panic
        };
        (site, hit, kind)
    }

    /// Like [`Self::next_plan`], restricted to the sites a one-shot
    /// [`MapService::map`](crate::MapService::map) request executes
    /// (artifact build, candidate sweep, pool batch).
    pub fn next_map_plan(&mut self, max_hit: u64) -> (FaultSite, u64, FaultKind) {
        loop {
            let plan = self.next_plan(max_hit);
            if matches!(
                plan.0,
                FaultSite::ArtifactBuild | FaultSite::CandidateSweep | FaultSite::PoolBatch
            ) {
                return plan;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let mut a = FaultSchedule::new(42);
        let mut b = FaultSchedule::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_plan(7), b.next_plan(7));
        }
        let mut c = FaultSchedule::new(43);
        let draws_a: Vec<_> = (0..64).map(|_| a.next_plan(7)).collect();
        let draws_c: Vec<_> = (0..64).map(|_| c.next_plan(7)).collect();
        assert_ne!(draws_a, draws_c, "different seeds, different schedules");
    }

    #[test]
    fn schedule_covers_every_site_and_respects_hit_bounds() {
        let mut s = FaultSchedule::new(7);
        let mut seen = [false; 5];
        for _ in 0..256 {
            let (site, hit, _) = s.next_plan(3);
            seen[site as usize] = true;
            assert!((1..=3).contains(&hit));
        }
        assert!(seen.iter().all(|&s| s), "all sites drawn: {seen:?}");
        for _ in 0..64 {
            let (site, _, _) = s.next_map_plan(3);
            assert!(matches!(
                site,
                FaultSite::ArtifactBuild | FaultSite::CandidateSweep | FaultSite::PoolBatch
            ));
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn armed_faults_fire_exactly_once_at_the_named_hit() {
        let arm = arm_kind(FaultSite::CandidateSweep, 3, FaultKind::Error);
        assert!(!fault_point(FaultSite::CandidateSweep));
        assert!(!fault_point(FaultSite::ArtifactBuild), "other site idle");
        assert!(!fault_point(FaultSite::CandidateSweep));
        assert!(!arm.fired());
        assert!(fault_point(FaultSite::CandidateSweep), "third hit fires");
        assert!(arm.fired());
        assert!(!fault_point(FaultSite::CandidateSweep), "fires only once");
        drop(arm);
        assert!(!fault_point(FaultSite::CandidateSweep), "disarmed");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_panics_carry_the_recognizable_prefix() {
        let arm = arm(FaultSite::SessionCommit, 1);
        let err = std::panic::catch_unwind(|| fault_point(FaultSite::SessionCommit))
            .expect_err("armed panic fires");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "payload: {msg}");
        assert!(msg.contains("session-commit"));
        assert!(arm.fired());
    }
}
