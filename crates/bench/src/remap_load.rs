//! Remapping-session measurement: warm-start remap latency against the
//! from-scratch fallback — the harness half of `perf_report --remap`.
//!
//! For each perturbation kind the harness opens fresh [`RemapSession`]s
//! from one shared request (sharing one response cache so the opening
//! search is paid once), replays an optional untimed *setup* sequence to put
//! the session in the right state (e.g. a device must be lost before it
//! can be restored), then times the measured batch twice through
//! [`RemapSession::remap`] and twice through
//! [`RemapSession::remap_full`], keeping the minimum of each pair.
//! Timing lives here, not in the session (sessions read no clocks; see
//! `spmap_core::session`).
//!
//! Bit-identity is asserted, not assumed: the two replays of each path
//! must agree bit for bit (mapping, makespan, history, session key) —
//! a remap is a pure function of (incumbent, perturbations, config).

use std::sync::Mutex;
use std::time::Instant;

use spmap_core::{MapRequest, Perturbation, RemapOutcome, RemapSession, ResponseCache};

/// One measured scenario: a perturbation batch, optionally preceded by
/// untimed setup batches that put the session in the scenario's state.
#[derive(Clone, Debug)]
pub struct RemapCase {
    /// Short label of the perturbation kind (JSON row key).
    pub kind: &'static str,
    /// Untimed batches replayed before the measurement (may be empty).
    pub setup: Vec<Vec<Perturbation>>,
    /// The measured perturbation batch.
    pub batch: Vec<Perturbation>,
}

/// The timed outcome of one case: both paths, with their minimum-of-two
/// wall seconds and the (replay-checked) outcome bits.
#[derive(Clone, Debug)]
pub struct RemapMeasurement {
    /// The case's label.
    pub kind: &'static str,
    /// Warm-start path seconds (min of two fresh-session runs).
    pub warm_seconds: f64,
    /// From-scratch fallback seconds (min of two fresh-session runs).
    pub full_seconds: f64,
    /// The warm path's outcome.
    pub warm: RemapOutcome,
    /// The fallback's outcome.
    pub full: RemapOutcome,
}

impl RemapMeasurement {
    /// Fallback seconds over warm seconds (> 1 means warm wins).
    pub fn speedup(&self) -> f64 {
        self.full_seconds / self.warm_seconds.max(1e-12)
    }

    /// Warm makespan relative to the fallback's (1 = same quality;
    /// < 1 means the warm neighborhood actually found a better point,
    /// which happens when the fallback's all-default restart walks a
    /// different greedy path).
    pub fn quality_ratio(&self) -> f64 {
        self.warm.makespan / self.full.makespan.max(1e-12)
    }
}

/// Time one path (`full = false` → [`RemapSession::remap`], `true` →
/// [`RemapSession::remap_full`]) twice on fresh sessions, asserting the
/// two replays bit-identical, and return the faster run.
fn timed_path(
    req: &MapRequest,
    cache: &Mutex<ResponseCache>,
    case: &RemapCase,
    full: bool,
) -> (f64, RemapOutcome) {
    let mut best: Option<(f64, RemapOutcome)> = None;
    for run in 0..2 {
        let mut s = RemapSession::open(req, Some(cache)).expect("session opens");
        for batch in &case.setup {
            s.remap(batch).expect("setup batch applies");
        }
        let t0 = Instant::now();
        let out = if full {
            s.remap_full(&case.batch)
        } else {
            s.remap(&case.batch)
        }
        .expect("measured batch applies");
        let seconds = t0.elapsed().as_secs_f64();
        best = Some(match best {
            None => (seconds, out),
            Some((bs, prev)) => {
                let tag = format!(
                    "{} ({}) run {run}",
                    case.kind,
                    if full { "full" } else { "warm" }
                );
                assert_eq!(out.mapping, prev.mapping, "{tag}: replay mapping diverged");
                assert_eq!(
                    out.makespan, prev.makespan,
                    "{tag}: replay makespan diverged"
                );
                assert_eq!(out.history, prev.history, "{tag}: replay history diverged");
                assert_eq!(
                    out.session_key, prev.session_key,
                    "{tag}: replay session key diverged"
                );
                if seconds < bs {
                    (seconds, out)
                } else {
                    (bs, prev)
                }
            }
        });
    }
    best.expect("two runs happened")
}

/// Measure one case: warm path and fallback, each min-of-two with
/// replay identity asserted (see the module docs).
pub fn measure_case(
    req: &MapRequest,
    cache: &Mutex<ResponseCache>,
    case: &RemapCase,
) -> RemapMeasurement {
    let (warm_seconds, warm) = timed_path(req, cache, case, false);
    let (full_seconds, full) = timed_path(req, cache, case, true);
    RemapMeasurement {
        kind: case.kind,
        warm_seconds,
        full_seconds,
        warm,
        full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_core::AttachEdge;
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId};
    use spmap_model::{DeviceId, Platform};
    use std::sync::Arc;

    fn request(nodes: usize, seed: u64) -> MapRequest {
        let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        MapRequest::new(Arc::new(g), Arc::new(Platform::reference()))
    }

    #[test]
    fn measurement_replays_and_reports_both_paths() {
        let req = request(24, 5);
        let cache = Mutex::new(ResponseCache::new(0));
        let n = req.graph.node_count() as u32;
        let case = RemapCase {
            kind: "device_lost",
            setup: vec![],
            batch: vec![Perturbation::DeviceLost(DeviceId(1))],
        };
        let m = measure_case(&req, &cache, &case);
        assert!(m.warm_seconds > 0.0 && m.full_seconds > 0.0);
        assert!(m.warm.warm && !m.full.warm);
        assert!(m.warm.mapping.as_slice().iter().all(|&d| d != DeviceId(1)));
        assert!(m.speedup() > 0.0 && m.quality_ratio() > 0.0);

        // A graph-changing case with setup: restore after a loss, then
        // take an arrival.
        let case = RemapCase {
            kind: "task_arrived",
            setup: vec![
                vec![Perturbation::DeviceLost(DeviceId(1))],
                vec![Perturbation::DeviceRestored(DeviceId(1))],
            ],
            batch: vec![Perturbation::TaskArrived {
                subgraph: random_sp_graph(&SpGenConfig::new(5, 9)),
                attach: vec![AttachEdge::Into {
                    from: NodeId(n - 1),
                    to_new: 0,
                    bytes: 1e6,
                }],
            }],
        };
        let m = measure_case(&req, &cache, &case);
        assert!(m.warm.graph_rebuilt && m.full.graph_rebuilt);
        assert_eq!(m.warm.mapping.len(), req.graph.node_count() + 5);
    }
}
