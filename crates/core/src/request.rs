//! The unified request surface: one typed request for every mapping
//! entry point.
//!
//! The public API grew by accretion — `MapperConfig` for the
//! decomposition mappers, `GaConfig` over in `spmap-ga`, `EngineConfig`
//! for engine tuning, plus free functions taking different borrow
//! shapes.  [`MapRequest`] consolidates them: graph and platform behind
//! `Arc` (so services and sessions can keep them alive past the call),
//! an [`Algo`] picking the algorithm family, and [`Limits`] holding the
//! cross-cutting knobs (iteration caps, engine tuning, an optional
//! candidate-device restriction).
//!
//! Routing:
//!
//! * [`map_request`] / [`MapService::map`](crate::MapService::map) —
//!   the decomposition families ([`Algo::Exhaustive`],
//!   [`Algo::GammaThreshold`]);
//! * `spmap_ga::nsga2_map_request` — [`Algo::Ga`] (the GA lives
//!   downstream of this crate, so the core router returns
//!   [`MapperError::UnsupportedAlgo`] for it rather than guessing);
//! * [`RemapSession::open`](crate::RemapSession::open) — a long-lived
//!   session seeded by the request's initial full map.
//!
//! The pre-existing free functions (`decomposition_map`,
//! `try_decomposition_map`, `nsga2_map`, …) remain as thin wrappers
//! over the same internal drivers, so a response is bit-identical
//! whichever surface submitted it.

use std::sync::Arc;

use spmap_graph::TaskGraph;
use spmap_model::{DeviceId, Platform};

use crate::batch::EngineConfig;
use crate::mapper::{
    try_decomposition_map_on, CostModel, MapperConfig, MapperError, MapperResult, SearchHeuristic,
    SubgraphStrategy,
};

/// The algorithm family of a [`MapRequest`].
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Algo {
    /// Decomposition mapping, re-evaluating every operation every
    /// iteration (the paper's "basic" search).
    Exhaustive,
    /// Decomposition mapping with the γ-threshold look-ahead; `γ = 1`
    /// is the paper's FirstFit heuristic.
    GammaThreshold {
        /// Look-ahead divisor (≥ 1).
        gamma: f64,
    },
    /// The single-objective NSGA-II baseline (spmap-ga).  Core entry
    /// points return [`MapperError::UnsupportedAlgo`] for this family;
    /// route it through `spmap_ga::nsga2_map_request`.
    Ga(GaParams),
}

impl Algo {
    /// The paper's FirstFit heuristic (`γ = 1`).
    pub fn first_fit() -> Self {
        Algo::GammaThreshold { gamma: 1.0 }
    }
}

impl Default for Algo {
    fn default() -> Self {
        Algo::first_fit()
    }
}

/// NSGA-II parameters carried by [`Algo::Ga`] — the subset of
/// `spmap_ga::GaConfig` that names the *algorithm* (population,
/// variation rates, seed).  Engine-side tuning (threads, numbering,
/// checkpoint budgets) comes from [`Limits::engine`] so the knobs live
/// in one place per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaParams {
    /// Population size (paper: 100).
    pub population: usize,
    /// Number of generations (paper: 500).
    pub generations: usize,
    /// Single-point crossover probability (paper: 0.9).
    pub crossover_rate: f64,
    /// Per-gene mutation probability; `None` = `1/n` (paper).
    pub mutation_rate: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 500,
            crossover_rate: 0.9,
            mutation_rate: None,
            seed: 0,
        }
    }
}

/// Cross-cutting execution limits of a [`MapRequest`].
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Maximum improvement iterations; `None` uses the paper's cap of
    /// `n` (the task count).
    pub iteration_cap: Option<usize>,
    /// Candidate-engine tuning (threads, pruning, memo capacities,
    /// numbering, checkpoint budgets).
    pub engine: EngineConfig,
    /// Restrict candidate targets to these devices; `None` = every
    /// platform device.  Exact by construction: a device the search
    /// cannot choose contributes no exec, link or area term, so this is
    /// how availability-limited mapping (device loss) is expressed
    /// without editing the platform.
    pub devices: Option<Vec<DeviceId>>,
}

/// One mapping request: the inputs of any mapping entry point, unified.
/// Graph and platform sit behind `Arc` so caches and sessions can keep
/// them alive past the call.
#[derive(Clone)]
pub struct MapRequest {
    /// The task graph to map.
    pub graph: Arc<TaskGraph>,
    /// The platform to map onto.
    pub platform: Arc<Platform>,
    /// Algorithm family and its parameters.
    pub algo: Algo,
    /// Candidate subgraph set for the decomposition families (ignored
    /// by [`Algo::Ga`], which searches whole genomes).
    pub strategy: SubgraphStrategy,
    /// The makespan the search minimizes.
    pub cost_model: CostModel,
    /// Cross-cutting execution limits.
    pub limits: Limits,
}

impl MapRequest {
    /// A request with the paper's best-practice defaults: SPFirstFit
    /// (series-parallel subgraphs, γ = 1) under the BFS cost model.
    pub fn new(graph: Arc<TaskGraph>, platform: Arc<Platform>) -> Self {
        Self {
            graph,
            platform,
            algo: Algo::first_fit(),
            strategy: SubgraphStrategy::SeriesParallel {
                cut_policy: spmap_decomp::CutPolicy::default(),
            },
            cost_model: CostModel::Bfs,
            limits: Limits::default(),
        }
    }

    /// A request equivalent to a [`decomposition_map`] call with `cfg`
    /// — the migration path for callers holding a [`MapperConfig`].
    ///
    /// [`decomposition_map`]: crate::decomposition_map
    pub fn from_mapper_config(
        graph: Arc<TaskGraph>,
        platform: Arc<Platform>,
        cfg: &MapperConfig,
    ) -> Self {
        let algo = match cfg.heuristic {
            SearchHeuristic::Exhaustive => Algo::Exhaustive,
            SearchHeuristic::GammaThreshold { gamma } => Algo::GammaThreshold { gamma },
        };
        Self {
            graph,
            platform,
            algo,
            strategy: cfg.strategy,
            cost_model: cfg.cost,
            limits: Limits {
                iteration_cap: cfg.iteration_cap,
                engine: cfg.engine,
                devices: None,
            },
        }
    }

    /// This request with a different algorithm family.
    pub fn with_algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// This request with different limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// The [`MapperConfig`] equivalent of this request, validated:
    /// [`MapperError::UnsupportedAlgo`] if the family is not a
    /// decomposition search, [`MapperError::InvalidGamma`] for a γ that
    /// is NaN or below 1, and [`MapperError::UnknownDevice`] if
    /// `limits.devices` names a device the platform does not have.
    /// Every decomposition entry point (one-shot maps and session opens)
    /// starts here, so a malformed request is refused before any work.
    pub fn mapper_config(&self) -> Result<MapperConfig, MapperError> {
        let heuristic = match self.algo {
            Algo::Exhaustive => SearchHeuristic::Exhaustive,
            Algo::GammaThreshold { gamma } => SearchHeuristic::GammaThreshold { gamma },
            Algo::Ga(_) => return Err(MapperError::UnsupportedAlgo { algo: "nsga2" }),
        }
        .validate()?;
        let devices = self.limits.devices.as_deref().unwrap_or_default();
        let m = self.platform.device_count();
        if let Some(&device) = devices.iter().find(|d| d.index() >= m) {
            return Err(MapperError::UnknownDevice { device });
        }
        Ok(MapperConfig {
            strategy: self.strategy,
            heuristic,
            iteration_cap: self.limits.iteration_cap,
            cost: self.cost_model,
            engine: self.limits.engine,
        })
    }
}

/// Execute a decomposition-family [`MapRequest`] on the calling thread.
/// Bit-identical to [`decomposition_map`](crate::decomposition_map)
/// with the equivalent [`MapperConfig`]; [`Algo::Ga`] requests return
/// [`MapperError::UnsupportedAlgo`] (route them through
/// `spmap_ga::nsga2_map_request`).
pub fn map_request(req: &MapRequest) -> Result<MapperResult, MapperError> {
    let cfg = req.mapper_config()?;
    try_decomposition_map_on(
        &req.graph,
        &req.platform,
        &cfg,
        req.limits.devices.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::decomposition_map;
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};

    #[test]
    fn request_matches_free_function_bit_for_bit() {
        let g = Arc::new(random_sp_graph(&SpGenConfig::new(30, 7)));
        let p = Arc::new(Platform::reference());
        for cfg in [
            MapperConfig::single_node(),
            MapperConfig::series_parallel(),
            MapperConfig::sp_first_fit(),
            MapperConfig::sp_first_fit().with_report_cost(2, 11),
        ] {
            let direct = decomposition_map(&g, &p, &cfg);
            let req = MapRequest::from_mapper_config(Arc::clone(&g), Arc::clone(&p), &cfg);
            let via = map_request(&req).expect("decomposition families route");
            assert_eq!(via.mapping, direct.mapping);
            assert_eq!(via.makespan, direct.makespan);
            assert_eq!(via.history, direct.history);
            assert_eq!(via.batch, direct.batch);
        }
    }

    #[test]
    fn ga_requests_are_refused_by_the_core_router() {
        let g = Arc::new(random_sp_graph(&SpGenConfig::new(12, 1)));
        let req = MapRequest::new(g, Arc::new(Platform::reference()))
            .with_algo(Algo::Ga(GaParams::default()));
        assert!(matches!(
            map_request(&req),
            Err(MapperError::UnsupportedAlgo { .. })
        ));
    }

    #[test]
    fn device_restriction_only_maps_onto_allowed_devices() {
        let g = Arc::new(random_sp_graph(&SpGenConfig::new(24, 3)));
        let p = Arc::new(Platform::reference());
        let cpu = p.default_device();
        let mut req = MapRequest::new(Arc::clone(&g), Arc::clone(&p));
        req.limits.devices = Some(vec![cpu]);
        let res = map_request(&req).expect("cpu-only request maps");
        assert!(res.mapping.as_slice().iter().all(|&d| d == cpu));
        assert_eq!(res.makespan, res.cpu_only_makespan);
    }
}
