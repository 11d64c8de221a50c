//! Online remapping sessions: warm-start incremental re-mapping.
//!
//! A [`RemapSession`] owns an incumbent [`Mapping`], the
//! [`EvalArtifact`] it was computed against, and the session's device
//! availability.  Runtime events arrive as typed [`Perturbation`]s —
//! a device fails or returns, tasks arrive or finish, task attributes
//! change — and [`RemapSession::remap`] reacts by *warm-starting* the
//! decomposition search from the incumbent instead of mapping from
//! scratch:
//!
//! 1. **Compile** the perturbation batch into a patched graph, an
//!    updated availability mask, a *repaired* incumbent (nodes stranded
//!    on a lost device fall back to the default device; arriving nodes
//!    start there too), and the set of **affected nodes** whose
//!    placement decisions the events invalidated.
//! 2. **Seed a neighborhood**: the candidate operations whose subgraph
//!    touches an affected node (plus, after a device restoration, every
//!    operation targeting the restored device).
//! 3. **Search** that neighborhood only, with the session's own
//!    heuristic (exhaustive or γ-threshold/FirstFit), through the
//!    mapper's one search loop — the same driver and windowed
//!    [`CandidateBatch`] engine as a full map, but warm-started on the
//!    repaired incumbent ([`CandidateBatch::with_shared_tables_warm`]),
//!    so unaffected regions of a large graph are never re-examined.
//!
//! [`RemapSession::remap_full`] is the same path with the full
//! operation set from the all-default mapping: the from-scratch
//! executable-spec fallback.  `perf_report --remap` measures the gap
//! per perturbation kind and gates on it: warm must make no more
//! candidate decisions than full.  A device restoration is the widest
//! warm case — it reopens every subgraph for the restored device, a
//! third of the operations on the reference platform — yet FirstFit
//! over that column still beats a from-scratch FirstFit (docs/PERF.md).
//! An **empty perturbation batch returns the incumbent bits** — pinned
//! by the service stress suite.
//!
//! ## Exactness and determinism
//!
//! Device loss never edits the platform: [`DeviceId`]s are positional,
//! and a mapping that avoids a device has the same makespan whether the
//! device exists or not (it contributes no exec, link or area term).
//! Loss is therefore a *candidate restriction* — the warm engine simply
//! never offers the lost device — and the evaluation tables stay
//! bit-for-bit, which is what lets a session reuse its artifact across
//! perturbations.  The session's identity is re-keyed through
//! [`masked_artifact_key`] so observers never confuse
//! availability-restricted state with the unrestricted build.
//!
//! A remap decision is a pure function of (incumbent, perturbation
//! batch, config): no clocks, no thread-count dependence (the engine's
//! bit-identity regime carries over verbatim).  Replaying the same
//! perturbation sequence through a fresh session reproduces every bit —
//! `tests/service.rs` pins this across shard counts.

use std::sync::{Arc, Mutex};

use spmap_graph::{GraphError, NodeId, Task, TaskGraph};
use spmap_model::{masked_artifact_key, DeviceId, EvalArtifact, Mapping, Platform};

use crate::batch::{BatchStats, CandidateBatch};
use crate::cache::{cached, resolve, ResponseCache};
use crate::mapper::{
    build_subgraphs, drive_search, search_subgraphs, MapperConfig, MapperError, MapperResult, OpId,
};
use crate::request::MapRequest;
use crate::runtime::RuntimeConfig;

/// One runtime event a session reacts to.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Perturbation {
    /// Device `d` became unavailable.  Nodes mapped to it are repaired
    /// onto the default device and their placement re-decided.
    DeviceLost(DeviceId),
    /// Device `d` became available again.  Every candidate operation
    /// targeting it joins the remap neighborhood.
    DeviceRestored(DeviceId),
    /// A new task subgraph arrived.  Its nodes are appended to the
    /// session graph (ids `n..n+k` in arrival order) and wired to the
    /// existing graph by `attach`; they start on the default device.
    TaskArrived {
        /// The arriving subgraph (its internal edges are preserved).
        subgraph: TaskGraph,
        /// Dependencies between existing nodes and arriving nodes.
        attach: Vec<AttachEdge>,
    },
    /// These tasks completed and leave the graph; surviving node ids
    /// compact downward in order (the session repairs its incumbent and
    /// affected bookkeeping across the renumbering).
    TaskFinished(Vec<NodeId>),
    /// Task attributes changed in place.  A node whose area demand
    /// *grew* is conservatively repaired onto the default device so the
    /// warm start can never be area-infeasible.
    AttributesChanged {
        /// `(node, new attributes)` pairs.
        nodes: Vec<(NodeId, Task)>,
    },
}

/// A dependency wiring an arriving subgraph into the session graph
/// (see [`Perturbation::TaskArrived`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttachEdge {
    /// Existing node → arriving node (`to_new` indexes the arriving
    /// subgraph's nodes).
    Into {
        /// Producer in the session graph.
        from: NodeId,
        /// Consumer, as an index into the arriving subgraph.
        to_new: usize,
        /// Transfer volume in bytes.
        bytes: f64,
    },
    /// Arriving node → existing node.
    OutOf {
        /// Producer, as an index into the arriving subgraph.
        from_new: usize,
        /// Consumer in the session graph.
        to: NodeId,
        /// Transfer volume in bytes.
        bytes: f64,
    },
}

/// A typed failure of a session operation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RemapError {
    /// The underlying mapper failed (or the opening request named an
    /// algorithm family sessions cannot run).
    Mapper(MapperError),
    /// A perturbation named a device the platform does not have.
    UnknownDevice(DeviceId),
    /// The default device cannot be lost or excluded — it is the repair
    /// target every fallback relies on.
    DefaultDeviceUnavailable(DeviceId),
    /// A perturbation named a node the session graph does not have.
    UnknownNode(NodeId),
    /// An attach edge indexed past the arriving subgraph.
    UnknownArrivingNode(usize),
    /// A graph patch was structurally invalid (cycle, self-loop).
    Graph(GraphError),
    /// The perturbation would leave the session with an empty graph;
    /// close the session instead.
    WouldEmptyGraph,
}

impl std::fmt::Display for RemapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemapError::Mapper(e) => write!(f, "remap search failed: {e}"),
            RemapError::UnknownDevice(d) => write!(f, "unknown device {d:?}"),
            RemapError::DefaultDeviceUnavailable(d) => write!(
                f,
                "device {d:?} is the default (repair) device and cannot be made unavailable"
            ),
            RemapError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            RemapError::UnknownArrivingNode(i) => {
                write!(f, "attach edge references arriving node {i} out of range")
            }
            RemapError::Graph(e) => write!(f, "graph patch invalid: {e}"),
            RemapError::WouldEmptyGraph => write!(
                f,
                "perturbation removes every task; close the session instead of remapping"
            ),
        }
    }
}

impl std::error::Error for RemapError {}

impl From<MapperError> for RemapError {
    fn from(e: MapperError) -> Self {
        RemapError::Mapper(e)
    }
}

impl From<GraphError> for RemapError {
    fn from(e: GraphError) -> Self {
        RemapError::Graph(e)
    }
}

/// The result of one [`RemapSession::remap`] (or
/// [`RemapSession::remap_full`]) call.
#[derive(Clone, Debug)]
pub struct RemapOutcome {
    /// The new incumbent mapping.
    pub mapping: Mapping,
    /// Its makespan under the session's cost model.
    pub makespan: f64,
    /// Makespan of the *repaired* incumbent the search started from —
    /// the quality a no-search repair would have shipped.
    pub warm_start_makespan: f64,
    /// Improvement iterations applied.
    pub iterations: usize,
    /// Makespan after each applied iteration.
    pub history: Vec<f64>,
    /// Nodes whose placement the perturbation invalidated.
    pub affected_nodes: usize,
    /// Candidate operations in the warm neighborhood (0 for
    /// [`RemapSession::remap_full`], which sweeps everything).
    pub neighborhood_ops: usize,
    /// Total candidate operations of the patched instance, for scale.
    pub op_count: usize,
    /// `true` iff the perturbation batch was empty: the incumbent bits
    /// were returned untouched, no engine was built.
    pub noop: bool,
    /// `true` for the warm-start path, `false` for the from-scratch
    /// fallback.
    pub warm: bool,
    /// Whether this remap had to rebuild evaluation tables because the
    /// graph changed.
    pub graph_rebuilt: bool,
    /// Always `false`: a remap never answers from the response cache
    /// (its result depends on the session's history, not only on its
    /// request) and builds the tables of a patched graph privately.
    /// Kept so callers that tally hits across outcomes still compile.
    pub cache_hit: bool,
    /// The session's identity key after this remap:
    /// [`masked_artifact_key`] of the artifact key under the current
    /// availability mask.
    pub session_key: u128,
    /// Engine decision counters of the remap search (zero for no-ops).
    pub batch: BatchStats,
}

/// Working state while a perturbation batch is compiled, before any of
/// it is committed back to the session.
struct Compiled {
    graph: Arc<TaskGraph>,
    graph_changed: bool,
    available: Vec<bool>,
    incumbent: Mapping,
    affected: Vec<bool>,
    restored: Vec<bool>,
}

/// A long-lived remapping session; see the module docs.
pub struct RemapSession {
    graph: Arc<TaskGraph>,
    platform: Arc<Platform>,
    cfg: MapperConfig,
    available: Vec<bool>,
    subgraphs: Vec<Vec<NodeId>>,
    artifact: Arc<EvalArtifact>,
    incumbent: Mapping,
    incumbent_makespan: f64,
    initial: MapperResult,
    initial_cache_hit: bool,
    remaps: u64,
}

impl RemapSession {
    /// Open a session by running `req`'s initial full map.  `cache`, if
    /// given, is the response cache the opening map is looked up in and
    /// inserted into, under the same key as a one-shot
    /// [`MapService::map`](crate::MapService::map) of `req` (a service
    /// passes its own).  `req.limits.devices` seeds the availability
    /// mask (it must include the platform's default device).  Either
    /// way the session builds its own tables and decomposition, which
    /// its remaps need.
    ///
    /// The request is validated by [`MapRequest::mapper_config`] like a
    /// one-shot map: GA requests cannot open sessions — the warm-start
    /// engine is the decomposition engine — and return
    /// [`MapperError::UnsupportedAlgo`]; an invalid γ or an
    /// out-of-range device is a typed [`MapperError`] too.
    pub fn open(
        req: &MapRequest,
        cache: Option<&Mutex<ResponseCache>>,
    ) -> Result<Self, RemapError> {
        Self::open_under(req, cache, &RuntimeConfig::default())
    }

    /// [`Self::open`] with engine knobs the request leaves unset taken
    /// from `runtime` (a service passes its own).
    pub(crate) fn open_under(
        req: &MapRequest,
        cache: Option<&Mutex<ResponseCache>>,
        runtime: &RuntimeConfig,
    ) -> Result<Self, RemapError> {
        let (cfg, key) = resolve(req, runtime)?;
        let m = req.platform.device_count();
        let available = match &req.limits.devices {
            None => vec![true; m],
            Some(ds) => {
                let mut mask = vec![false; m];
                for &d in ds {
                    mask[d.index()] = true;
                }
                if !mask[req.platform.default_device().index()] {
                    return Err(RemapError::DefaultDeviceUnavailable(
                        req.platform.default_device(),
                    ));
                }
                mask
            }
        };
        crate::faults::fault_point(crate::faults::FaultSite::ArtifactBuild);
        let artifact = Arc::new(EvalArtifact::build(
            Arc::clone(&req.graph),
            Arc::clone(&req.platform),
            cfg.engine.numbering,
        ));
        let subgraphs = build_subgraphs(&req.graph, cfg.strategy);
        // The opening map is exactly a one-shot map of `req`, so it
        // shares that map's cache key.
        let (initial, cache_hit) = cached(cache, key, || {
            search_subgraphs(
                artifact.tables(),
                subgraphs.clone(),
                &cfg,
                req.limits.devices.as_deref(),
            )
        })?;
        Ok(Self {
            graph: Arc::clone(&req.graph),
            platform: Arc::clone(&req.platform),
            cfg,
            available,
            subgraphs,
            artifact,
            incumbent: initial.mapping.clone(),
            incumbent_makespan: initial.makespan,
            initial,
            initial_cache_hit: cache_hit,
            remaps: 0,
        })
    }

    /// The session's current graph.
    pub fn graph(&self) -> &Arc<TaskGraph> {
        &self.graph
    }

    /// The session's platform (never patched; see the module docs).
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The current incumbent mapping.
    pub fn incumbent(&self) -> &Mapping {
        &self.incumbent
    }

    /// The incumbent's makespan under the session's cost model.
    pub fn incumbent_makespan(&self) -> f64 {
        self.incumbent_makespan
    }

    /// Per-device availability (indexed by [`DeviceId::index`]).
    pub fn available(&self) -> &[bool] {
        &self.available
    }

    /// The initial full-map result the session opened with.
    pub fn initial(&self) -> &MapperResult {
        &self.initial
    }

    /// Whether the opening map came from the response cache.
    pub fn initial_cache_hit(&self) -> bool {
        self.initial_cache_hit
    }

    /// Remaps executed so far (warm or full, excluding no-ops).
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// The session's identity key: the artifact key re-keyed under the
    /// current availability mask ([`masked_artifact_key`]); equal to
    /// the plain artifact key while every device is available.
    pub fn session_key(&self) -> u128 {
        masked_artifact_key(
            self.artifact.key(),
            availability_mask(&self.available),
            self.available.len(),
        )
    }

    /// React to `perturbations` by warm-starting the search from the
    /// repaired incumbent over the affected neighborhood, with the
    /// session's own heuristic.  An empty batch returns the incumbent
    /// bits untouched.
    pub fn remap(&mut self, perturbations: &[Perturbation]) -> Result<RemapOutcome, RemapError> {
        self.remap_with(perturbations, true)
    }

    /// The executable-spec fallback: compile the same perturbations,
    /// then re-map the patched instance *from scratch* with the
    /// session's configuration (all-default start, every operation).
    /// Same exactness, no warm start — this is what
    /// `perf_report --remap` races [`Self::remap`] against, and what a
    /// caller should prefer when a perturbation invalidates most of the
    /// incumbent anyway.
    pub fn remap_full(
        &mut self,
        perturbations: &[Perturbation],
    ) -> Result<RemapOutcome, RemapError> {
        self.remap_with(perturbations, false)
    }

    /// The one remap path: compile, pick the artifact and subgraphs,
    /// search, build the outcome, commit.  `warm` searches the
    /// neighborhood from the repaired incumbent; otherwise every
    /// operation is searched from the all-default mapping.
    fn remap_with(
        &mut self,
        perturbations: &[Perturbation],
        warm: bool,
    ) -> Result<RemapOutcome, RemapError> {
        if perturbations.is_empty() {
            return Ok(self.noop_outcome());
        }
        let c = self.compile(perturbations)?;
        let devices = device_list(&c.available);
        let artifact = self.artifact_for(&c);
        // Clone rather than take: an error mid-search must leave the
        // session state untouched and reusable.
        let subgraphs = if c.graph_changed {
            build_subgraphs(&c.graph, self.cfg.strategy)
        } else {
            self.subgraphs.clone()
        };
        let m = devices.len();
        let op_count = subgraphs.len() * m;

        // The warm neighborhood: operations whose subgraph touches an
        // affected node or whose device was restored in this batch.
        // Ascending op ids, like the full set.
        let ops: Vec<OpId> = (0..op_count)
            .filter(|&op| {
                !warm
                    || c.restored[devices[op % m].index()]
                    || subgraphs[op / m].iter().any(|v| c.affected[v.index()])
            })
            .collect();

        // Nothing to re-decide on an unchanged instance (e.g. losing a
        // device no task was mapped to): keep the incumbent bits and
        // build no engine.
        let (mapping, makespan, warm_start_makespan, iterations, history, batch) =
            if ops.is_empty() && !c.graph_changed {
                let ms = self.incumbent_makespan;
                (
                    c.incumbent.clone(),
                    ms,
                    ms,
                    0,
                    Vec::new(),
                    BatchStats::default(),
                )
            } else {
                let base = if warm {
                    c.incumbent.clone()
                } else {
                    Mapping::all_default(&c.graph, &self.platform)
                };
                let engine = CandidateBatch::with_shared_tables_warm(
                    artifact.tables(),
                    subgraphs.clone(),
                    devices,
                    self.cfg.engine,
                    self.cfg.cost,
                    base,
                );
                let r = drive_search(engine, &self.cfg, &ops)?;
                let warm_start = r.cpu_only_makespan;
                (
                    r.mapping,
                    r.makespan,
                    warm_start,
                    r.iterations,
                    r.history,
                    r.batch,
                )
            };

        let outcome = RemapOutcome {
            mapping,
            makespan,
            warm_start_makespan,
            iterations,
            history,
            affected_nodes: c.affected.iter().filter(|&&a| a).count(),
            neighborhood_ops: if warm { ops.len() } else { 0 },
            op_count,
            noop: false,
            warm,
            graph_rebuilt: c.graph_changed,
            cache_hit: false,
            session_key: 0, // stamped by `commit_outcome`
            batch,
        };
        Ok(self.commit_outcome(c, artifact, subgraphs, outcome))
    }

    /// The empty-batch fast path: incumbent bits, no engine.
    fn noop_outcome(&self) -> RemapOutcome {
        RemapOutcome {
            mapping: self.incumbent.clone(),
            makespan: self.incumbent_makespan,
            warm_start_makespan: self.incumbent_makespan,
            iterations: 0,
            history: Vec::new(),
            affected_nodes: 0,
            neighborhood_ops: 0,
            op_count: self.subgraphs.len() * device_list(&self.available).len(),
            noop: true,
            warm: true,
            graph_rebuilt: false,
            cache_hit: false,
            session_key: self.session_key(),
            batch: BatchStats::default(),
        }
    }

    /// Commit compiled state + search outcome back into the session and
    /// stamp the outcome's session key.
    fn commit_outcome(
        &mut self,
        c: Compiled,
        artifact: Arc<EvalArtifact>,
        subgraphs: Vec<Vec<NodeId>>,
        mut outcome: RemapOutcome,
    ) -> RemapOutcome {
        crate::faults::fault_point(crate::faults::FaultSite::SessionCommit);
        // The one allocation (cloning the new incumbent) happens before
        // any field is assigned: the assignments below are plain moves
        // and stores that cannot unwind, so the session can never be
        // observed half-committed — the basis of the poison-recovery
        // policy in docs/ROBUSTNESS.md.
        let incumbent = outcome.mapping.clone();
        self.graph = c.graph;
        self.available = c.available;
        self.subgraphs = subgraphs;
        self.artifact = artifact;
        self.incumbent = incumbent;
        self.incumbent_makespan = outcome.makespan;
        self.remaps += 1;
        outcome.session_key = self.session_key();
        outcome
    }

    /// Re-derive every piece of session state a mid-operation panic
    /// could conceivably have been computing — subgraphs, incumbent,
    /// makespan — as a pure function of the committed inputs (graph,
    /// platform, artifact, availability).  The service's poison
    /// recovery ([`MapService::remap_full`](crate::MapService) on a
    /// poisoned session) calls this before clearing the poison; because
    /// sessions mutate only at their panic-free commit boundary, the
    /// committed inputs are always intact and the recovered session is
    /// bit-identical to a fresh one opened on the same patched state.
    pub fn rebuild(&mut self) -> Result<(), RemapError> {
        self.subgraphs = build_subgraphs(&self.graph, self.cfg.strategy);
        let devices = device_list(&self.available);
        let result = search_subgraphs(
            self.artifact.tables(),
            self.subgraphs.clone(),
            &self.cfg,
            Some(&devices),
        )?;
        self.incumbent = result.mapping;
        self.incumbent_makespan = result.makespan;
        Ok(())
    }

    /// The artifact serving `c`: the session's own while the graph is
    /// unchanged, else a private build for the patched graph.
    fn artifact_for(&self, c: &Compiled) -> Arc<EvalArtifact> {
        if !c.graph_changed {
            return Arc::clone(&self.artifact);
        }
        crate::faults::fault_point(crate::faults::FaultSite::ArtifactBuild);
        Arc::new(EvalArtifact::build(
            Arc::clone(&c.graph),
            Arc::clone(&self.platform),
            self.cfg.engine.numbering,
        ))
    }

    /// Compile a perturbation batch against the current session state.
    /// Pure: the session is untouched until [`Self::commit_outcome`].
    fn compile(&self, perturbations: &[Perturbation]) -> Result<Compiled, RemapError> {
        crate::faults::fault_point(crate::faults::FaultSite::SessionCompile);
        let m = self.platform.device_count();
        let default = self.platform.default_device();
        let mut c = Compiled {
            graph: Arc::clone(&self.graph),
            graph_changed: false,
            available: self.available.clone(),
            incumbent: self.incumbent.clone(),
            affected: vec![false; self.graph.node_count()],
            restored: vec![false; m],
        };
        for p in perturbations {
            match p {
                Perturbation::DeviceLost(d) => {
                    if d.index() >= m {
                        return Err(RemapError::UnknownDevice(*d));
                    }
                    if *d == default {
                        return Err(RemapError::DefaultDeviceUnavailable(*d));
                    }
                    c.available[d.index()] = false;
                    c.restored[d.index()] = false;
                    for v in c.graph.nodes() {
                        if c.incumbent.device(v) == *d {
                            c.incumbent.set(v, default);
                            c.affected[v.index()] = true;
                            for w in c.graph.successors(v).chain(c.graph.predecessors(v)) {
                                c.affected[w.index()] = true;
                            }
                        }
                    }
                }
                Perturbation::DeviceRestored(d) => {
                    if d.index() >= m {
                        return Err(RemapError::UnknownDevice(*d));
                    }
                    c.available[d.index()] = true;
                    c.restored[d.index()] = true;
                }
                Perturbation::TaskArrived { subgraph, attach } => {
                    let base = c.graph.node_count();
                    let k = subgraph.node_count();
                    let mut b = (*c.graph).clone().into_builder();
                    for v in subgraph.nodes() {
                        b.add_task(subgraph.task(v).clone());
                    }
                    for e in subgraph.edges() {
                        b.add_edge(
                            NodeId((base + e.src.index()) as u32),
                            NodeId((base + e.dst.index()) as u32),
                            e.bytes,
                        )?;
                    }
                    let mut attach_touched: Vec<NodeId> = Vec::new();
                    for a in attach {
                        match *a {
                            AttachEdge::Into {
                                from,
                                to_new,
                                bytes,
                            } => {
                                if from.index() >= base {
                                    return Err(RemapError::UnknownNode(from));
                                }
                                if to_new >= k {
                                    return Err(RemapError::UnknownArrivingNode(to_new));
                                }
                                b.add_edge(from, NodeId((base + to_new) as u32), bytes)?;
                                attach_touched.push(from);
                            }
                            AttachEdge::OutOf {
                                from_new,
                                to,
                                bytes,
                            } => {
                                if to.index() >= base {
                                    return Err(RemapError::UnknownNode(to));
                                }
                                if from_new >= k {
                                    return Err(RemapError::UnknownArrivingNode(from_new));
                                }
                                b.add_edge(NodeId((base + from_new) as u32), to, bytes)?;
                                attach_touched.push(to);
                            }
                        }
                    }
                    c.graph = Arc::new(b.build()?);
                    c.graph_changed = true;
                    let mut devices: Vec<DeviceId> = c.incumbent.as_slice().to_vec();
                    devices.resize(base + k, default);
                    c.incumbent = Mapping::from_vec(devices);
                    c.affected.resize(base + k, true);
                    for v in attach_touched {
                        c.affected[v.index()] = true;
                    }
                }
                Perturbation::TaskFinished(finished) => {
                    let n = c.graph.node_count();
                    let mut gone = vec![false; n];
                    for &v in finished {
                        if v.index() >= n {
                            return Err(RemapError::UnknownNode(v));
                        }
                        gone[v.index()] = true;
                    }
                    let survivors = n - gone.iter().filter(|&&g| g).count();
                    if survivors == 0 {
                        return Err(RemapError::WouldEmptyGraph);
                    }
                    // Survivors compact downward; neighbors of the
                    // departed get re-decided.
                    let mut renum = vec![usize::MAX; n];
                    let mut b =
                        spmap_graph::GraphBuilder::with_capacity(survivors, c.graph.edge_count());
                    let mut devices = Vec::with_capacity(survivors);
                    let mut affected = Vec::with_capacity(survivors);
                    for v in c.graph.nodes() {
                        if gone[v.index()] {
                            continue;
                        }
                        renum[v.index()] = b.add_task(c.graph.task(v).clone()).index();
                        devices.push(c.incumbent.device(v));
                        let orphaned = c
                            .graph
                            .successors(v)
                            .chain(c.graph.predecessors(v))
                            .any(|w| gone[w.index()]);
                        affected.push(c.affected[v.index()] || orphaned);
                    }
                    for e in c.graph.edges() {
                        let (u, w) = (renum[e.src.index()], renum[e.dst.index()]);
                        if u != usize::MAX && w != usize::MAX {
                            b.add_edge(NodeId(u as u32), NodeId(w as u32), e.bytes)?;
                        }
                    }
                    c.graph = Arc::new(b.build()?);
                    c.graph_changed = true;
                    c.incumbent = Mapping::from_vec(devices);
                    c.affected = affected;
                }
                Perturbation::AttributesChanged { nodes } => {
                    let n = c.graph.node_count();
                    let mut g = (*c.graph).clone();
                    for (v, task) in nodes {
                        if v.index() >= n {
                            return Err(RemapError::UnknownNode(*v));
                        }
                        // An area-grown node might no longer fit where
                        // it sits; repairing it onto the default device
                        // keeps the warm-start base feasible (the
                        // default device is area-unconstrained).
                        if task.area > g.task(*v).area {
                            c.incumbent.set(*v, default);
                        }
                        *g.task_mut(*v) = task.clone();
                        c.affected[v.index()] = true;
                        for w in g.successors(*v).chain(g.predecessors(*v)) {
                            c.affected[w.index()] = true;
                        }
                    }
                    c.graph = Arc::new(g);
                    c.graph_changed = true;
                }
            }
        }
        Ok(c)
    }
}

/// The session's availability as a bitmask (bit `i` = device `i`).
fn availability_mask(available: &[bool]) -> u64 {
    available
        .iter()
        .enumerate()
        .take(64)
        .fold(0u64, |acc, (i, &a)| if a { acc | (1 << i) } else { acc })
}

/// The candidate device list of an availability mask, in id order.
fn device_list(available: &[bool]) -> Vec<DeviceId> {
    available
        .iter()
        .enumerate()
        .filter(|(_, &a)| a)
        .map(|(i, _)| DeviceId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MapRequest;
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig};

    fn session_request(nodes: usize, seed: u64) -> MapRequest {
        let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        MapRequest::new(Arc::new(g), Arc::new(Platform::reference()))
    }

    fn non_default_device(p: &Platform, mapping: &Mapping) -> DeviceId {
        let counts = mapping
            .as_slice()
            .iter()
            .filter(|&&d| d != p.default_device())
            .count();
        assert!(counts > 0, "test graph must use an accelerator");
        *mapping
            .as_slice()
            .iter()
            .find(|&&d| d != p.default_device())
            .unwrap()
    }

    #[test]
    fn empty_perturbation_returns_incumbent_bits() {
        let mut s = RemapSession::open(&session_request(28, 5), None).expect("open");
        let before = s.incumbent().clone();
        let key = s.session_key();
        let out = s.remap(&[]).expect("noop remap");
        assert!(out.noop);
        assert_eq!(out.mapping, before);
        assert_eq!(out.makespan, s.incumbent_makespan());
        assert_eq!(out.iterations, 0);
        assert_eq!(out.session_key, key);
        assert_eq!(s.remaps(), 0);
    }

    #[test]
    fn device_loss_vacates_the_device_and_rekeys_the_session() {
        let req = session_request(30, 9);
        let mut s = RemapSession::open(&req, None).expect("open");
        let lost = non_default_device(&req.platform, s.incumbent());
        let plain_key = s.session_key();
        let out = s.remap(&[Perturbation::DeviceLost(lost)]).expect("remap");
        assert!(out.warm && !out.noop);
        assert!(s.incumbent().as_slice().iter().all(|&d| d != lost));
        assert_ne!(out.session_key, plain_key, "loss must re-key the session");
        assert!(!s.available()[lost.index()]);
        // Restoration returns to the plain key; the warm search may
        // move work back onto the restored device.
        let back = s
            .remap(&[Perturbation::DeviceRestored(lost)])
            .expect("restore");
        assert_eq!(back.session_key, plain_key);
        assert!(back.makespan <= out.makespan);
    }

    #[test]
    fn device_loss_matches_full_remap_quality_or_explains_itself() {
        // Warm remap after a device loss must produce a *feasible*
        // mapping that avoids the device; the full fallback on the same
        // perturbation is the executable spec for the patched instance.
        let req = session_request(26, 11);
        let mut warm = RemapSession::open(&req, None).expect("open");
        let mut full = RemapSession::open(&req, None).expect("open");
        let lost = non_default_device(&req.platform, warm.incumbent());
        let w = warm.remap(&[Perturbation::DeviceLost(lost)]).expect("warm");
        let f = full
            .remap_full(&[Perturbation::DeviceLost(lost)])
            .expect("full");
        assert!(w.mapping.as_slice().iter().all(|&d| d != lost));
        assert!(f.mapping.as_slice().iter().all(|&d| d != lost));
        // Both beat (or match) the no-search repair the warm path
        // started from.
        assert!(w.makespan <= w.warm_start_makespan);
        assert!(f.makespan <= w.warm_start_makespan);
    }

    #[test]
    fn task_arrival_extends_the_graph_and_maps_new_work() {
        let req = session_request(24, 3);
        let n = req.graph.node_count();
        let mut s = RemapSession::open(&req, None).expect("open");
        let sub = random_sp_graph(&SpGenConfig::new(6, 77));
        let out = s
            .remap(&[Perturbation::TaskArrived {
                subgraph: sub.clone(),
                attach: vec![AttachEdge::Into {
                    from: NodeId((n - 1) as u32),
                    to_new: 0,
                    bytes: 1e6,
                }],
            }])
            .expect("arrival");
        assert!(out.graph_rebuilt);
        assert_eq!(s.graph().node_count(), n + sub.node_count());
        assert_eq!(s.incumbent().len(), n + sub.node_count());
        assert!(out.makespan <= out.warm_start_makespan);
    }

    #[test]
    fn task_finish_compacts_ids_and_preserves_survivor_placement_topology() {
        let req = session_request(24, 13);
        let mut s = RemapSession::open(&req, None).expect("open");
        let n = req.graph.node_count();
        let finished = vec![NodeId(0), NodeId((n / 2) as u32)];
        let out = s
            .remap(&[Perturbation::TaskFinished(finished.clone())])
            .expect("finish");
        assert!(out.graph_rebuilt);
        assert_eq!(s.graph().node_count(), n - finished.len());
        assert_eq!(s.incumbent().len(), n - finished.len());
        // Survivors whose neighborhood did not change keep their device
        // unless the warm search found an improvement — at minimum the
        // renumbering must have carried placements over coherently:
        // every surviving device assignment is a legal device.
        let m = req.platform.device_count();
        assert!(s.incumbent().as_slice().iter().all(|d| d.index() < m));
        assert!(out.makespan.is_finite());
    }

    #[test]
    fn attribute_growth_repairs_onto_the_default_device_before_search() {
        let req = session_request(24, 21);
        let mut s = RemapSession::open(&req, None).expect("open");
        let v = NodeId(2);
        let mut task = s.graph().task(v).clone();
        task.area = task.area * 4.0 + 100.0;
        let out = s
            .remap(&[Perturbation::AttributesChanged {
                nodes: vec![(v, task)],
            }])
            .expect("attrs");
        assert!(out.graph_rebuilt);
        assert!(out.makespan.is_finite());
    }

    #[test]
    fn warm_restore_runs_the_sessions_own_heuristic() {
        // A warm remap searches with the request's heuristic: on the
        // same instance and perturbation, a FirstFit session's warm
        // restoration makes fewer candidate decisions than an
        // exhaustive session's, which re-sweeps the whole neighborhood
        // every iteration.
        let first_fit = session_request(40, 9);
        let exhaustive = first_fit.clone().with_algo(crate::Algo::Exhaustive);
        let lost = {
            let s = RemapSession::open(&first_fit, None).expect("probe");
            non_default_device(&first_fit.platform, s.incumbent())
        };
        let restore = |req: &MapRequest| {
            let mut s = RemapSession::open(req, None).expect("open");
            s.remap(&[Perturbation::DeviceLost(lost)]).expect("loss");
            s.remap(&[Perturbation::DeviceRestored(lost)])
                .expect("restore")
        };
        let ff = restore(&first_fit);
        let ex = restore(&exhaustive);
        assert_eq!(ff.neighborhood_ops, ex.neighborhood_ops);
        assert!(ex.iterations > 0, "the restore must have work to do");
        assert!(
            ff.batch.total() < ex.batch.total(),
            "FirstFit warm restore made {} decisions, exhaustive {}",
            ff.batch.total(),
            ex.batch.total()
        );
    }

    #[test]
    fn losing_the_default_device_is_refused() {
        let req = session_request(20, 2);
        let default = req.platform.default_device();
        let mut s = RemapSession::open(&req, None).expect("open");
        assert!(matches!(
            s.remap(&[Perturbation::DeviceLost(default)]),
            Err(RemapError::DefaultDeviceUnavailable(_))
        ));
    }

    #[test]
    fn replaying_a_sequence_is_bit_identical() {
        // The remap decision is a pure function of (incumbent,
        // perturbations, config): two sessions fed the same sequence
        // agree bit for bit at every step.
        let req = session_request(30, 17);
        let lost = {
            let s = RemapSession::open(&req, None).expect("probe");
            non_default_device(&req.platform, s.incumbent())
        };
        let sub = random_sp_graph(&SpGenConfig::new(5, 99));
        let seq: Vec<Vec<Perturbation>> = vec![
            vec![Perturbation::DeviceLost(lost)],
            vec![Perturbation::TaskArrived {
                subgraph: sub,
                attach: vec![AttachEdge::Into {
                    from: NodeId(3),
                    to_new: 0,
                    bytes: 5e5,
                }],
            }],
            vec![Perturbation::DeviceRestored(lost)],
            vec![Perturbation::TaskFinished(vec![NodeId(1)])],
        ];
        let mut a = RemapSession::open(&req, None).expect("open a");
        let mut b = RemapSession::open(&req, None).expect("open b");
        for batch in &seq {
            let oa = a.remap(batch).expect("a remaps");
            let ob = b.remap(batch).expect("b remaps");
            assert_eq!(oa.mapping, ob.mapping);
            assert_eq!(oa.makespan, ob.makespan);
            assert_eq!(oa.history, ob.history);
            assert_eq!(oa.session_key, ob.session_key);
        }
    }
}
