//! Core DAG data structures: [`Task`], [`Edge`], [`TaskGraph`] and the
//! mutable [`GraphBuilder`].
//!
//! Node and edge handles are plain `u32` newtypes.  All adjacency is stored
//! as index lists so graphs can be cloned cheaply and traversed without
//! pointer chasing — the evaluator in `spmap-model` walks these arrays in
//! its innermost loop.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a task node inside a [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the graph's task array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a dependency edge inside a [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's position in the graph's edge array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A task node and its platform-model attributes (paper §IV-B / DESIGN §6.1).
///
/// * `complexity` — operations performed per data point,
/// * `data_points` — number of data points the task processes,
/// * `parallelizability` — Amdahl fraction in `[0, 1]`; `1.0` means the
///   task scales perfectly with core count,
/// * `streamability` — FPGA pipelining factor (≥ 1 is useful; the model
///   clamps below 1),
/// * `area` — FPGA area demand in abstract area units.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Human-readable label (used by DOT export and workflow recipes).
    pub name: String,
    /// Operations per data point.
    pub complexity: f64,
    /// Number of data points processed.
    pub data_points: f64,
    /// Amdahl fraction in `[0, 1]`.
    pub parallelizability: f64,
    /// FPGA pipelining factor.
    pub streamability: f64,
    /// FPGA area demand.
    pub area: f64,
}

impl Task {
    /// A task with the given name and neutral attributes.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Total number of operations this task performs.
    #[inline]
    pub fn ops(&self) -> f64 {
        self.complexity * self.data_points
    }
}

impl Default for Task {
    fn default() -> Self {
        Self {
            name: String::new(),
            complexity: 1.0,
            data_points: 1.0,
            parallelizability: 0.0,
            streamability: 1.0,
            area: 1.0,
        }
    }
}

/// A directed dependency edge carrying `bytes` of data from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Producing task.
    pub src: NodeId,
    /// Consuming task.
    pub dst: NodeId,
    /// Data volume transported along this dependency, in bytes.
    pub bytes: f64,
}

/// Errors raised while building a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge from a node to itself was requested.
    SelfLoop(NodeId),
    /// The edge set contains a directed cycle.
    Cycle,
    /// An endpoint is out of range.
    InvalidNode(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(n) => write!(f, "self loop at {n}"),
            GraphError::Cycle => write!(f, "edge set contains a directed cycle"),
            GraphError::InvalidNode(n) => write!(f, "node {n} out of range"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable directed acyclic task graph.
///
/// Construct via [`GraphBuilder`].  Node and edge ids are dense and stable;
/// adjacency is exposed as edge-id slices plus convenience neighbor
/// iterators.  The one piece of interior state is the memo of the
/// content [`fingerprint`](TaskGraph::fingerprint): filled on first use
/// and cleared by every `&mut` method, so it never outlives the content
/// it was hashed from.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    fingerprint: OnceLock<u128>,
}

impl TaskGraph {
    /// Number of task nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.tasks.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The task stored at `n`.
    #[inline]
    pub fn task(&self, n: NodeId) -> &Task {
        &self.tasks[n.index()]
    }

    /// Mutable access to the task stored at `n` (used by augmentation).
    #[inline]
    pub fn task_mut(&mut self, n: NodeId) -> &mut Task {
        self.fingerprint.take();
        &mut self.tasks[n.index()]
    }

    /// The edge stored at `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Mutable access to the data volume of edge `e`.
    #[inline]
    pub fn edge_bytes_mut(&mut self, e: EdgeId) -> &mut f64 {
        self.fingerprint.take();
        &mut self.edges[e.index()].bytes
    }

    /// All task attributes as a slice (index = node id).
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All edges as a slice (index = edge id).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edge ids of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.index()]
    }

    /// Incoming edge ids of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.index()]
    }

    /// Number of outgoing edges of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// Number of incoming edges of `n`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// Iterator over the direct successors of `n` (with multiplicity).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[n.index()]
            .iter()
            .map(|&e| self.edges[e.index()].dst)
    }

    /// Iterator over the direct predecessors of `n` (with multiplicity).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[n.index()]
            .iter()
            .map(|&e| self.edges[e.index()].src)
    }

    /// `true` if a direct edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_adj[u.index()]
            .iter()
            .any(|&e| self.edges[e.index()].dst == v)
    }

    /// Total data volume entering `n`, in bytes.
    pub fn input_bytes(&self, n: NodeId) -> f64 {
        self.in_adj[n.index()]
            .iter()
            .map(|&e| self.edges[e.index()].bytes)
            .sum()
    }

    /// Total data volume leaving `n`, in bytes.
    pub fn output_bytes(&self, n: NodeId) -> f64 {
        self.out_adj[n.index()]
            .iter()
            .map(|&e| self.edges[e.index()].bytes)
            .sum()
    }

    /// A copy carrying only the edge structure: the same node and edge
    /// ids, edges and adjacency order, with every task
    /// [`Task::default`] — no name or attribute is cloned.
    pub(crate) fn structure_copy(&self) -> TaskGraph {
        TaskGraph {
            tasks: vec![Task::default(); self.tasks.len()],
            edges: self.edges.clone(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Append a task with no edges, returning its id.
    pub(crate) fn push_task(&mut self, task: Task) -> NodeId {
        self.fingerprint.take();
        let id = NodeId(self.tasks.len() as u32);
        self.tasks.push(task);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Append edge `u -> v` with the next edge id, keeping the adjacency
    /// lists in edge-id order as [`GraphBuilder::build`] lays them out.
    /// The caller guarantees the edge closes no cycle.
    pub(crate) fn push_edge(&mut self, u: NodeId, v: NodeId, bytes: f64) {
        self.fingerprint.take();
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src: u,
            dst: v,
            bytes,
        });
        self.out_adj[u.index()].push(id);
        self.in_adj[v.index()].push(id);
    }

    /// The graph's 128-bit content fingerprint: node and edge counts,
    /// every task's model attributes (in node-id order) and every edge's
    /// `(src, dst, bytes)` (in edge-id order); task names are excluded.
    /// Hashed on first use (`O(V + E)`) and memoized until the next
    /// `&mut` access, so repeat calls cost `O(1)`.
    pub fn fingerprint(&self) -> u128 {
        *self
            .fingerprint
            .get_or_init(|| crate::fingerprint::hash_graph(self))
    }

    /// Decompose back into a builder, e.g. to add edges to an existing graph.
    pub fn into_builder(self) -> GraphBuilder {
        GraphBuilder {
            tasks: self.tasks,
            edges: self.edges.into_iter().map(Some).collect(),
        }
    }
}

/// Mutable graph construction interface.
///
/// Edges can be removed during construction (generator algorithms rewire
/// edges); removal leaves a tombstone that is compacted by [`GraphBuilder::build`],
/// so edge ids are only stable *after* building.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    tasks: Vec<Task>,
    edges: Vec<Option<Edge>>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `nodes` tasks and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            tasks: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of tasks added so far.
    pub fn node_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of live (non-removed) edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// Append a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> NodeId {
        let id = NodeId(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Append `n` default tasks named `t0..t{n-1}`, returning the first id.
    pub fn add_default_tasks(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.tasks.len() as u32);
        for i in 0..n {
            self.add_task(Task::named(format!("t{}", first.0 as usize + i)));
        }
        first
    }

    /// Add an edge `u -> v` carrying `bytes`.  Self loops are rejected;
    /// duplicate (parallel) edges are allowed here and may be merged later
    /// with [`GraphBuilder::merge_parallel_edges`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, bytes: f64) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let n = self.tasks.len() as u32;
        if u.0 >= n {
            return Err(GraphError::InvalidNode(u));
        }
        if v.0 >= n {
            return Err(GraphError::InvalidNode(v));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(Edge {
            src: u,
            dst: v,
            bytes,
        }));
        Ok(id)
    }

    /// Remove edge `e` (tombstoned until [`GraphBuilder::build`]).
    pub fn remove_edge(&mut self, e: EdgeId) {
        self.edges[e.index()] = None;
    }

    /// The endpoints of a live edge, if it still exists.
    pub fn edge(&self, e: EdgeId) -> Option<&Edge> {
        self.edges[e.index()].as_ref()
    }

    /// Mutable access to a live edge.
    pub fn edge_mut(&mut self, e: EdgeId) -> Option<&mut Edge> {
        self.edges[e.index()].as_mut()
    }

    /// Ids of all live edges.
    pub fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// `true` if a live edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges
            .iter()
            .flatten()
            .any(|e| e.src == u && e.dst == v)
    }

    /// Merge parallel (duplicate) edges between the same ordered node pair,
    /// summing their data volumes.  This implements the paper's "redundant
    /// edges are removed" post-processing of the series-parallel generator.
    pub fn merge_parallel_edges(&mut self) {
        use std::collections::HashMap;
        let mut seen: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for i in 0..self.edges.len() {
            let Some(e) = self.edges[i] else { continue };
            match seen.entry((e.src, e.dst)) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    let fi = *first.get();
                    if let Some(fe) = self.edges[fi].as_mut() {
                        fe.bytes += e.bytes;
                    }
                    self.edges[i] = None;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(i);
                }
            }
        }
    }

    /// Finalize into an immutable [`TaskGraph`], verifying acyclicity.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let tasks = self.tasks;
        let edges: Vec<Edge> = self.edges.into_iter().flatten().collect();
        let n = tasks.len();
        let mut out_adj: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut in_adj: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out_adj[e.src.index()].push(EdgeId(i as u32));
            in_adj[e.dst.index()].push(EdgeId(i as u32));
        }
        let g = TaskGraph {
            tasks,
            edges,
            out_adj,
            in_adj,
            fingerprint: OnceLock::new(),
        };
        if crate::ops::topo_order(&g).is_none() {
            return Err(GraphError::Cycle);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(Task::named("a"));
        let n1 = b.add_task(Task::named("b"));
        let n2 = b.add_task(Task::named("c"));
        let n3 = b.add_task(Task::named("d"));
        b.add_edge(n0, n1, 10.0).unwrap();
        b.add_edge(n0, n2, 20.0).unwrap();
        b.add_edge(n1, n3, 30.0).unwrap();
        b.add_edge(n2, n3, 40.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_diamond() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.task(NodeId(2)).name, "c");
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn neighbor_iterators() {
        let g = diamond();
        let succ: Vec<_> = g.successors(NodeId(0)).collect();
        assert_eq!(succ, vec![NodeId(1), NodeId(2)]);
        let pred: Vec<_> = g.predecessors(NodeId(3)).collect();
        assert_eq!(pred, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn input_output_bytes() {
        let g = diamond();
        assert_eq!(g.input_bytes(NodeId(3)), 70.0);
        assert_eq!(g.output_bytes(NodeId(0)), 30.0);
        assert_eq!(g.input_bytes(NodeId(0)), 0.0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new();
        let n = b.add_task(Task::default());
        assert_eq!(b.add_edge(n, n, 1.0), Err(GraphError::SelfLoop(n)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new();
        let n = b.add_task(Task::default());
        assert_eq!(
            b.add_edge(n, NodeId(7), 1.0),
            Err(GraphError::InvalidNode(NodeId(7)))
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(Task::default());
        let c = b.add_task(Task::default());
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, a, 1.0).unwrap();
        assert_eq!(b.build().err(), Some(GraphError::Cycle));
    }

    #[test]
    fn remove_edge_tombstones_and_compacts() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(Task::default());
        let c = b.add_task(Task::default());
        let d = b.add_task(Task::default());
        let e0 = b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, d, 2.0).unwrap();
        b.remove_edge(e0);
        assert_eq!(b.live_edge_count(), 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(EdgeId(0)).bytes, 2.0);
    }

    #[test]
    fn merge_parallel_edges_sums_bytes() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(Task::default());
        let c = b.add_task(Task::default());
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(a, c, 4.0).unwrap();
        b.merge_parallel_edges();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(EdgeId(0)).bytes, 7.0);
    }

    #[test]
    fn into_builder_roundtrip() {
        let g = diamond();
        let mut b = g.into_builder();
        let extra = b.add_task(Task::named("e"));
        b.add_edge(NodeId(3), extra, 5.0).unwrap();
        let g2 = b.build().unwrap();
        assert_eq!(g2.node_count(), 5);
        assert_eq!(g2.edge_count(), 5);
    }

    #[test]
    fn task_ops() {
        let t = Task {
            complexity: 3.0,
            data_points: 4.0,
            ..Task::default()
        };
        assert_eq!(t.ops(), 12.0);
    }
}
