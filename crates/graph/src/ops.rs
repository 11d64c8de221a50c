//! Topological utilities over [`TaskGraph`].
//!
//! Everything here is `O(V + E)` unless stated otherwise; these routines
//! back both the generators and the model evaluator.

use std::borrow::Cow;

use crate::dag::{EdgeId, NodeId, Task, TaskGraph};

/// Kahn topological order, or `None` if the edge set has a cycle.
pub fn topo_order(g: &TaskGraph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
    let mut queue: Vec<NodeId> = g.nodes().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for s in g.successors(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// BFS layer index for every node: sources are layer 0, every other node
/// sits one past its deepest predecessor.
pub fn bfs_layers(g: &TaskGraph) -> Vec<u32> {
    let order = topo_order(g).expect("graph is a DAG by construction");
    let mut layer = vec![0u32; g.node_count()];
    for &v in &order {
        for s in g.successors(v) {
            layer[s.index()] = layer[s.index()].max(layer[v.index()] + 1);
        }
    }
    layer
}

/// All nodes with no incoming edges.
pub fn sources(g: &TaskGraph) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.in_degree(v) == 0).collect()
}

/// All nodes with no outgoing edges.
pub fn sinks(g: &TaskGraph) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.out_degree(v) == 0).collect()
}

/// Nodes reachable from `start` (including `start`), as a boolean mask.
pub fn reachable_from(g: &TaskGraph, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for s in g.successors(v) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// `true` if the graph is weakly connected (ignoring edge direction).
/// The empty graph counts as connected.
pub fn is_weakly_connected(g: &TaskGraph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for w in g.successors(v).chain(g.predecessors(v)) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count == n
}

/// Edge ids that are transitively redundant: `(u, v)` such that `v` stays
/// reachable from `u` without using that edge.  `O(V · E)` — only used by
/// generators and tests, never in the mapping hot path.
pub fn transitively_redundant_edges(g: &TaskGraph) -> Vec<EdgeId> {
    let order = topo_order(g).expect("graph is a DAG by construction");
    let mut pos = vec![0usize; g.node_count()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut redundant = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        // BFS from src skipping this particular edge; prune by topo position.
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![edge.src];
        seen[edge.src.index()] = true;
        let mut hit = false;
        'search: while let Some(v) = stack.pop() {
            for &oe in g.out_edges(v) {
                if oe == e {
                    continue;
                }
                let w = g.edge(oe).dst;
                if w == edge.dst {
                    hit = true;
                    break 'search;
                }
                if !seen[w.index()] && pos[w.index()] < pos[edge.dst.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        if hit {
            redundant.push(e);
        }
    }
    redundant
}

/// Longest path length through the DAG under caller-supplied node and edge
/// weights; the classic critical-path lower bound for any schedule.
pub fn critical_path(
    g: &TaskGraph,
    node_weight: impl Fn(NodeId) -> f64,
    edge_weight: impl Fn(EdgeId) -> f64,
) -> f64 {
    let order = topo_order(g).expect("graph is a DAG by construction");
    let mut dist = vec![0.0f64; g.node_count()];
    let mut best: f64 = 0.0;
    for &v in order.iter().rev() {
        let mut tail: f64 = 0.0;
        for &e in g.out_edges(v) {
            let s = g.edge(e).dst;
            tail = tail.max(edge_weight(e) + dist[s.index()]);
        }
        dist[v.index()] = node_weight(v) + tail;
        best = best.max(dist[v.index()]);
    }
    best
}

/// Result of [`normalize_terminals`]: the augmented graph plus the ids of
/// the (possibly virtual) unique source and sink.
pub struct NormalizedGraph<'a> {
    /// Graph guaranteed to have exactly one source and one sink: the
    /// input itself when it already has them, else an augmented copy of
    /// its edge structure (original tasks replaced by
    /// [`Task::default`]).
    pub graph: Cow<'a, TaskGraph>,
    /// The unique source.
    pub source: NodeId,
    /// The unique sink.
    pub sink: NodeId,
    /// `true` if `source` was inserted (it is then the node with the
    /// second-highest id, i.e. `graph.node_count() - 2` when both were added,
    /// see `virtual_source`/`virtual_sink`).
    pub virtual_source: bool,
    /// `true` if `sink` was inserted.
    pub virtual_sink: bool,
}

/// Ensure the graph has a single source and a single sink by inserting
/// zero-weight virtual terminals where needed (paper §III-C: "we may just
/// insert new start and end nodes").  Virtual tasks have zero complexity
/// and zero-byte edges so they never affect the makespan; original node ids
/// are preserved.  A graph that needs no virtual terminal is borrowed,
/// not copied.  The augmented copy is for structural analysis
/// (decomposition and SP recognition read only edges): it keeps every
/// edge and adjacency order but carries default tasks instead of
/// cloning each original task with its name.
pub fn normalize_terminals(g: &TaskGraph) -> NormalizedGraph<'_> {
    let srcs = sources(g);
    let snks = sinks(g);
    assert!(
        !srcs.is_empty() && !snks.is_empty(),
        "DAG must have at least one source and sink"
    );
    let need_src = srcs.len() > 1;
    let need_snk = snks.len() > 1;
    if !need_src && !need_snk {
        return NormalizedGraph {
            graph: Cow::Borrowed(g),
            source: srcs[0],
            sink: snks[0],
            virtual_source: false,
            virtual_sink: false,
        };
    }
    // A virtual source has only out-edges and a virtual sink only
    // in-edges, so neither can close a cycle: append them to a copy
    // directly instead of rebuilding (and re-checking) the whole graph.
    // Ids and adjacency order are those a builder would produce.
    let mut graph = g.structure_copy();
    let mut add_terminal = |name: &str, ends: &[NodeId], outgoing: bool| {
        let v = graph.push_task(Task {
            name: name.into(),
            complexity: 0.0,
            data_points: 0.0,
            ..Task::default()
        });
        for &s in ends {
            if outgoing {
                graph.push_edge(v, s, 0.0);
            } else {
                graph.push_edge(s, v, 0.0);
            }
        }
        v
    };
    let source = if need_src {
        add_terminal("__virtual_source", &srcs, true)
    } else {
        srcs[0]
    };
    let sink = if need_snk {
        add_terminal("__virtual_sink", &snks, false)
    } else {
        snks[0]
    };
    debug_assert!(
        topo_order(&graph).is_some(),
        "normalization preserves acyclicity"
    );
    NormalizedGraph {
        graph: Cow::Owned(graph),
        source,
        sink,
        virtual_source: need_src,
        virtual_sink: need_snk,
    }
}

/// The out-adjacency of the graph [`normalize_terminals`] would build,
/// flat and read-only: one CSR array of `(edge, head)` pairs, the
/// indegrees, and the terminals.  Real nodes and edges keep their ids;
/// a virtual source gets id `n`, a virtual sink the next id, and the
/// virtual edges are numbered from `edge_count` on — source edges
/// first, each group in node order — exactly as the normalized copy
/// numbers them.  Building it copies no task and allocates three
/// arrays, however many nodes the graph has.
#[derive(Clone, Debug)]
pub struct TwoTerminalEdges {
    /// `out[start[v]..start[v + 1]]` are the out-edges of `v`.
    start: Vec<u32>,
    out: Vec<(EdgeId, NodeId)>,
    in_degree: Vec<u32>,
    /// Number of nodes of the input graph (ids below it are real).
    pub real_nodes: usize,
    /// The unique source.
    pub source: NodeId,
    /// The unique sink.
    pub sink: NodeId,
}

impl TwoTerminalEdges {
    /// The two-terminal closure of `g`.
    pub fn new(g: &TaskGraph) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let is_source = |v: usize| g.in_degree(NodeId(v as u32)) == 0;
        let is_sink = |v: usize| g.out_degree(NodeId(v as u32)) == 0;
        let (mut srcs, mut snks) = (0, 0);
        let (mut first_src, mut first_snk) = (n, n);
        for v in (0..n).rev() {
            if is_source(v) {
                srcs += 1;
                first_src = v;
            }
            if is_sink(v) {
                snks += 1;
                first_snk = v;
            }
        }
        assert!(
            srcs > 0 && snks > 0,
            "DAG must have at least one source and sink"
        );
        let (need_src, need_snk) = (srcs > 1, snks > 1);
        let total = n + usize::from(need_src) + usize::from(need_snk);
        let v_source = NodeId(n as u32);
        let v_sink = NodeId((n + usize::from(need_src)) as u32);
        let virtual_edges = if need_src { srcs } else { 0 } + if need_snk { snks } else { 0 };
        let mut start = Vec::with_capacity(total + 1);
        let mut out = Vec::with_capacity(m + virtual_edges);
        let mut in_degree = Vec::with_capacity(total);
        let mut sink_edge = m + if need_src { srcs } else { 0 };
        for v in 0..n {
            let node = NodeId(v as u32);
            start.push(out.len() as u32);
            out.extend(g.out_edges(node).iter().map(|&e| (e, g.edge(e).dst)));
            if need_snk && is_sink(v) {
                out.push((EdgeId(sink_edge as u32), v_sink));
                sink_edge += 1;
            }
            in_degree.push((g.in_degree(node) + usize::from(need_src && is_source(v))) as u32);
        }
        if need_src {
            start.push(out.len() as u32);
            let heads = (0..n).filter(|&v| is_source(v));
            out.extend(
                heads
                    .zip(m..)
                    .map(|(v, e)| (EdgeId(e as u32), NodeId(v as u32))),
            );
            in_degree.push(0);
        }
        if need_snk {
            start.push(out.len() as u32);
            in_degree.push(snks as u32);
        }
        start.push(out.len() as u32);
        TwoTerminalEdges {
            source: if need_src {
                v_source
            } else {
                NodeId(first_src as u32)
            },
            sink: if need_snk {
                v_sink
            } else {
                NodeId(first_snk as u32)
            },
            start,
            out,
            in_degree,
            real_nodes: n,
        }
    }

    /// Number of nodes, virtual terminals included.
    pub fn node_count(&self) -> usize {
        self.in_degree.len()
    }

    /// Number of edges, virtual edges included.
    pub fn edge_count(&self) -> usize {
        self.out.len()
    }

    /// `(edge, head)` of every out-edge of `v`, in edge-id order.
    #[inline]
    pub fn out(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        let i = v.index();
        &self.out[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The indegree of every node, by id.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GraphBuilder;

    #[test]
    fn two_terminal_edges_match_the_normalized_graph() {
        let mut shapes = vec![diamond()];
        // Three sources, two sinks; one source, two sinks; two sources,
        // one sink.
        for edges in [
            &[(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (1, 5)][..],
            &[(0, 1), (0, 2), (1, 3), (0, 4), (1, 5)][..],
            &[(0, 2), (1, 2), (2, 3), (1, 3), (3, 4), (0, 5), (5, 4)][..],
        ] {
            let mut b = GraphBuilder::new();
            b.add_default_tasks(6);
            for &(u, v) in edges {
                b.add_edge(NodeId(u), NodeId(v), 1.0).unwrap();
            }
            shapes.push(b.build().unwrap());
        }
        for g in &shapes {
            let norm = normalize_terminals(g);
            let view = TwoTerminalEdges::new(g);
            assert_eq!((view.source, view.sink), (norm.source, norm.sink));
            assert_eq!(view.real_nodes, g.node_count());
            assert_eq!(view.node_count(), norm.graph.node_count());
            assert_eq!(view.edge_count(), norm.graph.edge_count());
            for v in norm.graph.nodes() {
                let expect: Vec<(EdgeId, NodeId)> = norm
                    .graph
                    .out_edges(v)
                    .iter()
                    .map(|&e| (e, norm.graph.edge(e).dst))
                    .collect();
                assert_eq!(view.out(v), expect.as_slice(), "out-edges of {v}");
                assert_eq!(
                    view.in_degrees()[v.index()] as usize,
                    norm.graph.in_degree(v)
                );
            }
        }
    }

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let n = b.add_default_tasks(4);
        let id = |i: u32| NodeId(n.0 + i);
        b.add_edge(id(0), id(1), 1.0).unwrap();
        b.add_edge(id(0), id(2), 1.0).unwrap();
        b.add_edge(id(1), id(3), 1.0).unwrap();
        b.add_edge(id(2), id(3), 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let order = topo_order(&g).unwrap();
        let mut pos = [0; 4];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(pos[edge.src.index()] < pos[edge.dst.index()]);
        }
    }

    #[test]
    fn bfs_layers_diamond() {
        let g = diamond();
        assert_eq!(bfs_layers(&g), vec![0, 1, 1, 2]);
    }

    #[test]
    fn sources_and_sinks() {
        let g = diamond();
        assert_eq!(sources(&g), vec![NodeId(0)]);
        assert_eq!(sinks(&g), vec![NodeId(3)]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let r = reachable_from(&g, NodeId(1));
        assert_eq!(r, vec![false, true, false, true]);
    }

    #[test]
    fn weak_connectivity() {
        let g = diamond();
        assert!(is_weakly_connected(&g));
        let mut b = GraphBuilder::new();
        b.add_default_tasks(2);
        let g2 = b.build().unwrap();
        assert!(!is_weakly_connected(&g2));
    }

    #[test]
    fn redundant_edge_detection() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2.
        let mut b = GraphBuilder::new();
        b.add_default_tasks(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let shortcut = b.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(transitively_redundant_edges(&g), vec![shortcut]);
        // The diamond has no redundant edges.
        assert!(transitively_redundant_edges(&diamond()).is_empty());
    }

    #[test]
    fn critical_path_diamond() {
        let g = diamond();
        // Unit node weights, zero edge weights: longest chain 0-1-3 = 3 nodes.
        let cp = critical_path(&g, |_| 1.0, |_| 0.0);
        assert_eq!(cp, 3.0);
        // Edge weights only: two hops.
        let cp = critical_path(&g, |_| 0.0, |_| 5.0);
        assert_eq!(cp, 10.0);
    }

    #[test]
    fn normalize_no_op_for_two_terminal_graph() {
        let g = diamond();
        let n = normalize_terminals(&g);
        assert!(!n.virtual_source && !n.virtual_sink);
        assert_eq!(n.graph.node_count(), 4);
        assert_eq!(n.source, NodeId(0));
        assert_eq!(n.sink, NodeId(3));
    }

    #[test]
    fn normalize_adds_virtual_terminals() {
        // Two disjoint edges: 0->1, 2->3 (two sources, two sinks).
        let mut b = GraphBuilder::new();
        b.add_default_tasks(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build().unwrap();
        let n = normalize_terminals(&g);
        assert!(n.virtual_source && n.virtual_sink);
        assert_eq!(n.graph.node_count(), 6);
        assert_eq!(n.graph.out_degree(n.source), 2);
        assert_eq!(n.graph.in_degree(n.sink), 2);
        assert_eq!(n.graph.task(n.source).complexity, 0.0);
        // Virtual edges carry zero bytes.
        for &e in n.graph.out_edges(n.source) {
            assert_eq!(n.graph.edge(e).bytes, 0.0);
        }
    }

    #[test]
    fn normalize_borrows_a_two_terminal_graph() {
        let g = diamond();
        let n = normalize_terminals(&g);
        assert!(matches!(n.graph, Cow::Borrowed(b) if std::ptr::eq(b, &g)));
    }

    #[test]
    fn normalize_lays_out_virtual_terminals_like_a_rebuild() {
        // Three sources, two sinks, with a shared middle node.
        let mut b = GraphBuilder::new();
        b.add_default_tasks(6);
        for (u, v) in [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (1, 5)] {
            b.add_edge(NodeId(u), NodeId(v), 2.0).unwrap();
        }
        let g = b.build().unwrap();
        let n = normalize_terminals(&g);
        let mut r = g.clone().into_builder();
        let src = r.add_task(n.graph.task(n.source).clone());
        for s in sources(&g) {
            r.add_edge(src, s, 0.0).unwrap();
        }
        let snk = r.add_task(n.graph.task(n.sink).clone());
        for s in sinks(&g) {
            r.add_edge(s, snk, 0.0).unwrap();
        }
        let r = r.build().unwrap();
        assert_eq!((n.source, n.sink), (src, snk));
        assert_eq!(n.graph.node_count(), r.node_count());
        assert_eq!(n.graph.edge_count(), r.edge_count());
        for e in r.edge_ids() {
            let (a, b) = (n.graph.edge(e), r.edge(e));
            assert_eq!((a.src, a.dst, a.bytes), (b.src, b.dst, b.bytes));
        }
        for v in r.nodes() {
            assert_eq!(n.graph.out_edges(v), r.out_edges(v));
            assert_eq!(n.graph.in_edges(v), r.in_edges(v));
        }
    }

    #[test]
    fn normalize_copies_structure_not_tasks() {
        // The augmented copy keeps edges but not task attributes: the
        // originals become default tasks, the terminals stay virtual.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_task(Task {
                complexity: 7.0 + i as f64,
                ..Task::named(format!("t{i}"))
            });
        }
        b.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 4.0).unwrap();
        let g = b.build().unwrap();
        let n = normalize_terminals(&g);
        for v in g.nodes() {
            assert_eq!(n.graph.task(v), &Task::default());
        }
        for e in g.edge_ids() {
            assert_eq!(n.graph.edge(e), g.edge(e));
        }
        assert_eq!(n.graph.task(n.source).name, "__virtual_source");
        assert_eq!(n.graph.task(n.sink).complexity, 0.0);
    }

    #[test]
    fn normalize_single_source_multi_sink() {
        let mut b = GraphBuilder::new();
        b.add_default_tasks(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let n = normalize_terminals(&g);
        assert!(!n.virtual_source);
        assert!(n.virtual_sink);
        assert_eq!(n.source, NodeId(0));
        assert_eq!(n.graph.node_count(), 4);
    }
}
