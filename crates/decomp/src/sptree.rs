//! Arena-allocated series-parallel decomposition trees.
//!
//! A decomposition tree node is a series operation, a parallel operation,
//! or a leaf wrapping one original graph edge (paper Fig. 1).  Every tree
//! node represents a subgraph with a distinct `source` and `sink`; the
//! `outsize` (number of tree edges ending in the sink) and `edge_count`
//! fields are the bookkeeping Algorithm 1 needs and are maintained
//! incrementally.
//!
//! Series composition is kept *flat* (a series node never has a series
//! child) and likewise for parallel nodes, so trees match the canonical
//! drawings in the paper.
//!
//! Children live in one link pool shared by the whole arena, not in a
//! `Vec` per node: a node owns a singly linked run of `len` links from
//! `first` to `last`.  Appending splices in O(1) by pointing the last
//! link at the appended run, which is how a series node extends in
//! place and how a parallel node takes over the children of a parallel
//! argument.  A run that was spliced into another node keeps reading
//! correctly, because a list is read for its own `len` links only and
//! never past its `last` — so a node orphaned by flattening still lists
//! its own children, as it did when it was built.  Every node becomes a
//! child at most once, so the pool holds at most one link per node.

use spmap_graph::{EdgeId, NodeId, TaskGraph};

/// Index of a tree node inside an [`SpForest`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpTreeId(pub u32);

impl SpTreeId {
    /// Position in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation a tree node represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpOp {
    /// Sequential composition of the children (sink of child *i* = source
    /// of child *i + 1*).
    Series,
    /// Parallel composition of the children (all share source and sink).
    Parallel,
    /// A single original graph edge.
    Leaf(EdgeId),
}

/// One node of a decomposition tree.  Its children are read through
/// [`SpForest::children`].
#[derive(Clone, Debug)]
pub struct SpNode {
    /// Operation kind.
    pub op: SpOp,
    /// Start node of the represented subgraph.
    pub source: NodeId,
    /// End node of the represented subgraph.
    pub sink: NodeId,
    /// Number of represented edges whose endpoint is `sink`.
    pub outsize: u32,
    /// Total number of represented (leaf) edges.
    pub edge_count: u32,
    /// The children: `run.len` links of the pool from `run.first`.
    run: Run,
}

/// A run of the link pool: `len` links from `first` to `last`.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    first: u32,
    last: u32,
    len: u32,
}

/// One child slot of the link pool.
#[derive(Clone, Copy, Debug)]
struct Link {
    child: SpTreeId,
    next: u32,
}

/// An arena of decomposition-tree nodes plus the forest's root list.
#[derive(Clone, Debug, Default)]
pub struct SpForest {
    nodes: Vec<SpNode>,
    links: Vec<Link>,
    /// Roots in creation order; for Algorithm 1 the *core* tree (grown
    /// from the global source) is pushed last.
    pub roots: Vec<SpTreeId>,
}

/// Iterator over the children of one tree node, in order.
#[derive(Clone, Debug)]
pub struct Children<'a> {
    links: &'a [Link],
    next: u32,
    left: u32,
}

impl Iterator for Children<'_> {
    type Item = SpTreeId;

    #[inline]
    fn next(&mut self) -> Option<SpTreeId> {
        if self.left == 0 {
            return None;
        }
        let link = self.links[self.next as usize];
        self.next = link.next;
        self.left -= 1;
        Some(link.child)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Children<'_> {}

impl SpForest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty forest with room for `nodes` arena nodes, so that a
    /// decomposition of at most that many nodes never regrows it.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(nodes),
            roots: Vec::new(),
        }
    }

    /// Number of arena nodes (including orphaned intermediates).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a tree node.
    #[inline]
    pub fn node(&self, t: SpTreeId) -> &SpNode {
        &self.nodes[t.index()]
    }

    /// The children of `t` in order (none for leaves).
    #[inline]
    pub fn children(&self, t: SpTreeId) -> Children<'_> {
        let run = self.node(t).run;
        Children {
            links: &self.links,
            next: run.first,
            left: run.len,
        }
    }

    /// Create a leaf for graph edge `e = (u, v)`.
    pub fn leaf(&mut self, e: EdgeId, u: NodeId, v: NodeId) -> SpTreeId {
        self.push(SpNode {
            op: SpOp::Leaf(e),
            source: u,
            sink: v,
            outsize: 1,
            edge_count: 1,
            run: Run::default(),
        })
    }

    /// Sequential composition `t ; x` (sink of `t` must equal source of
    /// `x`).  If `t` is already a series node it is extended in place and
    /// returned; series children of `x` are spliced in to keep the tree
    /// flat.
    pub fn series_extend(&mut self, t: SpTreeId, x: SpTreeId) -> SpTreeId {
        assert_eq!(
            self.node(t).sink,
            self.node(x).source,
            "series composition requires sink(t) == source(x)"
        );
        let tail = self.run_of(x, SpOp::Series);
        let x_node = self.node(x);
        let (x_sink, x_outsize, x_edges) = (x_node.sink, x_node.outsize, x_node.edge_count);
        if self.node(t).op == SpOp::Series {
            let run = self.append(self.node(t).run, tail);
            let node = &mut self.nodes[t.index()];
            node.run = run;
            node.sink = x_sink;
            node.outsize = x_outsize;
            node.edge_count += x_edges;
            t
        } else {
            let t_node = self.node(t);
            let (source, t_edges) = (t_node.source, t_node.edge_count);
            let head = self.single(t);
            let run = self.append(head, tail);
            self.push(SpNode {
                op: SpOp::Series,
                source,
                sink: x_sink,
                outsize: x_outsize,
                edge_count: t_edges + x_edges,
                run,
            })
        }
    }

    /// Parallel composition of two or more trees sharing source and sink.
    /// Parallel children are spliced in to keep the tree flat.
    pub fn parallel(&mut self, trees: &[SpTreeId]) -> SpTreeId {
        assert!(trees.len() >= 2, "parallel composition needs >= 2 trees");
        let source = self.node(trees[0]).source;
        let sink = self.node(trees[0]).sink;
        let mut run = Run::default();
        let mut outsize = 0;
        let mut edge_count = 0;
        for &t in trees {
            let node = self.node(t);
            assert_eq!(node.source, source, "parallel children share the source");
            assert_eq!(node.sink, sink, "parallel children share the sink");
            outsize += node.outsize;
            edge_count += node.edge_count;
            let piece = self.run_of(t, SpOp::Parallel);
            run = self.append(run, piece);
        }
        self.push(SpNode {
            op: SpOp::Parallel,
            source,
            sink,
            outsize,
            edge_count,
            run,
        })
    }

    /// The run `t` contributes as a child of an `op` node: its own
    /// children when it is an `op` node itself (flattening), else a new
    /// one-link run holding `t`.
    fn run_of(&mut self, t: SpTreeId, op: SpOp) -> Run {
        let node = self.node(t);
        if node.op == op {
            node.run
        } else {
            self.single(t)
        }
    }

    /// A new one-link run holding `t`.
    fn single(&mut self, t: SpTreeId) -> Run {
        let at = self.links.len() as u32;
        self.links.push(Link {
            child: t,
            next: u32::MAX,
        });
        Run {
            first: at,
            last: at,
            len: 1,
        }
    }

    /// `head` followed by `tail`; points `head`'s last link at `tail`.
    fn append(&mut self, head: Run, tail: Run) -> Run {
        if head.len == 0 {
            return tail;
        }
        self.links[head.last as usize].next = tail.first;
        Run {
            first: head.first,
            last: tail.last,
            len: head.len + tail.len,
        }
    }

    fn push(&mut self, node: SpNode) -> SpTreeId {
        let id = SpTreeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Push the children of `t` onto `stack` so that they pop in order.
    fn push_children_reversed(&self, t: SpTreeId, stack: &mut Vec<SpTreeId>) {
        let at = stack.len();
        stack.extend(self.children(t));
        stack[at..].reverse();
    }

    /// All graph edges represented by the subtree rooted at `t`, in leaf
    /// order.
    pub fn collect_edges(&self, t: SpTreeId) -> Vec<EdgeId> {
        let mut out = Vec::with_capacity(self.node(t).edge_count as usize);
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            if let SpOp::Leaf(e) = self.node(id).op {
                out.push(e);
            }
            self.push_children_reversed(id, &mut stack);
        }
        out
    }

    /// All graph nodes touched by the subtree rooted at `t` (endpoints of
    /// its leaf edges), sorted and deduplicated.
    pub fn collect_nodes(&self, t: SpTreeId, graph: &TaskGraph) -> Vec<NodeId> {
        let mut out = Vec::new();
        for e in self.collect_edges(t) {
            let edge = graph.edge(e);
            out.push(edge.src);
            out.push(edge.dst);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterate over every tree node reachable from the forest's roots
    /// (pre-order per root).
    pub fn iter_tree_nodes(&self) -> impl Iterator<Item = SpTreeId> + '_ {
        let mut order = Vec::new();
        let mut stack: Vec<SpTreeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            order.push(id);
            self.push_children_reversed(id, &mut stack);
        }
        order.into_iter()
    }

    /// Structural validation against the originating graph: every leaf
    /// edge exists with matching endpoints, series children chain, parallel
    /// children share endpoints, bookkeeping fields are consistent, and no
    /// edge appears in two trees.  Panics with a description on violation;
    /// intended for tests and debug assertions.  Iterative, so arbitrarily
    /// deep trees validate on any stack.
    pub fn validate(&self, graph: &TaskGraph) {
        let mut edge_seen = vec![false; graph.edge_count()];
        let mut stack: Vec<SpTreeId> = self.roots.clone();
        while let Some(t) = stack.pop() {
            let node = self.node(t);
            let children = self.children(t);
            match node.op {
                SpOp::Leaf(e) => {
                    let edge = graph.edge(e);
                    assert_eq!(edge.src, node.source, "leaf source mismatch");
                    assert_eq!(edge.dst, node.sink, "leaf sink mismatch");
                    assert_eq!(node.outsize, 1);
                    assert_eq!(node.edge_count, 1);
                    assert_eq!(children.len(), 0, "leaf with children");
                    assert!(!edge_seen[e.index()], "edge {e} in two trees");
                    edge_seen[e.index()] = true;
                }
                SpOp::Series => {
                    assert!(children.len() >= 2, "series with < 2 children");
                    let mut cur = node.source;
                    let mut edges = 0;
                    let mut last = t;
                    for c in children {
                        let cn = self.node(c);
                        assert_ne!(cn.op, SpOp::Series, "nested series not flattened");
                        assert_eq!(cn.source, cur, "series chain broken");
                        cur = cn.sink;
                        edges += cn.edge_count;
                        last = c;
                        stack.push(c);
                    }
                    assert_eq!(cur, node.sink, "series sink mismatch");
                    assert_eq!(node.edge_count, edges);
                    assert_eq!(node.outsize, self.node(last).outsize);
                }
                SpOp::Parallel => {
                    assert!(children.len() >= 2, "parallel with < 2 children");
                    let mut edges = 0;
                    let mut outsize = 0;
                    for c in children {
                        let cn = self.node(c);
                        assert_ne!(cn.op, SpOp::Parallel, "nested parallel not flattened");
                        assert_eq!(cn.source, node.source, "parallel source mismatch");
                        assert_eq!(cn.sink, node.sink, "parallel sink mismatch");
                        edges += cn.edge_count;
                        outsize += cn.outsize;
                        stack.push(c);
                    }
                    assert_eq!(node.edge_count, edges);
                    assert_eq!(node.outsize, outsize);
                }
            }
        }
    }

    /// Render the subtree rooted at `t` as an indented text tree, in the
    /// style of the paper's Fig. 1 (`S`/`P` inner nodes, `u - v` leaves).
    pub fn format_tree(&self, t: SpTreeId, graph: &TaskGraph) -> String {
        let mut s = String::new();
        self.format_rec(t, graph, 0, &mut s);
        s
    }

    fn format_rec(&self, t: SpTreeId, graph: &TaskGraph, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let node = self.node(t);
        let indent = "  ".repeat(depth);
        match node.op {
            SpOp::Leaf(e) => {
                let edge = graph.edge(e);
                writeln!(out, "{indent}{} - {}", edge.src.0, edge.dst.0).unwrap();
            }
            SpOp::Series | SpOp::Parallel => {
                let kind = if node.op == SpOp::Series { 'S' } else { 'P' };
                writeln!(out, "{indent}{kind} [{} - {}]", node.source.0, node.sink.0).unwrap();
                for c in self.children(t) {
                    self.format_rec(c, graph, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{chain, diamond};

    #[test]
    fn leaf_fields() {
        let g = chain(2, 1.0);
        let mut f = SpForest::new();
        let l = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let n = f.node(l);
        assert_eq!(n.op, SpOp::Leaf(EdgeId(0)));
        assert_eq!((n.source, n.sink), (NodeId(0), NodeId(1)));
        assert_eq!((n.outsize, n.edge_count), (1, 1));
        f.roots.push(l);
        f.validate(&g);
    }

    #[test]
    fn series_extension_flattens() {
        let g = chain(4, 1.0);
        let mut f = SpForest::new();
        let l0 = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let l1 = f.leaf(EdgeId(1), NodeId(1), NodeId(2));
        let l2 = f.leaf(EdgeId(2), NodeId(2), NodeId(3));
        let s = f.series_extend(l0, l1);
        let s = f.series_extend(s, l2);
        let n = f.node(s);
        assert_eq!(n.op, SpOp::Series);
        assert_eq!(f.children(s).len(), 3, "flat series");
        assert_eq!((n.source, n.sink), (NodeId(0), NodeId(3)));
        assert_eq!(n.edge_count, 3);
        assert_eq!(n.outsize, 1);
        f.roots.push(s);
        f.validate(&g);
    }

    #[test]
    fn series_splices_series_argument() {
        let g = chain(5, 1.0);
        let mut f = SpForest::new();
        let a = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let b = f.leaf(EdgeId(1), NodeId(1), NodeId(2));
        let c = f.leaf(EdgeId(2), NodeId(2), NodeId(3));
        let d = f.leaf(EdgeId(3), NodeId(3), NodeId(4));
        let s1 = f.series_extend(a, b); // 0..2
        let s2 = f.series_extend(c, d); // 2..4
        let s = f.series_extend(s1, s2);
        assert_eq!(f.children(s).len(), 4);
        f.roots.push(s);
        f.validate(&g);
    }

    #[test]
    fn parallel_composition() {
        let g = diamond(1.0); // edges: 0-1, 0-2, 1-3, 2-3
        let mut f = SpForest::new();
        let a = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let b = f.leaf(EdgeId(2), NodeId(1), NodeId(3));
        let left = f.series_extend(a, b);
        let c = f.leaf(EdgeId(1), NodeId(0), NodeId(2));
        let d = f.leaf(EdgeId(3), NodeId(2), NodeId(3));
        let right = f.series_extend(c, d);
        let p = f.parallel(&[left, right]);
        let n = f.node(p);
        assert_eq!(n.op, SpOp::Parallel);
        assert_eq!((n.source, n.sink), (NodeId(0), NodeId(3)));
        assert_eq!(n.outsize, 2);
        assert_eq!(n.edge_count, 4);
        f.roots.push(p);
        f.validate(&g);
        assert_eq!(
            f.collect_nodes(p, &g),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn parallel_flattens_parallel_children() {
        // Triple edge shape 0 -> 1 via three disjoint 2-chains is overkill;
        // use two leaves merged, then merge with a third tree.
        let mut b = spmap_graph::GraphBuilder::new();
        b.add_default_tasks(2);
        let e0 = b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let e1 = b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let e2 = b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build().unwrap();
        let mut f = SpForest::new();
        let l0 = f.leaf(e0, NodeId(0), NodeId(1));
        let l1 = f.leaf(e1, NodeId(0), NodeId(1));
        let p1 = f.parallel(&[l0, l1]);
        let l2 = f.leaf(e2, NodeId(0), NodeId(1));
        let p2 = f.parallel(&[p1, l2]);
        assert_eq!(f.children(p2).len(), 3, "flat parallel");
        assert_eq!(f.node(p2).outsize, 3);
        f.roots.push(p2);
        f.validate(&g);
    }

    #[test]
    #[should_panic(expected = "series composition requires")]
    fn series_rejects_disconnected() {
        let mut f = SpForest::new();
        let a = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let b = f.leaf(EdgeId(1), NodeId(2), NodeId(3));
        f.series_extend(a, b);
    }

    #[test]
    fn collect_edges_order() {
        let g = chain(3, 1.0);
        let mut f = SpForest::new();
        let a = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let b = f.leaf(EdgeId(1), NodeId(1), NodeId(2));
        let s = f.series_extend(a, b);
        assert_eq!(f.collect_edges(s), vec![EdgeId(0), EdgeId(1)]);
        let _ = g;
    }

    #[test]
    fn format_tree_smoke() {
        let g = diamond(1.0);
        let mut f = SpForest::new();
        let a = f.leaf(EdgeId(0), NodeId(0), NodeId(1));
        let b = f.leaf(EdgeId(2), NodeId(1), NodeId(3));
        let s = f.series_extend(a, b);
        let txt = f.format_tree(s, &g);
        assert!(txt.contains("S [0 - 3]"));
        assert!(txt.contains("0 - 1"));
        assert!(txt.contains("1 - 3"));
    }
}
