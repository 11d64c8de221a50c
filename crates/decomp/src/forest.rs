//! **Algorithm 1 of the paper**: growing a forest of series-parallel
//! decomposition trees over an arbitrary two-terminal DAG.
//!
//! The algorithm grows a *core* decomposition tree from the global source
//! by alternating series growth (GROW_SERIES) and parallel growth
//! (GROW_PARALLEL).  Parallel growth maintains a *wavefront* of active
//! subtrees rooted at the branch node; subtrees with a common sink merge
//! into parallel operations.  When the wavefront can neither merge nor
//! grow, the input graph is not series-parallel at this point and one
//! active subtree is **cut** from the DAG: it becomes its own tree in the
//! forest and the expected input count of its sink is reduced (paper
//! Fig. 2).  Which subtree to cut is left open in the paper ("choose any");
//! [`CutPolicy`] makes the choice configurable — cutting the smallest
//! subtree reproduces the "arguably better" forest of the paper's Fig. 2
//! discussion, cutting the largest reproduces the figure itself.
//!
//! With the per-tree `outsize` bookkeeping, every edge is visited a
//! constant number of times and every wavefront event (merge, growth step,
//! cut) consumes at least one edge or removes one tree, so the algorithm
//! runs in linear time in the number of edges (paper §III-C).
//!
//! The growth condition is checked against a *mutable* indegree array:
//! cutting a subtree `T ≙ [u1, u2]` decrements `indegree(u2)` by
//! `outsize(T)`, exactly as in the paper's line 40.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spmap_graph::{ops, NodeId, TaskGraph};

use crate::sptree::{SpForest, SpTreeId};

/// How to choose the subtree to cut from a stuck wavefront.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CutPolicy {
    /// Cut the active subtree with the fewest edges (default; keeps large
    /// decompositions intact — the paper's "arguably better" choice).
    #[default]
    SmallestSubtree,
    /// Cut the active subtree with the most edges (reproduces the paper's
    /// Fig. 2 forest).
    LargestSubtree,
    /// Cut the first active subtree in wavefront order.
    FirstActive,
    /// Cut a uniformly random active subtree (the paper's literal
    /// "randomly choose"), seeded for reproducibility.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Output of [`decompose_forest`].
#[derive(Clone, Debug)]
pub struct ForestResult {
    /// The decomposition forest; cut trees first, the core tree last.
    pub forest: SpForest,
    /// The core tree grown from the global source.
    pub core: SpTreeId,
    /// Number of subtrees that had to be cut (0 iff the graph is
    /// series-parallel).
    pub cuts: usize,
    /// Global source used.
    pub source: NodeId,
    /// Global sink used.
    pub sink: NodeId,
}

impl ForestResult {
    /// `true` iff the graph decomposed into a single tree.
    pub fn is_series_parallel(&self) -> bool {
        self.cuts == 0
    }
}

/// Run Algorithm 1 on a two-terminal DAG.  `source`/`sink` must be the
/// unique source and sink of `g` (normalize first via
/// [`spmap_graph::ops::normalize_terminals`] for general DAGs).
///
/// Runs on the caller's thread without recursion: the paper's nested
/// GROW_SERIES/GROW_PARALLEL calls are frames on a heap stack, so the
/// nesting depth of the series-parallel structure is bounded by memory,
/// not by the thread's stack size.
pub fn decompose_forest(
    g: &TaskGraph,
    source: NodeId,
    sink: NodeId,
    policy: CutPolicy,
) -> ForestResult {
    debug_assert_eq!(ops::sources(g), vec![source], "source must be unique");
    debug_assert_eq!(ops::sinks(g), vec![sink], "sink must be unique");
    assert!(g.edge_count() > 0, "decomposition needs at least one edge");
    let builder = Builder {
        g,
        forest: SpForest::new(),
        indeg: (0..g.node_count())
            .map(|v| g.in_degree(NodeId(v as u32)) as u32)
            .collect(),
        sink,
        policy,
        rng: match policy {
            CutPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        },
        cuts: 0,
    };
    builder.run(source)
}

struct Builder<'g> {
    g: &'g TaskGraph,
    forest: SpForest,
    /// Mutable indegrees; cuts decrement the sink's count (paper line 40).
    indeg: Vec<u32>,
    sink: NodeId,
    policy: CutPolicy,
    rng: Option<StdRng>,
    cuts: usize,
}

/// One suspended GROW_SERIES or GROW_PARALLEL call.  The frames replay
/// the paper's mutual recursion step for step, so arena nodes, roots and
/// cuts are created in the recursive order (op ids, and with them the
/// search's tie-breaks, depend on it).
enum Frame {
    /// GROW_SERIES (paper lines 6–17) extending `t`.  `t = None` encodes
    /// the paper's virtual start tree `[ε, s]` at node `start` without
    /// materializing a virtual edge; in that state the outsize is 0,
    /// which together with `indegree(start) = 0` (sources and freshly
    /// entered parallel heads) lets growth begin.
    Series { t: Option<SpTreeId>, start: NodeId },
    /// GROW_PARALLEL (paper lines 19–42) over the wavefront `w` of active
    /// subtrees rooted at one branch node.
    Parallel {
        w: Vec<SpTreeId>,
        /// Next slot of `w` to grow in the current sweep; `None` before
        /// the sweep's merge step.
        next: Option<usize>,
        /// Sink of the slot being grown, from before its growth.
        old_sink: NodeId,
        /// Whether the current sweep merged, or grew, any subtree.
        merged: bool,
        grew: bool,
    },
}

impl<'g> Builder<'g> {
    fn run(mut self, source: NodeId) -> ForestResult {
        let core = self.grow(source);
        debug_assert_eq!(
            self.forest.node(core).sink,
            self.sink,
            "core tree must reach the global sink"
        );
        self.forest.roots.push(core);
        ForestResult {
            core,
            cuts: self.cuts,
            source,
            sink: self.sink,
            forest: self.forest,
        }
    }

    /// Grow the core tree from `source`.  A frame that finishes leaves its
    /// result in `ret` and the frame below it, which made the call, takes
    /// it when it resumes.
    fn grow(&mut self, source: NodeId) -> SpTreeId {
        let mut stack = vec![Frame::Series {
            t: None,
            start: source,
        }];
        let mut ret: Option<SpTreeId> = None;
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Series { mut t, start } => {
                    if let Some(ext) = ret.take() {
                        t = Some(self.series_extend(t, ext));
                    }
                    loop {
                        let (v, outsize) = match t {
                            Some(id) => {
                                let n = self.forest.node(id);
                                (n.sink, n.outsize)
                            }
                            None => (start, 0),
                        };
                        // Stop at the global end node or when v has inputs
                        // outside T.
                        if v == self.sink || self.indeg[v.index()] > outsize {
                            ret = t;
                            break;
                        }
                        if self.g.out_degree(v) == 1 {
                            let e = self.g.out_edges(v)[0];
                            let ext = self.forest.leaf(e, v, self.g.edge(e).dst);
                            t = Some(self.series_extend(t, ext));
                        } else {
                            stack.push(Frame::Series { t, start });
                            stack.push(self.open_parallel(v));
                            break;
                        }
                    }
                }
                Frame::Parallel {
                    mut w,
                    mut next,
                    old_sink,
                    mut merged,
                    mut grew,
                } => {
                    if let Some(grown) = ret.take() {
                        let i = next.expect("a grown slot belongs to a sweep");
                        grew |= self.forest.node(grown).sink != old_sink;
                        w[i] = grown;
                        next = Some(i + 1);
                    }
                    // repeat … until no change in the wavefront occurred
                    loop {
                        match next {
                            None => {
                                merged = self.merge_same_sink(&mut w);
                                if w.len() == 1 {
                                    ret = Some(w[0]);
                                    break;
                                }
                                grew = false;
                                next = Some(0);
                            }
                            Some(i) if i < w.len() => {
                                let t = w[i];
                                let old_sink = self.forest.node(t).sink;
                                stack.push(Frame::Parallel {
                                    w,
                                    next,
                                    old_sink,
                                    merged,
                                    grew,
                                });
                                stack.push(Frame::Series {
                                    t: Some(t),
                                    start: old_sink,
                                });
                                break;
                            }
                            Some(_) => {
                                if !merged && !grew {
                                    self.cut(&mut w);
                                }
                                next = None;
                            }
                        }
                    }
                }
            }
        }
        ret.expect("a two-terminal graph with edges always grows a core tree")
    }

    /// `t ; ext`, where `t = None` is the virtual start tree.
    fn series_extend(&mut self, t: Option<SpTreeId>, ext: SpTreeId) -> SpTreeId {
        match t {
            Some(id) => self.forest.series_extend(id, ext),
            None => ext,
        }
    }

    /// Enter GROW_PARALLEL at branch node `v`: one leaf per out-edge.
    fn open_parallel(&mut self, v: NodeId) -> Frame {
        let w: Vec<SpTreeId> = self
            .g
            .out_edges(v)
            .iter()
            .map(|&e| self.forest.leaf(e, v, self.g.edge(e).dst))
            .collect();
        debug_assert!(w.len() >= 2, "GROW_PARALLEL requires out-degree >= 2");
        Frame::Parallel {
            w,
            next: None,
            old_sink: v,
            merged: false,
            grew: false,
        }
    }

    /// The wavefront is stuck: the graph is not series-parallel here.  Cut
    /// one active subtree (paper lines 38–40).
    fn cut(&mut self, w: &mut Vec<SpTreeId>) {
        let idx = self.choose_cut(w);
        let tc = w.remove(idx);
        let node = self.forest.node(tc);
        let (u2, outsize) = (node.sink, node.outsize);
        self.indeg[u2.index()] -= outsize;
        self.forest.roots.push(tc);
        self.cuts += 1;
    }

    /// Merge every group of wavefront trees sharing a sink into a parallel
    /// operation (paper lines 26–28).  Groups are processed in ascending
    /// sink order; within a group wavefront order is preserved.  Returns
    /// whether anything merged.
    fn merge_same_sink(&mut self, w: &mut Vec<SpTreeId>) -> bool {
        use std::collections::BTreeMap;
        let mut by_sink: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, &t) in w.iter().enumerate() {
            by_sink.entry(self.forest.node(t).sink).or_default().push(i);
        }
        let mut merged = false;
        let mut remove: Vec<usize> = Vec::new();
        for (_, group) in by_sink {
            if group.len() < 2 {
                continue;
            }
            merged = true;
            let trees: Vec<SpTreeId> = group.iter().map(|&i| w[i]).collect();
            let p = self.forest.parallel(&trees);
            w[group[0]] = p;
            remove.extend(&group[1..]);
        }
        if merged {
            remove.sort_unstable();
            for &i in remove.iter().rev() {
                w.remove(i);
            }
        }
        merged
    }

    fn choose_cut(&mut self, w: &[SpTreeId]) -> usize {
        debug_assert!(w.len() >= 2);
        match self.policy {
            CutPolicy::FirstActive => 0,
            CutPolicy::SmallestSubtree => w
                .iter()
                .enumerate()
                .min_by_key(|(i, &t)| (self.forest.node(t).edge_count, *i))
                .map(|(i, _)| i)
                .unwrap(),
            CutPolicy::LargestSubtree => w
                .iter()
                .enumerate()
                .max_by_key(|(i, &t)| (self.forest.node(t).edge_count, usize::MAX - *i))
                .map(|(i, _)| i)
                .unwrap(),
            CutPolicy::Random { .. } => {
                let rng = self.rng.as_mut().expect("rng initialized for Random");
                rng.gen_range(0..w.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::is_two_terminal_sp;
    use crate::sptree::SpOp;
    use spmap_graph::gen::{
        almost_sp_graph, chain, diamond, fig1_graph, fig2_graph, fork_join, layered_random,
        random_sp_graph, LayeredConfig, SpGenConfig,
    };
    use spmap_graph::EdgeId;

    fn forest_of(g: &TaskGraph, policy: CutPolicy) -> ForestResult {
        let norm = ops::normalize_terminals(g);
        assert!(
            !norm.virtual_source && !norm.virtual_sink,
            "test fixture is 2-terminal"
        );
        decompose_forest(g, norm.source, norm.sink, policy)
    }

    #[test]
    fn chain_is_single_series() {
        let g = chain(6, 1.0);
        let r = forest_of(&g, CutPolicy::default());
        assert!(r.is_series_parallel());
        assert_eq!(r.forest.roots.len(), 1);
        let root = r.forest.node(r.core);
        assert_eq!(root.op, SpOp::Series);
        assert_eq!(root.children.len(), 5);
        assert_eq!(root.edge_count, 5);
        r.forest.validate(&g);
    }

    #[test]
    fn two_node_chain_is_single_leaf() {
        let g = chain(2, 1.0);
        let r = forest_of(&g, CutPolicy::default());
        assert!(r.is_series_parallel());
        assert!(matches!(r.forest.node(r.core).op, SpOp::Leaf(_)));
    }

    #[test]
    fn diamond_is_parallel_of_series() {
        let g = diamond(1.0);
        let r = forest_of(&g, CutPolicy::default());
        assert!(r.is_series_parallel());
        let root = r.forest.node(r.core);
        assert_eq!(root.op, SpOp::Parallel);
        assert_eq!(root.children.len(), 2);
        for &c in &root.children {
            assert_eq!(r.forest.node(c).op, SpOp::Series);
            assert_eq!(r.forest.node(c).edge_count, 2);
        }
        r.forest.validate(&g);
    }

    #[test]
    fn fork_join_is_flat_parallel() {
        let g = fork_join(4, 1.0);
        let r = forest_of(&g, CutPolicy::default());
        assert!(r.is_series_parallel());
        let root = r.forest.node(r.core);
        assert_eq!(root.op, SpOp::Parallel);
        assert_eq!(root.children.len(), 4);
        r.forest.validate(&g);
    }

    #[test]
    fn fig1_matches_paper_tree() {
        let g = fig1_graph(1.0);
        let r = forest_of(&g, CutPolicy::default());
        assert!(r.is_series_parallel());
        let root = r.forest.node(r.core);
        // Root: parallel between the 0-1-(1-3)-3-5 path and the 0-4-5 path.
        assert_eq!(root.op, SpOp::Parallel);
        assert_eq!(root.children.len(), 2);
        let mut kinds: Vec<(usize, u32)> = root
            .children
            .iter()
            .map(|&c| (r.forest.node(c).children.len(), r.forest.node(c).edge_count))
            .collect();
        kinds.sort_unstable();
        // Left branch: series of 3 (0-1, P(1-3), 3-5) with 5 edges;
        // right branch: series of 2 (0-4, 4-5).
        assert_eq!(kinds, vec![(2, 2), (3, 5)]);
        // Locate the nested parallel between 1-3 and 1-2-3.
        let left = root
            .children
            .iter()
            .copied()
            .find(|&c| r.forest.node(c).edge_count == 5)
            .unwrap();
        let nested = r.forest.node(left).children[1];
        let nested_node = r.forest.node(nested);
        assert_eq!(nested_node.op, SpOp::Parallel);
        assert_eq!(
            (nested_node.source, nested_node.sink),
            (NodeId(1), NodeId(3))
        );
        r.forest.validate(&g);
    }

    #[test]
    fn fig2_smallest_cut_gives_better_forest() {
        // Cutting the smallest subtree cuts the single edge 1-4, leaving
        // the Fig. 1 decomposition tree as the core (the paper's
        // "arguably better" outcome).
        let g = fig2_graph(1.0);
        let r = forest_of(&g, CutPolicy::SmallestSubtree);
        assert_eq!(r.cuts, 1);
        assert_eq!(r.forest.roots.len(), 2);
        let cut = r.forest.node(r.forest.roots[0]);
        assert!(matches!(cut.op, SpOp::Leaf(_)));
        assert_eq!((cut.source, cut.sink), (NodeId(1), NodeId(4)));
        // Core = the Fig. 1 tree: parallel of (series 5 edges, series 2 edges).
        let core = r.forest.node(r.core);
        assert_eq!(core.op, SpOp::Parallel);
        assert_eq!(core.edge_count, 7);
        r.forest.validate(&g);
    }

    #[test]
    fn fig2_largest_cut_matches_paper_figure() {
        // Cutting the largest subtree cuts the 1-5 branch (edges 1-2, 2-3,
        // 1-3, 3-5), the forest shown in the paper's Fig. 2.
        let g = fig2_graph(1.0);
        let r = forest_of(&g, CutPolicy::LargestSubtree);
        assert_eq!(r.cuts, 1);
        let cut = r.forest.node(r.forest.roots[0]);
        assert_eq!((cut.source, cut.sink), (NodeId(1), NodeId(5)));
        assert_eq!(cut.edge_count, 4);
        // Core covers the remaining 4 edges: 0-1, 1-4, 0-4, 4-5.
        let core = r.forest.node(r.core);
        assert_eq!(core.edge_count, 4);
        assert_eq!(core.op, SpOp::Series);
        r.forest.validate(&g);
    }

    #[test]
    fn random_sp_graphs_decompose_to_single_tree() {
        for seed in 0..25 {
            for nodes in [3, 8, 30, 100, 250] {
                let g = random_sp_graph(&SpGenConfig::new(nodes, seed));
                let r = forest_of(&g, CutPolicy::default());
                assert!(
                    r.is_series_parallel(),
                    "SP graph needed {} cuts (nodes={nodes}, seed={seed})",
                    r.cuts
                );
                assert_eq!(r.forest.node(r.core).edge_count as usize, g.edge_count());
                r.forest.validate(&g);
            }
        }
    }

    #[test]
    fn forest_partitions_all_edges() {
        for seed in 0..10 {
            let g = almost_sp_graph(&SpGenConfig::new(60, seed), 25);
            let norm = ops::normalize_terminals(&g);
            let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
            // Edge partition: every edge of the (normalized) graph appears
            // in exactly one tree — validate() checks uniqueness; count
            // checks coverage.
            let total: u32 = r
                .forest
                .roots
                .iter()
                .map(|&t| r.forest.node(t).edge_count)
                .sum();
            assert_eq!(total as usize, norm.graph.edge_count());
            r.forest.validate(&norm.graph);
        }
    }

    #[test]
    fn forest_agrees_with_reduction_oracle() {
        // Single tree <=> the reduction oracle accepts.
        let mut checked_sp = 0;
        let mut checked_non_sp = 0;
        for seed in 0..20 {
            let sp = random_sp_graph(&SpGenConfig::new(40, seed));
            let r = forest_of(&sp, CutPolicy::default());
            assert_eq!(r.is_series_parallel(), is_two_terminal_sp(&sp));
            checked_sp += 1;

            let almost = almost_sp_graph(&SpGenConfig::new(40, seed), 6);
            let norm = ops::normalize_terminals(&almost);
            let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
            assert_eq!(
                r.is_series_parallel(),
                is_two_terminal_sp(&norm.graph),
                "seed {seed}"
            );
            if !r.is_series_parallel() {
                checked_non_sp += 1;
            }
        }
        assert!(
            checked_sp > 0 && checked_non_sp > 0,
            "both classes exercised"
        );
    }

    #[test]
    fn layered_random_decomposes_with_cuts() {
        let g = layered_random(&LayeredConfig {
            layers: 8,
            width: 5,
            density: 0.4,
            seed: 5,
            edge_bytes: 1.0,
        });
        let norm = ops::normalize_terminals(&g);
        let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
        assert!(r.cuts > 0, "dense layered graphs are not SP");
        let total: u32 = r
            .forest
            .roots
            .iter()
            .map(|&t| r.forest.node(t).edge_count)
            .sum();
        assert_eq!(total as usize, norm.graph.edge_count());
        r.forest.validate(&norm.graph);
    }

    #[test]
    fn cut_policies_are_deterministic() {
        let g = almost_sp_graph(&SpGenConfig::new(50, 12), 15);
        let norm = ops::normalize_terminals(&g);
        for policy in [
            CutPolicy::SmallestSubtree,
            CutPolicy::LargestSubtree,
            CutPolicy::FirstActive,
            CutPolicy::Random { seed: 7 },
        ] {
            let a = decompose_forest(&norm.graph, norm.source, norm.sink, policy);
            let b = decompose_forest(&norm.graph, norm.source, norm.sink, policy);
            assert_eq!(a.cuts, b.cuts, "{policy:?}");
            assert_eq!(a.forest.roots.len(), b.forest.roots.len());
            let sig = |r: &ForestResult| -> Vec<Vec<EdgeId>> {
                r.forest
                    .roots
                    .iter()
                    .map(|&t| r.forest.collect_edges(t))
                    .collect()
            };
            assert_eq!(sig(&a), sig(&b));
        }
    }

    /// Run `f` on a thread with a 256 KiB stack.  A builder that recursed
    /// once per nesting level would overflow it far short of the depths
    /// below; the heap frame stack must not.
    fn on_small_stack(f: impl FnOnce() + Send) {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn_scoped(scope, f)
                .expect("spawn small-stack test thread")
                .join()
                .expect("small-stack test thread panicked")
        })
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        on_small_stack(|| {
            let g = chain(20_000, 1.0);
            let r = forest_of(&g, CutPolicy::default());
            assert!(r.is_series_parallel());
            assert_eq!(r.forest.node(r.core).edge_count, 19_999);
        });
    }

    #[test]
    fn deeply_nested_sp_graph_decomposes() {
        // Alternating series/parallel nesting: worst case for nesting
        // depth.  Build a graph nested 100,000 levels deep: at each level,
        // wrap the previous two-terminal graph with a parallel bypass edge
        // and a series head node.
        on_small_stack(|| {
            const LEVELS: usize = 100_000;
            let mut b = spmap_graph::GraphBuilder::new();
            let mut src = b.add_task(spmap_graph::Task::named("s"));
            let sink = b.add_task(spmap_graph::Task::named("t"));
            b.add_edge(src, sink, 1.0).unwrap();
            for _ in 0..LEVELS {
                let new_src = b.add_task(spmap_graph::Task::default());
                b.add_edge(new_src, src, 1.0).unwrap(); // series head
                b.add_edge(new_src, sink, 1.0).unwrap(); // parallel bypass
                src = new_src;
            }
            let g = b.build().unwrap();
            let r = decompose_forest(&g, src, sink, CutPolicy::default());
            assert!(r.is_series_parallel());
            assert_eq!(r.forest.node(r.core).edge_count as usize, 2 * LEVELS + 1);
            r.forest.validate(&g);
        });
    }
}
