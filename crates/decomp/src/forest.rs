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
//! The growth condition is checked against a *mutable* indegree array:
//! cutting a subtree `T ≙ [u1, u2]` decrements `indegree(u2)` by
//! `outsize(T)`, exactly as in the paper's line 40.
//!
//! # Linear time
//!
//! A wavefront round merges the trees that share a sink, then sweeps
//! every tree once and grows those that can grow.  Read literally, a
//! stuck wavefront cuts one tree and starts the next round, which
//! re-sweeps every remaining tree: quadratic in the wavefront, and on
//! the layered DAGs of `perf_report --remap` 99 % of all visits grew
//! nothing (566,852 of 570,948 at 4096 nodes).  They cannot grow: a
//! sweep that grew nothing leaves every sink distinct (the merge just
//! ran) and unchanged, and every tree was found unable to grow at its
//! sink.  A cut lowers only `indegree(u2)` of the cut tree's own sink,
//! which no remaining tree shares, so the next round merges nothing,
//! grows nothing and cuts again.  The builder therefore cuts a stuck
//! wavefront down to one tree at once, choosing the whole cut order in
//! one pass (one sort for the size policies, one draw per cut for
//! `Random`), and produces exactly the forest of the round-by-round
//! reading.  A round that grew something is still followed by a full
//! merge scan and sweep; only a merge or a nested cut can let a tree
//! grow again, and on the measured graphs these rounds cost 1.17–1.39
//! visits per edge from 506 to 4096 nodes ([`ForestResult::visits`]; a
//! unit test holds the bound).  A wavefront where every nested cut
//! frees just one of many trees would still pay the whole wavefront
//! per cut; visiting only the trees a merge or cut touched would close
//! that case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spmap_graph::ops::TwoTerminalEdges;
use spmap_graph::{NodeId, TaskGraph};

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
    /// Wavefront tree visits: how often a parallel growth step examined
    /// one tree of its wavefront for growth.  A deterministic measure of
    /// the algorithm's work, linear in the number of edges.
    pub visits: u64,
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
    let edges = TwoTerminalEdges::new(g);
    assert_eq!(edges.source, source, "source must be the unique source");
    assert_eq!(edges.sink, sink, "sink must be the unique sink");
    decompose_two_terminal(&edges, policy)
}

/// Run Algorithm 1 on the two-terminal closure `edges` of a DAG (leaf
/// edge ids are those of the normalized graph).
pub(crate) fn decompose_two_terminal(edges: &TwoTerminalEdges, policy: CutPolicy) -> ForestResult {
    assert!(
        edges.edge_count() > 0,
        "decomposition needs at least one edge"
    );
    let (n, m) = (edges.node_count(), edges.edge_count());
    // Live trees are edge-disjoint, so no wavefront scratch outgrows m.
    let builder = Builder {
        g: edges,
        forest: SpForest::with_capacity(2 * m),
        indeg: edges.in_degrees().to_vec(),
        sink: edges.sink,
        policy,
        rng: match policy {
            CutPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        },
        cuts: 0,
        visits: 0,
        wave: Vec::with_capacity(m),
        groups: vec![SinkGroup::default(); n],
        round: 0,
        next_same: Vec::with_capacity(m),
        shared: Vec::with_capacity(m),
        members: Vec::with_capacity(m),
        order: Vec::with_capacity(m),
    };
    builder.run()
}

struct Builder<'g> {
    g: &'g TwoTerminalEdges,
    forest: SpForest,
    /// Mutable indegrees; cuts decrement the sink's count (paper line 40).
    indeg: Vec<u32>,
    sink: NodeId,
    policy: CutPolicy,
    rng: Option<StdRng>,
    cuts: usize,
    visits: u64,
    /// The wavefronts of all open parallel frames, stacked: a frame owns
    /// `wave[base..]` while it is on top, and a nested frame's wavefront
    /// is pushed above and truncated away when it returns.
    wave: Vec<SpTreeId>,
    /// Merge scratch, by sink node: the wavefront positions that share
    /// it in the merge of round `round`.
    groups: Vec<SinkGroup>,
    round: u32,
    /// Merge scratch, by wavefront position: the next position with the
    /// same sink.
    next_same: Vec<u32>,
    /// Merge scratch: the sinks shared by two or more trees.
    shared: Vec<NodeId>,
    /// Merge scratch: the trees of one group.
    members: Vec<SpTreeId>,
    /// Cut-order scratch: `(key, position)` packed into one word.
    order: Vec<u64>,
}

/// Per-sink merge bookkeeping; valid only while `round` is current.
#[derive(Clone, Copy, Default)]
struct SinkGroup {
    round: u32,
    first: u32,
    last: u32,
}

/// Marks a wavefront slot whose tree was merged into an earlier slot.
const MERGED: SpTreeId = SpTreeId(u32::MAX);

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
    /// GROW_PARALLEL (paper lines 19–42) over the wavefront
    /// `wave[base..]` of active subtrees rooted at one branch node.
    Parallel {
        base: usize,
        /// Next slot to examine in the current sweep; `None` before the
        /// sweep's merge step.
        next: Option<usize>,
        /// Whether the current sweep grew any subtree.
        grew: bool,
    },
}

impl<'g> Builder<'g> {
    fn run(mut self) -> ForestResult {
        let source = self.g.source;
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
            visits: self.visits,
            source,
            sink: self.sink,
            forest: self.forest,
        }
    }

    /// Whether `t` can grow past its sink: the sink is not the global
    /// end node and has no inputs outside `t`.
    fn can_grow(&self, t: SpTreeId) -> bool {
        let node = self.forest.node(t);
        node.sink != self.sink && self.indeg[node.sink.index()] <= node.outsize
    }

    /// Grow the core tree from `source`.  A frame that finishes leaves its
    /// result in `ret` and the frame below it, which made the call, takes
    /// it when it resumes.
    fn grow(&mut self, source: NodeId) -> SpTreeId {
        let mut stack = Vec::with_capacity(64);
        stack.push(Frame::Series {
            t: None,
            start: source,
        });
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
                        let out = self.g.out(v);
                        if let [(e, head)] = *out {
                            let ext = self.forest.leaf(e, v, head);
                            t = Some(self.series_extend(t, ext));
                        } else {
                            stack.push(Frame::Series { t, start });
                            stack.push(self.open_parallel(v));
                            break;
                        }
                    }
                }
                Frame::Parallel {
                    base,
                    mut next,
                    mut grew,
                } => {
                    // Only trees that can grow are handed to GROW_SERIES,
                    // and growth always moves the sink.
                    if let Some(grown) = ret.take() {
                        let i = next.expect("a grown slot belongs to a sweep");
                        grew = true;
                        self.wave[base + i] = grown;
                        next = Some(i + 1);
                    }
                    // repeat … until no change in the wavefront occurred
                    loop {
                        match next {
                            None => {
                                self.merge_same_sink(base);
                                if self.wave.len() - base == 1 {
                                    ret = self.wave.pop();
                                    break;
                                }
                                grew = false;
                                next = Some(0);
                            }
                            Some(i) if base + i < self.wave.len() => {
                                self.visits += 1;
                                let t = self.wave[base + i];
                                if !self.can_grow(t) {
                                    next = Some(i + 1);
                                    continue;
                                }
                                stack.push(Frame::Parallel { base, next, grew });
                                stack.push(Frame::Series {
                                    t: Some(t),
                                    start: self.forest.node(t).sink,
                                });
                                break;
                            }
                            Some(_) if grew => next = None,
                            Some(_) => {
                                // Stuck, and stuck after every cut (module
                                // docs): cut down to the survivor.
                                ret = Some(self.cut_to_one(base));
                                break;
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

    /// Enter GROW_PARALLEL at branch node `v`: one leaf per out-edge,
    /// pushed as a new wavefront on top of the shared buffer.
    fn open_parallel(&mut self, v: NodeId) -> Frame {
        let base = self.wave.len();
        for &(e, head) in self.g.out(v) {
            let leaf = self.forest.leaf(e, v, head);
            self.wave.push(leaf);
        }
        debug_assert!(
            self.wave.len() - base >= 2,
            "GROW_PARALLEL requires out-degree >= 2"
        );
        Frame::Parallel {
            base,
            next: None,
            grew: false,
        }
    }

    /// The wavefront `wave[base..]` is stuck: the graph is not
    /// series-parallel here.  Cut active subtrees (paper lines 38–40), one
    /// per `choose any`, until one is left, and return the survivor.
    fn cut_to_one(&mut self, base: usize) -> SpTreeId {
        let len = self.wave.len() - base;
        debug_assert!(len >= 2);
        match self.policy {
            CutPolicy::Random { .. } => {
                for left in (2..=len).rev() {
                    let rng = self.rng.as_mut().expect("rng initialized for Random");
                    let idx = rng.gen_range(0..left);
                    let tc = self.wave.remove(base + idx);
                    self.cut(tc);
                }
                self.wave.pop().expect("one tree survives the cuts")
            }
            policy => {
                // Smallest: ascending (edges, position); Largest:
                // descending edges, then ascending position; FirstActive:
                // position.  Each cut of the round-by-round reading takes
                // the first tree of this order among those left.
                self.order.clear();
                for (pos, &t) in self.wave[base..].iter().enumerate() {
                    let edges = u64::from(self.forest.node(t).edge_count);
                    let key = match policy {
                        CutPolicy::SmallestSubtree => edges,
                        CutPolicy::LargestSubtree => u64::from(u32::MAX) - edges,
                        _ => 0,
                    };
                    self.order.push(key << 32 | pos as u64);
                }
                self.order.sort_unstable();
                for k in 0..len - 1 {
                    let pos = (self.order[k] & u64::from(u32::MAX)) as usize;
                    self.cut(self.wave[base + pos]);
                }
                let pos = (self.order[len - 1] & u64::from(u32::MAX)) as usize;
                let survivor = self.wave[base + pos];
                self.wave.truncate(base);
                survivor
            }
        }
    }

    /// Cut `tc` from the DAG: it becomes a root, and its sink expects
    /// `outsize(tc)` fewer inputs.
    fn cut(&mut self, tc: SpTreeId) {
        let node = self.forest.node(tc);
        self.indeg[node.sink.index()] -= node.outsize;
        self.forest.roots.push(tc);
        self.cuts += 1;
    }

    /// Merge every group of wavefront trees sharing a sink into a parallel
    /// operation (paper lines 26–28).  Groups are processed in ascending
    /// sink order; within a group wavefront order is preserved, and the
    /// merged tree takes the slot of the group's first tree.
    fn merge_same_sink(&mut self, base: usize) {
        self.round += 1;
        let round = self.round;
        let len = self.wave.len() - base;
        self.next_same.clear();
        self.next_same.resize(len, u32::MAX);
        self.shared.clear();
        for pos in 0..len {
            let sink = self.forest.node(self.wave[base + pos]).sink;
            let group = &mut self.groups[sink.index()];
            if group.round != round {
                *group = SinkGroup {
                    round,
                    first: pos as u32,
                    last: pos as u32,
                };
                continue;
            }
            if group.first == group.last {
                self.shared.push(sink);
            }
            self.next_same[group.last as usize] = pos as u32;
            group.last = pos as u32;
        }
        if self.shared.is_empty() {
            return;
        }
        self.shared.sort_unstable();
        for k in 0..self.shared.len() {
            let group = self.groups[self.shared[k].index()];
            self.members.clear();
            let mut pos = group.first;
            while pos != u32::MAX {
                let slot = &mut self.wave[base + pos as usize];
                self.members.push(*slot);
                *slot = MERGED;
                pos = self.next_same[pos as usize];
            }
            let merged = self.forest.parallel(&self.members);
            self.wave[base + group.first as usize] = merged;
        }
        let mut keep = base;
        for pos in base..self.wave.len() {
            if self.wave[pos] != MERGED {
                self.wave[keep] = self.wave[pos];
                keep += 1;
            }
        }
        self.wave.truncate(keep);
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
    use spmap_graph::ops;
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
        assert_eq!(r.forest.children(r.core).len(), 5);
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
        assert_eq!(r.forest.children(r.core).len(), 2);
        for c in r.forest.children(r.core) {
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
        assert_eq!(r.forest.children(r.core).len(), 4);
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
        assert_eq!(r.forest.children(r.core).len(), 2);
        let mut kinds: Vec<(usize, u32)> = r
            .forest
            .children(r.core)
            .map(|c| (r.forest.children(c).len(), r.forest.node(c).edge_count))
            .collect();
        kinds.sort_unstable();
        // Left branch: series of 3 (0-1, P(1-3), 3-5) with 5 edges;
        // right branch: series of 2 (0-4, 4-5).
        assert_eq!(kinds, vec![(2, 2), (3, 5)]);
        // Locate the nested parallel between 1-3 and 1-2-3.
        let left = r
            .forest
            .children(r.core)
            .find(|&c| r.forest.node(c).edge_count == 5)
            .unwrap();
        let nested = r.forest.children(left).nth(1).unwrap();
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

    /// The layered DAGs of `perf_report --remap` (~`nodes` tasks, seed
    /// 2025); attribute augmentation does not change the edges.
    fn remap_dag(nodes: usize) -> TaskGraph {
        let width = (nodes as f64).sqrt().round() as usize;
        layered_random(&LayeredConfig {
            layers: nodes.div_ceil(width),
            width,
            density: 0.25,
            seed: 2025,
            edge_bytes: 1.0,
        })
    }

    /// Visits per edge of a wavefront that re-swept every tree after each
    /// cut grew with the graph: 3.7 at 506 nodes, 8.8 at 4096.
    const VISITS_PER_EDGE_BOUND: f64 = 2.0;

    #[test]
    fn wavefront_visits_per_edge_stay_flat() {
        for nodes in [500, 1024, 2048, 4096] {
            let g = remap_dag(nodes);
            let norm = ops::normalize_terminals(&g);
            let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
            let per_edge = r.visits as f64 / norm.graph.edge_count() as f64;
            println!(
                "{} nodes, {} edges, {} cuts: {:.3} visits/edge",
                g.node_count(),
                norm.graph.edge_count(),
                r.cuts,
                per_edge
            );
            assert!(
                per_edge < VISITS_PER_EDGE_BOUND,
                "{} nodes: {per_edge:.2} visits per edge",
                g.node_count()
            );
        }
    }

    /// Best-of-`reps` ns per edge of `decompose_forest` on `g`.
    fn ns_per_edge(g: &TaskGraph, reps: usize) -> f64 {
        let norm = ops::normalize_terminals(g);
        let best = (0..reps)
            .map(|_| {
                let t = std::time::Instant::now();
                let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
                std::hint::black_box(&r);
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        best / norm.graph.edge_count() as f64
    }

    /// Wall-clock form of the visit bound: at 4096 nodes a decomposition
    /// costs at most 1.5x the per-edge time of 506 nodes.  Timing, so
    /// opt-in: `cargo test --release -p spmap-decomp -- --ignored`.
    #[test]
    #[ignore = "timing gate; run in release with --ignored"]
    fn ns_per_edge_stays_flat() {
        let small = ns_per_edge(&remap_dag(500), 40);
        let large = ns_per_edge(&remap_dag(4096), 10);
        println!("decompose_forest: {small:.1} ns/edge at 506 nodes, {large:.1} at 4096");
        assert!(
            large <= 1.5 * small,
            "{large:.1} ns/edge at 4096 nodes vs {small:.1} at 506"
        );
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
