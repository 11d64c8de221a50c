//! Candidate subgraph sets for decomposition mapping (paper §III-B/C).
//!
//! * [`single_node_subgraphs`] — every task alone (§III-B), the minimal
//!   linear-size set that can still reach any mapping.
//! * [`series_parallel_subgraphs`] — §III-C: all single nodes, plus
//!   * for each **series** operation of the decomposition forest, the
//!     nodes of the operation *except* its start and end node (they may
//!     have edges to siblings), and
//!   * for each **parallel** operation, the nodes of the operation
//!     *including* start and end node (they act as the single
//!     input/output of the subgraph).
//!
//! General DAGs are normalized to two terminals first; virtual terminal
//! nodes never appear in the produced subgraphs.  Subgraphs are
//! deduplicated (sorted node lists), so for the paper's Fig. 1 graph the
//! set is exactly
//! `{{0},{1},{2},{3},{4},{5},{1,2,3},{0,1,2,3,4,5}}`.

use spmap_graph::ops::TwoTerminalEdges;
use spmap_graph::{NodeId, TaskGraph};

use crate::forest::{decompose_two_terminal, CutPolicy};
use crate::sptree::{SpForest, SpOp, SpTreeId};

/// A set of candidate subgraphs; each is a sorted, deduplicated node list.
#[derive(Clone, Debug)]
pub struct SubgraphSet {
    subgraphs: Vec<Vec<NodeId>>,
}

impl SubgraphSet {
    /// The subgraphs (sorted node lists).
    pub fn subgraphs(&self) -> &[Vec<NodeId>] {
        &self.subgraphs
    }

    /// Number of candidate subgraphs.
    pub fn len(&self) -> usize {
        self.subgraphs.len()
    }

    /// `true` if no subgraphs are present.
    pub fn is_empty(&self) -> bool {
        self.subgraphs.is_empty()
    }

    /// Iterate over subgraph node lists.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<NodeId>> {
        self.subgraphs.iter()
    }

    /// The subgraphs, moved out of the set (no copy).
    pub fn into_vec(self) -> Vec<Vec<NodeId>> {
        self.subgraphs
    }
}

/// The single-node subgraph set (§III-B): one subgraph per task.
pub fn single_node_subgraphs(g: &TaskGraph) -> SubgraphSet {
    SubgraphSet {
        subgraphs: g.nodes().map(|v| vec![v]).collect(),
    }
}

/// The series-parallel subgraph set (§III-C) built from the decomposition
/// forest of `g` (closed to two terminals internally; `policy` governs
/// conflict cuts on non-SP graphs).
///
/// The set is all single nodes, then one list per inner operation in
/// pre-order of the forest, keeping the first occurrence of each list.
/// Apart from a fixed number of scratch arrays, the only allocations are
/// the set's own lists.
pub fn series_parallel_subgraphs(g: &TaskGraph, policy: CutPolicy) -> SubgraphSet {
    if g.edge_count() == 0 {
        return single_node_subgraphs(g);
    }
    let forest = decompose_two_terminal(&TwoTerminalEdges::new(g), policy).forest;
    let lists = OperationLists::build(&forest, g.node_count());
    let mut subgraphs = Vec::with_capacity(g.node_count() + lists.spans.len());
    subgraphs.extend(g.nodes().map(|v| vec![v]));
    lists.push_first_occurrences(&mut subgraphs);
    SubgraphSet { subgraphs }
}

/// The node list of every inner operation of a forest that has at least
/// two real nodes (shorter lists are singletons or empty), in pre-order,
/// stored flat: a series operation's nodes except its start and end
/// node, a parallel operation's nodes including them; nodes `>= n_real`
/// (virtual terminals) are dropped.
struct OperationLists {
    nodes: Vec<NodeId>,
    /// `(start, len)` of each list in `nodes`.
    spans: Vec<(u32, u32)>,
}

/// One step of the post-order walk in [`OperationLists::build`].
enum Step {
    Enter(SpTreeId),
    /// Finish inner node `t`, entered as the `pre`-th inner node, whose
    /// children's node sets start at `mark` of the scratch stack.
    Exit {
        t: SpTreeId,
        pre: usize,
        mark: usize,
    },
}

impl OperationLists {
    /// One post-order walk over a scratch stack of node sets: an
    /// operation's nodes are the union of its children's, so when it
    /// finishes, its children's sorted sets lie on top of the stack and
    /// become its own set in place (sort, dedup), and its list is
    /// filtered out of that set.  Lists are numbered in pre-order.
    fn build(forest: &SpForest, n_real: usize) -> Self {
        // Sized from the arena (at most one list per node, two set
        // entries per leaf) so that typical forests never regrow them.
        let arena = forest.arena_len();
        let mut lists = OperationLists {
            nodes: Vec::with_capacity(arena),
            spans: Vec::with_capacity(arena),
        };
        let mut sets: Vec<NodeId> = Vec::with_capacity(2 * arena);
        let mut steps: Vec<Step> = Vec::with_capacity(arena);
        for &root in &forest.roots {
            steps.push(Step::Enter(root));
            while let Some(step) = steps.pop() {
                match step {
                    Step::Enter(t) => {
                        let node = forest.node(t);
                        if let SpOp::Leaf(_) = node.op {
                            sets.extend([node.source, node.sink]);
                            continue;
                        }
                        steps.push(Step::Exit {
                            t,
                            pre: lists.spans.len(),
                            mark: sets.len(),
                        });
                        lists.spans.push((0, 0));
                        let at = steps.len();
                        steps.extend(forest.children(t).map(Step::Enter));
                        steps[at..].reverse();
                    }
                    Step::Exit { t, pre, mark } => {
                        let set = &mut sets[mark..];
                        set.sort_unstable();
                        let mut len = 0;
                        for i in 0..set.len() {
                            if len == 0 || set[i] != set[len - 1] {
                                set[len] = set[i];
                                len += 1;
                            }
                        }
                        sets.truncate(mark + len);
                        let node = forest.node(t);
                        let series = node.op == SpOp::Series;
                        let start = lists.nodes.len();
                        lists
                            .nodes
                            .extend(sets[mark..].iter().copied().filter(|&v| {
                                v.index() < n_real
                                    && !(series && (v == node.source || v == node.sink))
                            }));
                        let len = lists.nodes.len() - start;
                        if len < 2 {
                            lists.nodes.truncate(start);
                        } else {
                            lists.spans[pre] = (start as u32, len as u32);
                        }
                    }
                }
            }
            sets.clear();
        }
        lists
    }

    fn list(&self, k: usize) -> &[NodeId] {
        let (start, len) = self.spans[k];
        &self.nodes[start as usize..(start + len) as usize]
    }

    /// Append each list to `out`, in order, unless an equal list came
    /// before it.  Repeats are found through an open-addressing table of
    /// list numbers, so no list is cloned before it is kept.
    fn push_first_occurrences(&self, out: &mut Vec<Vec<NodeId>>) {
        let hash = |l: &[NodeId]| {
            l.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ u64::from(v.0)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mask = (2 * self.spans.len()).next_power_of_two() - 1;
        // Slot value: list number + 1; 0 marks an empty slot.
        let mut table = vec![0u32; mask + 1];
        for k in 0..self.spans.len() {
            let list = self.list(k);
            if list.is_empty() {
                continue;
            }
            let mut slot = hash(list) as usize & mask;
            loop {
                match table[slot] {
                    0 => {
                        table[slot] = k as u32 + 1;
                        out.push(list.to_vec());
                        break;
                    }
                    seen if self.list(seen as usize - 1) == list => break,
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{
        almost_sp_graph, chain, fig1_graph, fork_join, random_sp_graph, SpGenConfig,
    };

    fn as_sets(s: &SubgraphSet) -> Vec<Vec<u32>> {
        let mut v: Vec<Vec<u32>> = s
            .iter()
            .map(|sg| sg.iter().map(|n| n.0).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn single_node_set() {
        let g = chain(4, 1.0);
        let s = single_node_subgraphs(&g);
        assert_eq!(s.len(), 4);
        assert_eq!(as_sets(&s), vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn fig1_matches_paper_subgraph_set() {
        // Paper §III-C: S = {{0},{1},{2},{3},{4},{5},{1,2,3},{0,1,2,3,4,5}}.
        let g = fig1_graph(1.0);
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        let expect: Vec<Vec<u32>> = vec![
            vec![0],
            vec![0, 1, 2, 3, 4, 5],
            vec![1],
            vec![1, 2, 3],
            vec![2],
            vec![3],
            vec![4],
            vec![5],
        ];
        assert_eq!(as_sets(&s), expect);
    }

    #[test]
    fn chain_interior() {
        // Chain 0-1-2-3-4: series operation interior = {1,2,3}; plus the
        // single nodes.
        let g = chain(5, 1.0);
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        let sets = as_sets(&s);
        assert!(sets.contains(&vec![1, 2, 3]));
        assert_eq!(s.len(), 6); // 5 singletons + 1 interior
    }

    #[test]
    fn fork_join_span() {
        // Parallel operation spans the whole graph (incl. terminals).
        let g = fork_join(3, 1.0);
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        let sets = as_sets(&s);
        assert!(sets.contains(&vec![0, 1, 2, 3, 4]));
        // 5 singletons + whole-graph span; the 2-edge series branches have
        // single-node interiors that dedup into the singletons.
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn sp_set_is_linear_in_graph_size() {
        for seed in 0..10 {
            let g = random_sp_graph(&SpGenConfig::new(120, seed));
            let s = series_parallel_subgraphs(&g, CutPolicy::default());
            // |S| <= singletons + one per inner tree node <= n + 2|E|.
            assert!(
                s.len() <= g.node_count() + 2 * g.edge_count(),
                "|S| = {} too large",
                s.len()
            );
            // And at least the singletons are present.
            assert!(s.len() >= g.node_count());
        }
    }

    #[test]
    fn subgraphs_exclude_virtual_terminals() {
        // Multi-sink graph: normalization adds a virtual sink that must
        // not leak into any subgraph.
        let mut b = spmap_graph::GraphBuilder::new();
        b.add_default_tasks(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        for sg in s.iter() {
            for &v in sg {
                assert!(v.index() < 3, "virtual node {v} leaked");
            }
        }
    }

    #[test]
    fn conflicting_edges_force_cuts_but_sets_stay_linear() {
        // Paper §IV-C: extra edges make the graph non-SP; the forest
        // fragments (more cuts), yet the subgraph set stays linear in the
        // graph size.  (With the SmallestSubtree policy the cuts remove
        // single conflicting edges, so large operations survive — the
        // "arguably better decomposition" of the paper's Fig. 2 remark.)
        use crate::forest::decompose_forest;
        use spmap_graph::ops::normalize_terminals;
        let cfg = SpGenConfig::new(40, 4);
        let cuts_for = |k: usize| {
            let g = almost_sp_graph(&cfg, k);
            let norm = normalize_terminals(&g);
            decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default()).cuts
        };
        assert_eq!(cuts_for(0), 0, "pure SP graph needs no cuts");
        let c50 = cuts_for(50);
        let c200 = cuts_for(200);
        assert!(c50 >= 10, "50 extra edges force many cuts (got {c50})");
        assert!(c200 > c50, "denser graphs need more cuts ({c200} vs {c50})");
        // Subgraph set stays linear.
        let g = almost_sp_graph(&cfg, 200);
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        assert!(s.len() <= g.node_count() + 2 * g.edge_count());
    }

    /// The subtree-walk construction the bottom-up lists replaced: every
    /// inner operation re-collects its nodes with `collect_nodes`, and a
    /// set of cloned lists keeps first occurrences.
    fn subtree_walk_subgraphs(g: &TaskGraph, policy: CutPolicy) -> Vec<Vec<NodeId>> {
        let n_real = g.node_count();
        let norm = spmap_graph::ops::normalize_terminals(g);
        let forest =
            crate::forest::decompose_forest(&norm.graph, norm.source, norm.sink, policy).forest;
        let mut raw: Vec<Vec<NodeId>> = g.nodes().map(|v| vec![v]).collect();
        for t in forest.iter_tree_nodes() {
            let node = forest.node(t);
            if let SpOp::Leaf(_) = node.op {
                continue;
            }
            let mut nodes = forest.collect_nodes(t, &norm.graph);
            nodes.retain(|&v| v.index() < n_real);
            if node.op == SpOp::Series {
                nodes.retain(|&v| v != node.source && v != node.sink);
            }
            raw.push(nodes);
        }
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|s| !s.is_empty() && seen.insert(s.clone()))
            .collect()
    }

    #[test]
    fn bottom_up_lists_match_subtree_walks() {
        let policies = [
            CutPolicy::SmallestSubtree,
            CutPolicy::LargestSubtree,
            CutPolicy::FirstActive,
            CutPolicy::Random { seed: 3 },
        ];
        for seed in 0..8 {
            let cfg = SpGenConfig::new(30 + 10 * seed as usize, seed);
            for g in [
                random_sp_graph(&cfg),
                almost_sp_graph(&cfg, 3 * seed as usize),
            ] {
                for policy in policies {
                    let s = series_parallel_subgraphs(&g, policy);
                    assert_eq!(
                        s.subgraphs(),
                        subtree_walk_subgraphs(&g, policy).as_slice(),
                        "seed {seed}, {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn edgeless_graph_yields_singletons() {
        let mut b = spmap_graph::GraphBuilder::new();
        b.add_default_tasks(3);
        let g = b.build().unwrap();
        let s = series_parallel_subgraphs(&g, CutPolicy::default());
        assert_eq!(s.len(), 3);
    }

    use spmap_graph::NodeId;
}
