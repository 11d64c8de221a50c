//! Content hashing: the order-sensitive [`ContentHash`] and the graph
//! content fingerprint behind [`TaskGraph::fingerprint`].
//!
//! A graph's fingerprint is a pure function of its content, and a
//! [`TaskGraph`] only changes through `&mut` access, so the graph
//! memoizes it: the first call hashes every task and edge (`O(V + E)`),
//! later calls read the memo.  Every `&mut` entry point of `TaskGraph`
//! clears the memo before it hands out access, and a clone carries it
//! along, so a memoized value always equals a fresh hash of the graph
//! it sits in.

use std::cell::Cell;

use crate::dag::TaskGraph;

/// SplitMix64 finalizer: a high-quality 64-bit mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive 128-bit content hash, built by absorbing one
/// 64-bit word at a time.  Unlike the XOR-of-codes Zobrist scheme of
/// mapping fingerprints (whose order-freeness is the point for
/// *mappings*), structural content — task attributes, edge lists, link
/// tables — is position-dependent, so each word is chained through both
/// lanes.  Not cryptographic; used for cache keys, where a collision
/// costs a wrong-but-deterministic reuse, with a ≈ `k²/2^129` birthday
/// bound over `k` distinct contents.
pub struct ContentHash {
    lo: u64,
    hi: u64,
}

impl ContentHash {
    /// A fresh hash in its own `domain`, so hashes of different kinds
    /// of content never share a starting state.
    pub fn new(domain: u64) -> Self {
        Self {
            lo: mix64(domain ^ 0x9E37_79B9_7F4A_7C15),
            hi: mix64(domain ^ 0xD1B5_4A32_D192_ED03),
        }
    }

    /// Chain one 64-bit word.
    #[inline]
    pub fn absorb(&mut self, word: u64) {
        self.lo = mix64(self.lo ^ word);
        self.hi = mix64(self.hi.wrapping_add(mix64(word ^ 0xA076_1D64_78BD_642F)));
    }

    /// Chain the bit pattern of `x`.
    #[inline]
    pub fn absorb_f64(&mut self, x: f64) {
        // Bit pattern, not value: `-0.0` ≠ `0.0` and every NaN payload
        // is distinct.  Conservative — distinct bits never collapse.
        self.absorb(x.to_bits());
    }

    /// Chain both halves of a 128-bit value (another fingerprint).
    #[inline]
    pub fn absorb_u128(&mut self, x: u128) {
        self.absorb(x as u64);
        self.absorb((x >> 64) as u64);
    }

    /// The 128-bit hash of everything absorbed so far.
    pub fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

thread_local! {
    static COMPUTED: Cell<u64> = const { Cell::new(0) };
}

/// How many graph fingerprints this thread has hashed from scratch, as
/// opposed to read from a memo.  Tests use it to show that repeat
/// requests hash nothing.
#[doc(hidden)]
pub fn graph_fingerprints_computed() -> u64 {
    COMPUTED.with(Cell::get)
}

/// Hash `graph`'s content from scratch (what [`TaskGraph::fingerprint`]
/// memoizes).
pub(crate) fn hash_graph(graph: &TaskGraph) -> u128 {
    COMPUTED.with(|c| c.set(c.get() + 1));
    let mut h = ContentHash::new(0x0067_7261_7068_u64); // "graph"
    h.absorb(graph.node_count() as u64);
    h.absorb(graph.edge_count() as u64);
    for t in graph.tasks() {
        h.absorb_f64(t.complexity);
        h.absorb_f64(t.data_points);
        h.absorb_f64(t.parallelizability);
        h.absorb_f64(t.streamability);
        h.absorb_f64(t.area);
    }
    for e in graph.edges() {
        h.absorb(e.src.0 as u64);
        h.absorb(e.dst.0 as u64);
        h.absorb_f64(e.bytes);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use crate::dag::{GraphBuilder, Task};
    use crate::{EdgeId, NodeId, TaskGraph};

    /// A 3-task chain `a -> b -> c`, plus `extra` trailing edges taken
    /// from `a` to `c`, plus an optional fourth task with no edges.
    fn chain(area: f64, bytes: f64, fourth: bool, extra: &[f64]) -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(Task {
            area,
            ..Task::named("a")
        });
        let m = b.add_task(Task::named("b"));
        let c = b.add_task(Task::named("c"));
        b.add_edge(a, m, bytes).expect("valid edge");
        b.add_edge(m, c, 8.0).expect("valid edge");
        for &x in extra {
            b.add_edge(a, c, x).expect("valid edge");
        }
        if fourth {
            b.add_task(Task::default());
        }
        b.build().expect("acyclic")
    }

    #[test]
    fn every_mutation_clears_the_memo() {
        type Mutation = fn(&mut TaskGraph);
        let cases: [(&str, Mutation, TaskGraph); 4] = [
            (
                "task_mut",
                |g| g.task_mut(NodeId(0)).area = 3.0,
                chain(3.0, 64.0, false, &[]),
            ),
            (
                "edge_bytes_mut",
                |g| *g.edge_bytes_mut(EdgeId(0)) = 65.0,
                chain(1.0, 65.0, false, &[]),
            ),
            (
                "push_task",
                |g| {
                    g.push_task(Task::default());
                },
                chain(1.0, 64.0, true, &[]),
            ),
            (
                "push_edge",
                |g| g.push_edge(NodeId(0), NodeId(2), 5.0),
                chain(1.0, 64.0, false, &[5.0]),
            ),
        ];
        for (name, mutate, fresh) in cases {
            let mut g = chain(1.0, 64.0, false, &[]);
            let before = g.fingerprint();
            mutate(&mut g);
            let after = g.fingerprint();
            assert_ne!(after, before, "{name} left a stale fingerprint");
            assert_eq!(after, fresh.fingerprint(), "{name} vs a fresh build");
            assert_eq!(after, super::hash_graph(&g), "{name} vs a fresh hash");
        }
    }

    #[test]
    fn clones_share_the_fingerprint_and_repeats_hash_nothing() {
        let g = chain(1.0, 64.0, false, &[]);
        let start = super::graph_fingerprints_computed();
        let fp = g.fingerprint();
        assert_eq!(g.fingerprint(), fp);
        assert_eq!(g.clone().fingerprint(), fp, "a clone keeps the memo");
        assert_eq!(
            super::graph_fingerprints_computed() - start,
            1,
            "one hash for the value and its clone"
        );
        let unhashed = chain(1.0, 64.0, false, &[]);
        assert_eq!(unhashed.clone().fingerprint(), fp, "clone before hashing");
    }
}
