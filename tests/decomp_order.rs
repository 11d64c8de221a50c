//! Pins the creation order of the decomposition forest (paper Alg. 1).
//!
//! Op ids are `subgraph_index × devices + device`, and both search
//! drivers break ties by op id.  So the order in which
//! `decompose_forest` creates arena nodes, roots and cuts — and with it
//! the order of `series_parallel_subgraphs` — is observable in every
//! mapping.  A rewrite of the builder must reproduce that order exactly,
//! not just an equivalent forest.
//!
//! Each case hashes (FNV-1a, stable across toolchains), in order:
//! * the node lists of `series_parallel_subgraphs`;
//! * every arena node of `decompose_forest` on the normalized graph (op,
//!   leaf edge, children, terminals, bookkeeping), its roots, core, cuts
//!   and `arena_len`.
//!
//! The corpus covers random SP graphs, almost-SP graphs, layered random
//! DAGs and the nine workflow families, under all four `CutPolicy`
//! values.  The expected digests were recorded on the recursive builder;
//! regenerate them only for a deliberate order change, by running
//! `cargo test --test decomp_order -- --nocapture` and copying the
//! printed table.

use spmap::decomp::{SpOp, SpTreeId};
use spmap::graph::gen::{layered_random, LayeredConfig};
use spmap::graph::ops;
use spmap::prelude::*;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const POLICIES: [CutPolicy; 4] = [
    CutPolicy::SmallestSubtree,
    CutPolicy::LargestSubtree,
    CutPolicy::FirstActive,
    CutPolicy::Random { seed: 11 },
];

/// The seeded corpus, by class.
fn corpus() -> Vec<(&'static str, Vec<TaskGraph>)> {
    let random_sp = (0..6u64)
        .flat_map(|seed| {
            [3, 20, 60, 200]
                .into_iter()
                .map(move |n| random_sp_graph(&SpGenConfig::new(n, seed)))
        })
        .collect();
    let almost_sp = (0..6u64)
        .flat_map(|seed| {
            [(30, 4), (60, 12), (120, 40)]
                .into_iter()
                .map(move |(n, extra)| almost_sp_graph(&SpGenConfig::new(n, seed), extra))
        })
        .collect();
    let layered = (0..6u64)
        .flat_map(|seed| {
            [(4, 3, 0.5), (8, 5, 0.4), (12, 8, 0.3)].into_iter().map(
                move |(layers, width, density)| {
                    layered_random(&LayeredConfig {
                        layers,
                        width,
                        density,
                        seed,
                        edge_bytes: 1.0,
                    })
                },
            )
        })
        .collect();
    let workflows = Family::all()
        .into_iter()
        .flat_map(|family| {
            [(40, 1u64), (150, 2)]
                .into_iter()
                .map(move |(tasks, seed)| family.generate(tasks, seed))
        })
        .collect();
    vec![
        ("random_sp", random_sp),
        ("almost_sp", almost_sp),
        ("layered", layered),
        ("workflows", workflows),
    ]
}

/// Fold one graph's decomposition, under `policy`, into `h`.
fn digest(h: &mut Fnv, g: &TaskGraph, policy: CutPolicy) {
    let set = series_parallel_subgraphs(g, policy);
    h.word(set.len() as u64);
    for sg in set.iter() {
        h.word(sg.len() as u64);
        for v in sg {
            h.word(u64::from(v.0));
        }
    }

    let norm = ops::normalize_terminals(g);
    let r = decompose_forest(&norm.graph, norm.source, norm.sink, policy);
    let forest = &r.forest;
    h.word(forest.arena_len() as u64);
    for i in 0..forest.arena_len() {
        let id = SpTreeId(i as u32);
        let node = forest.node(id);
        match node.op {
            SpOp::Leaf(e) => {
                h.word(0);
                h.word(u64::from(e.0));
            }
            SpOp::Series => h.word(1),
            SpOp::Parallel => h.word(2),
        }
        h.word(u64::from(node.source.0));
        h.word(u64::from(node.sink.0));
        h.word(u64::from(node.outsize));
        h.word(u64::from(node.edge_count));
        h.word(forest.children(id).len() as u64);
        for c in forest.children(id) {
            h.word(u64::from(c.0));
        }
    }
    h.word(forest.roots.len() as u64);
    for t in &forest.roots {
        h.word(u64::from(t.0));
    }
    h.word(u64::from(r.core.0));
    h.word(r.cuts as u64);
}

/// Recorded digests, one per (class, policy) in `POLICIES` order.
const EXPECTED: [(&str, [u64; 4]); 4] = [
    (
        "random_sp",
        [
            0xd827a89574696822,
            0xd827a89574696822,
            0xd827a89574696822,
            0xd827a89574696822,
        ],
    ),
    (
        "almost_sp",
        [
            0x936291a503b14244,
            0x8cf064f7b7b1035d,
            0xc189eafc98c6a7a8,
            0x72a0ef763b684f3d,
        ],
    ),
    (
        "layered",
        [
            0x0286cdf67e635938,
            0x7c6413fe7062b3ff,
            0x3b17cf1791d36800,
            0x3c7137069b4aa1ac,
        ],
    ),
    (
        "workflows",
        [
            0x1fc29618a1447762,
            0xea0eddea3d6e300c,
            0xea0eddea3d6e300c,
            0x5225bd9faa297520,
        ],
    ),
];

#[test]
fn decomposition_order_is_pinned() {
    let mut actual: Vec<(&str, [u64; 4])> = Vec::new();
    for (class, graphs) in corpus() {
        let mut row = [0u64; 4];
        for (slot, &policy) in row.iter_mut().zip(&POLICIES) {
            let mut h = Fnv::new();
            for g in &graphs {
                digest(&mut h, g, policy);
            }
            *slot = h.0;
        }
        actual.push((class, row));
    }
    for (class, row) in &actual {
        println!(
            "    (\"{class}\", [{}]),",
            row.iter()
                .map(|d| format!("0x{d:016x}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    assert_eq!(actual, EXPECTED, "decomposition creation order changed");
}

#[test]
fn corpus_exercises_cuts_under_every_policy() {
    // The pins only guard the cut path if the corpus actually cuts.
    for policy in POLICIES {
        let cuts: usize = corpus()
            .iter()
            .flat_map(|(_, graphs)| graphs)
            .map(|g| {
                let norm = ops::normalize_terminals(g);
                decompose_forest(&norm.graph, norm.source, norm.sink, policy).cuts
            })
            .sum();
        assert!(cuts > 0, "{policy:?}: no cuts in the corpus");
    }
}
