//! Incremental mapping fingerprints.
//!
//! The candidate-evaluation engine in `spmap-core` memoizes makespans by
//! the *content* of the full mapping: because the evaluator is a pure
//! function of `(tables, mapping, ranks)`, two identical mappings always
//! produce bit-identical makespans, so a content keyed memo can never go
//! stale.  What makes this affordable is that a fingerprint updates in
//! `O(1)` per remapped task:
//!
//! * every `(task, device)` pair gets a fixed pseudo-random 128-bit code
//!   ([`assignment_code`]),
//! * a mapping's fingerprint is the XOR of the codes of all its
//!   assignments (Zobrist hashing, as used by game-tree transposition
//!   tables),
//! * remapping task `v` from `old` to `new` toggles two codes
//!   ([`MappingFingerprint::toggle`]), so a candidate move touching `k`
//!   tasks costs `2k` XORs — no rescan of the mapping.
//!
//! With 128-bit codes the collision probability across the few hundred
//! thousand distinct mappings of a mapper run is ≈ `k²/2^129` —
//! negligible even for the equivalence guarantees the engine makes.
//!
//! ## Content fingerprints and their memos
//!
//! [`graph_fingerprint`] and [`platform_fingerprint`] hash the content
//! of a graph or platform ([`ContentHash`]) and key the response cache,
//! sessions and evaluation artifacts.  Both values memoize their
//! fingerprint in a private `OnceLock<u128>`: the first call hashes the
//! whole value (`O(V + E)` for a graph, `O(devices²)` for a platform),
//! every later call on the same value — or on a clone of it, which
//! carries the memo — is one load.  Every `&mut` method of
//! [`TaskGraph`] (`task_mut`, `edge_bytes_mut` and the crate-internal
//! `push_task` / `push_edge`) and of [`Platform`] (`set_link`,
//! `device_mut`) clears the memo before it hands out access, and every
//! constructor starts it empty, so a memoized fingerprint always equals
//! a fresh hash of the current content.

use std::cell::Cell;

use spmap_graph::fingerprint::mix64;
pub use spmap_graph::ContentHash;
use spmap_graph::{NodeId, TaskGraph};

use crate::mapping::Mapping;
use crate::platform::{DeviceSpec, Platform};
use crate::DeviceId;

/// The fixed 128-bit code of assigning task `v` to device `d`.
///
/// Derived by running two independent SplitMix64 finalizers over the
/// packed `(task, device)` index; no table is materialized, so any graph
/// size works without allocation.
#[inline]
pub fn assignment_code(v: NodeId, d: DeviceId) -> u128 {
    let packed = ((v.0 as u64) << 32) | d.0 as u64;
    let lo = mix64(packed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let hi = mix64(packed.wrapping_add(0xD1B5_4A32_D192_ED03));
    ((hi as u128) << 64) | lo as u128
}

/// A 128-bit content fingerprint of a task graph: node count plus every
/// task's model attributes (in node-id order) and every edge's
/// `(src, dst, bytes)` (in edge-id order).
///
/// This covers exactly the inputs [`crate::EvalTables`] reads from the
/// graph.  Task *names* are deliberately excluded (they never reach the
/// evaluator), and the edge order is included because it is semantic:
/// the FPGA streaming grant goes to the first same-device out-edge.
/// Two graphs with equal fingerprints are therefore interchangeable for
/// table construction and makespan evaluation.  Memoized in the graph
/// ([`TaskGraph::fingerprint`]; see the module docs).
pub fn graph_fingerprint(graph: &TaskGraph) -> u128 {
    graph.fingerprint()
}

/// A 128-bit content fingerprint of a platform: device count, every
/// device's kind and spec parameters (in device-id order), the default
/// device, and the full directed link table.
///
/// Like [`graph_fingerprint`], this covers exactly what the evaluator
/// reads; device *names* are excluded.  Memoized in the platform (see
/// the module docs).
pub fn platform_fingerprint(platform: &Platform) -> u128 {
    platform.fingerprint()
}

thread_local! {
    static PLATFORMS_COMPUTED: Cell<u64> = const { Cell::new(0) };
}

/// How many platform fingerprints this thread has hashed from scratch,
/// as opposed to read from a memo.  Tests use it to show that repeat
/// requests hash nothing.
#[doc(hidden)]
pub fn platform_fingerprints_computed() -> u64 {
    PLATFORMS_COMPUTED.with(Cell::get)
}

/// Hash `platform`'s content (see [`platform_fingerprint`]).
pub(crate) fn hash_platform(platform: &Platform) -> u128 {
    PLATFORMS_COMPUTED.with(|c| c.set(c.get() + 1));
    let mut h = ContentHash::new(0x706c_6174u64); // "plat"
    h.absorb(platform.device_count() as u64);
    h.absorb(platform.default_device().0 as u64);
    for d in platform.device_ids() {
        match &platform.device(d).spec {
            DeviceSpec::Cpu {
                cores,
                core_throughput,
            } => {
                h.absorb(1);
                h.absorb_f64(*cores);
                h.absorb_f64(*core_throughput);
            }
            DeviceSpec::Gpu {
                cores,
                core_throughput,
                dispatch_efficiency,
                launch_latency,
                serial_throughput,
            } => {
                h.absorb(2);
                h.absorb_f64(*cores);
                h.absorb_f64(*core_throughput);
                h.absorb_f64(*dispatch_efficiency);
                h.absorb_f64(*launch_latency);
                h.absorb_f64(*serial_throughput);
            }
            DeviceSpec::Fpga {
                base_throughput,
                max_streamability,
                area_capacity,
                fill_fraction,
            } => {
                h.absorb(3);
                h.absorb_f64(*base_throughput);
                h.absorb_f64(*max_streamability);
                h.absorb_f64(*area_capacity);
                h.absorb_f64(*fill_fraction);
            }
        }
    }
    for from in platform.device_ids() {
        for to in platform.device_ids() {
            let link = platform.link(from, to);
            h.absorb_f64(link.bandwidth);
            h.absorb_f64(link.latency);
        }
    }
    h.finish()
}

/// An incrementally maintained content fingerprint of a [`Mapping`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MappingFingerprint(u128);

impl MappingFingerprint {
    /// Fingerprint of `mapping`, built by a full scan (`O(V)`).
    pub fn of(mapping: &Mapping) -> Self {
        let mut fp = 0u128;
        for (i, &d) in mapping.as_slice().iter().enumerate() {
            fp ^= assignment_code(NodeId(i as u32), d);
        }
        Self(fp)
    }

    /// Account for remapping task `v` from `old` to `new` (`O(1)`).
    /// Toggling with `old == new` is a no-op by XOR cancellation.
    #[inline]
    pub fn toggle(&mut self, v: NodeId, old: DeviceId, new: DeviceId) {
        self.0 ^= assignment_code(v, old) ^ assignment_code(v, new);
    }

    /// The fingerprint after remapping `v` from `old` to `new`, without
    /// mutating `self`.
    #[inline]
    pub fn with(mut self, v: NodeId, old: DeviceId, new: DeviceId) -> Self {
        self.toggle(v, old, new);
        self
    }

    /// The raw 128-bit value (memo key).
    #[inline]
    pub fn value(self) -> u128 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_full_scan() {
        let mut m = Mapping::uniform(20, DeviceId(0));
        let mut fp = MappingFingerprint::of(&m);
        let moves = [(3u32, 1u32), (7, 2), (3, 2), (19, 1), (3, 0), (7, 2)];
        for &(v, d) in &moves {
            let v = NodeId(v);
            let old = m.device(v);
            fp.toggle(v, old, DeviceId(d));
            m.set(v, DeviceId(d));
            assert_eq!(fp, MappingFingerprint::of(&m), "after {v} -> d{d}");
        }
    }

    #[test]
    fn toggle_is_involutive_and_order_free() {
        let m = Mapping::uniform(10, DeviceId(0));
        let base = MappingFingerprint::of(&m);
        // Applying and reverting restores the fingerprint.
        let fp = base.with(NodeId(1), DeviceId(0), DeviceId(2)).with(
            NodeId(1),
            DeviceId(2),
            DeviceId(0),
        );
        assert_eq!(fp, base);
        // Disjoint toggles commute.
        let ab = base.with(NodeId(1), DeviceId(0), DeviceId(2)).with(
            NodeId(4),
            DeviceId(0),
            DeviceId(1),
        );
        let ba = base.with(NodeId(4), DeviceId(0), DeviceId(1)).with(
            NodeId(1),
            DeviceId(0),
            DeviceId(2),
        );
        assert_eq!(ab, ba);
    }

    #[test]
    fn distinct_mappings_distinct_fingerprints() {
        // Not a collision proof, but catches degenerate mixing: all
        // single-move neighbors of a base mapping must differ pairwise.
        let m = Mapping::uniform(32, DeviceId(0));
        let base = MappingFingerprint::of(&m);
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.value());
        for v in 0..32u32 {
            for d in 1..4u32 {
                let fp = base.with(NodeId(v), DeviceId(0), DeviceId(d));
                assert!(seen.insert(fp.value()), "collision at {v}/{d}");
            }
        }
    }

    #[test]
    fn graph_fingerprint_tracks_content_not_names() {
        use spmap_graph::{GraphBuilder, Task};
        let build = |area: f64, bytes: f64, name: &str| {
            let mut b = GraphBuilder::new();
            let a = b.add_task(Task {
                name: name.into(),
                area,
                ..Task::default()
            });
            let c = b.add_task(Task::named("sink"));
            b.add_edge(a, c, bytes).unwrap();
            b.build().unwrap()
        };
        let base = graph_fingerprint(&build(1.0, 64.0, "x"));
        assert_eq!(
            base,
            graph_fingerprint(&build(1.0, 64.0, "renamed")),
            "names never reach the evaluator"
        );
        assert_ne!(base, graph_fingerprint(&build(2.0, 64.0, "x")));
        assert_ne!(base, graph_fingerprint(&build(1.0, 65.0, "x")));
    }

    #[test]
    fn platform_fingerprint_tracks_content() {
        let reference = platform_fingerprint(&Platform::reference());
        assert_eq!(
            reference,
            platform_fingerprint(&Platform::reference()),
            "deterministic"
        );
        assert_ne!(reference, platform_fingerprint(&Platform::cpu_only()));
        assert_ne!(reference, platform_fingerprint(&Platform::cpu_gpu()));
    }

    #[test]
    fn platform_mutations_clear_the_memo() {
        use crate::platform::Link;
        type Mutation = fn(&mut Platform);
        let cases: [(&str, Mutation); 2] = [
            ("set_link", |p| {
                let slow = Link {
                    bandwidth: 1e9,
                    latency: 1e-3,
                };
                p.set_link(DeviceId(0), DeviceId(1), slow);
            }),
            ("device_mut", |p| {
                if let DeviceSpec::Cpu { cores, .. } = &mut p.device_mut(DeviceId(0)).spec {
                    *cores = 8.0;
                }
            }),
        ];
        for (name, mutate) in cases {
            // Mutated before any fingerprint exists: nothing to go stale.
            let mut fresh = Platform::reference();
            mutate(&mut fresh);
            let mut p = Platform::reference();
            let before = platform_fingerprint(&p);
            mutate(&mut p);
            let after = platform_fingerprint(&p);
            assert_ne!(after, before, "{name} left a stale fingerprint");
            assert_eq!(
                after,
                platform_fingerprint(&fresh),
                "{name} vs a fresh build"
            );
            assert_eq!(after, hash_platform(&p), "{name} vs a fresh hash");
        }
        let p = Platform::reference();
        let start = platform_fingerprints_computed();
        let fp = platform_fingerprint(&p);
        assert_eq!(
            platform_fingerprint(&p.clone()),
            fp,
            "a clone keeps the memo"
        );
        assert_eq!(platform_fingerprints_computed() - start, 1);
    }

    /// Fingerprints and artifact keys of fixed inputs, recorded before
    /// the fingerprints were memoized: the key functions must never
    /// drift, or every persisted or compared key silently changes.
    #[test]
    fn fingerprints_and_artifact_keys_are_pinned() {
        use crate::artifact::artifact_key;
        use crate::Numbering;
        use spmap_graph::gen::{almost_sp_graph, fig2_graph, random_sp_graph, SpGenConfig};
        use spmap_graph::{augment, AugmentConfig};
        let mut sp = random_sp_graph(&SpGenConfig::new(24, 3));
        augment(&mut sp, &AugmentConfig::default(), 3);
        let mut almost = almost_sp_graph(&SpGenConfig::new(30, 7), 4);
        augment(&mut almost, &AugmentConfig::default(), 7);
        let cases = [
            (
                sp,
                Platform::reference(),
                [
                    0x8f072398f022e69e66d6c02693d9810f_u128,
                    0x5a240496dce0f4498e5a7f29071f223e,
                    0xaa92ccddbb01a5d9e74bf285ac7eae2f,
                    0xaa92ccddbb01a5d9e74bf285ac7eadbc,
                ],
            ),
            (
                almost,
                Platform::cpu_gpu(),
                [
                    0x00a2ff9293d7c282d909760a52137cc7,
                    0xb72e99107534c78730e545a3a4de6304,
                    0xb3ef7d72f02a80269332031124b4dadf,
                    0xb3ef7d72f02a80269332031124b4da6c,
                ],
            ),
            (
                fig2_graph(1e6),
                Platform::cpu_only(),
                [
                    0x2f3d6ae030a0f928274ab238f6132323,
                    0x2b1ca9c8fa831f9e5ff1db110aaa93b4,
                    0xa0f91f3ee5a910ddf8170dcd5d87d94b,
                    0xa0f91f3ee5a910ddf8170dcd5d87d8d8,
                ],
            ),
        ];
        for (i, (g, p, [gf, pf, pop, id])) in cases.into_iter().enumerate() {
            assert_eq!(graph_fingerprint(&g), gf, "case {i} graph");
            assert_eq!(platform_fingerprint(&p), pf, "case {i} platform");
            assert_eq!(artifact_key(&g, &p, Numbering::PopOrder), pop, "case {i}");
            assert_eq!(artifact_key(&g, &p, Numbering::Identity), id, "case {i}");
        }
    }

    #[test]
    fn same_device_toggle_is_noop() {
        let m = Mapping::uniform(5, DeviceId(1));
        let base = MappingFingerprint::of(&m);
        assert_eq!(base.with(NodeId(2), DeviceId(1), DeviceId(1)), base);
    }
}
