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

/// SplitMix64 finalizer: a high-quality 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive 128-bit content hash, built by absorbing one
/// 64-bit word at a time.  Unlike the XOR-of-codes Zobrist scheme above
/// (whose order-freeness is the point for *mappings*), structural
/// content — task attributes, edge lists, link tables — is
/// position-dependent, so each word is chained through both lanes.
/// Not cryptographic; used for cache keys, where a collision costs a
/// wrong-but-deterministic reuse, with the same ≈ `k²/2^129` birthday
/// bound as the mapping memo.
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

/// A 128-bit content fingerprint of a task graph: node count plus every
/// task's model attributes (in node-id order) and every edge's
/// `(src, dst, bytes)` (in edge-id order).
///
/// This covers exactly the inputs [`crate::EvalTables`] reads from the
/// graph.  Task *names* are deliberately excluded (they never reach the
/// evaluator), and the edge order is included because it is semantic:
/// the FPGA streaming grant goes to the first same-device out-edge.
/// Two graphs with equal fingerprints are therefore interchangeable for
/// table construction and makespan evaluation.
pub fn graph_fingerprint(graph: &TaskGraph) -> u128 {
    let mut h = ContentHash::new(0x0067_7261_7068_u64); // "graph"
    h.absorb(graph.node_count() as u64);
    h.absorb(graph.edge_count() as u64);
    for v in graph.nodes() {
        let t = graph.task(v);
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

/// A 128-bit content fingerprint of a platform: device count, every
/// device's kind and spec parameters (in device-id order), the default
/// device, and the full directed link table.
///
/// Like [`graph_fingerprint`], this covers exactly what the evaluator
/// reads; device *names* are excluded.
pub fn platform_fingerprint(platform: &Platform) -> u128 {
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
    fn same_device_toggle_is_noop() {
        let m = Mapping::uniform(5, DeviceId(1));
        let base = MappingFingerprint::of(&m);
        assert_eq!(base.with(NodeId(2), DeviceId(1), DeviceId(1)), base);
    }
}
