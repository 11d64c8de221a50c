//! Owned, shareable evaluation artifacts.
//!
//! [`EvalTables`] borrows its graph and platform (`EvalTables<'g>`),
//! which is the right shape for one mapper run on one caller's data —
//! but a remapping session keeps its tables alive across many
//! perturbations, long after the request that opened it returned.  An
//! [`EvalArtifact`] owns graph, platform and tables together behind an
//! `Arc`, so the tables can outlive the borrow that built them and be
//! read from any thread.
//!
//! ## Artifact keys
//!
//! [`artifact_key`] chains [`graph_fingerprint`] and
//! [`platform_fingerprint`] (both covering exactly the inputs
//! `EvalTables` reads — task attributes, edge lists in semantic order,
//! device specs, the link table) with the [`Numbering`] the tables were
//! laid out under.  Everything that can change a table entry changes
//! the key; names, which never reach the evaluator, do not.  Sessions
//! derive their identity from it ([`masked_artifact_key`]).

use std::sync::Arc;

use spmap_graph::TaskGraph;

use crate::eval::{EvalTables, Numbering};
use crate::fingerprint::{graph_fingerprint, platform_fingerprint};
use crate::platform::Platform;

/// Chain two content fingerprints and a numbering tag into one cache
/// key.  Chained (not XORed) so swapping the graph and platform
/// contributions can never collide.
pub fn artifact_key(graph: &TaskGraph, platform: &Platform, numbering: Numbering) -> u128 {
    let g = graph_fingerprint(graph);
    let p = platform_fingerprint(platform);
    let tag = match numbering {
        Numbering::Identity => 0x1d_u128,
        Numbering::PopOrder => 0x90_u128,
    };
    // 128-bit mixing via multiply-rotate chaining, seeded per lane.
    let rot = |x: u128, k: u32| x.rotate_left(k);
    rot(g, 17)
        .wrapping_mul(0x2d35_8dcc_aa6c_78a5_f4a7_c159_9e37_79b9)
        .wrapping_add(rot(p, 71))
        .wrapping_mul(0x8bb8_4b93_962e_acc9_d192_ed03_d1b5_4a33)
        .wrapping_add(tag)
}

/// Re-key an artifact key under a device-availability mask (bit `i` set
/// = device `i` usable).  A remapping session that loses or regains a
/// device keeps its [`EvalTables`] bit-for-bit — an avoided device
/// contributes no exec, link or area term, so restricting the candidate
/// device list is exact without any platform surgery — but the *session
/// identity* changes: two sessions over the same platform with
/// different availability must never be confused by observers keying on
/// the artifact.  The full mask (all `device_count` low bits set)
/// returns `base` unchanged, so an untouched session keeps the plain
/// [`artifact_key`].
pub fn masked_artifact_key(base: u128, available_mask: u64, device_count: usize) -> u128 {
    let full = if device_count >= 64 {
        u64::MAX
    } else {
        (1u64 << device_count) - 1
    };
    if available_mask & full == full {
        return base;
    }
    base.rotate_left(29)
        .wrapping_mul(0x2d35_8dcc_aa6c_78a5_f4a7_c159_9e37_79b9)
        .wrapping_add((available_mask & full) as u128)
        .wrapping_mul(0x8bb8_4b93_962e_acc9_d192_ed03_d1b5_4a33)
}

/// An owned evaluation build: the graph, the platform and the
/// [`EvalTables`] constructed from them, packaged so the borrowing
/// tables can be shared across threads and outlive the request that
/// built them.
pub struct EvalArtifact {
    /// Declared (and therefore dropped) before the `Arc`s below — the
    /// tables' internal references must die first.
    tables: EvalTables<'static>,
    /// Keep-alive owners of the data `tables` borrows.  Never exposed
    /// mutably and never replaced; the artifact's accessors reborrow
    /// them at `&self` lifetime.
    graph: Arc<TaskGraph>,
    platform: Arc<Platform>,
    key: u128,
}

impl EvalArtifact {
    /// Build the tables for `(graph, platform, numbering)` and package
    /// them as a shareable artifact.
    pub fn build(graph: Arc<TaskGraph>, platform: Arc<Platform>, numbering: Numbering) -> Self {
        let key = artifact_key(&graph, &platform, numbering);
        // SAFETY: the `'static` here is a private loan, not a promise.
        // The references point into `Arc` heap allocations whose
        // addresses are stable for the `Arc`s' lifetime; both `Arc`s
        // are stored in the same struct and never swapped or exposed
        // mutably, so they outlive `tables` (declared first, dropped
        // first).  No accessor leaks the `'static` lifetime: `tables()`
        // reborrows at `&self`, shrinking it via covariance.
        let (g, p) = unsafe {
            (
                &*(Arc::as_ptr(&graph)),
                &*(Arc::as_ptr(&platform)) as &'static Platform,
            )
        };
        let tables = EvalTables::with_numbering(g, p, numbering);
        Self {
            tables,
            graph,
            platform,
            key,
        }
    }

    /// The shared evaluation tables, reborrowed at the artifact's
    /// lifetime (covariance shrinks the internal `'static` loan).
    #[inline]
    pub fn tables(&self) -> &EvalTables<'_> {
        &self.tables
    }

    /// The owned graph.
    #[inline]
    pub fn graph(&self) -> &Arc<TaskGraph> {
        &self.graph
    }

    /// The owned platform.
    #[inline]
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The artifact's content key ([`artifact_key`]).
    #[inline]
    pub fn key(&self) -> u128 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::{GraphBuilder, Task};

    fn chain_graph(n: usize, area: f64) -> Arc<TaskGraph> {
        let mut b = GraphBuilder::new();
        let first = b.add_task(Task {
            area,
            ..Task::default()
        });
        let mut prev = first;
        for _ in 1..n {
            let v = b.add_task(Task {
                area,
                ..Task::default()
            });
            b.add_edge(prev, v, 64.0).unwrap();
            prev = v;
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn artifact_tables_match_a_direct_build() {
        let graph = chain_graph(12, 1.0);
        let platform = Arc::new(Platform::reference());
        let art = EvalArtifact::build(
            Arc::clone(&graph),
            Arc::clone(&platform),
            Numbering::PopOrder,
        );
        let direct = EvalTables::with_numbering(&graph, &platform, Numbering::PopOrder);
        assert_eq!(art.tables().exec_table(), direct.exec_table());
        assert_eq!(art.tables().node_count(), 12);
        assert_eq!(
            art.key(),
            artifact_key(&graph, &platform, Numbering::PopOrder)
        );
    }

    #[test]
    fn artifact_key_separates_numbering_and_content() {
        let graph = chain_graph(8, 1.0);
        let platform = Arc::new(Platform::reference());
        let k1 = artifact_key(&graph, &platform, Numbering::PopOrder);
        assert_ne!(
            k1,
            artifact_key(&graph, &platform, Numbering::Identity),
            "numbering changes table layout, so it must change the key"
        );
        assert_ne!(
            k1,
            artifact_key(&chain_graph(8, 2.0), &platform, Numbering::PopOrder)
        );
        assert_ne!(
            k1,
            artifact_key(&graph, &Arc::new(Platform::cpu_only()), Numbering::PopOrder)
        );
    }

    #[test]
    fn masked_key_is_identity_on_full_mask_and_injective_per_mask() {
        let base = artifact_key(
            &chain_graph(6, 1.0),
            &Platform::reference(),
            Numbering::PopOrder,
        );
        let m = Platform::reference().device_count();
        let full = (1u64 << m) - 1;
        assert_eq!(masked_artifact_key(base, full, m), base);
        // High bits beyond the device count are ignored.
        assert_eq!(masked_artifact_key(base, u64::MAX, m), base);
        // Distinct availability masks get distinct keys, all != base.
        let mut seen = vec![base];
        for mask in 0..full {
            let k = masked_artifact_key(base, mask, m);
            assert!(!seen.contains(&k), "mask {mask:#b} collided");
            seen.push(k);
        }
    }
}
