//! HEFT — Heterogeneous Earliest Finish Time (paper ref. 6).
//!
//! Phase 1 computes *upward ranks* from average computation and
//! communication costs:
//!
//! ```text
//! rank_u(v) = w̄(v) + max over successors s of ( c̄(v, s) + rank_u(s) )
//! ```
//!
//! Phase 2 schedules tasks in decreasing rank order onto the device with
//! the earliest insertion-based finish time, using *actual* transfer
//! costs between the already-fixed predecessor devices and the candidate.

use spmap_graph::{ops, TaskGraph};
use spmap_model::Platform;

use crate::listsched::{run_list_scheduler, CostTables, ListScheduleResult};

/// Result alias: HEFT and PEFT share the list-scheduler output shape.
pub type HeftResult = ListScheduleResult;

/// Upward ranks for all tasks (exposed for tests and diagnostics).
pub fn upward_ranks(g: &TaskGraph, ct_mean_exec: &[f64], ct_mean_comm: &[f64]) -> Vec<f64> {
    let order = ops::topo_order(g).expect("task graphs are DAGs");
    let mut rank = vec![0.0f64; g.node_count()];
    for &v in order.iter().rev() {
        let mut tail = 0.0f64;
        for &e in g.out_edges(v) {
            let s = g.edge(e).dst;
            tail = tail.max(ct_mean_comm[e.index()] + rank[s.index()]);
        }
        rank[v.index()] = ct_mean_exec[v.index()] + tail;
    }
    rank
}

/// Run HEFT, returning the mapping, the internal schedule estimate, and
/// the scheduling order.
pub fn heft(g: &TaskGraph, p: &Platform) -> HeftResult {
    let ct = CostTables::new(g, p);
    let rank = upward_ranks(g, &ct.mean_exec, &ct.mean_comm);
    run_list_scheduler(g, p, &ct, &rank, |_, _| 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{chain, fork_join, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId, Task};
    use spmap_model::{DeviceId, Evaluator, Mapping};

    fn big_parallel_task(name: &str) -> Task {
        Task {
            name: name.into(),
            complexity: 20.0,
            data_points: 1.25e8,
            parallelizability: 1.0,
            streamability: 1.0,
            area: 160.0,
        }
    }

    #[test]
    fn ranks_decrease_along_edges() {
        let mut g = random_sp_graph(&SpGenConfig::new(40, 1));
        augment(&mut g, &AugmentConfig::default(), 1);
        let p = Platform::reference();
        let ct = CostTables::new(&g, &p);
        let rank = upward_ranks(&g, &ct.mean_exec, &ct.mean_comm);
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(
                rank[edge.src.index()] > rank[edge.dst.index()],
                "upward rank must strictly decrease along edges"
            );
        }
    }

    #[test]
    fn rank_of_chain_is_cumulative() {
        let mut g = chain(3, 100e6);
        for v in 0..3 {
            *g.task_mut(NodeId(v)) = big_parallel_task("t");
        }
        let p = Platform::reference();
        let ct = CostTables::new(&g, &p);
        let rank = upward_ranks(&g, &ct.mean_exec, &ct.mean_comm);
        let w = ct.mean_exec[0];
        let c = ct.mean_comm[0];
        assert!((rank[2] - w).abs() < 1e-9);
        assert!((rank[1] - (2.0 * w + c)).abs() < 1e-9);
        assert!((rank[0] - (3.0 * w + 2.0 * c)).abs() < 1e-9);
    }

    #[test]
    fn heft_offloads_parallel_fork() {
        // Wide fork of perfectly parallel tasks: HEFT should spread them
        // over CPU and GPU rather than queueing everything on the CPU.
        let mut g = fork_join(6, 1e6);
        for v in 0..8 {
            *g.task_mut(NodeId(v)) = big_parallel_task("t");
        }
        let p = Platform::reference();
        let r = heft(&g, &p);
        let gpu_count = (0..8)
            .filter(|&v| r.mapping.device(NodeId(v)) == DeviceId(1))
            .count();
        assert!(gpu_count >= 2, "HEFT should use the GPU, got {gpu_count}");
        // Internal estimate must beat the all-CPU sequential sum.
        let all_cpu: f64 = (0..8)
            .map(|v| spmap_model::cost::exec_time(&p, DeviceId(0), g.task(NodeId(v))))
            .sum();
        assert!(r.internal_makespan < all_cpu);
    }

    #[test]
    fn heft_schedule_order_is_topological() {
        let mut g = random_sp_graph(&SpGenConfig::new(60, 7));
        augment(&mut g, &AugmentConfig::default(), 7);
        let p = Platform::reference();
        let r = heft(&g, &p);
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in r.order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(pos[edge.src.index()] < pos[edge.dst.index()]);
        }
    }

    #[test]
    fn heft_mapping_respects_area_budget() {
        let mut g = fork_join(30, 1e6);
        for v in 0..32 {
            let t = g.task_mut(NodeId(v));
            // Streamable serial tasks that love the FPGA, each 300 area.
            t.complexity = 20.0;
            t.data_points = 1.25e8;
            t.parallelizability = 0.0;
            t.streamability = 16.0;
            t.area = 300.0;
        }
        let p = Platform::reference();
        let r = heft(&g, &p);
        assert!(
            r.mapping.is_area_feasible(&g, &p),
            "HEFT must respect the FPGA area budget"
        );
        // And it did use the FPGA for some tasks (6 fit in 2000).
        assert!(r.mapping.count_on(DeviceId(2)) >= 1);
    }

    #[test]
    fn heft_mapping_evaluates_under_real_model() {
        let p = Platform::reference();
        for seed in 0..5 {
            let mut g = random_sp_graph(&SpGenConfig::new(50, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            let r = heft(&g, &p);
            let mut ev = Evaluator::new(&g, &p);
            let ms = ev
                .makespan_bfs(&r.mapping)
                .expect("HEFT mappings are area-feasible");
            assert!(ms.is_finite() && ms > 0.0);
        }
    }

    #[test]
    fn heft_is_deterministic() {
        let mut g = random_sp_graph(&SpGenConfig::new(45, 3));
        augment(&mut g, &AugmentConfig::default(), 3);
        let p = Platform::reference();
        let a = heft(&g, &p);
        let b = heft(&g, &p);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.internal_makespan, b.internal_makespan);
    }

    #[test]
    fn heft_on_cpu_only_platform_is_all_cpu() {
        let mut g = random_sp_graph(&SpGenConfig::new(20, 2));
        augment(&mut g, &AugmentConfig::default(), 2);
        let p = Platform::cpu_only();
        let r = heft(&g, &p);
        assert_eq!(r.mapping, Mapping::all_default(&g, &p));
    }
}
