//! The paper's three MILP baselines (§IV-A), built on [`crate::branch`].
//!
//! * [`solve_wgdp_device`] — the *device-based* MILP of Wilhelm et al.
//!   (paper ref. 5): balance per-device load, ignore dependencies.
//!   Small (`n·m` binaries), fast, but blind to transfers — the paper
//!   finds it clearly weaker on dependency-heavy graphs.
//! * [`solve_wgdp_time`] — the *time-based* MILP of the same authors:
//!   start times, big-M device serialization for temporal devices, FPGA
//!   area, and (uniquely among the MILPs) **FPGA streaming awareness**:
//!   an edge whose endpoints are co-located on the FPGA relaxes its
//!   precedence constraint to the pipeline-fill bound.
//! * [`solve_zhou_liu`] — the slot-based MILP of Zhou & Liu (paper ref.
//!   2): per-device execution slots give a total order; detailed but
//!   `n²·m` binaries, so it explodes quickly (the paper saw 5-minute
//!   timeouts beyond 20 tasks; our solver hits its limits proportionally
//!   earlier, see EXPERIMENTS.md).
//!
//! All three start from the all-CPU incumbent, so time-limited solves
//! degrade gracefully to the default mapping instead of failing.

use spmap_graph::{ops, NodeId, TaskGraph};
use spmap_model::{cost, DeviceId, Mapping, Platform};

use crate::branch::{solve_milp, MilpStatus, SolveOptions};
use crate::model::{Model, Sense, VarId};

/// Result of a MILP-based mapping run.
#[derive(Clone, Debug)]
pub struct MilpMapping {
    /// The produced mapping (the all-CPU default if no improving
    /// incumbent was found in time).
    pub mapping: Mapping,
    /// Internal objective of the returned mapping (the formulation's own
    /// schedule estimate, *not* the model-evaluated makespan).
    pub objective: f64,
    /// Solver status.
    pub status: MilpStatus,
    /// Explored branch & bound nodes.
    pub nodes: usize,
    /// Best proven lower bound.
    pub best_bound: f64,
}

/// Shared per-instance cost data.
struct Inst<'g> {
    g: &'g TaskGraph,
    p: &'g Platform,
    /// `exec[t][d]`
    exec: Vec<Vec<f64>>,
    /// Scheduling horizon (big-M): serial execution on the slowest device
    /// plus all transfers.
    horizon: f64,
    cpu_only: f64,
}

impl<'g> Inst<'g> {
    fn new(g: &'g TaskGraph, p: &'g Platform) -> Self {
        let exec: Vec<Vec<f64>> = g
            .nodes()
            .map(|v| {
                p.device_ids()
                    .map(|d| cost::exec_time(p, d, g.task(v)))
                    .collect()
            })
            .collect();
        let mut horizon: f64 = exec
            .iter()
            .map(|row| row.iter().cloned().fold(0.0, f64::max))
            .sum();
        for e in g.edge_ids() {
            let bytes = g.edge(e).bytes;
            let worst = p
                .device_ids()
                .flat_map(|a| p.device_ids().map(move |b| (a, b)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| p.transfer_time(bytes, a, b))
                .fold(0.0, f64::max);
            horizon += worst;
        }
        let cpu_only = exec.iter().map(|row| row[p.default_device().index()]).sum();
        Self {
            g,
            p,
            exec,
            horizon,
            cpu_only,
        }
    }

    fn decode(&self, y: &[Vec<VarId>], values: &[f64]) -> Mapping {
        let mut mapping = Mapping::all_default(self.g, self.p);
        for (t, row) in y.iter().enumerate() {
            let mut best = (self.p.default_device(), 0.5);
            for (d, &var) in row.iter().enumerate() {
                if values[var.0] > best.1 {
                    best = (DeviceId(d as u32), values[var.0]);
                }
            }
            mapping.set(NodeId(t as u32), best.0);
        }
        mapping
    }
}

/// Add assignment binaries `y[t][d]` with `Σ_d y[t][d] = 1`.
fn add_assignment(m: &mut Model, n: usize, dev: usize) -> Vec<Vec<VarId>> {
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<VarId> = (0..dev).map(|_| m.add_binary(0.0)).collect();
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(&terms, Sense::Eq, 1.0);
        y.push(row);
    }
    y
}

/// Add FPGA area rows `Σ_t area_t · y[t][F] ≤ capacity`.
fn add_area_rows(m: &mut Model, inst: &Inst<'_>, y: &[Vec<VarId>]) {
    for d in inst.p.device_ids() {
        if !inst.p.is_fpga(d) {
            continue;
        }
        let terms: Vec<(VarId, f64)> = (0..inst.g.node_count())
            .map(|t| (y[t][d.index()], inst.g.task(NodeId(t as u32)).area))
            .collect();
        m.add_constraint(&terms, Sense::Le, inst.p.device(d).area_capacity());
    }
}

/// Add a communication variable per edge with the standard pairwise
/// linearization `comm_e ≥ tr(d, d') · (y[u][d] + y[v][d'] − 1)`.
fn add_comm_vars(m: &mut Model, inst: &Inst<'_>, y: &[Vec<VarId>]) -> Vec<VarId> {
    let dev = inst.p.device_count();
    inst.g
        .edge_ids()
        .map(|e| {
            let edge = inst.g.edge(e);
            let comm = m.add_continuous(0.0, inst.horizon, 0.0);
            for a in 0..dev {
                for b in 0..dev {
                    if a == b {
                        continue;
                    }
                    let tr =
                        inst.p
                            .transfer_time(edge.bytes, DeviceId(a as u32), DeviceId(b as u32));
                    if tr <= 0.0 {
                        continue;
                    }
                    // tr·y[u][a] + tr·y[v][b] − comm ≤ tr
                    m.add_constraint(
                        &[
                            (y[edge.src.index()][a], tr),
                            (y[edge.dst.index()][b], tr),
                            (comm, -1.0),
                        ],
                        Sense::Le,
                        tr,
                    );
                }
            }
            comm
        })
        .collect()
}

/// Terms for the execution time of task `t`: `Σ_d exec(t, d) · y[t][d]`.
fn exec_terms(inst: &Inst<'_>, y: &[Vec<VarId>], t: usize, scale: f64) -> Vec<(VarId, f64)> {
    y[t].iter()
        .enumerate()
        .map(|(d, &v)| (v, scale * inst.exec[t][d]))
        .collect()
}

// ---------------------------------------------------------------------------
// WGDP-Device
// ---------------------------------------------------------------------------

/// Device-based MILP: minimize the maximum per-device load, ignoring
/// dependencies and transfers (paper ref. 5, "WGDP Dev").
pub fn solve_wgdp_device(g: &TaskGraph, p: &Platform, opts: &SolveOptions) -> MilpMapping {
    let inst = Inst::new(g, p);
    let n = g.node_count();
    let dev = p.device_count();
    let mut m = Model::new();
    let y = add_assignment(&mut m, n, dev);
    let makespan = m.add_continuous(0.0, inst.horizon, 1.0);
    for d in 0..dev {
        // Σ_t exec(t,d) y[t][d] − makespan ≤ 0
        let mut terms: Vec<(VarId, f64)> = (0..n).map(|t| (y[t][d], inst.exec[t][d])).collect();
        terms.push((makespan, -1.0));
        m.add_constraint(&terms, Sense::Le, 0.0);
    }
    add_area_rows(&mut m, &inst, &y);

    let result = solve_milp(
        &m,
        &SolveOptions {
            initial_objective: Some(inst.cpu_only),
            ..*opts
        },
    );
    finish(inst, y, result)
}

// ---------------------------------------------------------------------------
// WGDP-Time
// ---------------------------------------------------------------------------

/// Time-based MILP with start times, big-M serialization on temporal
/// devices, and FPGA streaming relaxation (paper ref. 5, "WGDP Time").
pub fn solve_wgdp_time(g: &TaskGraph, p: &Platform, opts: &SolveOptions) -> MilpMapping {
    let inst = Inst::new(g, p);
    let n = g.node_count();
    let dev = p.device_count();
    let h = inst.horizon;
    let mut m = Model::new();
    let y = add_assignment(&mut m, n, dev);
    let sigma: Vec<VarId> = (0..n).map(|_| m.add_continuous(0.0, h, 0.0)).collect();
    let comm = add_comm_vars(&mut m, &inst, &y);
    let makespan = m.add_continuous(0.0, h, 1.0);

    // Streaming indicators: one per edge and FPGA device.
    let fpgas: Vec<DeviceId> = p.device_ids().filter(|&d| p.is_fpga(d)).collect();
    for (ei, e) in g.edge_ids().enumerate() {
        let edge = g.edge(e);
        let (u, v) = (edge.src.index(), edge.dst.index());
        let mut stream_vars: Vec<VarId> = Vec::new();
        for &f in &fpgas {
            let b = m.add_binary(0.0);
            m.add_constraint(&[(b, 1.0), (y[u][f.index()], -1.0)], Sense::Le, 0.0);
            m.add_constraint(&[(b, 1.0), (y[v][f.index()], -1.0)], Sense::Le, 0.0);
            stream_vars.push(b);
        }
        // Full precedence, relaxed when any streaming indicator is 1:
        // σ_v − σ_u − w_u − comm_e + H·Σb ≥ 0.
        let mut terms = vec![(sigma[v], 1.0), (sigma[u], -1.0), (comm[ei], -1.0)];
        terms.extend(exec_terms(&inst, &y, u, -1.0));
        for &b in &stream_vars {
            terms.push((b, h));
        }
        m.add_constraint(&terms, Sense::Ge, 0.0);
        // Streaming floor (valid unconditionally): σ_v ≥ σ_u + φ·w_u with
        // φ the fill fraction of the (single) FPGA, and the finish-order
        // bound σ_v ≥ σ_u + w_u − (1−φ)·w_v.
        let phi = fpgas.first().map(|&f| p.fill_fraction(f)).unwrap_or(0.0);
        if !fpgas.is_empty() {
            let mut floor = vec![(sigma[v], 1.0), (sigma[u], -1.0)];
            floor.extend(exec_terms(&inst, &y, u, -phi));
            m.add_constraint(&floor, Sense::Ge, 0.0);
            let mut fin = vec![(sigma[v], 1.0), (sigma[u], -1.0)];
            fin.extend(exec_terms(&inst, &y, u, -1.0));
            fin.extend(exec_terms(&inst, &y, v, 1.0 - phi));
            m.add_constraint(&fin, Sense::Ge, 0.0);
        }
    }

    // Serialization on temporal devices for topologically incomparable
    // pairs (reachable pairs are ordered by the precedence chain already).
    let reach = reachability(g);
    for u in 0..n {
        for v in (u + 1)..n {
            if reach[u][v] || reach[v][u] {
                continue;
            }
            let o = m.add_binary(0.0);
            for d in 0..dev {
                // Incomparable pairs serialize on every device: on the
                // FPGA, pipelining only overlaps *streaming-connected*
                // (hence comparable) tasks.
                // σ_v ≥ σ_u + w_u − H(3 − y[u][d] − y[v][d] − o)
                let mut t1 = vec![(sigma[v], 1.0), (sigma[u], -1.0)];
                t1.extend(exec_terms(&inst, &y, u, -1.0));
                t1.push((y[u][d], -h));
                t1.push((y[v][d], -h));
                t1.push((o, -h));
                m.add_constraint(&t1, Sense::Ge, -3.0 * h);
                // σ_u ≥ σ_v + w_v − H(2 + o − y[u][d] − y[v][d])
                let mut t2 = vec![(sigma[u], 1.0), (sigma[v], -1.0)];
                t2.extend(exec_terms(&inst, &y, v, -1.0));
                t2.push((y[u][d], -h));
                t2.push((y[v][d], -h));
                t2.push((o, h));
                m.add_constraint(&t2, Sense::Ge, -2.0 * h);
            }
        }
    }

    // Makespan.
    for t in 0..n {
        let mut terms = vec![(makespan, 1.0), (sigma[t], -1.0)];
        terms.extend(exec_terms(&inst, &y, t, -1.0));
        m.add_constraint(&terms, Sense::Ge, 0.0);
    }
    add_area_rows(&mut m, &inst, &y);

    let result = solve_milp(
        &m,
        &SolveOptions {
            initial_objective: Some(inst.cpu_only),
            ..*opts
        },
    );
    finish(inst, y, result)
}

// ---------------------------------------------------------------------------
// ZhouLiu
// ---------------------------------------------------------------------------

/// Slot-based MILP of Zhou & Liu (paper ref. 2): execution slots per
/// device impose a total order; no streaming awareness.
pub fn solve_zhou_liu(g: &TaskGraph, p: &Platform, opts: &SolveOptions) -> MilpMapping {
    let inst = Inst::new(g, p);
    let n = g.node_count();
    let dev = p.device_count();
    let slots = n; // any device may host every task
    let h = inst.horizon;
    let mut m = Model::new();

    // x[t][d][s] binaries.
    let x: Vec<Vec<Vec<VarId>>> = (0..n)
        .map(|_| {
            (0..dev)
                .map(|_| (0..slots).map(|_| m.add_binary(0.0)).collect())
                .collect()
        })
        .collect();
    // Aggregated assignment y[t][d] = Σ_s x[t][d][s] (continuous helper).
    let y: Vec<Vec<VarId>> = (0..n)
        .map(|t| {
            (0..dev)
                .map(|d| {
                    let yv = m.add_continuous(0.0, 1.0, 0.0);
                    let mut terms: Vec<(VarId, f64)> = x[t][d].iter().map(|&v| (v, 1.0)).collect();
                    terms.push((yv, -1.0));
                    m.add_constraint(&terms, Sense::Eq, 0.0);
                    yv
                })
                .collect()
        })
        .collect();
    // Each task exactly one (device, slot).
    for t in 0..n {
        let terms: Vec<(VarId, f64)> = (0..dev)
            .flat_map(|d| x[t][d].iter().map(|&v| (v, 1.0)))
            .collect();
        m.add_constraint(&terms, Sense::Eq, 1.0);
    }
    // Slot capacity and compactness (symmetry breaking).
    for d in 0..dev {
        for s in 0..slots {
            let terms: Vec<(VarId, f64)> = (0..n).map(|t| (x[t][d][s], 1.0)).collect();
            m.add_constraint(&terms, Sense::Le, 1.0);
            if s + 1 < slots {
                let mut terms: Vec<(VarId, f64)> = (0..n).map(|t| (x[t][d][s], 1.0)).collect();
                terms.extend((0..n).map(|t| (x[t][d][s + 1], -1.0)));
                m.add_constraint(&terms, Sense::Ge, 0.0);
            }
        }
    }
    // Slot start times.
    let tau: Vec<Vec<VarId>> = (0..dev)
        .map(|_d| {
            (0..slots)
                .map(|s| {
                    let ub = if s == 0 { 0.0 } else { h };
                    m.add_continuous(0.0, ub, 0.0)
                })
                .collect()
        })
        .collect();
    let sigma: Vec<VarId> = (0..n).map(|_| m.add_continuous(0.0, h, 0.0)).collect();
    for d in 0..dev {
        for s in 0..slots.saturating_sub(1) {
            // τ[d][s+1] ≥ τ[d][s] + Σ_t exec(t,d)·x[t][d][s]
            let mut terms = vec![(tau[d][s + 1], 1.0), (tau[d][s], -1.0)];
            terms.extend((0..n).map(|t| (x[t][d][s], -inst.exec[t][d])));
            m.add_constraint(&terms, Sense::Ge, 0.0);
        }
        for s in 0..slots {
            for t in 0..n {
                // σ_t ≥ τ[d][s] − H(1 − x)
                m.add_constraint(
                    &[(sigma[t], 1.0), (tau[d][s], -1.0), (x[t][d][s], -h)],
                    Sense::Ge,
                    -h,
                );
                // τ[d][s+1] ≥ σ_t + exec − H(1 − x)
                if s + 1 < slots {
                    m.add_constraint(
                        &[
                            (tau[d][s + 1], 1.0),
                            (sigma[t], -1.0),
                            (x[t][d][s], -(h + inst.exec[t][d])),
                        ],
                        Sense::Ge,
                        -h,
                    );
                }
            }
        }
    }
    // Communication and precedence.
    let comm = add_comm_vars(&mut m, &inst, &y);
    for (ei, e) in g.edge_ids().enumerate() {
        let edge = g.edge(e);
        let (u, v) = (edge.src.index(), edge.dst.index());
        let mut terms = vec![(sigma[v], 1.0), (sigma[u], -1.0), (comm[ei], -1.0)];
        terms.extend(exec_terms(&inst, &y, u, -1.0));
        m.add_constraint(&terms, Sense::Ge, 0.0);
    }
    // Makespan and area.
    let makespan = m.add_continuous(0.0, h, 1.0);
    for t in 0..n {
        let mut terms = vec![(makespan, 1.0), (sigma[t], -1.0)];
        terms.extend(exec_terms(&inst, &y, t, -1.0));
        m.add_constraint(&terms, Sense::Ge, 0.0);
    }
    add_area_rows(&mut m, &inst, &y);

    let result = solve_milp(
        &m,
        &SolveOptions {
            initial_objective: Some(inst.cpu_only),
            ..*opts
        },
    );
    finish(inst, y, result)
}

fn finish(inst: Inst<'_>, y: Vec<Vec<VarId>>, result: crate::branch::MilpResult) -> MilpMapping {
    let (mapping, objective) = match &result.values {
        Some(values) => (inst.decode(&y, values), result.objective.unwrap()),
        None => (Mapping::all_default(inst.g, inst.p), inst.cpu_only),
    };
    MilpMapping {
        mapping,
        objective,
        status: result.status,
        nodes: result.nodes,
        best_bound: result.best_bound,
    }
}

/// Dense reachability via DFS from every node (`n ≤ a few dozen` for the
/// MILP instances, so `O(V·E)` is fine).
fn reachability(g: &TaskGraph) -> Vec<Vec<bool>> {
    g.nodes()
        .map(|v| {
            let mask = ops::reachable_from(g, v);
            let mut row = mask;
            row[v.index()] = false; // strict reachability
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::MilpStatus;
    use spmap_graph::gen::{chain, fork_join, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, Task};
    use spmap_model::Evaluator;
    use std::time::Duration;

    fn opts(secs: u64) -> SolveOptions {
        SolveOptions {
            time_limit: Duration::from_secs(secs),
            ..SolveOptions::default()
        }
    }

    fn parallel_tasks(g: &mut TaskGraph) {
        for v in 0..g.node_count() {
            *g.task_mut(NodeId(v as u32)) = Task {
                name: format!("t{v}"),
                complexity: 20.0,
                data_points: 1.25e8,
                parallelizability: 1.0,
                streamability: 1.0,
                area: 160.0,
            };
        }
    }

    #[test]
    fn wgdp_device_balances_independent_tasks() {
        // Four independent (fork-join) perfectly parallel tasks: balancing
        // across CPU/GPU beats all-CPU in the load objective.
        let mut g = fork_join(4, 1e6);
        parallel_tasks(&mut g);
        let p = Platform::reference();
        let r = solve_wgdp_device(&g, &p, &opts(20));
        assert!(matches!(
            r.status,
            MilpStatus::Optimal | MilpStatus::Feasible
        ));
        let cpu_only: f64 = (0..6)
            .map(|t| cost::exec_time(&p, DeviceId(0), g.task(NodeId(t))))
            .sum();
        assert!(
            r.objective < cpu_only * 0.9,
            "load balancing must help: {} vs {}",
            r.objective,
            cpu_only
        );
        // Objective equals the max per-device load of the mapping.
        let mut load = vec![0.0f64; p.device_count()];
        for t in g.nodes() {
            load[r.mapping.device(t).index()] +=
                cost::exec_time(&p, r.mapping.device(t), g.task(t));
        }
        let max_load = load.iter().cloned().fold(0.0, f64::max);
        assert!((r.objective - max_load).abs() < 1e-6 * max_load.max(1.0));
    }

    #[test]
    fn wgdp_device_respects_area() {
        let mut g = fork_join(6, 1e6);
        for v in 0..8 {
            let t = g.task_mut(NodeId(v));
            t.complexity = 20.0;
            t.data_points = 1.25e8;
            t.parallelizability = 0.0;
            t.streamability = 16.0;
            t.area = 900.0; // two fit
        }
        let p = Platform::reference();
        let r = solve_wgdp_device(&g, &p, &opts(20));
        assert!(r.mapping.is_area_feasible(&g, &p));
    }

    #[test]
    fn wgdp_time_accounts_for_transfers() {
        // A chain of two tasks with a huge edge: WGDP-Time must keep them
        // co-located even though load balancing would split them.
        let mut g = chain(2, 4e9);
        parallel_tasks(&mut g);
        let p = Platform::reference();
        let r = solve_wgdp_time(&g, &p, &opts(20));
        assert_eq!(
            r.mapping.device(NodeId(0)),
            r.mapping.device(NodeId(1)),
            "chain must stay co-located with a 4 GB edge"
        );
    }

    #[test]
    fn wgdp_time_uses_streaming() {
        // Streamable serial chain: co-locating on the FPGA with streaming
        // beats everything; WGDP-Time is the only MILP that can see this.
        let mut g = chain(4, 1e9);
        for v in 0..4 {
            *g.task_mut(NodeId(v)) = Task {
                name: format!("t{v}"),
                complexity: 20.0,
                data_points: 1.25e8,
                parallelizability: 0.0,
                streamability: 8.0,
                area: 120.0,
            };
        }
        let p = Platform::reference();
        let rt = solve_wgdp_time(&g, &p, &opts(30));
        let fpga_count = (0..4)
            .filter(|&v| rt.mapping.device(NodeId(v)) == DeviceId(2))
            .count();
        assert!(
            fpga_count >= 3,
            "WGDP-Time should stream the chain on the FPGA, got {fpga_count} tasks there"
        );
        // And its internal objective must beat the all-CPU baseline
        // (streamed chain ~22s vs 33s sequential on the CPU).
        let cpu_only: f64 = (0..4)
            .map(|t| cost::exec_time(&p, DeviceId(0), g.task(NodeId(t))))
            .sum();
        assert!(rt.objective < cpu_only * 0.8, "objective {}", rt.objective);
    }

    #[test]
    fn zhou_liu_finds_optimal_tiny_instance() {
        let mut g = fork_join(2, 1e6);
        parallel_tasks(&mut g);
        let p = Platform::reference();
        let r = solve_zhou_liu(&g, &p, &opts(30));
        assert!(matches!(
            r.status,
            MilpStatus::Optimal | MilpStatus::Feasible
        ));
        // Mapping must be feasible and no worse than all-CPU internally.
        let cpu_only: f64 = (0..4)
            .map(|t| cost::exec_time(&p, DeviceId(0), g.task(NodeId(t))))
            .sum();
        assert!(r.objective <= cpu_only + 1e-9);
        assert!(r.mapping.is_area_feasible(&g, &p));
    }

    #[test]
    fn all_milps_never_worse_than_cpu_only_under_real_model() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(6, 3));
        augment(&mut g, &AugmentConfig::default(), 3);
        let mut ev = Evaluator::new(&g, &p);
        let cpu_only = ev.cpu_only_makespan();
        for (name, r) in [
            ("dev", solve_wgdp_device(&g, &p, &opts(10))),
            ("time", solve_wgdp_time(&g, &p, &opts(10))),
            ("zhou", solve_zhou_liu(&g, &p, &opts(10))),
        ] {
            assert!(r.mapping.is_area_feasible(&g, &p), "{name}");
            // The *internal* objective can't exceed the all-CPU incumbent.
            assert!(r.objective <= cpu_only * (1.0 + 1e-6), "{name}");
        }
    }

    #[test]
    fn milps_are_deterministic() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(6, 7));
        augment(&mut g, &AugmentConfig::default(), 7);
        let a = solve_wgdp_device(&g, &p, &opts(10));
        let b = solve_wgdp_device(&g, &p, &opts(10));
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn time_limit_returns_promptly_with_default_mapping_fallback() {
        let p = Platform::reference();
        let mut g = random_sp_graph(&SpGenConfig::new(14, 2));
        augment(&mut g, &AugmentConfig::default(), 2);
        let t0 = std::time::Instant::now();
        let r = solve_zhou_liu(
            &g,
            &p,
            &SolveOptions {
                time_limit: Duration::from_millis(300),
                ..SolveOptions::default()
            },
        );
        // The deadline-aware simplex abandons pivoting shortly after the
        // budget; allow slack for one pivot-check interval (debug builds
        // pivot slowly on the n=14 slot tableau).
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "took {:?}",
            t0.elapsed()
        );
        assert!(r.mapping.is_area_feasible(&g, &p));
    }

    #[test]
    fn reachability_matrix() {
        let g = chain(3, 1.0);
        let r = reachability(&g);
        assert!(r[0][1] && r[0][2] && r[1][2]);
        assert!(!r[1][0] && !r[2][0] && !r[0][0]);
    }
}
