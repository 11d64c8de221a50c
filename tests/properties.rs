//! Cross-crate property-based tests on the core invariants.
//!
//! Written as explicit seeded case loops (the offline environment has no
//! `proptest`); each property sweeps a deterministic grid of sizes and
//! seeds, so failures reproduce exactly.

use spmap::decomp::{decompose_forest, is_two_terminal_sp, CutPolicy};
use spmap::graph::ops;
use spmap::prelude::*;

/// Every generated SP graph is recognized by the reduction oracle and
/// decomposes into a single tree covering all edges.
#[test]
fn generated_sp_graphs_decompose_cleanly() {
    for case in 0..24u64 {
        let nodes = 2 + (case * 7 % 58) as usize;
        let seed = case * 199;
        let g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        assert!(is_two_terminal_sp(&g), "nodes {nodes} seed {seed}");
        let norm = ops::normalize_terminals(&g);
        let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
        assert!(r.is_series_parallel(), "nodes {nodes} seed {seed}");
        assert_eq!(
            r.forest.node(r.core).edge_count as usize,
            g.edge_count(),
            "nodes {nodes} seed {seed}"
        );
        r.forest.validate(&norm.graph);
    }
}

/// The forest algorithm and the reduction oracle agree on almost-SP
/// graphs, and the forest always partitions the edge set.
#[test]
fn forest_agrees_with_oracle() {
    for case in 0..24u64 {
        let nodes = 4 + (case * 5 % 36) as usize;
        let extra = (case * 3 % 25) as usize;
        let seed = case * 83;
        let g = almost_sp_graph(&SpGenConfig::new(nodes, seed), extra);
        let norm = ops::normalize_terminals(&g);
        let r = decompose_forest(&norm.graph, norm.source, norm.sink, CutPolicy::default());
        assert_eq!(
            r.is_series_parallel(),
            is_two_terminal_sp(&norm.graph),
            "nodes {nodes} extra {extra} seed {seed}"
        );
        let total: u32 = r
            .forest
            .roots
            .iter()
            .map(|&t| r.forest.node(t).edge_count)
            .sum();
        assert_eq!(total as usize, norm.graph.edge_count());
    }
}

/// The mapper never returns a mapping worse than pure CPU, never
/// violates the area budget, and its makespan history is decreasing.
#[test]
fn mapper_invariants() {
    let p = Platform::reference();
    for case in 0..24u64 {
        let nodes = 5 + (case % 25) as usize;
        let seed = case * 41;
        let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        let r = decomposition_map(&g, &p, &MapperConfig::sp_first_fit());
        assert!(
            r.makespan <= r.cpu_only_makespan * (1.0 + 1e-9),
            "nodes {nodes} seed {seed}"
        );
        assert!(r.mapping.is_area_feasible(&g, &p));
        let mut prev = r.cpu_only_makespan;
        for &h in &r.history {
            assert!(
                h < prev,
                "history not decreasing (nodes {nodes} seed {seed})"
            );
            prev = h;
        }
    }
}

/// The evaluator's makespan is never below the per-task lower bound
/// (the most favorable device for every task, no waiting at all), and
/// reported improvements stay in [0, 1).
#[test]
fn evaluator_bounds() {
    let p = Platform::reference();
    for case in 0..24u64 {
        let nodes = 3 + (case * 11 % 37) as usize;
        let seed = case * 59;
        let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        let mut ev = Evaluator::new(&g, &p);
        let cpu_only = ev.cpu_only_makespan();
        let mapping = heft(&g, &p).mapping;
        let ms = ev.makespan_bfs(&mapping).unwrap();
        // Lower bound: the longest single task on its fastest device.
        let lb = g
            .nodes()
            .map(|v| {
                p.device_ids()
                    .map(|d| ev.exec_time(v, d))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max);
        assert!(ms + 1e-9 >= lb, "nodes {nodes} seed {seed}");
        let imp = relative_improvement(cpu_only, ms.min(cpu_only));
        assert!((0.0..1.0).contains(&imp));
    }
}

/// `random_topo_order` is deterministic per seed, and the two call sites
/// that derive random schedules from it — `spmap_graph::gen` directly
/// and `spmap_model::schedule::priority_ranks` through `StdRng` — agree
/// exactly: the rank vector of `RandomTopo { seed }` is the inverse
/// permutation of the order drawn with the same seed.
#[test]
fn random_topo_order_is_deterministic_across_call_sites() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spmap::graph::gen::random_topo_order;
    use spmap::model::schedule::priority_ranks;

    for case in 0..18u64 {
        let nodes = 6 + (case * 9 % 40) as usize;
        let graph_seed = case * 71 + 5;
        let g = match case % 3 {
            0 => random_sp_graph(&SpGenConfig::new(nodes, graph_seed)),
            1 => almost_sp_graph(&SpGenConfig::new(nodes, graph_seed), (case % 6) as usize),
            _ => {
                use spmap::graph::gen::{layered_random, LayeredConfig};
                layered_random(&LayeredConfig {
                    layers: 2 + (case % 5) as usize,
                    width: 2 + (case % 4) as usize,
                    density: 0.4,
                    seed: graph_seed,
                    edge_bytes: 10e6,
                })
            }
        };
        for order_seed in [0u64, 1, case * 17 + 3] {
            // Same seed, same RNG construction ⇒ same order, twice.
            let a = random_topo_order(&g, &mut StdRng::seed_from_u64(order_seed));
            let b = random_topo_order(&g, &mut StdRng::seed_from_u64(order_seed));
            assert_eq!(a, b, "case {case} order_seed {order_seed}");
            // The model crate's rank derivation is the inverse of the
            // same draw: rank[order[i]] == i.
            let ranks = priority_ranks(&g, SchedulePolicy::RandomTopo { seed: order_seed });
            for (i, &v) in a.iter().enumerate() {
                assert_eq!(
                    ranks[v.index()] as usize,
                    i,
                    "case {case} order_seed {order_seed}: rank/order mismatch at {i}"
                );
            }
        }
    }
}

/// Every schedule of a `ReportSchedules` set — BFS and each seeded
/// random order — is a valid topological order of the DAG: the pop
/// order is a permutation and respects every edge.
#[test]
fn every_report_schedule_is_a_valid_topological_order() {
    use spmap::model::ReportSchedules;

    for case in 0..18u64 {
        let nodes = 5 + (case * 7 % 45) as usize;
        let seed = case * 131 + 1;
        let g = match case % 3 {
            0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
            1 => almost_sp_graph(&SpGenConfig::new(nodes, seed), (case % 8) as usize),
            _ => {
                use spmap::graph::gen::{layered_random, LayeredConfig};
                layered_random(&LayeredConfig {
                    layers: 2 + (case % 4) as usize,
                    width: 2 + (case % 3) as usize,
                    density: 0.5,
                    seed,
                    edge_bytes: 25e6,
                })
            }
        };
        let set = ReportSchedules::new(&g, 2 + (case % 4) as usize, seed ^ 0x5eed);
        for (s, order) in set.iter().enumerate() {
            assert_eq!(order.len(), g.node_count(), "case {case} schedule {s}");
            let mut seen = vec![false; g.node_count()];
            for &v in order.pop_order() {
                assert!(
                    !seen[v as usize],
                    "case {case} schedule {s}: duplicate pop {v}"
                );
                seen[v as usize] = true;
            }
            for e in g.edge_ids() {
                let edge = g.edge(e);
                assert!(
                    order.pop_position(edge.src) < order.pop_position(edge.dst),
                    "case {case} schedule {s}: edge order violated"
                );
                assert!(
                    order.ranks()[edge.src.index()] < order.ranks()[edge.dst.index()],
                    "case {case} schedule {s}: rank order violated"
                );
            }
        }
    }
}

/// Multi-move delta windows are sound: for random multi-assignment
/// deltas under every report schedule, the window start — the minimum
/// earliest-read position over all changed nodes — never exceeds any
/// changed node's earliest read position, and a windowed replay from it
/// reproduces the from-scratch simulation bit for bit (i.e. the window
/// covers every position at which the delta can first be observed).
#[test]
fn multi_move_delta_window_covers_every_changed_node() {
    use spmap::model::{CheckpointSet, EvalScratch, EvalTables, ReportSchedules, WindowSim};

    let p = Platform::reference();
    for case in 0..12u64 {
        let nodes = 10 + (case * 9 % 40) as usize;
        let seed = case * 61 + 7;
        let mut g = match case % 2 {
            0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
            _ => almost_sp_graph(&SpGenConfig::new(nodes, seed), (case % 5) as usize),
        };
        augment(&mut g, &AugmentConfig::default(), seed);
        let n = g.node_count();
        let tables = EvalTables::new(&g, &p);
        let mut scratch = EvalScratch::for_tables(&tables);
        let schedules = ReportSchedules::new(&g, 2, seed ^ 0xfeed);
        let mut ckpts = CheckpointSet::for_schedules(&schedules, n);
        let base = Mapping::all_default(&g, &p);
        for s in 0..schedules.len() {
            tables
                .makespan_order_checkpointed(
                    &mut scratch,
                    &base,
                    schedules.order(s),
                    ckpts.get_mut(s),
                )
                .expect("default mapping is feasible");
        }
        // Random multi-assignment deltas: k nodes to varying devices.
        for trial in 0..8u64 {
            let k = 1 + (trial % 4) as usize;
            let mut candidate = base.clone();
            let mut changed = Vec::new();
            for j in 0..k {
                let v = NodeId(((trial * 31 + j as u64 * 17 + case * 7) % n as u64) as u32);
                let d = DeviceId((1 + (trial + j as u64) % 2) as u32);
                if candidate.device(v) != d && !changed.contains(&v) {
                    candidate.set(v, d);
                    changed.push(v);
                }
            }
            if changed.is_empty() || !candidate.is_area_feasible(&g, &p) {
                continue;
            }
            for s in 0..schedules.len() {
                let order = schedules.order(s);
                let from_pos = changed
                    .iter()
                    .map(|&v| order.earliest_read_pos(v))
                    .min()
                    .expect("non-empty delta");
                // The window start covers (is at or before) every
                // changed node's earliest read position.
                for &v in &changed {
                    assert!(
                        from_pos <= order.earliest_read_pos(v),
                        "case {case} trial {trial} schedule {s}: window misses {v:?}"
                    );
                }
                let full = tables
                    .makespan_with_ranks(&mut scratch, &candidate, order.ranks())
                    .expect("area-feasible");
                let windowed = tables.makespan_order_window(
                    &mut scratch,
                    &candidate,
                    order,
                    ckpts.get(s),
                    from_pos,
                    f64::INFINITY,
                );
                assert_eq!(
                    windowed,
                    WindowSim::Done(full),
                    "case {case} trial {trial} schedule {s}: windowed replay drifted"
                );
            }
        }
    }
}

/// Suffix-sparse snapshots are a pure storage change: a windowed replay
/// restoring from a suffix-sparse checkpoint store reproduces the same
/// replay from a dense store bit for bit — same makespan, same
/// start/finish arrays — at arbitrary window positions.
#[test]
fn suffix_sparse_restores_match_dense_bitwise() {
    use spmap::model::{EvalScratch, EvalTables, ScheduleCheckpoints, WindowSim};

    let p = Platform::reference();
    for case in 0..10u64 {
        let nodes = 12 + (case * 11 % 44) as usize;
        let seed = case * 67 + 9;
        let mut g = match case % 2 {
            0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
            _ => {
                use spmap::graph::gen::{layered_random, LayeredConfig};
                layered_random(&LayeredConfig {
                    layers: 3 + (case % 4) as usize,
                    width: 3 + (case % 3) as usize,
                    density: 0.4,
                    seed,
                    edge_bytes: 20e6,
                })
            }
        };
        augment(&mut g, &AugmentConfig::default(), seed);
        let n = g.node_count();
        let m = p.device_count();
        // Suffix layouts need the pop-order tables (the default).
        let tables = EvalTables::new(&g, &p);
        assert!(tables.suffix_windows(), "pop-order numbering is default");
        let every = (n / 6).max(2);
        let mut dense = ScheduleCheckpoints::zeroed(n, m, every);
        let mut suffix = ScheduleCheckpoints::zeroed_with_layout(n, m, every, true);
        let mut s_dense = EvalScratch::for_tables(&tables);
        let mut s_suffix = EvalScratch::for_tables(&tables);
        let base = Mapping::all_default(&g, &p);
        let ms_d = tables
            .makespan_bfs_checkpointed(&mut s_dense, &base, &mut dense)
            .expect("default mapping is feasible");
        let ms_s = tables
            .makespan_bfs_checkpointed(&mut s_suffix, &base, &mut suffix)
            .expect("default mapping is feasible");
        assert_eq!(ms_d, ms_s, "case {case}: layouts drifted on record");
        assert!(!dense.is_suffix() && suffix.is_suffix(), "case {case}");
        assert!(
            suffix.byte_len() < dense.byte_len(),
            "case {case}: suffix layout must shrink the store \
             ({} vs {} bytes)",
            suffix.byte_len(),
            dense.byte_len()
        );
        for trial in 0..8u64 {
            // A random single-move delta and a random *valid* window
            // position: anywhere at or before the delta's earliest
            // effect (extra replayed prefix must not change bits).
            let v = NodeId(((trial * 29 + case * 13) % n as u64) as u32);
            let mut cand = base.clone();
            cand.set(v, DeviceId((1 + trial % 2) as u32));
            if cand.device(v) == base.device(v) || !cand.is_area_feasible(&g, &p) {
                continue;
            }
            let latest = tables.earliest_read_pos(v);
            let from_pos = ((trial * 37 + case * 19) % (latest as u64 + 1)) as usize;
            let wd = tables.makespan_order_window(
                &mut s_dense,
                &cand,
                tables.bfs_order(),
                &dense,
                from_pos,
                f64::INFINITY,
            );
            let ws = tables.makespan_order_window(
                &mut s_suffix,
                &cand,
                tables.bfs_order(),
                &suffix,
                from_pos,
                f64::INFINITY,
            );
            assert_eq!(
                wd, ws,
                "case {case} trial {trial} from {from_pos}: layouts disagree"
            );
            // Both scratches went through identical operation
            // sequences, so the full per-node arrays — replayed suffix
            // and untouched prefix alike — must match exactly.
            assert_eq!(
                s_dense.start_times(),
                s_suffix.start_times(),
                "case {case} trial {trial} from {from_pos}: start drift"
            );
            assert_eq!(
                s_dense.finish_times(),
                s_suffix.finish_times(),
                "case {case} trial {trial} from {from_pos}: finish drift"
            );
            // And the replay itself is exact against a fresh full sim.
            let mut fresh = EvalScratch::for_tables(&tables);
            let full = tables
                .makespan_bfs(&mut fresh, &cand)
                .expect("area-feasible");
            assert_eq!(
                wd,
                WindowSim::Done(full),
                "case {case} trial {trial} from {from_pos}: replay drifted"
            );
        }
    }
}

/// Schedule-order renumbering is a pure layout change: simulations on
/// pop-order-numbered tables reproduce identity-numbered tables bit for
/// bit — under the BFS schedule and under every random report schedule
/// (the heap path) — for random layered and series-parallel graphs.
#[test]
fn renumbered_tables_match_identity_bitwise() {
    use spmap::model::{EvalScratch, EvalTables, Numbering, ReportSchedules};

    let p = Platform::reference();
    for case in 0..12u64 {
        let nodes = 10 + (case * 9 % 46) as usize;
        let seed = case * 53 + 5;
        let mut g = match case % 2 {
            0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
            _ => {
                use spmap::graph::gen::{layered_random, LayeredConfig};
                layered_random(&LayeredConfig {
                    layers: 3 + (case % 5) as usize,
                    width: 2 + (case % 4) as usize,
                    density: 0.35,
                    seed,
                    edge_bytes: 30e6,
                })
            }
        };
        augment(&mut g, &AugmentConfig::default(), seed);
        let n = g.node_count();
        let t_id = EvalTables::with_numbering(&g, &p, Numbering::Identity);
        let t_pop = EvalTables::with_numbering(&g, &p, Numbering::PopOrder);
        let mut s_id = EvalScratch::for_tables(&t_id);
        let mut s_pop = EvalScratch::for_tables(&t_pop);
        // Per-task execution times are translated at the boundary.
        for v in g.nodes() {
            for d in p.device_ids() {
                assert_eq!(
                    t_id.exec_time(v, d),
                    t_pop.exec_time(v, d),
                    "case {case}: exec_time({v:?}, {d:?}) drifted"
                );
            }
        }
        let schedules = ReportSchedules::new(&g, 3, seed ^ 0xab1e);
        let mut mappings = vec![Mapping::all_default(&g, &p), heft(&g, &p).mapping];
        for trial in 0..4u64 {
            let mut m = mappings[0].clone();
            for j in 0..(1 + trial % 3) {
                let v = NodeId(((trial * 23 + j * 11 + case * 7) % n as u64) as u32);
                m.set(v, DeviceId(((trial + j) % 2 + 1) as u32));
            }
            if m.is_area_feasible(&g, &p) {
                mappings.push(m);
            }
        }
        for (k, mapping) in mappings.iter().enumerate() {
            assert_eq!(
                t_id.makespan_bfs(&mut s_id, mapping),
                t_pop.makespan_bfs(&mut s_pop, mapping),
                "case {case} mapping {k}: BFS makespan drifted"
            );
            for s in 0..schedules.len() {
                let ranks = schedules.order(s).ranks();
                assert_eq!(
                    t_id.makespan_with_ranks(&mut s_id, mapping, ranks),
                    t_pop.makespan_with_ranks(&mut s_pop, mapping, ranks),
                    "case {case} mapping {k} schedule {s}: makespan drifted"
                );
            }
        }
    }
}

/// HEFT and PEFT schedules respect precedence and the area budget on
/// arbitrary workflow shapes.
#[test]
fn list_schedulers_are_safe_on_workflows() {
    use spmap::workflows::augment_ps;
    let p = Platform::reference();
    for case in 0..18u64 {
        let tasks = 20 + (case * 13 % 60) as usize;
        let seed = case * 29;
        let family = Family::all()[(seed % 9) as usize];
        let mut g = family.generate(tasks, seed);
        augment_ps(&mut g, seed);
        for r in [heft(&g, &p), peft(&g, &p)] {
            assert!(
                r.mapping.is_area_feasible(&g, &p),
                "tasks {tasks} seed {seed}"
            );
            let mut pos = vec![0usize; g.node_count()];
            for (i, &v) in r.order.iter().enumerate() {
                pos[v.index()] = i;
            }
            for e in g.edge_ids() {
                let edge = g.edge(e);
                assert!(
                    pos[edge.src.index()] < pos[edge.dst.index()],
                    "tasks {tasks} seed {seed}"
                );
            }
        }
    }
}
