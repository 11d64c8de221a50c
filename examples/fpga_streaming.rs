//! Why series-parallel beats single-node mapping: the FPGA streaming
//! local minimum (paper §III-B/C).
//!
//! Builds a pipeline of serial, streamable tasks where offloading any
//! *single* task to the FPGA loses to the transfer cost, so the
//! single-node mapper is stuck at the pure-CPU mapping — while the
//! series-parallel mapper moves the whole chain at once and streams it.
//!
//! ```sh
//! cargo run --release --example fpga_streaming
//! ```

use spmap::prelude::*;

fn main() {
    // An 8-stage pipeline moving 1 GB between stages; every stage is
    // serial (p = 0) but streamable.
    let mut builder = GraphBuilder::new();
    let first = builder.add_task(Task::default());
    let mut prev = first;
    for _ in 1..8 {
        let t = builder.add_task(Task::default());
        builder.add_edge(prev, t, 1e9).unwrap();
        prev = t;
    }
    let mut graph = builder.build().unwrap();
    for v in graph.nodes().collect::<Vec<_>>() {
        *graph.task_mut(v) = Task {
            name: format!("stage{}", v.0),
            complexity: 20.0,
            data_points: 1.25e8,
            parallelizability: 0.0,
            streamability: 7.0,
            area: 120.0,
        };
    }
    let platform = Platform::reference();
    let mut ev = Evaluator::new(&graph, &platform);
    let cpu_only = ev.cpu_only_makespan();
    println!("8-stage pipeline, pure CPU: {cpu_only:.2} s");

    // A single stage on the FPGA: transfers + slow un-streamed execution.
    let mut single = Mapping::all_default(&graph, &platform);
    single.set(NodeId(3), DeviceId(2));
    let ms = ev.makespan_bfs(&single).unwrap();
    println!(
        "one stage on the FPGA:      {ms:.2} s  ({}),",
        if ms > cpu_only {
            "worse — single moves are a local minimum"
        } else {
            "better"
        }
    );

    // The whole pipeline on the FPGA: stages stream into each other.
    let streamed = Mapping::uniform(graph.node_count(), DeviceId(2));
    let ms_streamed = ev.makespan_bfs(&streamed).unwrap();
    println!("whole pipeline streamed:    {ms_streamed:.2} s");

    // The single-node mapper cannot escape; the series-parallel mapper can.
    let sn = decomposition_map(&graph, &platform, &MapperConfig::single_node());
    let sp = decomposition_map(&graph, &platform, &MapperConfig::series_parallel());
    println!(
        "\nSingleNode mapper:     {:.2} s ({:.1}% improvement, {} iterations)",
        sn.makespan,
        100.0 * sn.relative_improvement(),
        sn.iterations
    );
    println!(
        "SeriesParallel mapper: {:.2} s ({:.1}% improvement, {} iterations)",
        sp.makespan,
        100.0 * sp.relative_improvement(),
        sp.iterations
    );
    assert!(sp.makespan < sn.makespan);
    println!("\nThe chain subgraph from the decomposition tree escapes the minimum.");

    // Visualize the streamed schedule: the pipeline stages overlap.
    let sched = ev
        .simulate(&sp.mapping, SchedulePolicy::Bfs)
        .expect("final mapping is feasible");
    println!("\nGantt of the series-parallel mapping:");
    print!(
        "{}",
        spmap::model::render_gantt(&graph, &platform, &sp.mapping, &sched, 72)
    );
}
