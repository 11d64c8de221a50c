//! Map realistic scientific workflows (paper §IV-D / Table I).
//!
//! Generates WfCommons-style instances of three families and compares
//! HEFT, PEFT and the FirstFit decomposition mappers on each.
//!
//! ```sh
//! cargo run --release --example workflow_mapping
//! ```

use std::time::Instant;

use spmap::prelude::*;
use spmap::workflows::augment_ps;

/// A named mapping algorithm, run on demand.
type Algorithm<'a> = (&'static str, Box<dyn Fn() -> Mapping + 'a>);

fn main() {
    let platform = Platform::reference();
    for (family, tasks) in [
        (Family::Montage, 120),
        (Family::Epigenomics, 150),
        (Family::Seismology, 60),
    ] {
        let mut graph = family.generate(tasks, 7);
        augment_ps(&mut graph, 7);
        let mut ev = Evaluator::new(&graph, &platform);
        let cpu_only = ev
            .report_makespan(&Mapping::all_default(&graph, &platform), 100, 0)
            .unwrap();
        println!(
            "\n=== {} ({} tasks, {} edges) — pure CPU {:.2} s ===",
            family.name(),
            graph.node_count(),
            graph.edge_count(),
            cpu_only
        );
        let algos: Vec<Algorithm> = vec![
            ("HEFT", Box::new(|| heft(&graph, &platform).mapping)),
            ("PEFT", Box::new(|| peft(&graph, &platform).mapping)),
            (
                "SNFirstFit",
                Box::new(|| {
                    decomposition_map(&graph, &platform, &MapperConfig::sn_first_fit()).mapping
                }),
            ),
            (
                "SPFirstFit",
                Box::new(|| {
                    decomposition_map(&graph, &platform, &MapperConfig::sp_first_fit()).mapping
                }),
            ),
        ];
        for (name, run) in algos {
            let t = Instant::now();
            let mapping = run();
            let elapsed = t.elapsed();
            let ms = ev
                .report_makespan(&mapping, 100, 0)
                .unwrap_or(cpu_only)
                .min(cpu_only);
            println!(
                "  {:<12} improvement {:>5.1}%  ({:?})",
                name,
                100.0 * relative_improvement(cpu_only, ms),
                elapsed
            );
        }
    }
    println!("\n(seismology is transfer-dominated: no algorithm accelerates it — paper §IV-D)");
}
