//! # spmap-bench — experiment harness for the paper's figures and tables
//!
//! One binary per figure/table of the paper's evaluation (§IV):
//!
//! | binary   | reproduces | content |
//! |----------|------------|---------|
//! | `fig3`   | Fig. 3     | decomposition mapping vs. three MILPs, 5–30 tasks |
//! | `fig4`   | Fig. 4     | HEFT/PEFT vs. decomposition (basic & FirstFit), 5–200 tasks |
//! | `fig5`   | Fig. 5     | NSGA-II vs. FirstFit decomposition, 5–100 tasks |
//! | `fig6`   | Fig. 6     | NSGA-II generation sweep at 200 tasks |
//! | `fig7`   | Fig. 7     | almost-SP sensitivity, 100 tasks + 0–200 extra edges |
//! | `table1` | Table I    | WfCommons-style benchmark sets |
//!
//! Every binary prints paper-style rows and writes CSV files under
//! `results/` (override with `SPMAP_RESULTS`).  Cells run in parallel via
//! `spmap-par`; per-algorithm execution times are measured inside the
//! cell, so sweep parallelism does not distort them.
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the cost claims the
//! paper's algorithm design leans on: linear-time evaluation, linear-time
//! decomposition, sub-10µs HEFT/PEFT, and the mapper/GA end-to-end costs.

pub mod algos;
pub mod chaos_load;
pub mod cli;
pub mod remap_load;
pub mod report;
pub mod sweep;
pub mod workload;

pub use algos::{run_algo, Algo, RunOutcome};
