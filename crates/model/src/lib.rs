//! # spmap-model — platform model and model-based makespan evaluation
//!
//! Reconstruction of the fully model-based evaluation environment the paper
//! builds on (Wilhelm et al., CCPE 2023 — ref. 5 of the paper; see
//! DESIGN.md §4 for the substitution notes).  It provides:
//!
//! * [`Platform`] — a heterogeneous platform description: CPU/GPU/FPGA
//!   devices plus a bandwidth/latency link table.  The calibrated
//!   [`Platform::reference`] mirrors the paper's evaluation system (AMD
//!   Epyc 7351P + Radeon RX Vega 56 + Xilinx XCZ7045).
//! * [`cost`] — per-task execution-time and per-edge transfer-time cost
//!   functions (Amdahl multicore scaling, GPU dispatch efficiency, FPGA
//!   streamability pipelining).
//! * [`Mapping`] — a task → device assignment.
//! * [`Evaluator`] — the deterministic `O((V+E) log V)` list-schedule
//!   simulation computing the makespan of a mapping, with FPGA dataflow
//!   streaming support; plus the paper's reporting metric (minimum over a
//!   breadth-first schedule and `k` random schedules) and the *relative
//!   improvement* measure of §IV-A.
//!
//! The evaluator is the workhorse of every mapping algorithm in this
//! workspace: the decomposition mappers re-evaluate it for every candidate
//! subgraph move, the genetic algorithm uses it as its fitness function,
//! and all reported numbers come from it.

pub mod artifact;
pub mod cost;
pub mod eval;
pub mod fingerprint;
pub mod gantt;
pub mod mapping;
mod multi;
pub mod platform;
pub mod schedule;

pub use artifact::{artifact_key, masked_artifact_key, EvalArtifact};
pub use eval::{
    relative_improvement, BfsCheckpoints, CheckpointSet, EvalScratch, EvalStats, EvalTables,
    Evaluator, Numbering, ScheduleCheckpoints, WindowSim, DEFAULT_CHECKPOINT_BUDGET_BYTES,
};
pub use fingerprint::{graph_fingerprint, platform_fingerprint, ContentHash, MappingFingerprint};
pub use gantt::{render_gantt, write_gantt};
pub use mapping::Mapping;
pub use platform::{Device, DeviceId, DeviceKind, DeviceSpec, Link, Platform};
pub use schedule::{OrderTables, ReportSchedules, SchedulePolicy};
