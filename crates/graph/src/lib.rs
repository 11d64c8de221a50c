//! # spmap-graph — task-graph core
//!
//! Foundation crate of the `spmap` workspace. It provides:
//!
//! * [`TaskGraph`] — an immutable directed acyclic task graph with per-task
//!   attributes (complexity, parallelizability, streamability, area) and
//!   per-edge data volumes, stored in index-based adjacency lists,
//! * [`GraphBuilder`] — the mutable construction interface,
//! * [`ops`] — topological utilities (orders, layers, reachability,
//!   transitive reduction, critical paths, terminal normalization),
//! * [`gen`] — seeded random generators: series-parallel graphs grown by
//!   series/parallel operations (paper §IV-B), almost-series-parallel
//!   graphs (paper §IV-C), plus deterministic fixtures such as the
//!   paper's Fig. 1 and Fig. 2 graphs,
//! * [`augment()`] — the attribute augmentation scheme of paper §IV-B
//!   (lognormal complexity/streamability, Amdahl-aware parallelizability,
//!   area proportional to complexity, constant inter-task data flow),
//! * [`dist`] — minimal Box-Muller normal/lognormal sampling so that no
//!   dependency beyond `rand` is needed,
//! * [`dot`] — Graphviz export for examples and debugging,
//! * [`fingerprint`] — the order-sensitive [`ContentHash`] and the
//!   memoized content fingerprint of a [`TaskGraph`].
//!
//! The graph type is deliberately *not* generic: tasks in this project
//! always carry the model attributes of the paper's platform model, and a
//! concrete type keeps the hot evaluation loops monomorphic and
//! allocation-free.

pub mod augment;
pub mod dag;
pub mod dist;
pub mod dot;
pub mod fingerprint;
pub mod gen;
pub mod ops;

pub use augment::{augment, AugmentConfig};
pub use dag::{Edge, EdgeId, GraphBuilder, GraphError, NodeId, Task, TaskGraph};
pub use fingerprint::ContentHash;
pub use gen::{almost_sp_graph, random_sp_graph, SpGenConfig};
