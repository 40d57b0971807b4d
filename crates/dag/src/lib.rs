//! # dagsched-dag
//!
//! The parallel-job model of the paper: each job is an independent **DAG** of
//! sequential nodes. A node is *ready* once all predecessors completed; the
//! job is *complete* once every node finished. Two parameters govern the
//! theory:
//!
//! * total **work** `W` — the sum of node processing times (execution time on
//!   one processor), and
//! * **span** (critical-path length) `L` — the longest path, weighted by node
//!   processing time (execution time on infinitely many processors).
//!
//! This crate provides:
//!
//! * [`DagJobSpec`] / [`DagBuilder`] — validated, immutable DAG descriptions
//!   with precomputed `W`, `L`, topological order and node *heights*
//!   (longest-path-to-sink, used by clairvoyant/adversarial policies);
//! * [`UnfoldState`] — the runtime view used by the execution engine: node
//!   progress, the dynamically unfolding ready set (the **only** structural
//!   information a semi-non-clairvoyant scheduler may observe), and
//!   remaining-work/span queries;
//! * [`gen`] — generators for the shapes used in the experiments, including
//!   the adversarial constructions of the paper's Figures 1 and 2;
//! * [`hpc`] — task graphs of real parallel kernels (tiled Cholesky/LU,
//!   stencils, wavefronts) for the E10 benchmark experiment.

#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod gen;
pub mod hpc;
pub mod spec;
pub mod unfold;

pub use spec::{DagBuilder, DagJobSpec};
pub use unfold::UnfoldState;
