//! # dagsched-perf
//!
//! The repository's end-to-end benchmark. Four closed-loop workloads drive
//! dagsched only through its public entry points — `simulate`,
//! `SimDriver`, `SimConfig`, the scheduler constructors, `SweepGrid`,
//! `FuzzSession`, `run_all` and `WorkloadGen` — and report end-to-end
//! metrics with tracing off (`dagsched-perf`) or per-layer metrics from a
//! separate traced run (`dagsched-perf-trace`, behind the `trace`
//! feature). See `README.md`.

pub mod args;
pub mod host;
mod instances;
pub mod measure;
#[cfg(feature = "trace")]
pub mod trace;
pub mod workloads;
