//! # dagsched-fuzz
//!
//! Coverage-guided adversarial workload fuzzing with the invariant suite
//! as oracle (ROADMAP item 5; DESIGN.md §4.7).
//!
//! The PR2 checkers and the PR6 differential suites are only as strong as
//! the workloads that exercise them, and the adversarial shapes that
//! matter — Section 4's lower-bound families, density-band boundary ties,
//! Brent-tight chains, arrival/expiry collisions on fast-forward window
//! edges — are vanishingly rare under random generation. This crate
//! searches for them deliberately:
//!
//! * [`ir`] — a mutable, always-repairable instance representation;
//! * [`mutate`](mod@mutate) — structural mutators biased toward the adversarial
//!   families;
//! * [`coverage`] — cheap execution features (bands touched, admission
//!   reasons fired, event-collision masks, expiry-batch and window-width
//!   buckets) driving corpus retention;
//! * [`oracle`] — the three heads: invariant suite, naive-vs-fast byte
//!   equality, paused-vs-one-shot differential;
//! * [`minimize`](mod@minimize) — bounded delta-debugging of failing instances;
//! * [`run`] — the deterministic fuzz loop (fixed master seed ⇒
//!   byte-identical corpus trajectory);
//! * [`cli`] — the `dagsched fuzz` / `dagsched fuzz --replay` subcommand;
//! * [`corpus`] — the fixed seed corpus, one entry per family.
//!
//! The loop doubles as a perf workload: the `fuzz-campaign` workload of
//! `benchmark/run.sh` times it end to end.

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod coverage;
pub mod ir;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod run;

pub use corpus::{collision_instances, seed_corpus};
pub use coverage::{CoverageMap, CoverageObserver};
pub use ir::{FuzzInstance, FuzzJob};
pub use minimize::minimize;
pub use mutate::{mutate, Mutator};
pub use oracle::{
    run_exec, run_exec_with, ExecOutcome, InvariantProfile, OracleFailure, OracleSet, Subject,
};
pub use run::{FailureReport, FuzzConfig, FuzzReport, FuzzSession};
