//! # dagsched-engine
//!
//! A deterministic discrete-time simulator for online scheduling of DAG jobs
//! on `m` identical processors with rational speed augmentation.
//!
//! The engine enforces the paper's **semi-non-clairvoyant** information
//! model at the API level: a scheduler implementing [`OnlineScheduler`]
//! learns, per job, only `(W, L, profit function)` at arrival plus the
//! current *ready-node counts* each tick — never the DAG structure. Which
//! concrete ready nodes run is decided by the engine's [`NodePick`] policy
//! ("the scheduler arbitrarily picks ready nodes"), which is how the
//! adversarial executions of Theorem 1 are realized.
//!
//! Execution model (see DESIGN.md §4):
//!
//! * one tick = one unit of time; a speed-`num/den` processor completes
//!   `num` units of `den`-scaled work per tick — all arithmetic exact;
//!   related-machines platforms ([`MachineGroups`](dagsched_core::MachineGroups)
//!   via [`SimConfig::groups`]) scale every group to one common lcm
//!   denominator so heterogeneous progress stays integral;
//! * a node is executed by at most one processor per tick;
//! * within a tick, a processor finishing a node may continue on another
//!   ready node of the *same job* (configurable carry-over), which realizes
//!   Observation 1 for chains;
//! * a job completing its last node during tick `t` has completion time
//!   `t + 1` and earns `p(t + 1 − r)`;
//! * a deadline job expires (is abandoned and reported) at the first tick
//!   from which even immediate completion would earn only the profit tail.

#![warn(missing_docs)]

pub mod clock;
pub mod driver;
pub mod lifecycle;
pub mod observe;
pub mod pick;
pub mod platform;
pub mod result;
pub mod runner;
pub mod sched_api;
pub mod sim;
pub mod trace;

pub use clock::auto_horizon;
pub use driver::SimDriver;
pub use observe::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, NullObserver, Observers, SimObserver,
};
pub use pick::NodePick;
pub use result::{JobStatus, SimResult};
pub use runner::parallel_map;
pub use sched_api::{Allocation, JobInfo, OnlineScheduler, TickView, ViewDelta};
pub use sim::{simulate, simulate_observed, SimConfig};
pub use trace::{Trace, TraceStats};
