//! # dagsched-sched
//!
//! The paper's contribution — scheduler **S** — plus the baselines it is
//! compared against.
//!
//! * [`bands`] — the density-band population implementing condition (2):
//!   for every job `J_j` in the population, the total allotment of jobs
//!   with density in `[v_j, c·v_j)` stays ≤ `b·m` (Observation 3 is an
//!   invariant of this structure). It holds S's running queue and each of
//!   S-profit's slot populations; `fits_population` is the condition
//!   written out, the reference both are tested against;
//! * [`deadline`] — [`SchedulerS`]: the throughput algorithm of Section 3
//!   (jobs with deadlines and fixed profits);
//! * [`profit`] — [`SchedulerSProfit`]: the general-profit algorithm of
//!   Section 5 (slot assignment + smallest valid deadline search);
//! * [`baselines`] — EDF, highest-density-first, FIFO, least-laxity and
//!   random work-conserving schedulers, an admission-less ablation of S,
//!   and the literature baselines MOLD-LIST (moldable list scheduling) and
//!   EQUI (non-clairvoyant equipartition);
//! * [`edf_ac`] — [`EdfAc`]: EDF behind a demand-bound admission test;
//! * [`federated`] — federated scheduling of sporadic DAG task sets (the
//!   related-work real-time substrate), with its schedulability test;
//! * [`slab`] — dense `JobId`-indexed storage used by the allocation-free
//!   scheduler hot paths;
//! * [`paper`] — [`PaperS`] and [`PaperSProfit`]: S and S-profit
//!   transcribed rule by rule from Sections 3 and 5, unoptimised, which the
//!   differential suites hold the production schedulers byte-identical to.
//!
//! All schedulers implement
//! [`OnlineScheduler`](dagsched_engine::OnlineScheduler) and are therefore
//! semi-non-clairvoyant by construction — they can only see what the engine
//! shows them.

#![warn(missing_docs)]

pub mod bands;
pub mod baselines;
pub mod deadline;
pub mod edf_ac;
pub mod federated;
mod model;
pub mod paper;
pub mod profit;
pub mod slab;

pub use baselines::{
    AggregateBlind, Edf, EquiPartition, Fifo, GreedyDensity, LeastLaxity, MoldableList,
    RandomOrder, SNoAdmission,
};
pub use deadline::{SchedulerS, SchedulerSMetrics};
pub use edf_ac::EdfAc;
pub use federated::{federated_assignment, FederatedAssignment, FederatedScheduler};
pub use paper::{PaperS, PaperSProfit};
pub use profit::SchedulerSProfit;
