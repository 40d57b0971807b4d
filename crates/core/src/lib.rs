//! # dagsched-core
//!
//! Foundation types shared by every crate in the `dagsched` workspace, which
//! reproduces *"Scheduling Parallelizable Jobs Online to Maximize Throughput"*
//! (Agrawal, Li, Lu, Moseley — SPAA 2017).
//!
//! This crate deliberately has **zero dependencies**: everything downstream —
//! the DAG model, the simulator, the paper's scheduler — builds on the exact
//! integer arithmetic defined here, so simulations are bit-reproducible.
//!
//! Contents:
//!
//! * [`Time`] / [`Work`] — discrete simulation time and integral work units.
//!   At speed 1, one processor completes one work unit per tick, so the two
//!   scales coincide (the paper's convention).
//! * [`Speed`] — exact rational speed augmentation (`s`-speed analysis).
//! * [`MachineGroups`] — related-machines platform descriptions (groups of
//!   processors sharing a speed), with the exact lcm-scaled arithmetic that
//!   keeps heterogeneous progress integral.
//! * [`JobId`] / [`NodeId`] — lightweight identifiers.
//! * [`Density`], [`Dyadic`] and [`cmp_products`] — exact arithmetic for
//!   the paper's decisions: densities as integer ratios, the `f64`
//!   constants as the dyadic rationals they are.
//! * [`AlgoParams`] — the constants of the paper's Tables 1–3
//!   (`ε, δ, c, b, a`) together with the derived competitive-ratio constant,
//!   validated at construction.
//! * [`rng`] — a deterministic xoshiro256\*\* PRNG plus the handful of
//!   distributions the workload generators need.

#![warn(missing_docs)]

pub mod error;
pub mod exact;
pub mod groups;
pub mod ids;
pub mod params;
pub mod rng;
pub mod speed;
pub mod time;

pub use error::SchedError;
pub use exact::{cmp_products, least, BandBottom, BandTop, Density, Dyadic};
pub use groups::{scale_work, ticks_to_complete, MachineGroup, MachineGroups, MAX_PROCESSORS};
pub use ids::{JobId, NodeId};
pub use params::AlgoParams;
pub use rng::Rng64;
pub use speed::Speed;
pub use time::{Time, Work};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SchedError>;
