//! # dagsched-metrics
//!
//! Reporting utilities for the experiment harness: summary statistics over
//! repeated runs ([`stats`]) and plain-text table / series rendering
//! ([`table`]) so every experiment binary prints the rows a paper table or
//! figure would contain, plus machine-readable CSV.

#![warn(missing_docs)]

pub mod plot;
pub mod stats;
pub mod table;

pub use plot::Series;
pub use stats::{RunningStats, Summary};
pub use table::Table;
