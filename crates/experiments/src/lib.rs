//! # dagsched-experiments
//!
//! The per-figure / per-table experiment harness (DESIGN.md §5). Each module
//! exposes `run(quick) -> Vec<Table>`; the binaries in `src/bin/` print the
//! rendered tables and their CSV form. `quick = true` shrinks seeds and
//! instance sizes for tests; `quick = false` is the configuration whose
//! numbers are recorded in EXPERIMENTS.md.
//!
//! | id | module | paper artifact |
//! |----|--------|----------------|
//! | T1 | [`constants`] | Tables 1–3: δ, c, b, a and the derived ratios |
//! | F1 | [`fig1`] | Figure 1 / Theorem 1: the 2−1/m lower bound |
//! | F2 | [`fig2`] | Figure 2: the (W−L)/m + L deadline floor |
//! | E3 | [`eps_sweep`] | Theorem 2: competitiveness vs deadline slack ε |
//! | E4 | [`speed_sweep`] | Corollary 1: (2+ε)-speed competitiveness |
//! | E5 | [`charging`] | Lemma 5: completed vs started profit |
//! | E6 | [`profit_general`] | Theorem 3: general profit functions |
//! | E7 | [`baselines_cmp`] | §1 positioning: S vs EDF/HDF/FIFO/LLF/random |
//! | E8 | [`ablation`] | design-choice ablations (admission, δ, c) |
//! | E9 | [`node_pick`] | node-pick ("arbitrary ready nodes") sensitivity |
//! | E10 | [`hpc_bench`] | HPC kernel task graphs (Cholesky/LU/stencil) |
//! | E11 | [`sporadic_rt`] | sporadic task sets: federated test vs throughput |

#![warn(missing_docs)]

pub mod ablation;
pub mod baselines_cmp;
pub mod charging;
pub mod cli;
pub mod common;
pub mod constants;
pub mod eps_sweep;
pub mod fig1;
pub mod fig2;
pub mod hpc_bench;
pub mod node_pick;
pub mod profit_general;
pub mod speed_sweep;
pub mod sporadic_rt;
pub mod sweep;

pub use common::SchedKind;
pub use sweep::{CellResult, SweepGrid, SweepResult};

/// Run every experiment (the `all` binary).
pub fn run_all(quick: bool) -> Vec<dagsched_metrics::Table> {
    let mut out = Vec::new();
    out.extend(constants::run(quick));
    out.extend(fig1::run(quick));
    out.extend(fig2::run(quick));
    out.extend(eps_sweep::run(quick));
    out.extend(speed_sweep::run(quick));
    out.extend(charging::run(quick));
    out.extend(profit_general::run(quick));
    out.extend(baselines_cmp::run(quick));
    out.extend(ablation::run(quick));
    out.extend(node_pick::run(quick));
    out.extend(hpc_bench::run(quick));
    out.extend(sporadic_rt::run(quick));
    out
}
