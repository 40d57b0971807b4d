//! **E7** — positioning: scheduler S vs classic online policies.
//!
//! The introduction's motivation for density-based admission control is
//! overload: deterministic policies without admission (EDF in particular)
//! collapse when more work arrives than can finish, because they keep
//! starting jobs they will never complete. The sweep raises the offered
//! load `ρ` from underload to heavy overload with mixed-density profits and
//! reports each policy's profit as a fraction of the fractional OPT bound.
//!
//! Expected shape: near `ρ ≤ 1` everyone is fine (work-conserving policies
//! often slightly ahead — admission control has nothing to protect);
//! as `ρ` grows the admission-controlled S degrades gracefully while
//! FIFO/EDF fall off; HDF (density greedy) sits between.

use crate::common::{over_seeds, run_on, seeds, SchedKind};
use dagsched_core::Speed;
use dagsched_metrics::{table::f, Table};
use dagsched_opt::fractional_ub;
use dagsched_workload::{
    ArrivalProcess, DagFamily, DeadlinePolicy, ProfitPolicy, ProfitShape, WorkloadGen,
};

/// One instance of the E7 family.
pub fn instance(m: u32, n_jobs: usize, load: f64, seed: u64) -> dagsched_workload::Instance {
    WorkloadGen {
        m,
        n_jobs,
        seed,
        arrivals: ArrivalProcess::poisson_for_load(load, 60.0, m),
        family: DagFamily::standard_mix((1, 6)),
        deadlines: DeadlinePolicy::SlackFactor(2.0),
        // Wide density spread: admission control has something to choose.
        profits: ProfitPolicy::ZipfDensity {
            classes: 16,
            s: 1.1,
            base: 16.0,
        },
        shape: ProfitShape::Deadline,
    }
    .generate()
    .expect("valid workload")
}

/// The scheduler lineup.
pub fn lineup() -> Vec<SchedKind> {
    vec![
        SchedKind::S { epsilon: 1.0 },
        SchedKind::SWc { epsilon: 1.0 },
        SchedKind::SNoAdmit { epsilon: 1.0 },
        SchedKind::Edf,
        SchedKind::EdfAc,
        SchedKind::Hdf,
        SchedKind::Llf,
        SchedKind::Fifo,
        SchedKind::Random { seed: 99 },
    ]
}

/// Build the E7 table: one row per (load, scheduler).
pub fn run(quick: bool) -> Vec<Table> {
    let m = 8u32;
    let n_jobs = if quick { 60 } else { 150 };
    let loads: Vec<f64> = if quick {
        vec![1.0, 6.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let seed_list = seeds(quick);

    let mut t = Table::new(
        "E7: profit as fraction of OPT bound, by offered load (m=8, slack 2.0)",
        &[
            "load",
            "scheduler",
            "profit (mean)",
            "frac of UB",
            "completed",
            "expired",
        ],
    );
    let kinds = lineup();
    for &load in &loads {
        // Seeds outermost: each seed's instance and bound are computed once,
        // on a worker, and every scheduler runs on it. A row sums over seeds
        // in seed order.
        let per_seed = over_seeds(&seed_list, |seed| {
            let inst = instance(m, n_jobs, load, seed);
            let ub = fractional_ub(&inst, Speed::ONE);
            kinds
                .iter()
                .map(|kind| {
                    let r = run_on(&inst, kind);
                    (r.total_profit, ub, r.completed(), r.expired())
                })
                .collect::<Vec<_>>()
        });
        for (k, kind) in kinds.iter().enumerate() {
            let rows: Vec<_> = per_seed.iter().map(|runs| runs[k]).collect();
            let n = rows.len() as f64;
            t.row(vec![
                f(load, 1),
                kind.label(),
                f(rows.iter().map(|r| r.0 as f64).sum::<f64>() / n, 1),
                f(
                    rows.iter()
                        .filter(|r| r.1 > 0)
                        .map(|r| r.0 as f64 / r.1 as f64)
                        .sum::<f64>()
                        / n,
                    3,
                ),
                f(rows.iter().map(|r| r.2 as f64).sum::<f64>() / n, 1),
                f(rows.iter().map(|r| r.3 as f64).sum::<f64>() / n, 1),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extract the "frac of UB" cell for a given load and scheduler label.
    fn frac(t: &dagsched_metrics::Table, load: f64, label: &str) -> f64 {
        for i in 0..t.len() {
            if t.cell(i, 0).parse::<f64>().unwrap() == load && t.cell(i, 1) == label {
                return t.cell(i, 3).parse().unwrap();
            }
        }
        panic!("row not found: {load} {label}");
    }

    #[test]
    fn everyone_earns_at_low_load_and_s_degrades_gracefully() {
        let tables = run(true);
        let t = &tables[0];
        // At load 1.0 every policy captures a decent fraction.
        for kind in lineup() {
            let v = frac(t, 1.0, &kind.label());
            assert!(v > 0.15, "{} at load 1: {v}", kind.label());
        }
        // At heavy overload the deadline-chasing and blind policies
        // collapse while S degrades gracefully.
        let s = frac(t, 6.0, "S(e=1)");
        for loser in ["EDF", "LLF", "RANDOM"] {
            let v = frac(t, 6.0, loser);
            assert!(
                s > v,
                "S must beat {loser} under overload: S {s} vs {loser} {v}"
            );
        }
    }
}
