//! **E6** — Theorem 3: general (step) profit functions.
//!
//! Workloads carry decaying-staircase profit functions (full value up to a
//! first bound `x*`, then geometrically decaying steps). Three schedulers
//! compete:
//!
//! * the Section 5 scheduler `S-profit` (slot assignment, minimal valid
//!   deadline per profit step);
//! * plain S treating each job's flat prefix as a hard deadline (ignoring
//!   the cheaper later steps);
//! * the HDF baseline (work-conserving, profit-density greedy).
//!
//! Profit is compared against the fractional OPT upper bound (staircase
//! maxima). Expected shape: S-profit ≥ S on staircase workloads (it can
//! still monetize jobs whose best step is unreachable), and both are a
//! solid fraction of the bound; the mean assigned-deadline stretch
//! `D_i/x_i*` stays modest.

use crate::common::{over_seeds, run_on, seeds, SchedKind};
use dagsched_core::Speed;
use dagsched_engine::{simulate, SimConfig};
use dagsched_metrics::{table::f, Table};
use dagsched_opt::fractional_ub;
use dagsched_sched::SchedulerSProfit;
use dagsched_workload::{
    ArrivalProcess, DagFamily, DeadlinePolicy, ProfitPolicy, ProfitShape, WorkloadGen,
};

/// One instance of the E6 family.
pub fn instance(m: u32, n_jobs: usize, eps: f64, seed: u64) -> dagsched_workload::Instance {
    WorkloadGen {
        m,
        n_jobs,
        seed,
        arrivals: ArrivalProcess::poisson_for_load(2.0, 60.0, m),
        family: DagFamily::standard_mix((1, 6)),
        deadlines: DeadlinePolicy::SlackFactor(1.0 + eps),
        profits: ProfitPolicy::UniformDensity { lo: 2.0, hi: 8.0 },
        shape: ProfitShape::SteppedDecay {
            extra_steps: 3,
            time_factor: 1.8,
            value_factor: 0.45,
        },
    }
    .generate()
    .expect("valid workload")
}

/// Build the E6 table.
pub fn run(quick: bool) -> Vec<Table> {
    let m = 8u32;
    let n_jobs = if quick { 40 } else { 100 };
    let seed_list = seeds(quick);
    let eps = 1.0;

    let mut t = Table::new(
        "E6: general profit functions — S-profit vs S vs HDF (m=8, eps=1)",
        &[
            "scheduler",
            "profit (mean)",
            "frac of UB (mean)",
            "completed (mean)",
            "stretch D/x* (mean)",
        ],
    );

    // Seeds outermost: each seed's instance and bound are computed once, on
    // a worker, and every scheduler runs on it. A row sums over seeds in
    // seed order.
    let kinds = [SchedKind::S { epsilon: eps }, SchedKind::Hdf];
    let per_seed = over_seeds(&seed_list, |seed| {
        let inst = instance(m, n_jobs, eps, seed);
        let ub = fractional_ub(&inst, Speed::ONE);
        // S-profit, with its extra metrics.
        let mut s = SchedulerSProfit::with_epsilon(m, eps);
        let r = simulate(&inst, &mut s, &SimConfig::default()).expect("valid run");
        let stretch = if s.metrics().scheduled > 0 {
            s.metrics().stretch_sum / s.metrics().scheduled as f64
        } else {
            0.0
        };
        let sprofit = (r.total_profit, ub, r.completed(), stretch);
        let plain: Vec<_> = kinds
            .iter()
            .map(|kind| {
                let r = run_on(&inst, kind);
                (r.total_profit, ub, r.completed())
            })
            .collect();
        (sprofit, plain)
    });

    let sp_rows: Vec<_> = per_seed.iter().map(|(sprofit, _)| *sprofit).collect();
    let n = sp_rows.len() as f64;
    t.row(vec![
        "S-profit".into(),
        f(sp_rows.iter().map(|r| r.0 as f64).sum::<f64>() / n, 1),
        f(
            sp_rows
                .iter()
                .filter(|r| r.1 > 0)
                .map(|r| r.0 as f64 / r.1 as f64)
                .sum::<f64>()
                / n,
            3,
        ),
        f(sp_rows.iter().map(|r| r.2 as f64).sum::<f64>() / n, 1),
        f(sp_rows.iter().map(|r| r.3).sum::<f64>() / n, 2),
    ]);

    // Plain S and HDF.
    for (k, kind) in kinds.iter().enumerate() {
        let rows: Vec<_> = per_seed.iter().map(|(_, plain)| plain[k]).collect();
        t.row(vec![
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
            "-".into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedulers_earn_and_stay_below_the_bound() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.len(), 3);
        for i in 0..t.len() {
            let profit: f64 = t.cell(i, 1).parse().unwrap();
            let frac: f64 = t.cell(i, 2).parse().unwrap();
            assert!(profit > 0.0, "row {i} earned nothing");
            assert!(frac > 0.0 && frac <= 1.0 + 1e-9, "row {i}: frac {frac}");
        }
        // Deadline stretch is sane: within the staircase (≤ ~6x of x*).
        let stretch: f64 = t.cell(0, 4).parse().unwrap();
        assert!(stretch > 0.0 && stretch < 8.0, "stretch {stretch}");
    }
}
