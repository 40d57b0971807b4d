//! **E4** — Corollary 1: `(2+ε)`-speed competitiveness with *no* deadline
//! slack assumption.
//!
//! Deadlines here are tight — slack factor 1.0, i.e. `D_i ≈ (W−L)/m + L`,
//! violating Theorem 2's condition at unit speed. S runs at increasing
//! speeds `s` and its profit is compared against the exact OPT upper bound
//! at speed 1.
//!
//! Expected shape: around `s ≈ 1` the ratio is poor (the paper's lower
//! bound territory: even completing a single adversarial job is hard), it
//! improves steeply through `s ∈ (1, 2]`, and by `s ≥ 2 + ε` it flattens at
//! a small constant — Corollary 1's regime.

use crate::common::{over_seeds, run_at_speed, seeds, SchedKind};
use dagsched_core::Speed;
use dagsched_metrics::{stats::geo_mean, table::f, Table};
use dagsched_opt::exact_subset_ub;
use dagsched_workload::{
    ArrivalProcess, DagFamily, DeadlinePolicy, ProfitPolicy, ProfitShape, WorkloadGen,
};

/// One instance of the E4 family (tight deadlines).
pub fn instance(m: u32, n_jobs: usize, seed: u64) -> dagsched_workload::Instance {
    WorkloadGen {
        m,
        n_jobs,
        seed,
        arrivals: ArrivalProcess::poisson_for_load(1.5, 60.0, m),
        family: DagFamily::standard_mix((1, 6)),
        deadlines: DeadlinePolicy::SlackFactor(1.0),
        profits: ProfitPolicy::UniformDensity { lo: 1.0, hi: 4.0 },
        shape: ProfitShape::Deadline,
    }
    .generate()
    .expect("valid workload")
}

/// The speed grid.
pub fn speed_grid(quick: bool) -> Vec<Speed> {
    let fracs: &[(u32, u32)] = if quick {
        &[(1, 1), (2, 1), (5, 2), (3, 1)]
    } else {
        &[
            (1, 1),
            (5, 4),
            (3, 2),
            (7, 4),
            (2, 1),
            (9, 4),
            (5, 2),
            (11, 4),
            (3, 1),
            (7, 2),
        ]
    };
    fracs
        .iter()
        .map(|&(n, d)| Speed::new(n, d).expect("positive"))
        .collect()
}

/// Build the E4 table. The scheduler's `ε` is fixed at 1 — the *engine
/// speed* provides the augmentation, exactly as in Corollary 1's proof
/// (scaling every node's work is equivalent to giving the algorithm speed).
pub fn run(quick: bool) -> Vec<Table> {
    let m = 8u32;
    let n_jobs = 18;
    let seed_list = seeds(quick);

    let mut t = Table::new(
        "E4: S at speed s vs 1-speed OPT upper bound, tight deadlines (m=8)",
        &[
            "speed",
            "profit_S (mean)",
            "OPT_UB@1 (mean)",
            "S/UB (geo)",
            "completed (mean)",
        ],
    );
    // Seeds outermost: each seed's instance and its speed-independent bound
    // are computed once, on a worker, and S runs on it at every speed. A
    // row sums over seeds in seed order.
    let speeds = speed_grid(quick);
    let per_seed = over_seeds(&seed_list, |seed| {
        let inst = instance(m, n_jobs, seed);
        let ub = exact_subset_ub(&inst, Speed::ONE, 24).expect("small n");
        speeds
            .iter()
            .map(|&s| {
                let r = run_at_speed(
                    &inst,
                    &SchedKind::SHinted {
                        epsilon: 1.0,
                        hint: s.as_f64(),
                    },
                    s,
                );
                (r.total_profit, ub, r.completed())
            })
            .collect::<Vec<_>>()
    });

    for (k, &s) in speeds.iter().enumerate() {
        let rows: Vec<_> = per_seed.iter().map(|runs| runs[k]).collect();
        let profits: Vec<f64> = rows.iter().map(|(p, _, _)| *p as f64).collect();
        let fracs: Vec<f64> = rows
            .iter()
            .filter(|(_, u, _)| *u > 0)
            .map(|(p, u, _)| (*p as f64).max(1e-9) / *u as f64)
            .collect();
        let completed: f64 =
            rows.iter().map(|(_, _, c)| *c as f64).sum::<f64>() / rows.len() as f64;
        let ub_mean: f64 = rows.iter().map(|(_, u, _)| *u as f64).sum::<f64>() / rows.len() as f64;
        t.row(vec![
            f(s.as_f64(), 3),
            f(profits.iter().sum::<f64>() / profits.len() as f64, 1),
            f(ub_mean, 1),
            f(geo_mean(&fracs).unwrap_or(0.0), 3),
            f(completed, 1),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profit_fraction_improves_with_speed_and_is_substantial_past_two() {
        let tables = run(true);
        let t = &tables[0];
        let fracs: Vec<f64> = (0..t.len())
            .map(|i| t.cell(i, 3).parse().unwrap())
            .collect();
        // Directional: the fastest speed beats unit speed clearly.
        assert!(
            fracs.last().unwrap() > fracs.first().unwrap(),
            "speed must help: {fracs:?}"
        );
        // Corollary-1 regime: at s >= 2.5 the fraction is a healthy constant.
        assert!(
            *fracs.last().unwrap() > 0.4,
            "at 3x speed S should capture a solid fraction: {fracs:?}"
        );
    }
}
