//! **E9** — node-pick sensitivity: "S arbitrarily picks ready nodes".
//!
//! The analysis of scheduler S is oblivious to *which* ready nodes execute
//! — Observation 2 only needs `n_i` processors for `x_i` steps. This
//! experiment quantifies that robustness: the same workload runs under
//! every engine node-pick policy, from the friendly clairvoyant
//! (critical-path-first) to the clairvoyant adversary (low-height-first),
//! for both S and the work-conserving HDF baseline.
//!
//! Expected shape: S's profit varies only mildly across policies (its
//! allotments already budget for the worst order), while a work-conserving
//! baseline shows a wider spread — it implicitly relies on lucky unfolding.

use crate::common::{over_seeds, run_on_cfg, seeds, SchedKind};
use dagsched_engine::{NodePick, SimConfig};
use dagsched_metrics::{table::f, Table};
use dagsched_workload::{
    ArrivalProcess, DagFamily, DeadlinePolicy, ProfitPolicy, ProfitShape, WorkloadGen,
};

/// One instance of the E9 family: DAGs with pronounced critical paths (so
/// node order matters) and moderate deadline slack.
pub fn instance(m: u32, n_jobs: usize, seed: u64) -> dagsched_workload::Instance {
    WorkloadGen {
        m,
        n_jobs,
        seed,
        arrivals: ArrivalProcess::poisson_for_load(1.5, 80.0, m),
        // Mix with a Fig.1-like member: chain-beside-block is exactly the
        // shape where picking order matters most.
        family: DagFamily::Mixed(vec![
            (
                1.0,
                DagFamily::Fig1 {
                    m,
                    chain_len: (6, 14),
                    grain: 1,
                },
            ),
            (
                1.0,
                DagFamily::ForkJoin {
                    segments: (2, 4),
                    width: (3, 8),
                    node_work: (1, 4),
                },
            ),
            (
                1.0,
                DagFamily::Layered {
                    layers: (3, 6),
                    width: (1, 5),
                    node_work: (1, 6),
                    p_edge: 0.3,
                },
            ),
        ]),
        deadlines: DeadlinePolicy::SlackFactor(1.8),
        profits: ProfitPolicy::UniformDensity { lo: 1.0, hi: 4.0 },
        shape: ProfitShape::Deadline,
    }
    .generate()
    .expect("valid workload")
}

/// The pick policies compared.
pub fn policies() -> Vec<(&'static str, NodePick)> {
    vec![
        ("critical-path", NodePick::CriticalPathFirst),
        ("fifo", NodePick::Fifo),
        ("lifo", NodePick::Lifo),
        ("random", NodePick::Random(7)),
        ("adversarial", NodePick::AdversarialLowHeight),
    ]
}

/// Build the E9 table.
pub fn run(quick: bool) -> Vec<Table> {
    let m = 8u32;
    let n_jobs = if quick { 50 } else { 120 };
    let seed_list = seeds(quick);

    let mut t = Table::new(
        "E9: node-pick sensitivity (m=8, slack 1.8)",
        &[
            "pick policy",
            "S profit",
            "S completed",
            "HDF profit",
            "HDF completed",
        ],
    );
    // Seeds outermost: each seed's instance is generated once and every
    // policy runs on it. A row sums over seeds in seed order.
    let policies = policies();
    let per_seed = over_seeds(&seed_list, |seed| {
        let inst = instance(m, n_jobs, seed);
        policies
            .iter()
            .map(|(_, pick)| {
                let cfg = SimConfig {
                    pick: pick.clone(),
                    ..SimConfig::default()
                };
                let rs = run_on_cfg(&inst, &SchedKind::S { epsilon: 1.0 }, &cfg);
                let rh = run_on_cfg(&inst, &SchedKind::Hdf, &cfg);
                (
                    rs.total_profit,
                    rs.completed(),
                    rh.total_profit,
                    rh.completed(),
                )
            })
            .collect::<Vec<_>>()
    });
    for (k, (name, _)) in policies.iter().enumerate() {
        let rows: Vec<_> = per_seed.iter().map(|runs| runs[k]).collect();
        let n = rows.len() as f64;
        t.row(vec![
            (*name).into(),
            f(rows.iter().map(|r| r.0 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.1 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.2 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.3 as f64).sum::<f64>() / n, 1),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_run_and_friendly_dominates_adversarial() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.len(), policies().len());
        let profit = |row: usize, col: usize| -> f64 { t.cell(row, col).parse().unwrap() };
        // Row 0 is critical-path-first, last row is adversarial.
        let last = t.len() - 1;
        for col in [1usize, 3] {
            assert!(
                profit(0, col) >= profit(last, col),
                "col {col}: friendly {} < adversarial {}",
                profit(0, col),
                profit(last, col)
            );
        }
        // Every cell is positive: no policy starves anyone completely.
        for i in 0..t.len() {
            assert!(profit(i, 1) > 0.0 && profit(i, 3) > 0.0);
        }
    }

    #[test]
    fn s_is_less_sensitive_than_hdf_relative_spread() {
        let tables = run(true);
        let t = &tables[0];
        let col: Vec<f64> = (0..t.len())
            .map(|i| t.cell(i, 1).parse().unwrap())
            .collect();
        let hdf: Vec<f64> = (0..t.len())
            .map(|i| t.cell(i, 3).parse().unwrap())
            .collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max
        };
        // Not a hard theorem — but on this family S's relative spread should
        // not be wildly larger than HDF's.
        assert!(
            spread(&col) <= spread(&hdf) + 0.25,
            "S spread {} vs HDF spread {}",
            spread(&col),
            spread(&hdf)
        );
    }
}
