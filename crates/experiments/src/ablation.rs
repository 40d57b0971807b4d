//! **E8** — ablations of S's design choices.
//!
//! DESIGN.md calls out three load-bearing pieces of scheduler S:
//!
//! 1. **Admission control** (δ-good + band condition) — removed entirely in
//!    the `S-noadmit` variant;
//! 2. **The freshness constant δ** — swept across `ε/8, ε/4, 0.45ε`
//!    (the paper only requires `δ < ε/2`);
//! 3. **The band width c** — swept across `1×, 3×, 9×` of its minimum
//!    feasible value (larger `c` means wider bands ⇒ stricter admission).
//!
//! All variants run the same overloaded mixed-density workload; the table
//! reports earned profit so the contribution of each choice is visible.

use crate::common::{over_seeds, run_on, seeds, SchedKind};
use dagsched_metrics::{table::f, Table};
use dagsched_workload::{
    ArrivalProcess, DagFamily, DeadlinePolicy, ProfitPolicy, ProfitShape, WorkloadGen,
};

/// The E8 instance family: overloaded, with densities spanning ~5 decades so
/// several `[v, c·v)` bands are populated at once — the regime where the
/// band width `c` actually changes admission decisions.
pub fn instance(m: u32, n_jobs: usize, load: f64, seed: u64) -> dagsched_workload::Instance {
    WorkloadGen {
        m,
        n_jobs,
        seed,
        arrivals: ArrivalProcess::poisson_for_load(load, 60.0, m),
        family: DagFamily::standard_mix((1, 6)),
        deadlines: DeadlinePolicy::SlackFactor(2.0),
        profits: ProfitPolicy::LogUniformDensity { lo: 1.0, hi: 1e5 },
        shape: ProfitShape::Deadline,
    }
    .generate()
    .expect("valid workload")
}

/// The variant list for a given ε.
pub fn variants(eps: f64) -> Vec<SchedKind> {
    let mut out = vec![
        SchedKind::S { epsilon: eps },
        SchedKind::SWc { epsilon: eps },
        SchedKind::SNoAdmit { epsilon: eps },
    ];
    for delta_frac in [1.0 / 8.0, 1.0 / 4.0, 0.45] {
        let delta = eps * delta_frac;
        // Smallest c that both satisfies the paper's floor and keeps the
        // charging margin positive (mirrors AlgoParams::from_epsilon).
        let b = ((1.0 + 2.0 * delta) / (1.0 + eps)).sqrt();
        let c_min = (1.0 + 1.0 / (delta * eps)).max(1.0 + 2.0 * b / ((1.0 - b) * delta));
        for c_mult in [1.0, 3.0, 9.0] {
            out.push(SchedKind::SCustom {
                epsilon: eps,
                delta,
                c: c_min * c_mult,
            });
        }
    }
    out
}

/// Build the E8 table.
pub fn run(quick: bool) -> Vec<Table> {
    let m = 8u32;
    let n_jobs = if quick { 60 } else { 150 };
    let load = 4.0;
    let eps = 1.0;
    let seed_list = seeds(quick);

    let mut t = Table::new(
        "E8: ablations of S (m=8, load 4.0, eps=1)",
        &[
            "variant",
            "profit (mean)",
            "completed (mean)",
            "expired (mean)",
        ],
    );
    // Seeds outermost: each seed's instance is generated once and every
    // variant runs on it. A row sums over seeds in seed order.
    let kinds = variants(eps);
    let per_seed = over_seeds(&seed_list, |seed| {
        let inst = instance(m, n_jobs, load, seed);
        kinds
            .iter()
            .map(|kind| {
                let r = run_on(&inst, kind);
                (r.total_profit, r.completed(), r.expired())
            })
            .collect::<Vec<_>>()
    });
    for (k, kind) in kinds.iter().enumerate() {
        let rows: Vec<_> = per_seed.iter().map(|runs| runs[k]).collect();
        let n = rows.len() as f64;
        t.row(vec![
            kind.label(),
            f(rows.iter().map(|r| r.0 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.1 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.2 as f64).sum::<f64>() / n, 1),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_and_earn() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.len(), variants(1.0).len());
        for i in 0..t.len() {
            let profit: f64 = t.cell(i, 1).parse().unwrap();
            assert!(profit > 0.0, "variant {} earned nothing", t.cell(i, 0));
        }
    }

    #[test]
    fn variant_list_is_well_formed() {
        let v = variants(1.0);
        assert_eq!(v.len(), 3 + 9);
        // Every custom variant constructs valid params (build() would panic
        // otherwise).
        for kind in &v {
            let _ = kind.build(8);
        }
    }
}
