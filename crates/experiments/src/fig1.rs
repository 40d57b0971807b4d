//! **F1** — Figure 1 / Theorem 1: the semi-non-clairvoyant lower bound.
//!
//! The Figure 1 job is a chain of length `L = W/m` in parallel with an
//! independent block of `W − L` work. Two tables:
//!
//! 1. *Makespan gap vs m*: clairvoyant LPF achieves `W/m`; the adversarial
//!    semi-non-clairvoyant execution takes `(W−L)/m + L`, a ratio of exactly
//!    `2 − 1/m`.
//! 2. *Speed sweep*: the augmentation at which the adversarial execution
//!    meets the clairvoyant deadline `D = W/m` — it crosses precisely at
//!    `s = 2 − 1/m` (Theorem 1's threshold).

use dagsched_core::Speed;
use dagsched_dag::gen;
use dagsched_engine::{parallel_map, runner::default_threads};
use dagsched_metrics::{plot, table::f, Series, Table};
use dagsched_opt::{adversarial_makespan, lpf_makespan};

/// Machine sizes for the gap table.
pub fn m_grid(quick: bool) -> Vec<u32> {
    if quick {
        vec![2, 8]
    } else {
        vec![2, 4, 8, 16, 32, 64]
    }
}

/// Build both Figure-1 tables.
pub fn run(quick: bool) -> Vec<Table> {
    let chain_len = if quick { 40 } else { 120 };

    let mut gap = Table::new(
        "F1a: Figure 1 makespan gap (clairvoyant W/m vs adversarial (W-L)/m+L)",
        &[
            "m",
            "W",
            "L",
            "clairvoyant",
            "adversarial",
            "ratio",
            "theory 2-1/m",
        ],
    );
    // One run per `m` (and per speed below), in parallel; rows keep order.
    let runs = parallel_map(m_grid(quick), default_threads(), |&m| {
        let dag = gen::fig1(m, chain_len, 1).into_shared();
        let (w, l) = (dag.total_work().units(), dag.span().units());
        let friendly = lpf_makespan(dag.clone(), m, Speed::ONE).expect("valid run");
        let adv = adversarial_makespan(dag, m, Speed::ONE).expect("valid run");
        (m, w, l, friendly, adv)
    });
    for (m, w, l, friendly, adv) in runs {
        gap.row(vec![
            m.to_string(),
            w.to_string(),
            l.to_string(),
            friendly.to_string(),
            adv.to_string(),
            f(adv.as_f64() / friendly.as_f64(), 4),
            f(2.0 - 1.0 / m as f64, 4),
        ]);
    }

    // Speed sweep at a fixed m: find where the adversarial execution meets
    // the clairvoyant deadline W/m.
    let m = 8u32;
    let dag = gen::fig1(m, chain_len, 1).into_shared();
    let deadline = dag.total_work().units() / m as u64; // = W/m = clairvoyant
    let mut sweep = Table::new(
        "F1b: adversarial Fig.1 vs speed (deadline = clairvoyant W/m, m=8)",
        &[
            "speed",
            "adversarial_makespan",
            "meets_deadline",
            "theory_needs",
        ],
    );
    let theory = 2.0 - 1.0 / m as f64;
    let speeds = [(1u32, 1u32), (5, 4), (3, 2), (7, 4), (15, 8), (2, 1)]
        .map(|(num, den)| Speed::new(num, den).expect("positive"));
    let runs = parallel_map(speeds.to_vec(), default_threads(), |&s| {
        (
            s,
            adversarial_makespan(dag.clone(), m, s).expect("valid run"),
        )
    });
    for (s, adv) in runs {
        sweep.row(vec![
            format!("{:.3}", s.as_f64()),
            adv.to_string(),
            (adv.ticks() <= deadline).to_string(),
            f(theory, 3),
        ]);
    }

    vec![gap, sweep]
}

/// An ASCII rendition of Figure F1b: adversarial makespan vs speed, with
/// the deadline marked as a second (flat) series.
pub fn speed_plot(quick: bool) -> String {
    let m = 8u32;
    let chain_len = if quick { 40 } else { 120 };
    let dag = gen::fig1(m, chain_len, 1).into_shared();
    let deadline = (dag.total_work().units() / m as u64) as f64;
    let mut pts = Vec::new();
    for i in 0..=20u32 {
        let s = Speed::new(100 + 5 * i, 100).expect("positive");
        let adv = adversarial_makespan(dag.clone(), m, s).expect("valid run");
        pts.push((s.as_f64(), adv.as_f64()));
    }
    let lo = pts.first().expect("non-empty").0;
    let hi = pts.last().expect("non-empty").0;
    plot::render(
        "F1b: adversarial Fig.1 makespan vs speed (flat line = deadline W/m)",
        &[
            Series::new("adversarial makespan", pts),
            Series::new("deadline W/m", vec![(lo, deadline), (hi, deadline)]),
        ],
        64,
        16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_table_matches_theory_exactly() {
        let tables = run(true);
        let gap = &tables[0];
        for i in 0..gap.len() {
            let ratio: f64 = gap.cell(i, 5).parse().unwrap();
            let theory: f64 = gap.cell(i, 6).parse().unwrap();
            assert!(
                (ratio - theory).abs() < 1e-3,
                "row {i}: measured {ratio} vs theory {theory}"
            );
        }
    }

    #[test]
    fn speed_plot_renders_both_series() {
        let p = speed_plot(true);
        assert!(p.contains("adversarial makespan"));
        assert!(p.contains("deadline W/m"));
        assert!(p.contains('*') && p.contains('o'));
    }

    #[test]
    fn speed_sweep_crosses_at_theorem1_threshold() {
        let tables = run(true);
        let sweep = &tables[1];
        // Below 15/8 = 1.875 = 2 - 1/8: misses; at and above: meets.
        let mut last_below = None;
        let mut first_meet = None;
        for i in 0..sweep.len() {
            let s: f64 = sweep.cell(i, 0).parse().unwrap();
            let meets: bool = sweep.cell(i, 2).parse().unwrap();
            if meets && first_meet.is_none() {
                first_meet = Some(s);
            }
            if !meets {
                last_below = Some(s);
            }
        }
        let threshold = 2.0 - 1.0 / 8.0;
        assert!(last_below.expect("some speed misses") < threshold + 1e-9);
        assert!(first_meet.expect("some speed meets") >= threshold - 1e-9);
    }
}
