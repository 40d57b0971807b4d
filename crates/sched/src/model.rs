//! What scheduler S computes for a job at arrival, in exact arithmetic.
//!
//! [`JobModel::derive`] is the one derivation [`SchedulerS`](crate::SchedulerS),
//! S-wc and [`SNoAdmission`](crate::SNoAdmission) share, and
//! [`SchedulerSProfit`](crate::SchedulerSProfit) builds on its helpers.
//! With `s` the speed hint and `g = 1+2δ`, a job of work `W`, span `L`
//! and relative deadline `D` run on `n` processors has budget
//! `x = (W − L + L·n)/(s·n)` (Observation 2 on `W/s`, `L/s`), so
//!
//! * the allotment `n_i = ⌈(W−L)·g/(D·s − L·g)⌉` is the least `n ≥ 1` with
//!   `n·D·s ≥ g·(W − L + L·n)`, which is δ-goodness `D ≥ g·x` at `n`: an
//!   admissible job (one with such an `n ≤ m`) is always δ-good. A job
//!   with `D·s < L·g` has none; at `D·s = L·g` only a chain (`W = L`)
//!   does, `n = 1`;
//! * the density is `p/(x·n) = s·p/(W − L + L·n)`, a [`Density`] once the
//!   common factor `s` is dropped;
//! * the job is δ-fresh at `t` iff `d − t ≥ (1+δ)·x`, i.e. iff the integer
//!   slack `d − t` is at least `⌈(1+δ)·x⌉`.

use dagsched_core::{cmp_products, least, AlgoParams, Density, Dyadic, Time};
use dagsched_engine::JobInfo;

/// The constants the derivation reads, as exact dyadics: `1+2δ`, `1+δ`,
/// `1+ε` and the speed hint, with the machine size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rules {
    pub(crate) m: u32,
    pub(crate) good: Dyadic,
    pub(crate) fresh: Dyadic,
    pub(crate) one_eps: Dyadic,
    pub(crate) speed: Dyadic,
}

impl Rules {
    pub(crate) fn new(m: u32, params: &AlgoParams, speed: f64) -> Rules {
        Rules {
            m,
            good: Dyadic::new(params.good_factor()),
            fresh: Dyadic::new(params.fresh_factor()),
            one_eps: Dyadic::new(1.0 + params.epsilon()),
            speed: Dyadic::new(speed),
        }
    }
}

/// S's arrival-time quantities for one job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobModel {
    /// The allotment `n_i`, at most `m`.
    pub(crate) allot: u32,
    /// Some `n ≤ m` is δ-good: the job can ever be started.
    pub(crate) admissible: bool,
    /// The density `v_i`.
    pub(crate) density: Density,
    /// `⌈(1+δ)·x_i⌉`: the least slack `d_i − t` at which the job is δ-fresh.
    pub(crate) fresh_slack: u64,
    /// The profit `p_i`.
    pub(crate) profit: u64,
    /// The absolute deadline `r_i + D_i`.
    pub(crate) abs_deadline: Time,
}

impl JobModel {
    /// Derive the model of `info` under `rules`. A general profit function
    /// is read through its flat prefix: deadline `x*`, profit the flat
    /// value.
    pub(crate) fn derive(info: &JobInfo, rules: &Rules) -> JobModel {
        let (d_rel, profit) = info
            .profit
            .as_deadline()
            .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
        let (w, l, d) = (info.work.units(), info.span.units(), d_rel.ticks());
        let Rules {
            m,
            good: g,
            speed: s,
            ..
        } = *rules;
        // Where `D·s ≤ g·L` the guess means nothing (negative, huge or
        // NaN); the exact search still finds no `n`, or `n = 1` for a chain
        // at `D·s = g·L`.
        let (gf, sf) = (g.value(), s.value());
        let guess = (w - l) as f64 * gf / (d as f64 * sf - l as f64 * gf);
        let n = least(guess, m as u64, |n| {
            let lhs = n as u128 * d as u128;
            cmp_products(lhs, s.mant(), s.exp(), g.mant(), xn(w, l, n), g.exp()).is_ge()
        });
        let (allot, admissible) = n.map_or((m, false), |n| (n as u32, true));
        let xn = xn(w, l, allot as u64);
        JobModel {
            allot,
            admissible,
            density: Density::new(profit, xn),
            fresh_slack: ceil_budget(rules.fresh, xn, allot, s),
            profit,
            abs_deadline: info.arrival.saturating_add(d),
        }
    }
}

/// `x·n·s = W − L + L·n`, in work units.
pub(crate) fn xn(w: u64, l: u64, n: u64) -> u128 {
    (w - l) as u128 + l as u128 * n as u128
}

/// `⌈f·x⌉` for the budget `x = xn/(s·n)`: the least integer `t` with
/// `t·s·n ≥ f·xn`, saturating at `u64::MAX`.
pub(crate) fn ceil_budget(f: Dyadic, xn: u128, n: u32, s: Dyadic) -> u64 {
    let guess = f.value() * xn as f64 / (s.value() * n as f64);
    least(guess, u64::MAX, |t| {
        let lhs = t as u128 * n as u128;
        cmp_products(lhs, s.mant(), s.exp(), f.mant(), xn, f.exp()).is_ge()
    })
    .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{JobId, Work};
    use dagsched_workload::StepProfitFn;

    fn info(w: u64, l: u64, d: u64, p: u64) -> JobInfo {
        JobInfo {
            id: JobId(0),
            arrival: Time(5),
            work: Work(w),
            span: Work(l),
            profit: StepProfitFn::deadline(Time(d), p),
        }
    }

    fn eps1() -> AlgoParams {
        AlgoParams::from_epsilon(1.0).unwrap()
    }

    #[test]
    fn allotment_is_the_exact_ceiling() {
        // g = 1.5: n = ⌈59·1.5/(24 − 1.5)⌉ = ⌈3.93⌉ = 4, x·n = 59 + 4.
        let j = JobModel::derive(&info(60, 1, 24, 60), &Rules::new(8, &eps1(), 1.0));
        assert_eq!((j.allot, j.admissible), (4, true));
        assert_eq!(j.density, Density::new(60, 63));
        // x = 63/4 = 15.75, so ⌈1.25·x⌉ = ⌈19.6875⌉ = 20.
        assert_eq!(j.fresh_slack, 20);
        assert_eq!(j.abs_deadline, Time(29));
        // 28·1.5/(35 − 21) = 3 exactly: the ceiling is 3. In f64,
        // 35/1.5 − 14 rounds down to 9.333333333333332 and the quotient up
        // to 3.0000000000000004, whose ceiling was 4.
        let j = JobModel::derive(&info(42, 14, 35, 9), &Rules::new(8, &eps1(), 1.0));
        assert_eq!((j.allot, j.density), (3, Density::new(9, 28 + 42)));
        // Under ε = 0.7 the f64 1+2δ = 1.35 lies just above 27/20, so
        // n = 1 misses D = 243 with x = 180 by a hair: n = 2.
        let eps07 = AlgoParams::from_epsilon(0.7).unwrap();
        let j = JobModel::derive(&info(180, 3, 243, 1), &Rules::new(8, &eps07, 1.0));
        assert_eq!((j.allot, j.admissible), (2, true));
        // D·s = L·g leaves no allotment: inadmissible, at n = m.
        let j = JobModel::derive(&info(30, 20, 30, 9), &Rules::new(8, &eps1(), 1.0));
        assert_eq!((j.allot, j.admissible), (8, false));
        // More than m processors needed.
        let j = JobModel::derive(&info(1000, 1, 4, 9), &Rules::new(8, &eps1(), 1.0));
        assert_eq!((j.allot, j.admissible), (8, false));
        // A chain runs on one processor from `D = (1+2δ)·L = 75` on.
        let j = JobModel::derive(&info(50, 50, 75, 9), &Rules::new(8, &eps1(), 1.0));
        assert_eq!(
            (j.allot, j.admissible, j.density),
            (1, true, Density::new(9, 50))
        );
        let j = JobModel::derive(&info(50, 50, 74, 9), &Rules::new(8, &eps1(), 1.0));
        assert_eq!((j.allot, j.admissible), (8, false));
    }

    #[test]
    fn fresh_slack_is_the_exact_ceiling() {
        // ε = 0.5: n = 3 and x = 7/3 + 3 = 16/3, so (1+δ)·x = 1.125·16/3
        // = 6 exactly. In f64 the product rounded above 6, to a ceiling 7.
        let eps05 = AlgoParams::from_epsilon(0.5).unwrap();
        let j = JobModel::derive(&info(10, 3, 8, 1), &Rules::new(8, &eps05, 1.0));
        assert_eq!((j.allot, j.fresh_slack), (3, 6));
    }

    /// The model of a job `(W, L)` on `m` processors with Theorem 2's
    /// deadline `D = ⌈(1+ε)·((W − L)/m + L)⌉`, exactly the least integer
    /// with `D·m ≥ (1+ε)·(W − L + L·m)`; and that deadline.
    fn theorem2_job(params: &AlgoParams, w: u64, l: u64, m: u32) -> (JobModel, u128) {
        let one_eps = Dyadic::new(1.0 + params.epsilon());
        let d = ceil_budget(one_eps, xn(w, l, m as u64), m, Dyadic::new(1.0));
        let j = JobModel::derive(&info(w, l, d, 1), &Rules::new(m, params, 1.0));
        assert!(
            j.admissible,
            "W = {w}, L = {l}, m = {m}: D = {d} is feasible"
        );
        (j, d as u128)
    }

    /// Lemma 1: with a Theorem-2 deadline, `n_i ≤ b²m`. The integral
    /// allotment keeps `AllotmentChecker`'s +1 slack: `n ≤ b²m + 1`, i.e.
    /// `(n − 1)·(1+ε) ≤ (1+2δ)·m`, since `b² = (1+2δ)/(1+ε)`.
    #[test]
    fn lemma1_allotment_bound() {
        let p = AlgoParams::from_epsilon(0.5).unwrap();
        let [g, e] = [p.good_factor(), 1.0 + p.epsilon()].map(Dyadic::new);
        for m in [2u32, 4, 16, 64] {
            for (w, l) in [(1000, 10), (1000, 999), (64, 1), (5000, 2500)] {
                let n = theorem2_job(&p, w, l, m).0.allot as u128;
                assert!(
                    cmp_products(n - 1, e.mant(), e.exp(), m as u128, g.mant(), g.exp()).is_le(),
                    "n = {n} > b²m + 1 for W = {w}, L = {l}, m = {m}"
                );
            }
        }
    }

    /// Lemma 2: every job with a Theorem-2 deadline is δ-good at its
    /// allotment, `D ≥ (1+2δ)·x`, i.e. `D·n ≥ (1+2δ)·x·n`.
    #[test]
    fn lemma2_delta_good() {
        let p = AlgoParams::from_epsilon(1.0).unwrap();
        let g = Dyadic::new(p.good_factor());
        for m in [2u32, 8, 32] {
            for (w, l) in [(300, 3), (100, 50), (10, 9)] {
                let (j, d) = theorem2_job(&p, w, l, m);
                let (n, xn) = (j.allot as u128, j.density.xn());
                assert!(
                    cmp_products(d * n, 1, 0, g.mant(), xn, g.exp()).is_ge(),
                    "x·(1+2δ) > D = {d} for W = {w}, L = {l}, m = {m}"
                );
            }
        }
    }

    /// Lemma 3: `x_i·n_i ≤ a·W_i`. The integral allotment keeps a slack of
    /// one extra processor for `x` steps: `x·n ≤ a·W + x`, i.e.
    /// `x·n·(n − 1) ≤ a·W·n`.
    #[test]
    fn lemma3_processor_step_inflation() {
        let p = AlgoParams::from_epsilon(0.75).unwrap();
        let a = Dyadic::new(p.a());
        for m in [4u32, 12] {
            for (w, l) in [(400, 4), (400, 100), (400, 399)] {
                let j = theorem2_job(&p, w, l, m).0;
                let (n, xn) = (j.allot as u128, j.density.xn());
                assert!(
                    cmp_products(xn, n - 1, 0, a.mant(), w as u128 * n, a.exp()).is_le(),
                    "x·n = {xn} exceeds a·W + x for W = {w}, L = {l}, m = {m}"
                );
            }
        }
    }

    /// `x` as the exact fraction `(num, den)` it is.
    fn frac(x: f64) -> (u128, u128) {
        let d = Dyadic::new(x);
        match d.exp() {
            e if e >= 0 => (d.mant() << e, 1),
            e => (d.mant(), 1 << -e),
        }
    }

    /// Every derivation of S's arrival quantities against the definition,
    /// written as brute force over exact fractions: the allotment is the
    /// least `n ∈ 1..=m` with `n·D·s ≥ (1+2δ)(W − L + L·n)` (admissible
    /// iff one exists, else `m`), the fresh slack the least integer `σ`
    /// with `σ·n·s ≥ (1+δ)(W − L + L·n)`, the density `p/(W − L + L·n)`.
    /// S-profit's allotment reads `max(D, (1+ε)(W − L + L·m)/m)` for `D`.
    /// The grid holds every chain boundary `D·s = (1+2δ)·L` it can reach.
    #[test]
    fn derivations_match_the_brute_force_definition() {
        use crate::paper::SJob;
        use crate::SchedulerSProfit;
        let p = 7;
        for eps in [0.25, 0.5, 1.0, 2.0] {
            let params = AlgoParams::from_epsilon(eps).unwrap();
            let (g, f, e) = (
                frac(params.good_factor()),
                frac(params.fresh_factor()),
                frac(1.0 + eps),
            );
            for m in 1..=8u32 {
                let profit = SchedulerSProfit::new(m, params);
                for speed in [1.0, 1.5, 2.0] {
                    let (rules, s) = (Rules::new(m, &params, speed), frac(speed));
                    for (w, l, d) in (1..=12u64)
                        .flat_map(|w| (1..=w).map(move |l| (w, l)))
                        .flat_map(|(w, l)| (1..=30u64).map(move |d| (w, l, d)))
                    {
                        let at = format!("W={w} L={l} D={d} m={m} eps={eps} s={speed}");
                        let (wl, l_, d_, m_) = ((w - l) as u128, l as u128, d as u128, m as u128);
                        let xn = |n: u128| wl + l_ * n;
                        let n = (1..=m_).find(|&n| n * d_ * s.0 * g.1 >= g.0 * xn(n) * s.1);
                        let (allot, admissible) = n.map_or((m_, false), |n| (n, true));
                        let sigma = (f.0 * xn(allot) * s.1).div_ceil(f.1 * allot * s.0) as u64;
                        let density = Density::new(p, xn(allot));
                        let want = (allot as u32, admissible, density);

                        let info = info(w, l, d, p);
                        let j = JobModel::derive(&info, &rules);
                        assert_eq!((j.allot, j.admissible, j.density), want, "derive {at}");
                        assert_eq!(j.fresh_slack, sigma, "derive fresh slack {at}");

                        let v = dagsched_verify::job_model(&info, &params, m, speed);
                        assert_eq!((v.allot, v.admissible, v.density), want, "verify {at}");
                        assert_eq!(v.delta_good, admissible, "verify δ-good {at}");
                        let fresh = |t: u64| v.covers(t, params.fresh_factor());
                        assert!(fresh(sigma) && !fresh(sigma - 1), "verify fresh {at}");

                        if speed != 1.0 {
                            continue;
                        }
                        let t = SJob::derive(&info, &params, m);
                        assert_eq!((t.allot, t.admissible, t.density), want, "PaperS {at}");
                        assert_eq!(t.delta_good, admissible, "PaperS δ-good {at}");
                        let fd = Dyadic::new(params.fresh_factor());
                        assert_eq!(
                            (t.fresh(sigma, fd), t.fresh(sigma - 1, fd)),
                            (admissible, false),
                            "PaperS fresh {at}"
                        );

                        let b = xn(m_);
                        let n = (1..=m_).find(|&n| {
                            n * d_ * g.1 >= g.0 * xn(n)
                                || n * b * e.0 * g.1 >= g.0 * m_ * xn(n) * e.1
                        });
                        let allot = n.unwrap_or(m_) as u32;
                        assert_eq!(profit.allotment(w, l, d), allot, "S-profit {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn speed_hint_scales_the_budget_not_the_density_order() {
        // At s = 2 the same job needs n = ⌈59·1.5/(48 − 1.5)⌉ = 2.
        let j = JobModel::derive(&info(60, 1, 24, 60), &Rules::new(8, &eps1(), 2.0));
        assert_eq!(j.allot, 2);
        assert_eq!(j.density, Density::new(60, 61));
        // x = 61/(2·2) = 15.25, ⌈1.25·15.25⌉ = ⌈19.06⌉ = 20.
        assert_eq!(j.fresh_slack, 20);
        let (f, s) = (Dyadic::new(1.25), Dyadic::new(2.0));
        assert_eq!(ceil_budget(f, 64, 2, s), 20, "1.25·16 is exact");
    }
}
