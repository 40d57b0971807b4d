//! Independent re-derivation of scheduler S's arrival-time quantities.
//!
//! The checkers deliberately do **not** ask the scheduler what it computed —
//! they recompute allotment, budget, density and δ-goodness from the same
//! [`JobInfo`] the scheduler saw, from the paper's definitions. Every
//! quantity is exact: `x_i·n_i = W − L + L·n_i` is an integer, the density
//! an integer ratio ([`Density`]), and the constants `1+2δ`, `1+δ` and the
//! speed hint the dyadic rationals their `f64` values are, so band-boundary
//! and deadline-boundary comparisons have one answer. A scheduler whose
//! internal bookkeeping drifts from the paper's definitions is then caught
//! by the disagreement, which is the whole point of an independent oracle.

use dagsched_core::{cmp_products, least, AlgoParams, Density, Dyadic, JobId, Time};
use dagsched_engine::JobInfo;

/// The paper's per-job quantities, recomputed from first principles.
#[derive(Debug, Clone, Copy)]
pub struct JobModel {
    /// Allotment `n_i` (rounded up, floored at 1, capped at `m`).
    pub allot: u32,
    /// `s·x_i·n_i = W − L + L·n_i`, the budget times the allotment in work
    /// units (at speed hint `s`).
    pub xn: u128,
    /// The speed hint `s` the model was derived under.
    pub speed: Dyadic,
    /// Density `v_i = p_i / (x_i · n_i)`, up to the common factor `s`.
    pub density: Density,
    /// Maximum profit `p_i` (the flat prefix value for non-deadline jobs).
    pub profit: u64,
    /// Release time `r_i`.
    pub arrival: Time,
    /// Relative deadline `D_i`.
    pub rel_deadline: u64,
    /// Absolute deadline `r_i + D_i`.
    pub abs_deadline: Time,
    /// Whether any allotment `≤ m` meets the `(1+2δ)` contraction.
    pub admissible: bool,
    /// δ-good: admissible and `D_i ≥ (1+2δ)·x_i`.
    pub delta_good: bool,
}

impl JobModel {
    /// Does a span of `ticks` cover `factor · x_i`? With
    /// `x_i = xn/(s·n_i)`: `ticks·s·n_i ≥ factor·xn`, exactly.
    pub fn covers(&self, ticks: u64, factor: f64) -> bool {
        covers(ticks, factor, self.xn, self.allot as u64, self.speed)
    }

    /// The budget `x_i`, approximately, for messages.
    pub fn x(&self) -> f64 {
        self.xn as f64
            / (self.allot as f64 * self.speed.mant() as f64 * 2f64.powi(self.speed.exp()))
    }
}

/// `ticks·s·n ≥ factor·xn`.
fn covers(ticks: u64, factor: f64, xn: u128, n: u64, s: Dyadic) -> bool {
    let f = Dyadic::new(factor);
    let lhs = ticks as u128 * n as u128;
    cmp_products(lhs, s.mant(), s.exp(), f.mant(), xn, f.exp()).is_ge()
}

/// A model-based checker's job models and the configuration it derives
/// them under: the scheduler's constants, its speed hint and the machine
/// size. Models are indexed by [`JobId::index`] like the engine's own
/// per-job state: ids are dense, so a vector grown at arrival replaces a
/// hash map.
#[derive(Debug)]
pub(crate) struct Models {
    pub(crate) params: AlgoParams,
    speed_hint: f64,
    pub(crate) m: u32,
    table: Vec<Option<JobModel>>,
}

impl Models {
    pub(crate) fn new(params: AlgoParams) -> Models {
        Models {
            params,
            speed_hint: 1.0,
            m: 0,
            table: Vec::new(),
        }
    }

    pub(crate) fn set_speed_hint(&mut self, s: f64) {
        assert!(s.is_finite() && s > 0.0);
        self.speed_hint = s;
    }

    /// The model of an arriving job under this configuration.
    pub(crate) fn derive(&self, info: &JobInfo) -> JobModel {
        job_model(info, &self.params, self.m, self.speed_hint)
    }

    /// Record an arriving job's model: each checker's `on_job_arrival`
    /// passes its own [`derive`](Self::derive), while
    /// [`InvariantSuite`](crate::InvariantSuite) derives once and hands the
    /// model to all three model-based checkers.
    pub(crate) fn insert(&mut self, id: JobId, model: JobModel) {
        let i = id.index();
        if self.table.len() <= i {
            self.table.resize(i + 1, None);
        }
        self.table[i] = Some(model);
    }

    pub(crate) fn get(&self, id: JobId) -> Option<&JobModel> {
        self.table.get(id.index())?.as_ref()
    }

    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some(slot) = self.table.get_mut(id.index()) {
            *slot = None;
        }
    }
}

/// Recompute S's arrival-time quantities for one job.
///
/// `speed_hint` mirrors [`SchedulerS::with_speed_hint`]: when S was told it
/// runs on `s`-speed processors, the checker must scale `W` and `L` the same
/// way or every allotment diverges.
///
/// [`SchedulerS::with_speed_hint`]: https://docs.rs/dagsched-sched
pub fn job_model(info: &JobInfo, params: &AlgoParams, m: u32, speed_hint: f64) -> JobModel {
    let (d_rel, profit) = info
        .profit
        .as_deadline()
        .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
    let (w, l, d) = (info.work.units(), info.span.units(), d_rel.ticks());
    let s = Dyadic::new(speed_hint);
    let xn = |n: u64| (w - l) as u128 + l as u128 * n as u128;
    let good = |n: u64| covers(d, params.good_factor(), xn(n), n, s);

    // n_i = (W−L)/s / (D/(1+2δ) − L/s), rounded up: the least n ≥ 1 with
    // D ≥ (1+2δ)·x_i(n). None exists when D·s < (1+2δ)·L; at equality only
    // a chain (W = L) qualifies, with n = 1. The fractional allotment is a
    // first guess for the search; at those edges it means nothing.
    let (gf, w_l) = (params.good_factor(), (w - l) as f64 / speed_hint);
    let guess = w_l / (d as f64 / gf - l as f64 / speed_hint);
    let n = least(guess, m as u64, good);
    let (allot, admissible) = match n {
        Some(n) => (n as u32, true),
        None => (m, false),
    };

    JobModel {
        allot,
        xn: xn(allot as u64),
        speed: s,
        density: Density::new(profit, xn(allot as u64)),
        profit,
        arrival: info.arrival,
        rel_deadline: d,
        abs_deadline: info.arrival.saturating_add(d),
        admissible,
        delta_good: admissible && good(allot as u64),
    }
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

    #[test]
    fn slack_job_is_delta_good_with_small_allotment() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        // W=64, L=4, D=23 on m=8 (same numbers as the SchedulerS unit test):
        // n = ⌈60·1.5/(23 − 6)⌉ = ⌈5.29⌉ = 6, x·n = 60 + 24.
        let m = job_model(&info(64, 4, 23, 10), &params, 8, 1.0);
        assert!(m.admissible);
        assert!(m.delta_good);
        assert_eq!((m.allot, m.xn), (6, 84));
        assert_eq!(m.abs_deadline, Time(28));
        assert_eq!(m.density, Density::new(10, 84));
        // x at the rounded allotment obeys δ-goodness directly.
        assert!(m.covers(m.rel_deadline, params.good_factor()));
        assert!(
            !m.covers(m.rel_deadline - 3, params.good_factor()),
            "1.5·14 = 21"
        );
    }

    #[test]
    fn deadline_below_span_is_inadmissible() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let m = job_model(&info(64, 16, 10, 10), &params, 8, 1.0);
        assert!(!m.admissible);
        assert!(!m.delta_good);
        assert_eq!(m.allot, 8, "inadmissible jobs fall back to n = m");
        // D = (1+2δ)·L exactly leaves no allotment either.
        let m = job_model(&info(64, 16, 24, 10), &params, 8, 1.0);
        assert!(!m.admissible);
    }

    #[test]
    fn speed_hint_scales_work_and_span() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let base = job_model(&info(64, 4, 23, 10), &params, 8, 1.0);
        let fast = job_model(&info(64, 4, 23, 10), &params, 8, 2.0);
        // Halving effective work can only shrink the allotment and budget.
        assert!(fast.allot <= base.allot);
        assert!(fast.x() <= base.x());
    }
}
