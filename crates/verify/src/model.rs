//! Independent re-derivation of scheduler S's arrival-time quantities.
//!
//! The checkers deliberately do **not** ask the scheduler what it computed —
//! they recompute allotment, budget, density and δ-goodness from the same
//! [`JobInfo`] the scheduler saw, with the same formulas, in the same
//! floating-point operation order (so the derived values are bit-identical
//! and band-boundary comparisons cannot diverge). A scheduler whose internal
//! bookkeeping drifts from the paper's definitions is then caught by the
//! disagreement, which is the whole point of an independent oracle.

use dagsched_core::{AlgoParams, JobId, Time};
use dagsched_engine::JobInfo;

/// The paper's per-job quantities, recomputed from first principles.
#[derive(Debug, Clone, Copy)]
pub struct JobModel {
    /// Allotment `n_i` (rounded up, floored at 1, capped at `m`).
    pub allot: u32,
    /// Budget `x_i = (W−L)/n_i + L` (speed-hint-scaled).
    pub x: f64,
    /// Density `v_i = p_i / (x_i · n_i)`.
    pub density: f64,
    /// Maximum profit `p_i` (the flat prefix value for non-deadline jobs).
    pub profit: u64,
    /// Release time `r_i`.
    pub arrival: Time,
    /// Relative deadline `D_i` as a float.
    pub rel_deadline: f64,
    /// Absolute deadline `r_i + D_i`.
    pub abs_deadline: Time,
    /// Whether any allotment `≤ m` meets the `(1+2δ)` contraction.
    pub admissible: bool,
    /// δ-good: admissible and `D_i ≥ (1+2δ)·x_i`.
    pub delta_good: bool,
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
/// way or every density diverges.
///
/// [`SchedulerS::with_speed_hint`]: https://docs.rs/dagsched-sched
pub fn job_model(info: &JobInfo, params: &AlgoParams, m: u32, speed_hint: f64) -> JobModel {
    let (d_rel, profit) = info
        .profit
        .as_deadline()
        .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
    let w = info.work.as_f64() / speed_hint;
    let l = info.span.as_f64() / speed_hint;
    let d = d_rel.as_f64();

    let (allot, admissible) = match params.raw_allotment(w, l, d) {
        Some(frac) => {
            let n = (frac.ceil() as u32).max(1);
            (n.min(m), n <= m)
        }
        None => (m, false),
    };
    let x = AlgoParams::x_time(w, l, allot);
    let density = profit as f64 / (x * allot as f64);
    let abs_deadline = info.arrival.saturating_add(d_rel.ticks());
    let delta_good = admissible && d >= params.good_factor() * x;

    JobModel {
        allot,
        x,
        density,
        profit,
        arrival: info.arrival,
        rel_deadline: d,
        abs_deadline,
        admissible,
        delta_good,
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
        // W=64, L=4, D=23 on m=8 (same numbers as the SchedulerS unit test).
        let m = job_model(&info(64, 4, 23, 10), &params, 8, 1.0);
        assert!(m.admissible);
        assert!(m.delta_good);
        assert!(m.allot >= 1 && m.allot <= 8);
        assert_eq!(m.abs_deadline, Time(28));
        assert!(m.density > 0.0);
        // x at the rounded allotment obeys δ-goodness directly.
        assert!(m.rel_deadline >= params.good_factor() * m.x);
    }

    #[test]
    fn deadline_below_span_is_inadmissible() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let m = job_model(&info(64, 16, 10, 10), &params, 8, 1.0);
        assert!(!m.admissible);
        assert!(!m.delta_good);
        assert_eq!(m.allot, 8, "inadmissible jobs fall back to n = m");
    }

    #[test]
    fn speed_hint_scales_work_and_span() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let base = job_model(&info(64, 4, 23, 10), &params, 8, 1.0);
        let fast = job_model(&info(64, 4, 23, 10), &params, 8, 2.0);
        // Halving effective work can only shrink the allotment and budget.
        assert!(fast.allot <= base.allot);
        assert!(fast.x <= base.x);
    }
}
