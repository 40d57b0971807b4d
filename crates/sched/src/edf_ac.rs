//! EDF with admission control — the practical strawman between plain EDF
//! (no admission: collapses under overload) and scheduler S (density-band
//! admission: worst-case guarantees).
//!
//! [`EdfAc`] admits an arriving job only if, *assuming admitted jobs are
//! ideal malleable work*, every deadline can still be met: for each
//! admitted absolute deadline `d`, the total remaining work of admitted
//! jobs due by `d` must fit in `m · (d − now)` processor-steps, and each
//! job individually needs `d_i − now ≥ L_i` (span feasibility). This is
//! the natural demand-bound admission test a practitioner would write; it
//! has **no worst-case guarantee** for DAG jobs (it ignores structure
//! beyond the span, and ignores profit entirely), which is exactly the gap
//! the paper's scheduler closes. The E7/E8 experiments quantify the
//! difference.
//!
//! Remaining work is tracked *optimistically*: the test charges each
//! admitted job its full work from admission time, and re-charges actual
//! progress via ready-count-oblivious accounting (the engine reports
//! completions, not per-tick progress, to stay semi-non-clairvoyant —
//! so the test decrements only on completion). That bias is conservative:
//! it can reject admissible jobs but never over-promises because of stale
//! optimism.
//!
//! The admitted jobs live in one `AliveSet` keyed by absolute deadline
//! (ties in arrival order) and carrying each job's work, so the hooks cost
//! O(log n), the per-tick fill walks the set without sorting, and the
//! arrival test is one linear prefix-sum walk.

use crate::baselines::{deadline, fill, AliveSet};
use dagsched_core::{JobId, Time, Work};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    TickView,
};

/// EDF with a demand-bound admission test. See module docs.
#[derive(Debug)]
pub struct EdfAc {
    m: u32,
    /// Admitted, unretired jobs by `(deadline, arrival)`, with their work.
    admitted: AliveSet<Time, Work>,
    /// Rejected-at-arrival count (reporting).
    rejected: usize,
    report: Option<Vec<AdmissionEvent>>,
}

impl EdfAc {
    /// Create the scheduler for `m` processors.
    pub fn new(m: u32) -> EdfAc {
        assert!(m >= 1);
        EdfAc {
            m,
            admitted: AliveSet::default(),
            rejected: 0,
            report: None,
        }
    }

    /// Number of jobs turned away by the admission test.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// The admission test: with the candidate (due `due`, of work `work`
    /// and span `span`) included, is every admitted deadline's demand
    /// within `m · (d − now)`? Returns the rejection reason, or `None` when
    /// the candidate passes.
    ///
    /// One prefix-sum walk over the admitted jobs in deadline order with
    /// the candidate merged in after every job due no later. The bound is
    /// checked after every job, not only after the last of each run of
    /// equal deadlines; that is the same test, since a partial sum over a
    /// window it overflows means the whole run's sum overflows it too.
    /// O(admitted), against one re-sum per distinct deadline.
    fn admission_failure(
        &self,
        due: Time,
        work: Work,
        span: Work,
        now: Time,
    ) -> Option<AdmissionReason> {
        // Span feasibility for the candidate itself.
        if due.since(now) < span.units() {
            return Some(AdmissionReason::SpanInfeasible);
        }
        let m = u128::from(self.m);
        let mut demand = 0u128;
        let mut within = |work: Work, d: Time| {
            demand += u128::from(work.units());
            demand <= u128::from(d.since(now)) * m
        };
        let mut cand_pending = true;
        for (d, _, w) in self.admitted.iter() {
            if cand_pending && due < d {
                cand_pending = false;
                if !within(work, due) {
                    return Some(AdmissionReason::DemandBound);
                }
            }
            if !within(w, d) {
                return Some(AdmissionReason::DemandBound);
            }
        }
        if cand_pending && !within(work, due) {
            return Some(AdmissionReason::DemandBound);
        }
        None
    }
}

impl OnlineScheduler for EdfAc {
    fn name(&self) -> String {
        "EDF-AC".into()
    }

    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        let due = deadline(info);
        let decision = match self.admission_failure(due, info.work, info.span, now) {
            None => {
                self.admitted.insert(info.id, due, info.work);
                AdmissionDecision::Admitted
            }
            Some(reason) => {
                self.rejected += 1;
                AdmissionDecision::Rejected(reason)
            }
        };
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent {
                job: info.id,
                decision,
            });
        }
    }

    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.admitted.remove(id);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        // Also fires for rejected jobs, which were never admitted: a no-op.
        self.admitted.remove(id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        fill(self.admitted.ready(view), view.m, out);
    }

    fn allocation_stable_between_events(&self) -> bool {
        // A work-conserving fill over the admitted set in deadline order;
        // admission happens only in the arrival hook.
        true
    }

    fn group_aware(&self) -> bool {
        // Allocation order is deadline order: fastest-first placement
        // drives the most urgent admitted jobs on the fastest groups.
        true
    }

    fn enable_admission_reporting(&mut self) {
        self.report.get_or_insert_with(Vec::new);
    }

    fn drain_admission_events(&mut self, out: &mut Vec<AdmissionEvent>) {
        if let Some(buf) = self.report.as_mut() {
            out.append(buf);
        }
    }

    fn reset(&mut self) -> bool {
        self.admitted.clear();
        self.rejected = 0;
        self.report = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Rng64;
    use dagsched_engine::{simulate, SimConfig};
    use dagsched_workload::{
        ArrivalProcess, DeadlinePolicy, ProfitPolicy, StepProfitFn, WorkloadGen,
    };

    fn info(id: u32, arrival: u64, w: u64, l: u64, d: u64) -> JobInfo {
        JobInfo {
            id: JobId(id),
            arrival: Time(arrival),
            work: Work(w),
            span: Work(l),
            profit: StepProfitFn::deadline(Time(d), 1),
        }
    }

    #[test]
    fn admits_until_demand_bound_saturates() {
        let mut s = EdfAc::new(2);
        // Window 10 on m = 2: capacity 20 work units by the deadline.
        s.on_arrival(&info(0, 0, 12, 1, 10), Time(0));
        s.on_arrival(&info(1, 0, 8, 1, 10), Time(0));
        assert_eq!(s.rejected(), 0);
        // Third job of any size due at 10 must be rejected.
        s.on_arrival(&info(2, 0, 1, 1, 10), Time(0));
        assert_eq!(s.rejected(), 1);
        // But a job with a much later deadline still fits.
        s.on_arrival(&info(3, 0, 15, 1, 100), Time(0));
        assert_eq!(s.rejected(), 1);
    }

    #[test]
    fn rejects_span_infeasible_jobs() {
        let mut s = EdfAc::new(8);
        s.on_arrival(&info(0, 0, 20, 15, 10), Time(0)); // L = 15 > D = 10
        assert_eq!(s.rejected(), 1);
    }

    /// The demand-bound test written out by brute force: span feasibility,
    /// then for every deadline `d` of an admitted job or the candidate,
    /// Σ work of the jobs due by `d` ≤ `m · (d − now)`.
    fn brute_force_decision(
        m: u32,
        now: Time,
        admitted: &[(Time, u64)],
        cand: (Time, u64),
        cand_span: u64,
    ) -> AdmissionDecision {
        if cand.0.since(now) < cand_span {
            return AdmissionDecision::Rejected(AdmissionReason::SpanInfeasible);
        }
        let all: Vec<(Time, u64)> = admitted.iter().copied().chain([cand]).collect();
        for &(d, _) in &all {
            let demand: u128 = all
                .iter()
                .filter(|&&(e, _)| e <= d)
                .map(|&(_, w)| u128::from(w))
                .sum();
            if demand > u128::from(d.since(now)) * u128::from(m) {
                return AdmissionDecision::Rejected(AdmissionReason::DemandBound);
            }
        }
        AdmissionDecision::Admitted
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random arrival, completion and expiry sequences through `EdfAc`:
        /// every admission decision equals the brute-force demand-bound
        /// test over the jobs admitted and not yet retired.
        #[test]
        fn admission_matches_a_brute_force_demand_bound(
            m in 1u32..5,
            ops in proptest::collection::vec(
                (0u8..4, 1u64..40, 0u64..40, 1u64..60, 0u64..4, 0usize..64),
                1..80,
            )
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut s = EdfAc::new(m);
            s.enable_admission_reporting();
            // Model: the admitted, unretired jobs; and every alive job
            // (admitted or not), which completions and expiries pick from.
            let mut admitted: Vec<(JobId, Time, u64)> = Vec::new();
            let mut alive: Vec<JobId> = Vec::new();
            let mut now = 0u64;
            let mut next_id = 0u32;
            let mut events = Vec::new();
            for &(sel, work, span_raw, rel_deadline, dt, pick) in &ops {
                now += dt;
                let t = Time(now);
                if sel < 2 || alive.is_empty() {
                    let id = next_id;
                    next_id += 1;
                    let span = 1 + span_raw % work;
                    let deadline = Time(now + rel_deadline);
                    let rest: Vec<(Time, u64)> =
                        admitted.iter().map(|&(_, d, w)| (d, w)).collect();
                    let expect = brute_force_decision(m, t, &rest, (deadline, work), span);
                    s.on_arrival(&info(id, now, work, span, rel_deadline), t);
                    s.drain_admission_events(&mut events);
                    prop_assert_eq!(events.len(), 1);
                    let ev = events.pop().expect("one decision per arrival");
                    prop_assert_eq!(ev.job, JobId(id));
                    prop_assert_eq!(ev.decision, expect, "job {} at t={}", id, now);
                    if expect == AdmissionDecision::Admitted {
                        admitted.push((JobId(id), deadline, work));
                    }
                    alive.push(JobId(id));
                } else {
                    let id = alive.remove(pick % alive.len());
                    admitted.retain(|&(a, _, _)| a != id);
                    if sel == 2 {
                        s.on_completion(id, t);
                    } else {
                        s.on_expiry(id, t);
                    }
                }
            }
        }
    }

    #[test]
    fn earlier_deadlines_preempt_in_allocation() {
        let mut s = EdfAc::new(4);
        s.on_arrival(&info(0, 0, 8, 1, 50), Time(0));
        s.on_arrival(&info(1, 0, 8, 1, 20), Time(0));
        let jobs = [(JobId(0), 8u32), (JobId(1), 8u32)];
        let alloc = s.allocate(&TickView::new(4, Time(0), &jobs));
        assert_eq!(alloc[0].0, JobId(1), "earliest deadline first");
        assert_eq!(alloc[0].1, 4, "work-conserving");
    }

    #[test]
    fn admitted_jobs_mostly_complete_under_simulation() {
        // The point of admission control: what EDF-AC admits, it mostly
        // finishes even under heavy offered load (rejections absorb the
        // overload). Not a hard guarantee for DAGs — check a high fraction.
        let mut rng = Rng64::seed_from(3);
        for _ in 0..3 {
            let inst = WorkloadGen {
                arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, 8),
                deadlines: DeadlinePolicy::SlackFactor(2.0),
                profits: ProfitPolicy::Uniform(1),
                ..WorkloadGen::standard(8, 80, rng.next_u64())
            }
            .generate()
            .unwrap();
            let mut s = EdfAc::new(8);
            let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
            let admitted = 80 - s.rejected();
            assert!(admitted > 0);
            let frac = r.completed() as f64 / admitted as f64;
            assert!(
                frac > 0.7,
                "only {frac:.2} of admitted jobs completed ({} of {admitted})",
                r.completed()
            );
        }
    }

    #[test]
    fn beats_plain_edf_under_overload() {
        use crate::Edf;
        let mut better = 0;
        for seed in 0..5u64 {
            let inst = WorkloadGen {
                arrivals: ArrivalProcess::poisson_for_load(6.0, 60.0, 8),
                deadlines: DeadlinePolicy::SlackFactor(2.0),
                ..WorkloadGen::standard(8, 100, seed)
            }
            .generate()
            .unwrap();
            let mut ac = EdfAc::new(8);
            let ra = simulate(&inst, &mut ac, &SimConfig::default()).unwrap();
            let mut plain = Edf::new(8);
            let rp = simulate(&inst, &mut plain, &SimConfig::default()).unwrap();
            if ra.total_profit > rp.total_profit {
                better += 1;
            }
        }
        assert!(
            better >= 4,
            "admission control should usually beat plain EDF under overload ({better}/5)"
        );
    }
}
