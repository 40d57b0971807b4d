//! Scheduler **S** for general profit functions (Section 5).
//!
//! For arbitrary non-increasing step profits `p_i(t)` there is no given
//! deadline — the scheduler *assigns* one. On arrival of `J_i` it computes
//! an allotment from the flat prefix `x_i*` of the profit function,
//!
//! > `n_i = (W_i−L_i) / (x_i*/(1+2δ) − L_i)`,
//!
//! and then searches for the **smallest valid deadline** `D`: scanning
//! candidate completion times in profit order (one candidate per profit
//! step — within a step the profit is constant, so only the step boundary
//! matters), it collects *time slots* `I_i ⊆ [r_i, r_i+D)` in which adding
//! `J_i` at density `v = p_i(D)/(x_i n_i)` keeps every per-slot density band
//! `[v_j, c·v_j)` within `b·m` processors. A deadline is valid once
//! `|I_i| = ⌈(1+δ) x_i⌉` slots fit. The job may then run **only** in its
//! assigned slots; each tick executes the highest-density jobs assigned to
//! it.
//!
//! ## The segment slot plan
//!
//! The plan is stored as maximal runs of consecutive ticks sharing one
//! population — a [`BTreeMap`] from run start to `Segment`, each holding
//! its population in a [`DensityBands`]. Within a run every tick has the
//! same population, so the admission scan checks each run **once** (one
//! [`DensityBands::fits`] sweep) instead of rebuilding a population per
//! tick, and the per-tick allocation is *piecewise constant*: it can only
//! change at a run boundary or a job event. That is exactly the engine's
//! bounded-stability contract
//! ([`bounded_stability`](OnlineScheduler::bounded_stability) /
//! [`stable_until`](OnlineScheduler::stable_until)), so the engine replays
//! each decision until the next run boundary or event and bulk-advances
//! this scheduler between slot boundaries. Runs are split on insert, never
//! merged; past runs are retired incrementally at each allocate (amortized
//! `O(1)`). [`PaperSProfit`](crate::PaperSProfit) transcribes Section 5
//! with per-tick populations, and the production-vs-paper suite of
//! `dagsched-verify` holds the two byte-identical.
//!
//! Allotments, budgets, slot counts and densities are exact, with the
//! helpers of S's `JobModel`: `x·n = W − L + L·n`,
//! `|I_i| = ⌈(1+δ)x⌉`, and the `(1+ε)L` floor read with `1+ε` as the
//! dyadic rational its `f64` value is.
//!
//! Deviations from the paper text, documented per DESIGN.md:
//!
//! * `x_i*` is clamped up to `(1+ε)((W−L)/m + L)` when the input violates
//!   Theorem 3's assumption, so allotments stay within Lemma 11's bound;
//! * completed/expired jobs release their future slots (the paper leaves
//!   this unspecified; releasing is never worse for the remaining jobs);
//! * a job whose profit reaches zero before any valid deadline is rejected
//!   outright (it could never earn anything anyway).

use crate::bands::DensityBands;
use crate::model::{ceil_budget, xn, Rules};
use dagsched_core::{cmp_products, least, AlgoParams, Density, Dyadic, JobId, Time};
use dagsched_engine::{Allocation, JobInfo, OnlineScheduler, TickView};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// A maximal run of consecutive ticks sharing one slot population.
///
/// The run's start is its key in the plan map; `end` is exclusive.
#[derive(Debug, Clone)]
struct Segment {
    /// Exclusive end of the run.
    end: Time,
    /// The jobs assigned every tick of the run.
    pop: DensityBands,
}

/// The run containing tick `t`, if any.
fn segment_at(plan: &BTreeMap<Time, Segment>, t: Time) -> Option<&Segment> {
    plan.range(..=t)
        .next_back()
        .map(|(_, s)| s)
        .filter(|s| s.end > t)
}

/// The start of the first run strictly after `t`.
fn next_start_after(plan: &BTreeMap<Time, Segment>, t: Time) -> Option<Time> {
    plan.range((Bound::Excluded(t), Bound::Unbounded))
        .next()
        .map(|(s, _)| *s)
}

/// Assignment state for one job: the slot ranges `I_i` it may run in, as
/// disjoint ascending half-open intervals. The deadline and slot count live
/// in `history`; the per-slot density/allotment live in the runs'
/// populations.
#[derive(Debug, Clone)]
struct PJob {
    ranges: Vec<(Time, Time)>,
}

/// Counters for the general-profit experiments.
#[derive(Debug, Clone, Default)]
pub struct SchedulerSProfitMetrics {
    /// Jobs that received an assignment.
    pub scheduled: usize,
    /// Jobs rejected (no valid deadline with positive profit).
    pub rejected: usize,
    /// Σ `p_i(D_i)` over scheduled jobs — the profit S *plans* to earn.
    pub planned_profit: u64,
    /// Σ over scheduled jobs of `D_i / x_i*` (deadline stretch); divide by
    /// `scheduled` for the mean.
    pub stretch_sum: f64,
}

/// The Section 5 scheduler. See module docs.
#[derive(Debug)]
pub struct SchedulerSProfit {
    params: AlgoParams,
    m: u32,
    /// Every slot's band capacity `⌊b·m⌋`.
    capacity: u64,
    /// The band width `c`.
    c: Dyadic,
    /// The exact constants of the arrival-time derivation.
    rules: Rules,
    /// The segment slot plan: run start → run.
    plan: BTreeMap<Time, Segment>,
    /// Slab of per-job slot ranges, indexed by `JobId`.
    jobs: Vec<Option<PJob>>,
    /// Persistent record of every assignment made: `(abs deadline, |I_i|)`.
    history: HashMap<JobId, (Time, usize)>,
    metrics: SchedulerSProfitMetrics,
    /// Release scratch: starts of runs emptied by the removal.
    empties: Vec<Time>,
}

impl SchedulerSProfit {
    /// Create the scheduler for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> SchedulerSProfit {
        assert!(m >= 1);
        SchedulerSProfit {
            params,
            m,
            capacity: params.band_capacity(m),
            c: Dyadic::new(params.c()),
            rules: Rules::new(m, &params, 1.0),
            plan: BTreeMap::new(),
            jobs: Vec::new(),
            history: HashMap::new(),
            metrics: SchedulerSProfitMetrics::default(),
            empties: Vec::new(),
        }
    }

    /// Convenience: recommended constants for `ε`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> SchedulerSProfit {
        SchedulerSProfit::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// Analysis counters.
    pub fn metrics(&self) -> &SchedulerSProfitMetrics {
        &self.metrics
    }

    /// The assigned deadline of a scheduled job (survives completion).
    pub fn assigned_deadline(&self, id: JobId) -> Option<Time> {
        self.history.get(&id).map(|(d, _)| *d)
    }

    /// The assigned slot count of a scheduled job (survives completion).
    pub fn assigned_slots(&self, id: JobId) -> Option<usize> {
        self.history.get(&id).map(|(_, k)| *k)
    }

    /// `x_i*`: where the profit stops being flat, clamped up to
    /// `(1+ε)((W−L)/m + L)` (the deadline-stretch metric's denominator).
    fn x_star(&self, w: u64, l: u64, flat: u64) -> f64 {
        let brent = AlgoParams::brent_time(w as f64, l as f64, self.m);
        (flat as f64).max((1.0 + self.params.epsilon()) * brent)
    }

    /// `n_i = ⌈(W−L)/(x*/(1+2δ) − L)⌉` in `1..=m`, exactly: the least `n`
    /// with `n·x* ≥ (1+2δ)·(W − L + L·n)`. With
    /// `x* = max(D, (1+ε)·B/m)` for the flat prefix `D` and
    /// `B = W − L + L·m`, that is `n·D ≥ g·xn` or `n·(1+ε)·B ≥ g·m·xn`.
    /// If no `n ≤ m` qualifies (an `x*` at or below `(1+2δ)·L`, possible
    /// only when `1+ε` and `1+2δ` round together), the allotment is `m`.
    pub(crate) fn allotment(&self, w: u64, l: u64, flat: u64) -> u32 {
        let Rules {
            good: g,
            one_eps: e,
            ..
        } = self.rules;
        let (m, b) = (self.m as u128, xn(w, l, self.m as u64));
        let good = |n: u64| {
            let xn = xn(w, l, n);
            let n = n as u128;
            cmp_products(n * flat as u128, 1, 0, g.mant(), xn, g.exp()).is_ge()
                || cmp_products(n * b, e.mant(), e.exp(), g.mant() * m, xn, g.exp()).is_ge()
        };
        let x_star = self.x_star(w, l, flat);
        let guess = (w - l) as f64 / (x_star / g.value() - l as f64);
        least(guess, self.m as u64, good).map_or(self.m, |n| n as u32)
    }

    /// Try to find the smallest valid deadline for density `v` and segment
    /// bound `bound` (relative): returns `(D, ranges)` on success.
    ///
    /// `k_needed` slots must lie in `[arrival, arrival + D)` with
    /// `D ≤ bound`; `min_d` enforces both the `(1+ε)L` floor and the
    /// previous segment's bound (for profit-value consistency). The scan
    /// walks whole runs and gaps — one band check per run — and returns the
    /// accepted ticks as ranges; tick for tick it accepts exactly what
    /// `PaperSProfit`'s per-tick scan accepts, because every tick of a run
    /// shares its population (and every gap tick trivially fits once
    /// `allot ≤ capacity`).
    fn search_segment(
        &self,
        arrival: Time,
        bound: u64,
        min_d: u64,
        v: Density,
        allot: u32,
        k_needed: usize,
    ) -> Option<(u64, Vec<(Time, Time)>)> {
        // Even an empty slot must accommodate the allotment.
        if min_d > bound || allot as u64 > self.capacity {
            return None;
        }
        let mut found: Vec<(Time, Time)> = Vec::new();
        let mut count = 0usize;
        let mut t = arrival;
        let end = arrival.saturating_add(bound);
        while t < end && count < k_needed {
            let (stop, usable) = match segment_at(&self.plan, t) {
                Some(seg) => (seg.end.min(end), seg.pop.fits(v, allot)),
                None => (
                    next_start_after(&self.plan, t).unwrap_or(end).min(end),
                    true,
                ),
            };
            if usable {
                let take = stop.since(t).min((k_needed - count) as u64);
                match found.last_mut() {
                    Some(last) if last.1 == t => last.1 = t.after(take),
                    _ => found.push((t, t.after(take))),
                }
                count += take as usize;
                t = t.after(take);
            } else {
                t = stop;
            }
        }
        if count < k_needed {
            return None;
        }
        let last = found.last().expect("k_needed >= 1").1.ticks() - 1;
        let d = (Time(last).since(arrival) + 1).max(min_d);
        debug_assert!(d <= bound);
        Some((d, found))
    }

    /// Split the run containing `at` (if any) into `[start, at)` and
    /// `[at, end)`. Runs are split, never merged — every job's inserted
    /// ranges therefore stay unions of whole runs for their lifetime.
    fn split_at(&mut self, at: Time) {
        let Some((&start, seg)) = self.plan.range(..at).next_back() else {
            return;
        };
        if seg.end <= at {
            return;
        }
        let tail = seg.clone();
        self.plan.get_mut(&start).expect("just found").end = at;
        self.plan.insert(at, tail);
    }

    /// Add `(density, allot, id)` to every tick of `ranges`: split the
    /// boundary runs, extend the covered runs, and materialize runs for the
    /// covered gap portions.
    fn insert_ranges(&mut self, ranges: &[(Time, Time)], density: Density, allot: u32, id: JobId) {
        for &(s, end) in ranges {
            self.split_at(s);
            self.split_at(end);
            let mut cur = s;
            while cur < end {
                match self.plan.range(cur..).next().map(|(st, sg)| (*st, sg.end)) {
                    Some((st, seg_end)) if st == cur => {
                        let seg = self.plan.get_mut(&st).expect("just seen");
                        seg.pop.insert(id, density, allot);
                        cur = seg_end;
                    }
                    next => {
                        let gap_end = match next {
                            Some((st, _)) => st.min(end),
                            None => end,
                        };
                        let mut pop = DensityBands::new(self.c, self.capacity);
                        pop.insert(id, density, allot);
                        self.plan.insert(cur, Segment { end: gap_end, pop });
                        cur = gap_end;
                    }
                }
            }
        }
    }

    /// Remove a job's slot reservations from every still-live run of its
    /// ranges (retired runs are simply absent). Runs emptied by the removal
    /// are dropped.
    fn release(&mut self, id: JobId, _now: Time) {
        let Some(job) = self.jobs.get_mut(id.index()).and_then(Option::take) else {
            return;
        };
        self.empties.clear();
        for &(s, e) in &job.ranges {
            for (st, seg) in self.plan.range_mut(s..e) {
                seg.pop.remove(id);
                if seg.pop.is_empty() {
                    self.empties.push(*st);
                }
            }
        }
        while let Some(st) = self.empties.pop() {
            self.plan.remove(&st);
        }
    }

    /// Drop runs that ended at or before `now` — nothing before `now` can
    /// execute anymore. Each run is removed exactly once over the whole
    /// simulation, so this is amortized O(1) per allocate.
    fn retire(&mut self, now: Time) {
        while let Some((&start, seg)) = self.plan.iter().next() {
            if seg.end > now {
                break;
            }
            self.plan.remove(&start);
        }
    }

    /// The full allocation decision: retire past runs, then walk the
    /// current run's population in place (density desc, id asc) and fill
    /// greedily.
    fn decide(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.retire(view.now);
        out.clear();
        if let Some(seg) = segment_at(&self.plan, view.now) {
            let mut left = view.m;
            for (id, _, allot) in seg.pop.iter_ranked() {
                if left == 0 {
                    break;
                }
                if view.ready_count(id).is_none() {
                    continue;
                }
                if allot <= left {
                    out.push((id, allot));
                    left -= allot;
                }
            }
        }
    }
}

impl OnlineScheduler for SchedulerSProfit {
    fn name(&self) -> String {
        format!("S-profit(eps={})", self.params.epsilon())
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let (w, l) = (info.work.units(), info.span.units());
        let allot = self.allotment(w, l, info.profit.flat_until().ticks());
        let xn = xn(w, l, allot as u64);
        let Rules {
            fresh,
            one_eps,
            speed,
            ..
        } = self.rules;
        let k_needed = ceil_budget(fresh, xn, allot, speed).max(1) as usize;
        let min_d_floor =
            (one_eps.mul_floor(l as u128).min(u64::MAX as u128) as u64).saturating_add(1);

        // Candidate deadlines: one per profit segment, in decreasing-profit
        // order, plus the tail if it pays.
        let mut candidates: Vec<(u64, u64)> = info
            .profit
            .segments()
            .iter()
            .map(|(b, v)| (b.ticks(), *v))
            .collect();
        if info.profit.tail_value() > 0 {
            // The tail pays forever; cap the scan generously past both the
            // current assignment horizon and the slots we need. (The last
            // run's final tick is the plan's largest assigned tick, exactly
            // `PaperSProfit`'s largest slot key.)
            let horizon = self
                .plan
                .iter()
                .next_back()
                .map(|(_, seg)| seg.end.ticks() - 1)
                .unwrap_or(0)
                .max(info.arrival.ticks());
            // Measured from the deadline floor when that lies further out,
            // so a long job's tail step still holds a valid deadline.
            let cap = horizon - info.arrival.ticks().min(horizon) + k_needed as u64 + 2;
            let last = candidates.last().map(|(b, _)| *b).unwrap_or(0);
            candidates.push((last.max(min_d_floor) + cap, info.profit.tail_value()));
        }

        let mut prev_bound = 0u64;
        for (bound, value) in candidates {
            let v = Density::new(value, xn);
            let min_d = min_d_floor.max(prev_bound + 1);
            if let Some((d, ranges)) =
                self.search_segment(info.arrival, bound, min_d, v, allot, k_needed)
            {
                let abs_deadline = info.arrival.saturating_add(d);
                self.insert_ranges(&ranges, v, allot, info.id);
                let idx = info.id.index();
                if self.jobs.len() <= idx {
                    self.jobs.resize_with(idx + 1, || None);
                }
                self.jobs[idx] = Some(PJob { ranges });
                self.history.insert(info.id, (abs_deadline, k_needed));
                self.metrics.scheduled += 1;
                self.metrics.planned_profit += info.profit.eval(Time(d));
                self.metrics.stretch_sum +=
                    d as f64 / self.x_star(w, l, info.profit.flat_until().ticks());
                return;
            }
            prev_bound = bound;
        }
        self.metrics.rejected += 1;
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        self.release(id, now);
    }

    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.release(id, now);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.decide(view, &mut out);
        out
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.decide(view, out);
    }

    fn allocation_stable_between_events(&self) -> bool {
        // The slot plan is keyed on absolute time, so the allocation is NOT
        // constant between events — but it IS piecewise constant, which is
        // what `bounded_stability` declares instead.
        false
    }

    fn bounded_stability(&self) -> bool {
        true
    }

    fn stable_until(&self, now: Time) -> Option<Time> {
        // Inside a run: constant until the run ends. In a gap: empty until
        // the next run starts. Past the last run: empty until the next
        // event, like a fully stable scheduler.
        match segment_at(&self.plan, now) {
            Some(seg) => Some(seg.end),
            None => next_start_after(&self.plan, now),
        }
    }

    fn reset(&mut self) -> bool {
        // The maps are only ever probed by key (no iteration order reaches
        // the allocation), so clearing them restores fresh-construction
        // behavior exactly; `params` and `m` are construction parameters
        // and stay.
        self.plan.clear();
        self.jobs.clear();
        self.history.clear();
        self.metrics = SchedulerSProfitMetrics::default();
        self.empties.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Work;
    use dagsched_dag::gen;
    use dagsched_engine::{simulate, JobStatus, SimConfig};
    use dagsched_workload::{Instance, JobSpec, ProfitShape, StepProfitFn, WorkloadGen};

    fn staircase(d: u64, p: u64) -> StepProfitFn {
        StepProfitFn::steps(
            vec![(Time(d), p), (Time(2 * d), p / 2), (Time(4 * d), p / 4)],
            0,
        )
        .unwrap()
    }

    fn info(id: u32, arrival: u64, w: u64, l: u64, profit: StepProfitFn) -> JobInfo {
        JobInfo {
            id: JobId(id),
            arrival: Time(arrival),
            work: Work(w),
            span: Work(l),
            profit,
        }
    }

    /// The ticks of a job's assigned ranges, expanded.
    fn slot_ticks(s: &SchedulerSProfit, id: JobId) -> Vec<Time> {
        let job = s.jobs[id.index()].as_ref().expect("assigned");
        job.ranges
            .iter()
            .flat_map(|&(a, b)| (a.ticks()..b.ticks()).map(Time))
            .collect()
    }

    #[test]
    fn lone_job_gets_smallest_deadline_and_exact_slots() {
        let mut s = SchedulerSProfit::with_epsilon(8, 1.0);
        // W=64, L=4: brent = 11.5, x* must be >= 23; give a generous step.
        s.on_arrival(
            &info(0, 0, 64, 4, StepProfitFn::deadline(Time(40), 10)),
            Time(0),
        );
        assert_eq!(s.metrics().scheduled, 1);
        let k = s.assigned_slots(JobId(0)).unwrap();
        // |I| = ceil((1+δ)x): with an empty machine the slots are the first
        // k ticks, so D = k (possibly raised to the (1+ε)L floor).
        let d = s.assigned_deadline(JobId(0)).unwrap();
        assert!(d.ticks() >= k as u64);
        assert!(d <= Time(40), "assigned deadline within the paying window");
    }

    #[test]
    fn slot_count_is_the_exact_ceiling() {
        // ε = 0.5, W = 10, L = 3, x* = 8: n = 3 and x = 16/3, so
        // |I| = ⌈1.125 · 16/3⌉ = 6 (the f64 product rounded above 6).
        let mut s = SchedulerSProfit::with_epsilon(8, 0.5);
        s.on_arrival(
            &info(0, 0, 10, 3, StepProfitFn::deadline(Time(8), 10)),
            Time(0),
        );
        assert_eq!(s.assigned_slots(JobId(0)), Some(6));
    }

    #[test]
    fn impossible_profit_window_is_rejected() {
        let mut s = SchedulerSProfit::with_epsilon(4, 1.0);
        // Profit window shorter than (1+eps)L: no potential deadline.
        s.on_arrival(
            &info(0, 0, 30, 20, StepProfitFn::deadline(Time(21), 10)),
            Time(0),
        );
        assert_eq!(s.metrics().rejected, 1);
        assert_eq!(s.metrics().scheduled, 0);
    }

    #[test]
    fn band_conflict_pushes_second_job_to_later_step() {
        let m = 8u32;
        let mut s = SchedulerSProfit::with_epsilon(m, 1.0);
        // Two identical wide jobs with a 2-step staircase. The first takes
        // the earliest slots; the second cannot share them (band capacity)
        // and lands on a later (possibly cheaper) deadline.
        let f = staircase(24, 64);
        s.on_arrival(&info(0, 0, 60, 1, f.clone()), Time(0));
        s.on_arrival(&info(1, 0, 60, 1, f), Time(0));
        assert_eq!(s.metrics().scheduled, 2, "both get assignments");
        let d0 = s.assigned_deadline(JobId(0)).unwrap();
        let d1 = s.assigned_deadline(JobId(1)).unwrap();
        assert!(d1 > d0, "second job's deadline is later: {d0} vs {d1}");
    }

    #[test]
    fn positive_tail_jobs_are_always_scheduled() {
        let mut s = SchedulerSProfit::with_epsilon(4, 1.0);
        let f = StepProfitFn::steps(vec![(Time(10), 50)], 5).unwrap();
        // Saturate the early slots with several jobs; all must still be
        // scheduled because the tail pays forever.
        for i in 0..6 {
            s.on_arrival(&info(i, 0, 40, 1, f.clone()), Time(0));
        }
        assert_eq!(s.metrics().scheduled, 6);
        assert_eq!(s.metrics().rejected, 0);
    }

    #[test]
    fn equal_density_jobs_run_in_ascending_id_order() {
        // Three identical jobs share slot 0 at one density, below a denser
        // fourth; the fill takes the denser job first, then the tied ones
        // by ascending id, whatever order they arrived in.
        let mut s = SchedulerSProfit::with_epsilon(8, 1.0);
        for id in [2, 0, 1] {
            let f = StepProfitFn::deadline(Time(40), 10);
            s.on_arrival(&info(id, 0, 8, 4, f), Time(0));
        }
        s.on_arrival(
            &info(3, 0, 8, 4, StepProfitFn::deadline(Time(40), 20)),
            Time(0),
        );
        let jobs: Vec<(JobId, u32)> = (0..4).map(|i| (JobId(i), 1)).collect();
        let mut out = Vec::new();
        s.allocate_into(&TickView::new(8, Time(0), &jobs), &mut out);
        assert_eq!(
            out,
            [(JobId(3), 1), (JobId(0), 1), (JobId(1), 1), (JobId(2), 1)]
        );
    }

    #[test]
    fn engine_run_completes_the_lone_job_by_its_assigned_deadline() {
        let dag = gen::block(32, 2).into_shared();
        let inst = Instance::new(
            8,
            vec![JobSpec::new(
                JobId(0),
                Time(0),
                dag,
                StepProfitFn::deadline(Time(40), 10),
            )],
        )
        .unwrap();
        let mut s = SchedulerSProfit::with_epsilon(8, 1.0);
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        let d = s.assigned_deadline(JobId(0)).expect("scheduled");
        match r.outcomes[0] {
            JobStatus::Completed { at, profit } => {
                assert!(at <= d, "completed at {at}, assigned deadline {d}");
                assert_eq!(profit, 10);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn zero_profit_jobs_are_rejected_as_input() {
        // Every density is positive: a job whose maximum profit is 0 is not
        // an instance, whether built through the library or the codec.
        let job = JobSpec::new(
            JobId(0),
            Time(0),
            gen::block(12, 2).into_shared(),
            StepProfitFn::deadline(Time(30), 0),
        );
        assert!(Instance::new(4, vec![job]).is_err());
        let fixture = |profit: u64| {
            format!(
                "dagsched-instance v1\nm 4\njobs 1\njob 0\narrival 0\nprofit 1 0\n\
                 seg 30 {profit}\nnodes 1\nwork 5\nedges 0\nend\n"
            )
        };
        assert!(dagsched_workload::codec::decode(&fixture(1)).is_ok());
        assert!(dagsched_workload::codec::decode(&fixture(0)).is_err());
    }

    #[test]
    fn staircase_workload_earns_planned_or_better_per_job_count() {
        let gen = WorkloadGen {
            shape: ProfitShape::SteppedDecay {
                extra_steps: 2,
                time_factor: 2.0,
                value_factor: 0.5,
            },
            ..WorkloadGen::standard(8, 50, 31)
        };
        let inst = gen.generate().unwrap();
        let mut s = SchedulerSProfit::with_epsilon(8, 0.5);
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert!(r.total_profit > 0);
        assert!(s.metrics().scheduled + s.metrics().rejected == 50);
        // Mean deadline stretch is finite and ≥ 1 (deadlines at or past x*
        // only when slots are contended; the floor is D ≥ |I| ≥ x).
        let mean_stretch = s.metrics().stretch_sum / s.metrics().scheduled as f64;
        assert!(mean_stretch.is_finite() && mean_stretch > 0.0);
    }

    #[test]
    fn stable_until_reports_run_and_gap_boundaries() {
        let mut s = SchedulerSProfit::with_epsilon(8, 1.0);
        s.on_arrival(
            &info(0, 5, 64, 4, StepProfitFn::deadline(Time(40), 10)),
            Time(5),
        );
        let (&start, seg) = s.plan.iter().next().expect("assigned a run");
        assert_eq!(start, Time(5), "lone job takes the first ticks");
        let end = seg.end;
        // Inside the run: stable to the run's end.
        assert_eq!(s.stable_until(Time(5)), Some(end));
        // In the gap before the run: stable (empty) to the run's start.
        assert_eq!(s.stable_until(Time(0)), Some(Time(5)));
        // Past every run: no further boundary.
        assert_eq!(s.stable_until(end), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Lemma 15: after any arrival sequence, every run's population
            /// keeps every density band `[v, c·v)` within `b·m`.
            #[test]
            fn per_slot_band_invariant(
                seed in 0u64..500,
                n_jobs in 1usize..14,
                m in 2u32..12,
            ) {
                let mut rng = dagsched_core::Rng64::seed_from(seed);
                let mut s = SchedulerSProfit::with_epsilon(m, 1.0);
                let mut t = 0u64;
                for i in 0..n_jobs {
                    t += rng.gen_range(8);
                    let w = 2 + rng.gen_range(40);
                    let l = 1 + rng.gen_range(w - 1);
                    let d = ((2.2 * ((w - l) as f64 / m as f64 + l as f64)).ceil()
                        as u64).max(2);
                    let p = 1 + rng.gen_range(50);
                    s.on_arrival(
                        &info(i as u32, t, w, l, StepProfitFn::deadline(Time(d), p)),
                        Time(t),
                    );
                }
                let capacity = s.params.band_capacity(m);
                let c = Dyadic::new(s.params.c());
                for (start, seg) in &s.plan {
                    prop_assert!(seg.end > *start, "runs are non-empty");
                    prop_assert!(!seg.pop.is_empty(), "empty runs are dropped");
                    for (_, anchor, _) in seg.pop.iter() {
                        let band: u64 = seg
                            .pop
                            .iter()
                            .filter(|&(_, d, _)| d.in_band(anchor, c))
                            .map(|(_, _, a)| a as u64)
                            .sum();
                        prop_assert!(
                            band <= capacity,
                            "run at {start}: band at {anchor:?} holds {band} > ⌊b·m⌋ = {capacity}"
                        );
                        // The structure's band load agrees with the scan.
                        prop_assert_eq!(seg.pop.band_load(anchor), band);
                    }
                }
                // Runs are disjoint and ordered.
                let mut prev_end = Time(0);
                for (start, seg) in &s.plan {
                    prop_assert!(*start >= prev_end, "runs overlap");
                    prev_end = seg.end;
                }
            }

            /// Assigned slot sets are exactly `⌈(1+δ)x⌉` ticks inside the
            /// assigned deadline window.
            #[test]
            fn slot_sets_sized_and_bounded(seed in 0u64..200, n_jobs in 1usize..10) {
                let mut rng = dagsched_core::Rng64::seed_from(seed);
                let m = 8u32;
                let mut s = SchedulerSProfit::with_epsilon(m, 1.0);
                let mut t = 0u64;
                for i in 0..n_jobs {
                    t += rng.gen_range(6);
                    let w = 2 + rng.gen_range(30);
                    let l = 1 + rng.gen_range(w - 1);
                    let d = ((2.5 * ((w - l) as f64 / m as f64 + l as f64)).ceil()
                        as u64).max(2);
                    let arrival = Time(t);
                    s.on_arrival(
                        &info(i as u32, t, w, l, StepProfitFn::deadline(Time(d), 10)),
                        arrival,
                    );
                    let id = dagsched_core::JobId(i as u32);
                    if s.jobs.get(id.index()).is_some_and(Option::is_some) {
                        let abs_d = s.assigned_deadline(id).expect("recorded");
                        let k = s.assigned_slots(id).expect("recorded");
                        let ticks = slot_ticks(&s, id);
                        prop_assert_eq!(ticks.len(), k);
                        for &slot in &ticks {
                            prop_assert!(slot >= arrival, "slot before arrival");
                            prop_assert!(slot < abs_d, "slot at/after deadline");
                        }
                        // Strictly increasing.
                        prop_assert!(ticks.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn plan_is_retired_as_time_advances() {
        let mut s = SchedulerSProfit::with_epsilon(4, 1.0);
        s.on_arrival(
            &info(0, 0, 40, 1, StepProfitFn::deadline(Time(60), 10)),
            Time(0),
        );
        let before = s.plan.len();
        assert!(before > 0);
        let jobs = [(JobId(0), 4u32)];
        let _ = s.allocate(&TickView::new(4, Time(10), &jobs));
        assert!(
            s.plan.values().all(|seg| seg.end > Time(10)),
            "fully past runs must be dropped"
        );
    }

    #[test]
    fn allocation_never_exceeds_m_and_only_runs_assigned_jobs() {
        let m = 8u32;
        let mut s = SchedulerSProfit::with_epsilon(m, 1.0);
        let f = staircase(30, 64);
        for i in 0..5 {
            s.on_arrival(&info(i, 0, 60, 1, f.clone()), Time(0));
        }
        let jobs: Vec<(JobId, u32)> = (0..5).map(|i| (JobId(i), 60u32)).collect();
        for t in 0..40u64 {
            let alloc = s.allocate(&TickView::new(m, Time(t), &jobs));
            let total: u32 = alloc.iter().map(|(_, k)| k).sum();
            assert!(total <= m, "tick {t}: allocated {total} > m");
        }
    }
}
