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
//! its population sorted by density with a prefix-sum table of allotments.
//! Within a run every tick has the same population, so the admission scan
//! checks each run **once** (per-band loads by prefix-sum subtraction,
//! `O(log)` per band) instead of rebuilding a population `Vec` per tick,
//! and the per-tick allocation is *piecewise constant*: it can only change
//! at a run boundary or a job event. That is exactly the engine's
//! bounded-stability contract
//! ([`bounded_stability`](OnlineScheduler::bounded_stability) /
//! [`stable_until`](OnlineScheduler::stable_until)), so the fast-forward
//! kernel bulk-advances this scheduler between slot boundaries. Runs are
//! split on insert, never merged; past runs are retired incrementally at
//! each allocate (amortized `O(1)`, replacing the old per-call
//! `split_off` rebuild). The pre-rewrite per-tick implementation is frozen
//! as [`OracleSProfit`](crate::oracle::OracleSProfit) and the
//! `profit_differential` suite holds the two byte-identical.
//!
//! Deviations from the paper text, documented per DESIGN.md:
//!
//! * `x_i*` is clamped up to `(1+ε)((W−L)/m + L)` when the input violates
//!   Theorem 3's assumption, so allotments stay within Lemma 11's bound;
//! * completed/expired jobs release their future slots (the paper leaves
//!   this unspecified; releasing is never worse for the remaining jobs);
//! * a job whose profit reaches zero before any valid deadline is rejected
//!   outright (it could never earn anything anyway).

use dagsched_core::{AlgoParams, JobId, Time};
use dagsched_engine::{Allocation, JobInfo, OnlineScheduler, TickView, ViewDelta};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// One job's presence in one run of time slots.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    density: f64,
    allot: u32,
    id: JobId,
}

/// A maximal run of consecutive ticks sharing one slot population.
///
/// The run's start is its key in the plan map; `end` is exclusive. The
/// population is kept sorted ascending by `(density, id)` with a parallel
/// prefix-sum table of allotments, so any band load `Σ allot` over a
/// density range `[lo, hi)` is two binary searches and a subtraction.
#[derive(Debug, Clone)]
struct Segment {
    /// Exclusive end of the run.
    end: Time,
    /// Population, sorted ascending by `(density, id)`.
    entries: Vec<SlotEntry>,
    /// `prefix[i]` = Σ allot over `entries[..i]`; `len == entries.len()+1`.
    prefix: Vec<u64>,
}

impl Segment {
    fn single(end: Time, e: SlotEntry) -> Segment {
        Segment {
            end,
            entries: vec![e],
            prefix: vec![0, e.allot as u64],
        }
    }

    fn rebuild_prefix(&mut self) {
        self.prefix.clear();
        self.prefix.push(0);
        let mut acc = 0u64;
        for e in &self.entries {
            acc += e.allot as u64;
            self.prefix.push(acc);
        }
    }

    fn insert(&mut self, e: SlotEntry) {
        let at = self.entries.partition_point(|x| {
            x.density
                .total_cmp(&e.density)
                .then(x.id.0.cmp(&e.id.0))
                .is_lt()
        });
        self.entries.insert(at, e);
        self.rebuild_prefix();
    }

    fn remove(&mut self, id: JobId) {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        if self.entries.len() != before {
            self.rebuild_prefix();
        }
    }

    /// Σ allot over entries with density in `[lo, hi)` (plain `f64`
    /// comparisons, exactly as [`fits_population`]'s scan).
    ///
    /// [`fits_population`]: crate::bands::fits_population
    fn band_load(&self, lo: f64, hi: f64) -> u64 {
        let a = self.entries.partition_point(|e| e.density < lo);
        let b = self.entries.partition_point(|e| e.density < hi);
        self.prefix[b] - self.prefix[a]
    }
}

/// Verdict of [`fits_population`](crate::bands::fits_population) for adding
/// `(v, allot)` to this run's population, computed incrementally.
///
/// Only bands that *gain* the candidate can newly exceed capacity — the
/// population already satisfies every band by the insert-only-after-fits
/// invariant (Lemma 15). Those are the candidate's own band `[v, c·v)` and
/// the bands of distinct member anchors `α < v` with `v < c·α`, walked
/// downward from `v` (the product `c·α` is monotone in `α`, so the walk
/// stops at the first anchor whose band misses `v`). Duplicate anchors are
/// subsumed by their first occurrence, whose band load is maximal.
fn seg_fits(seg: &Segment, v: f64, allot: u32, c: f64, capacity: f64) -> bool {
    let load = seg.band_load(v, c * v) + allot as u64;
    if load as f64 > capacity {
        return false;
    }
    let mut i = seg.entries.partition_point(|e| e.density < v);
    while i > 0 {
        let anchor = seg.entries[i - 1].density;
        if v >= c * anchor {
            break;
        }
        let load = seg.band_load(anchor, c * anchor) + allot as u64;
        if load as f64 > capacity {
            return false;
        }
        i = seg.entries.partition_point(|e| e.density < anchor);
    }
    true
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
/// in `history`; the per-slot density/allotment live in the run entries.
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
    /// The segment slot plan: run start → run.
    plan: BTreeMap<Time, Segment>,
    /// Slab of per-job slot ranges, indexed by `JobId`.
    jobs: Vec<Option<PJob>>,
    /// Persistent record of every assignment made: `(abs deadline, |I_i|)`.
    history: HashMap<JobId, (Time, usize)>,
    metrics: SchedulerSProfitMetrics,
    /// Allocate-order scratch (density desc, id asc).
    order: Vec<SlotEntry>,
    /// Release scratch: starts of runs emptied by the removal.
    empties: Vec<Time>,
    /// Cached-replay interval for `allocate_delta`: the allocation decided
    /// at `.0` stays valid for `now ∈ [.0, .1)` (`None` end = until the
    /// next event). Invalidated by every hook.
    cache: Option<(Time, Option<Time>)>,
}

impl SchedulerSProfit {
    /// Create the scheduler for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> SchedulerSProfit {
        assert!(m >= 1);
        SchedulerSProfit {
            params,
            m,
            plan: BTreeMap::new(),
            jobs: Vec::new(),
            history: HashMap::new(),
            metrics: SchedulerSProfitMetrics::default(),
            order: Vec::new(),
            empties: Vec::new(),
            cache: None,
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

    /// Try to find the smallest valid deadline for density `v` and segment
    /// bound `bound` (relative): returns `(D, ranges)` on success.
    ///
    /// `k_needed` slots must lie in `[arrival, arrival + D)` with
    /// `D ≤ bound`; `min_d` enforces both the `(1+ε)L` floor and the
    /// previous segment's bound (for profit-value consistency). The scan
    /// walks whole runs and gaps — one band check per run — and returns the
    /// accepted ticks as ranges; tick for tick it accepts exactly what the
    /// per-tick oracle accepts, because every tick of a run shares its
    /// population (and every gap tick trivially fits once
    /// `allot ≤ capacity`).
    fn search_segment(
        &self,
        arrival: Time,
        bound: u64,
        min_d: u64,
        v: f64,
        allot: u32,
        k_needed: usize,
    ) -> Option<(u64, Vec<(Time, Time)>)> {
        if min_d > bound {
            return None;
        }
        let capacity = self.params.b() * self.m as f64;
        // Even an empty slot must accommodate the allotment.
        if allot as f64 > capacity {
            return None;
        }
        let c = self.params.c();
        let mut found: Vec<(Time, Time)> = Vec::new();
        let mut count = 0usize;
        let mut t = arrival;
        let end = arrival.saturating_add(bound);
        while t < end && count < k_needed {
            let (stop, usable) = match segment_at(&self.plan, t) {
                Some(seg) => (seg.end.min(end), seg_fits(seg, v, allot, c, capacity)),
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
        let tail = Segment {
            end: seg.end,
            entries: seg.entries.clone(),
            prefix: seg.prefix.clone(),
        };
        self.plan.get_mut(&start).expect("just found").end = at;
        self.plan.insert(at, tail);
    }

    /// Add `(density, allot, id)` to every tick of `ranges`: split the
    /// boundary runs, extend the covered runs, and materialize runs for the
    /// covered gap portions.
    fn insert_ranges(&mut self, ranges: &[(Time, Time)], density: f64, allot: u32, id: JobId) {
        let e = SlotEntry { density, allot, id };
        for &(s, end) in ranges {
            self.split_at(s);
            self.split_at(end);
            let mut cur = s;
            while cur < end {
                match self.plan.range(cur..).next().map(|(st, sg)| (*st, sg.end)) {
                    Some((st, seg_end)) if st == cur => {
                        self.plan.get_mut(&st).expect("just seen").insert(e);
                        cur = seg_end;
                    }
                    next => {
                        let gap_end = match next {
                            Some((st, _)) => st.min(end),
                            None => end,
                        };
                        self.plan.insert(cur, Segment::single(gap_end, e));
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
        self.cache = None;
        self.empties.clear();
        for &(s, e) in &job.ranges {
            for (st, seg) in self.plan.range_mut(s..e) {
                seg.remove(id);
                if seg.entries.is_empty() {
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
    /// simulation, so this is amortized O(1) per allocate (the seed
    /// implementation rebuilt the map via `split_off` on every call).
    fn retire(&mut self, now: Time) {
        while let Some((&start, seg)) = self.plan.iter().next() {
            if seg.end > now {
                break;
            }
            self.plan.remove(&start);
        }
    }

    /// The full allocation decision: retire past runs, rank the current
    /// run's population (density desc, id asc), fill greedily, and record
    /// the cached-replay interval.
    fn decide(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.retire(view.now);
        out.clear();
        let now = view.now;
        let plan = &self.plan;
        let order = &mut self.order;
        order.clear();
        if let Some(seg) = segment_at(plan, now) {
            order.extend(seg.entries.iter().copied());
            order.sort_by(|a, b| b.density.total_cmp(&a.density).then(a.id.0.cmp(&b.id.0)));
            let mut left = view.m;
            for e in order.iter() {
                if left == 0 {
                    break;
                }
                if view.ready_count(e.id).is_none() {
                    continue;
                }
                if e.allot <= left {
                    out.push((e.id, e.allot));
                    left -= e.allot;
                }
            }
        }
        let until = match segment_at(&self.plan, now) {
            Some(seg) => Some(seg.end),
            None => next_start_after(&self.plan, now),
        };
        self.cache = Some((now, until));
    }
}

impl OnlineScheduler for SchedulerSProfit {
    fn name(&self) -> String {
        format!("S-profit(eps={})", self.params.epsilon())
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        self.cache = None;
        let w = info.work.as_f64();
        let l = info.span.as_f64();
        let brent = AlgoParams::brent_time(w, l, self.m);
        // Theorem 3's assumption, clamped if the input violates it.
        let x_star = info
            .profit
            .flat_until()
            .as_f64()
            .max((1.0 + self.params.epsilon()) * brent);
        let denom = x_star / self.params.good_factor() - l;
        debug_assert!(denom > 0.0, "x* >= (1+eps)L makes the denominator positive");
        let allot = ((((w - l) / denom).ceil() as u32).max(1)).min(self.m);
        let x = AlgoParams::x_time(w, l, allot);
        let k_needed = ((self.params.fresh_factor() * x).ceil() as usize).max(1);
        let xn = x * allot as f64;
        let min_d_floor = ((1.0 + self.params.epsilon()) * l).floor() as u64 + 1;

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
            // the seed implementation's largest slot key.)
            let horizon = self
                .plan
                .iter()
                .next_back()
                .map(|(_, seg)| seg.end.ticks() - 1)
                .unwrap_or(0)
                .max(info.arrival.ticks());
            let cap = horizon - info.arrival.ticks().min(horizon) + k_needed as u64 + 2;
            let last = candidates.last().map(|(b, _)| *b).unwrap_or(0);
            candidates.push((last + cap, info.profit.tail_value()));
        }

        let mut prev_bound = 0u64;
        for (bound, value) in candidates {
            let v = value as f64 / xn;
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
                self.metrics.stretch_sum += d as f64 / x_star;
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

    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        // Cached replay: no hook fired, no ready count moved, and `now` is
        // still inside the interval the last decision is constant on — the
        // previous contents of `out` are byte-identical to a recompute.
        if delta.is_empty() {
            if let Some((from, until)) = self.cache {
                if view.now >= from && until.is_none_or(|u| view.now < u) {
                    return true;
                }
            }
        }
        self.decide(view, out);
        true
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
        self.order.clear();
        self.empties.clear();
        self.cache = None;
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

    #[test]
    fn allocate_delta_replays_on_empty_delta_within_the_run() {
        let m = 8u32;
        let mut s = SchedulerSProfit::with_epsilon(m, 1.0);
        s.on_arrival(
            &info(0, 0, 64, 4, StepProfitFn::deadline(Time(40), 10)),
            Time(0),
        );
        let jobs = [(JobId(0), 8u32)];
        let empty = ViewDelta::default();
        let mut out = Allocation::new();
        let view0 = TickView::new(m, Time(0), &jobs);
        assert!(s.allocate_delta(&empty, &view0, &mut out));
        let first = out.clone();
        assert!(!first.is_empty(), "lone job runs in its first slot");
        let until = s.stable_until(Time(0)).expect("inside the first run");
        // Replay inside the run: `out` is left untouched (poison it to
        // prove the fast path never writes).
        out.push((JobId(99), 1));
        let view1 = TickView::new(m, Time(1), &jobs);
        assert!(until > Time(1), "run is longer than one tick");
        assert!(s.allocate_delta(&empty, &view1, &mut out));
        assert_eq!(out.last(), Some(&(JobId(99), 1)), "replay left out alone");
        out.pop();
        assert_eq!(out, first);
        // Past the boundary: recomputed (and identical to allocate_into).
        let view2 = TickView::new(m, until, &jobs);
        assert!(s.allocate_delta(&empty, &view2, &mut out));
        let mut fresh = Allocation::new();
        let mut twin = SchedulerSProfit::with_epsilon(m, 1.0);
        twin.on_arrival(
            &info(0, 0, 64, 4, StepProfitFn::deadline(Time(40), 10)),
            Time(0),
        );
        twin.allocate_into(&TickView::new(m, until, &jobs), &mut fresh);
        assert_eq!(out, fresh);
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
                let capacity = s.params.b() * m as f64;
                let c = s.params.c();
                for (start, seg) in &s.plan {
                    prop_assert!(seg.end > *start, "runs are non-empty");
                    prop_assert!(!seg.entries.is_empty(), "empty runs are dropped");
                    for anchor in &seg.entries {
                        let band: u64 = seg
                            .entries
                            .iter()
                            .filter(|e| {
                                e.density >= anchor.density
                                    && e.density < c * anchor.density
                            })
                            .map(|e| e.allot as u64)
                            .sum();
                        prop_assert!(
                            band as f64 <= capacity + 1e-9,
                            "run at {start}: band at {} holds {band} > b*m = {capacity}",
                            anchor.density
                        );
                        // The prefix-sum band load agrees with the scan.
                        prop_assert_eq!(
                            seg.band_load(anchor.density, c * anchor.density),
                            band
                        );
                    }
                    // Prefix table is consistent with the entries.
                    let total: u64 = seg.entries.iter().map(|e| e.allot as u64).sum();
                    prop_assert_eq!(*seg.prefix.last().unwrap(), total);
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
