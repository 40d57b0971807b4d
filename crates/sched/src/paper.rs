//! The paper's two algorithms, transcribed rule by rule.
//!
//! [`PaperS`] is scheduler S of Section 3 and [`PaperSProfit`] the
//! general-profit scheduler of Section 5. Each reads next to its section:
//! one comment per rule, plain maps, sorted scans, and every quantity
//! computed where the paper defines it. Condition (2) is checked by
//! [`fits_population`], over `Q` for S and over each slot's population for
//! S-profit, so the transcriptions share no band code with production.
//! Nothing here is indexed or incremental; that is the work of
//! [`SchedulerS`](crate::SchedulerS) and
//! [`SchedulerSProfit`](crate::SchedulerSProfit). Every rule is decided
//! exactly, with the `f64` constants read as the dyadic rationals they are
//! and `x_i·n_i = W_i − L_i + L_i·n_i` kept as an integer, and derived here
//! rather than taken from the production model.
//!
//! The transcriptions report the production `name()` strings, so their
//! `SimResult`s and `dagsched-verify` JSONL event logs compare equal to the
//! production schedulers'. The production-vs-paper suite of
//! `dagsched-verify` (`tests/legacy_differential.rs`) demands exactly that,
//! run for run, on both engine paths.

use crate::bands::fits_population;
use dagsched_core::{cmp_products, least, AlgoParams, Density, Dyadic, JobId, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    TickView,
};
use std::collections::{BTreeMap, HashMap};

/// What S computes for a job when it arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SJob {
    /// The allotment `n_i`, at most `m`.
    pub(crate) allot: u32,
    /// The budget times the allotment, `x_i·n_i = W_i − L_i + L_i·n_i`.
    pub(crate) xn: u128,
    /// The density `v_i = p_i/(x_i·n_i)`.
    pub(crate) density: Density,
    /// The absolute deadline `r_i + D_i`.
    deadline: Time,
    /// `n_i ≤ m`: the job can run at its allotment at all.
    pub(crate) admissible: bool,
    /// δ-good at arrival: `D_i ≥ (1+2δ)·x_i`.
    pub(crate) delta_good: bool,
    /// Started (in `Q`) rather than parked (in `P`).
    started: bool,
}

impl SJob {
    /// S's arrival rules for `info` on `m` processors.
    pub(crate) fn derive(info: &JobInfo, params: &AlgoParams, m: u32) -> SJob {
        // A throughput job earns p_i if it completes within D_i of r_i.
        let (d_rel, profit) = info
            .profit
            .as_deadline()
            .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
        let (w, l, d) = (info.work.units(), info.span.units(), d_rel.ticks());
        let g = Dyadic::new(params.good_factor());
        // Budget x_i = (W_i − L_i)/n_i + L_i, so x_i·n_i = W_i − L_i + L_i·n_i.
        let xn = |n: u32| (w - l) as u128 + l as u128 * n as u128;
        // δ-good at n: D_i ≥ (1+2δ) x_i, i.e. D_i·n ≥ (1+2δ)·x_i·n.
        let good =
            |n: u32| cmp_products(d as u128 * n as u128, 1, 0, g.mant(), xn(n), g.exp()).is_ge();

        // Allotment: n_i = (W_i − L_i)/(D_i/(1+2δ) − L_i), rounded up to
        // at least one processor: the least n ≥ 1 at which J_i is δ-good.
        // A job that needs more than m processors is never admissible, and
        // no n helps when D_i/(1+2δ) < L_i; at D_i/(1+2δ) = L_i only a
        // chain (W_i = L_i) is δ-good, on one processor.
        let n = least(1.0, m as u64, |n| good(n as u32));
        let (allot, admissible) = n.map_or((m, false), |n| (n as u32, true));
        SJob {
            allot,
            xn: xn(allot),
            // Density v_i = p_i/(x_i n_i).
            density: Density::new(profit, xn(allot)),
            deadline: info.arrival.saturating_add(d),
            admissible,
            delta_good: admissible && good(allot),
            started: false,
        }
    }

    /// δ-fresh with `slack = d_i − t` ticks left under `f = 1+δ`:
    /// `d_i − t ≥ (1+δ) x_i`, i.e. `slack·n_i ≥ (1+δ)·x_i·n_i`.
    pub(crate) fn fresh(&self, slack: u64, f: Dyadic) -> bool {
        let lhs = slack as u128 * self.allot as u128;
        self.admissible && cmp_products(lhs, 1, 0, f.mant(), self.xn, f.exp()).is_ge()
    }
}

/// Scheduler S of Section 3; [`work_conserving`](Self::work_conserving)
/// makes it S-wc.
#[derive(Debug)]
pub struct PaperS {
    params: AlgoParams,
    m: u32,
    /// Every alive job S has seen: `Q` is the started ones, `P` the rest.
    jobs: HashMap<JobId, SJob>,
    work_conserving: bool,
    report: Option<Vec<AdmissionEvent>>,
}

impl PaperS {
    /// S for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> PaperS {
        assert!(m >= 1);
        PaperS {
            params,
            m,
            jobs: HashMap::new(),
            work_conserving: false,
            report: None,
        }
    }

    /// S with the recommended constants for `epsilon`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> PaperS {
        PaperS::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// S-wc: processors S leaves idle go to ready nodes (not in the paper).
    pub fn work_conserving(mut self) -> PaperS {
        self.work_conserving = true;
        self
    }

    fn record(&mut self, job: JobId, decision: AdmissionDecision) {
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent { job, decision });
        }
    }

    /// The ids of `Q` (`started`) or of `P`, highest density first; equal
    /// densities in descending id order.
    fn by_density(&self, started: bool) -> Vec<JobId> {
        let mut keyed: Vec<(Density, JobId)> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.started == started)
            .map(|(&id, job)| (job.density, id))
            .collect();
        keyed.sort_by(|a, b| b.cmp(a));
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Condition (2) for `job`: N(Q ∪ {J_i}, v_j, c·v_j) ≤ b·m for every
    /// anchor `v_j`, the candidate's own density included.
    fn fits(&self, job: &SJob) -> bool {
        let q: Vec<(Density, u32)> = self
            .jobs
            .values()
            .filter(|j| j.started)
            .map(|j| (j.density, j.allot))
            .collect();
        let (c, capacity) = (
            Dyadic::new(self.params.c()),
            self.params.band_capacity(self.m),
        );
        fits_population(&q, job.density, job.allot, c, capacity)
    }

    fn start(&mut self, id: JobId) {
        self.jobs.get_mut(&id).expect("known job").started = true;
        self.record(id, AdmissionDecision::Admitted);
    }

    /// S-wc's backfill: the processors left over go to ready nodes, topping
    /// up `Q`'s jobs first and then `P`'s, each highest density first.
    fn backfill(&self, view: &TickView<'_>, mut left: u32, out: &mut Allocation) {
        for id in self
            .by_density(true)
            .into_iter()
            .chain(self.by_density(false))
        {
            if left == 0 {
                return;
            }
            let Some(ready) = view.ready_count(id) else {
                continue;
            };
            let granted = out.iter().position(|&(j, _)| j == id);
            let have = granted.map_or(0, |i| out[i].1);
            let more = ready.saturating_sub(have).min(left);
            if more == 0 {
                continue;
            }
            left -= more;
            match granted {
                Some(i) => out[i].1 += more,
                None => out.push((id, more)),
            }
        }
    }
}

impl OnlineScheduler for PaperS {
    fn name(&self) -> String {
        if self.work_conserving {
            format!("S-wc(eps={})", self.params.epsilon())
        } else {
            format!("S(eps={})", self.params.epsilon())
        }
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let job = SJob::derive(info, &self.params, self.m);
        self.jobs.insert(info.id, job);
        // Band admission: start J_i now if it is δ-good and condition (2)
        // still holds with it. Otherwise it waits in P.
        if job.delta_good && self.fits(&job) {
            self.start(info.id);
        } else {
            let reason = if !job.admissible {
                AdmissionReason::Infeasible
            } else if !job.delta_good {
                AdmissionReason::NotDeltaGood
            } else {
                AdmissionReason::BandCapacity
            };
            self.record(info.id, AdmissionDecision::Deferred(reason));
        }
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        self.jobs.remove(&id);
        // At each completion, walk P highest density first and start every
        // job that is δ-fresh (d_i − t ≥ (1+δ) x_i) and passes condition
        // (2). A parked job whose deadline has come is dropped.
        for id in self.by_density(false) {
            let job = self.jobs[&id];
            if job.deadline <= now {
                self.jobs.remove(&id);
                self.record(
                    id,
                    AdmissionDecision::Rejected(AdmissionReason::DeadlinePassed),
                );
                continue;
            }
            let f = Dyadic::new(self.params.fresh_factor());
            if job.fresh(job.deadline.since(now), f) && self.fits(&job) {
                self.start(id);
            }
        }
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.jobs.remove(&id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        // Execution: highest density first over Q, each job getting its
        // full allotment n_i while that many processors are left.
        let mut left = view.m;
        let mut out = Vec::new();
        for id in self.by_density(true) {
            let allot = self.jobs[&id].allot;
            if allot <= left {
                out.push((id, allot));
                left -= allot;
            }
        }
        if self.work_conserving {
            self.backfill(view, left, &mut out);
        }
        out
    }

    fn allocation_stable_between_events(&self) -> bool {
        // Q changes only at events. S-wc's backfill also reads ready
        // counts, which the engine checks before it replays an allocation.
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
}

/// A member of `J(t)`: a job assigned slot `t`.
#[derive(Debug, Clone, Copy)]
struct Assigned {
    id: JobId,
    density: Density,
    allot: u32,
}

/// The general-profit scheduler of Section 5. Its allocation depends on the
/// tick, so it claims no stability and the engine asks it every tick.
#[derive(Debug)]
pub struct PaperSProfit {
    params: AlgoParams,
    m: u32,
    /// `J(t)` for every slot `t` assigned to some job.
    plan: BTreeMap<Time, Vec<Assigned>>,
    /// `I_i`: the slots of every assigned job.
    slots: HashMap<JobId, Vec<Time>>,
}

impl PaperSProfit {
    /// S-profit for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> PaperSProfit {
        assert!(m >= 1);
        PaperSProfit {
            params,
            m,
            plan: BTreeMap::new(),
            slots: HashMap::new(),
        }
    }

    /// S-profit with the recommended constants for `epsilon`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> PaperSProfit {
        PaperSProfit::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// `J(t)` as `(density, allotment)` pairs.
    fn population(&self, t: Time) -> Vec<(Density, u32)> {
        self.plan.get(&t).map_or_else(Vec::new, |members| {
            members.iter().map(|a| (a.density, a.allot)).collect()
        })
    }

    /// The first `k` slots of `[r, r + bound)` that take `J_i` at density
    /// `v`, if there are `k` of them and `min_d ≤ bound`.
    fn fitting_slots(
        &self,
        arrival: Time,
        min_d: u64,
        bound: u64,
        v: Density,
        allot: u32,
        k: usize,
    ) -> Option<Vec<Time>> {
        let (c, capacity) = (
            Dyadic::new(self.params.c()),
            self.params.band_capacity(self.m),
        );
        // A job wider than b·m fits no slot.
        if min_d > bound || allot as u64 > capacity {
            return None;
        }
        let mut found = Vec::new();
        let mut t = arrival;
        let end = arrival.saturating_add(bound);
        while t < end && found.len() < k {
            // Slot condition: J(t) ∪ {J_i} keeps every band [v_j, c·v_j)
            // within b·m processors.
            if fits_population(&self.population(t), v, allot, c, capacity) {
                found.push(t);
            }
            t = t.after(1);
        }
        (found.len() == k).then_some(found)
    }

    fn release(&mut self, id: JobId) {
        for t in self.slots.remove(&id).unwrap_or_default() {
            if let Some(members) = self.plan.get_mut(&t) {
                members.retain(|a| a.id != id);
                if members.is_empty() {
                    self.plan.remove(&t);
                }
            }
        }
    }
}

impl OnlineScheduler for PaperSProfit {
    fn name(&self) -> String {
        format!("S-profit(eps={})", self.params.epsilon())
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let (w, l) = (info.work.units(), info.span.units());
        let (m, flat) = (self.m as u128, info.profit.flat_until().ticks() as u128);
        let g = Dyadic::new(self.params.good_factor());
        let one_eps = Dyadic::new(1.0 + self.params.epsilon());
        // x_i·n_i = W_i − L_i + L_i·n_i for the budget x_i = (W_i − L_i)/n_i + L_i.
        let xn = |n: u128| (w - l) as u128 + l as u128 * n;
        // x_i* is where p_i stops being flat; where the input breaks
        // Theorem 3's assumption it is raised to (1+ε)((W_i − L_i)/m + L_i)
        // = (1+ε)·xn(m)/m. Allotment: n_i = (W_i − L_i)/(x_i*/(1+2δ) − L_i),
        // rounded up, at least one processor and at most m: the least n
        // with n·x_i* ≥ (1+2δ)·x_i·n, for either candidate of the max.
        let covers = |n: u64| {
            let n = n as u128;
            cmp_products(n * flat, 1, 0, g.mant(), xn(n), g.exp()).is_ge()
                || cmp_products(
                    n * xn(m),
                    one_eps.mant(),
                    one_eps.exp(),
                    g.mant() * m,
                    xn(n),
                    g.exp(),
                )
                .is_ge()
        };
        let allot = least(1.0, self.m as u64, covers).unwrap_or(self.m as u64) as u128;
        // A valid deadline needs |I_i| = ⌈(1+δ) x_i⌉ slots: the least k
        // with k·n_i ≥ (1+δ)·x_i·n_i.
        let f = Dyadic::new(self.params.fresh_factor());
        let k = least(1.0, u64::MAX, |k| {
            cmp_products(k as u128 * allot, 1, 0, f.mant(), xn(allot), f.exp()).is_ge()
        })
        .unwrap_or(u64::MAX) as usize;

        // Candidate deadlines: the profit steps in order, each as
        // (last tick it covers, value). The profit is constant within a
        // step, so only the smallest deadline in a step matters. A tail
        // that pays forever becomes one more step, long enough to cross
        // every slot assigned so far and then k more.
        let mut steps: Vec<(u64, u64)> = info
            .profit
            .segments()
            .iter()
            .map(|(b, v)| (b.ticks(), *v))
            .collect();
        // Smallest valid deadline: the first step holding a D > (1+ε)L_i
        // with k slots of [r_i, r_i + D) that take J_i at density
        // v = p_i(D)/(x_i n_i). Slot assignment: I_i is those k slots.
        let min_d_floor =
            (one_eps.mul_floor(l as u128).min(u64::MAX as u128) as u64).saturating_add(1);
        if info.profit.tail_value() > 0 {
            // The tail step starts past the later of the last step and
            // the deadline floor.
            let r = info.arrival.ticks();
            let horizon = self.plan.keys().next_back().map_or(0, |t| t.ticks()).max(r);
            let last = steps.last().map_or(0, |&(b, _)| b).max(min_d_floor);
            steps.push((
                last + (horizon - r + k as u64 + 2),
                info.profit.tail_value(),
            ));
        }
        let allot = allot as u32;
        let mut prev = 0u64;
        for (bound, value) in steps {
            let v = Density::new(value, xn(allot as u128));
            let min_d = min_d_floor.max(prev + 1);
            if let Some(slots) = self.fitting_slots(info.arrival, min_d, bound, v, allot, k) {
                for &t in &slots {
                    let member = Assigned {
                        id: info.id,
                        density: v,
                        allot,
                    };
                    self.plan.entry(t).or_default().push(member);
                }
                self.slots.insert(info.id, slots);
                return;
            }
            prev = bound;
        }
        // No valid deadline before the profit runs out: J_i never runs.
    }

    fn on_completion(&mut self, id: JobId, _now: Time) {
        // A finished job gives its slots back.
        self.release(id);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        // So does one whose profit has run out.
        self.release(id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        // Execution: at tick t, the alive jobs of J(t), highest density
        // first (equal densities by ascending id), each at its allotment
        // n_i while that many processors are left.
        let mut members = self.plan.get(&view.now).cloned().unwrap_or_default();
        members.sort_by(|a, b| b.density.cmp(&a.density).then(a.id.cmp(&b.id)));
        let mut left = view.m;
        let mut out = Vec::new();
        for a in members {
            if view.ready_count(a.id).is_some() && a.allot <= left {
                out.push((a.id, a.allot));
                left -= a.allot;
            }
        }
        out
    }
}
