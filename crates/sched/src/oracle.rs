//! Pre-refactor scheduler implementations, kept as **test oracles**.
//!
//! This PR rewrote the hot paths of [`SchedulerS`](crate::SchedulerS),
//! [`SNoAdmission`](crate::SNoAdmission) and [`EdfAc`](crate::EdfAc) to be
//! allocation-free and incrementally indexed. The versions in this module
//! are the seed implementations those rewrites must be *byte-identical* to:
//! `HashMap` job state, `BTreeSet` queues, the O(n)-sweep
//! [`ReferenceBands`], per-tick `Vec` allocations and all. They keep the
//! production `name()` strings so a [`SimResult`](dagsched_engine) or a
//! `dagsched-verify` JSONL log produced by an oracle compares equal to one
//! produced by its rewritten counterpart — which is exactly what
//! `crates/verify/tests/legacy_differential.rs` asserts over the
//! stream-equivalence corpus. `crates/verify/tests/profit_differential.rs`
//! does the same for [`OracleSProfit`] and [`OracleRandomOrder`].
//!
//! Do not optimize this module; its value is being frozen.

use crate::bands::{fits_population, reference::ReferenceBands};
use crate::ord::OrdF64;
use dagsched_core::{AlgoParams, JobId, Rng64, Time, Work};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    TickView,
};
use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet};

/// Per-job quantities S computes at arrival.
#[derive(Debug, Clone)]
struct SJob {
    allot: u32,
    x: f64,
    density: f64,
    abs_deadline: Time,
    admissible: bool,
    in_q: bool,
}

/// The seed implementation of scheduler S (metrics and invariant hooks
/// omitted — the oracle only has to *schedule* identically).
#[derive(Debug)]
pub struct OracleSchedulerS {
    params: AlgoParams,
    m: u32,
    jobs: HashMap<JobId, SJob>,
    q: BTreeSet<(OrdF64, JobId)>,
    p: BTreeSet<(OrdF64, JobId)>,
    bands: ReferenceBands,
    speed_hint: f64,
    work_conserving: bool,
    report: Option<Vec<AdmissionEvent>>,
}

impl OracleSchedulerS {
    /// Create the oracle for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> OracleSchedulerS {
        assert!(m >= 1);
        let capacity = params.b() * m as f64;
        OracleSchedulerS {
            params,
            m,
            jobs: HashMap::new(),
            q: BTreeSet::new(),
            p: BTreeSet::new(),
            bands: ReferenceBands::new(params.c(), capacity),
            speed_hint: 1.0,
            work_conserving: false,
            report: None,
        }
    }

    /// Oracle counterpart of `SchedulerS::with_epsilon`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> OracleSchedulerS {
        OracleSchedulerS::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// Oracle counterpart of `SchedulerS::with_speed_hint`.
    pub fn with_speed_hint(mut self, s: f64) -> OracleSchedulerS {
        assert!(s.is_finite() && s > 0.0, "speed hint must be positive");
        self.speed_hint = s;
        self
    }

    /// Oracle counterpart of `SchedulerS::work_conserving`.
    pub fn work_conserving(mut self) -> OracleSchedulerS {
        self.work_conserving = true;
        self
    }

    fn record(&mut self, job: JobId, decision: AdmissionDecision) {
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent { job, decision });
        }
    }

    fn start_job(&mut self, id: JobId, from_p: bool) {
        let job = self.jobs.get_mut(&id).expect("known job");
        job.in_q = true;
        let key = (OrdF64(job.density), id);
        let (density, allot) = (job.density, job.allot);
        if from_p {
            self.p.remove(&key);
        }
        self.q.insert(key);
        self.bands.insert(id, density, allot);
        self.record(id, AdmissionDecision::Admitted);
    }

    fn forget(&mut self, id: JobId) {
        if let Some(job) = self.jobs.remove(&id) {
            let key = (OrdF64(job.density), id);
            if job.in_q {
                self.q.remove(&key);
                self.bands.remove(id);
            } else {
                self.p.remove(&key);
            }
        }
    }

    fn backfill(&self, view: &TickView<'_>, mut left: u32, out: &mut Allocation) -> u32 {
        let ready: HashMap<JobId, u32> = view.jobs().iter().copied().collect();
        let mut granted: HashMap<JobId, u32> = out.iter().copied().collect();
        for &(_, id) in self.q.iter().rev() {
            if left == 0 {
                return 0;
            }
            let Some(&r) = ready.get(&id) else { continue };
            let have = granted.get(&id).copied().unwrap_or(0);
            let want = r.saturating_sub(have).min(left);
            if want == 0 {
                continue;
            }
            left -= want;
            granted.insert(id, have + want);
            match out.iter_mut().find(|(j, _)| *j == id) {
                Some(slot) => slot.1 += want,
                None => out.push((id, want)),
            }
        }
        for &(_, id) in self.p.iter().rev() {
            if left == 0 {
                return 0;
            }
            let Some(&r) = ready.get(&id) else { continue };
            let want = r.min(left);
            if want == 0 {
                continue;
            }
            left -= want;
            debug_assert!(!granted.contains_key(&id), "P and Q are disjoint");
            out.push((id, want));
        }
        left
    }

    fn admit_from_p(&mut self, now: Time) {
        let candidates: Vec<JobId> = self.p.iter().rev().map(|&(_, id)| id).collect();
        for id in candidates {
            let Some(job) = self.jobs.get(&id) else {
                continue;
            };
            if job.abs_deadline <= now {
                self.forget(id);
                self.record(
                    id,
                    AdmissionDecision::Rejected(AdmissionReason::DeadlinePassed),
                );
                continue;
            }
            if !job.admissible {
                continue;
            }
            let slack = job.abs_deadline.since(now) as f64;
            if slack < self.params.fresh_factor() * job.x {
                continue;
            }
            if self.bands.fits(job.density, job.allot) {
                self.start_job(id, true);
            }
        }
    }
}

impl OnlineScheduler for OracleSchedulerS {
    fn name(&self) -> String {
        if self.work_conserving {
            format!("S-wc(eps={})", self.params.epsilon())
        } else {
            format!("S(eps={})", self.params.epsilon())
        }
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let (d_rel, profit) = info
            .profit
            .as_deadline()
            .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
        let w = info.work.as_f64() / self.speed_hint;
        let l = info.span.as_f64() / self.speed_hint;
        let d = d_rel.as_f64();

        let (allot, admissible) = match self.params.raw_allotment(w, l, d) {
            Some(frac) => {
                let n = (frac.ceil() as u32).max(1);
                (n.min(self.m), n <= self.m)
            }
            None => (self.m, false),
        };
        let x = AlgoParams::x_time(w, l, allot);
        let density = profit as f64 / (x * allot as f64);
        let abs_deadline = info.arrival.saturating_add(d_rel.ticks());
        let delta_good = admissible && d >= self.params.good_factor() * x;

        self.jobs.insert(
            info.id,
            SJob {
                allot,
                x,
                density,
                abs_deadline,
                admissible,
                in_q: false,
            },
        );

        if delta_good && self.bands.fits(density, allot) {
            self.start_job(info.id, false);
        } else {
            let reason = if !admissible {
                AdmissionReason::Infeasible
            } else if !delta_good {
                AdmissionReason::NotDeltaGood
            } else {
                AdmissionReason::BandCapacity
            };
            self.record(info.id, AdmissionDecision::Deferred(reason));
            self.p.insert((OrdF64(density), info.id));
        }
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        self.forget(id);
        self.admit_from_p(now);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.forget(id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut left = view.m;
        let mut out = Vec::new();
        for &(_, id) in self.q.iter().rev() {
            if left == 0 {
                break;
            }
            let job = &self.jobs[&id];
            if job.allot <= left {
                out.push((id, job.allot));
                left -= job.allot;
            }
        }
        if self.work_conserving && left > 0 {
            left = self.backfill(view, left, &mut out);
        }
        let _ = left;
        out
    }

    fn allocation_stable_between_events(&self) -> bool {
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

/// The seed implementation of the admission-less ablation of S.
#[derive(Debug)]
pub struct OracleSNoAdmission {
    m: u32,
    params: AlgoParams,
    /// (density, seq, id, allot) of alive jobs.
    alive: Vec<(f64, u64, JobId, u32)>,
    seq: u64,
    report: Option<Vec<AdmissionEvent>>,
}

impl OracleSNoAdmission {
    /// Create the oracle ablation.
    pub fn new(m: u32, params: AlgoParams) -> OracleSNoAdmission {
        OracleSNoAdmission {
            m,
            params,
            alive: Vec::new(),
            seq: 0,
            report: None,
        }
    }
}

impl OnlineScheduler for OracleSNoAdmission {
    fn name(&self) -> String {
        "S-noadmit".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let (d_rel, profit) = info
            .profit
            .as_deadline()
            .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
        let w = info.work.as_f64();
        let l = info.span.as_f64();
        let allot = match self.params.raw_allotment(w, l, d_rel.as_f64()) {
            Some(frac) => ((frac.ceil() as u32).max(1)).min(self.m),
            None => self.m,
        };
        let x = AlgoParams::x_time(w, l, allot);
        let density = profit as f64 / (x * allot as f64);
        self.alive.push((density, self.seq, info.id, allot));
        self.seq += 1;
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent {
                job: info.id,
                decision: AdmissionDecision::Admitted,
            });
        }
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|e| e.2 != id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|e| e.2 != id);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut order = self.alive.clone();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut left = view.m;
        let mut out = Vec::new();
        for (_, _, id, allot) in order {
            if left == 0 {
                break;
            }
            if allot <= left {
                out.push((id, allot));
                left -= allot;
            }
        }
        out
    }
    fn allocation_stable_between_events(&self) -> bool {
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

/// One job's presence in one time slot of the general-profit oracle.
#[derive(Debug, Clone, Copy)]
struct OracleSlotEntry {
    density: f64,
    allot: u32,
    id: JobId,
}

/// Assignment state of one job in the general-profit oracle: the absolute
/// slot ticks it may still run in, ascending.
#[derive(Debug, Clone)]
struct OraclePJob {
    slots: Vec<Time>,
}

/// The seed implementation of the Section 5 general-profit scheduler: a
/// sparse `BTreeMap<Time, Vec<_>>` slot plan rebuilt per probe via
/// `population`, pruned with `split_off` inside `allocate`, and therefore
/// deliberately *unstable* between events — byte-for-byte the scheduler the
/// crate shipped with through PR 9. The segment-plan rewrite in
/// [`profit`](crate::profit) is held byte-identical to this oracle by
/// `crates/verify/tests/profit_differential.rs`.
#[derive(Debug)]
pub struct OracleSProfit {
    params: AlgoParams,
    m: u32,
    jobs: HashMap<JobId, OraclePJob>,
    /// Sparse per-tick populations `J(t)` for ticks with assignments.
    slots: BTreeMap<Time, Vec<OracleSlotEntry>>,
}

impl OracleSProfit {
    /// Create the oracle for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> OracleSProfit {
        assert!(m >= 1);
        OracleSProfit {
            params,
            m,
            jobs: HashMap::new(),
            slots: BTreeMap::new(),
        }
    }

    /// Oracle counterpart of `SchedulerSProfit::with_epsilon`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> OracleSProfit {
        OracleSProfit::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// Population of one tick as `(density, allot)` pairs.
    fn population(&self, t: Time) -> Vec<(f64, u32)> {
        self.slots
            .get(&t)
            .map(|v| v.iter().map(|e| (e.density, e.allot)).collect())
            .unwrap_or_default()
    }

    fn search_segment(
        &self,
        arrival: Time,
        bound: u64,
        min_d: u64,
        v: f64,
        allot: u32,
        k_needed: usize,
    ) -> Option<(u64, Vec<Time>)> {
        if min_d > bound {
            return None;
        }
        let capacity = self.params.b() * self.m as f64;
        if allot as f64 > capacity {
            return None;
        }
        let mut found: Vec<Time> = Vec::with_capacity(k_needed);
        let mut t = arrival;
        let end = arrival.saturating_add(bound);
        while t < end && found.len() < k_needed {
            if self.slots.range(t..).next().is_none() {
                while t < end && found.len() < k_needed {
                    found.push(t);
                    t = t.after(1);
                }
                break;
            }
            if fits_population(&self.population(t), v, allot, self.params.c(), capacity) {
                found.push(t);
            }
            t = t.after(1);
        }
        if found.len() < k_needed {
            return None;
        }
        let last = *found.last().expect("k_needed >= 1");
        let d = (last.since(arrival) + 1).max(min_d);
        debug_assert!(d <= bound);
        Some((d, found))
    }

    fn release(&mut self, id: JobId, now: Time) {
        let Some(job) = self.jobs.remove(&id) else {
            return;
        };
        for t in job.slots {
            if t < now {
                continue;
            }
            if let Some(entries) = self.slots.get_mut(&t) {
                entries.retain(|e| e.id != id);
                if entries.is_empty() {
                    self.slots.remove(&t);
                }
            }
        }
    }
}

impl OnlineScheduler for OracleSProfit {
    fn name(&self) -> String {
        format!("S-profit(eps={})", self.params.epsilon())
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let w = info.work.as_f64();
        let l = info.span.as_f64();
        let brent = AlgoParams::brent_time(w, l, self.m);
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

        let mut candidates: Vec<(u64, u64)> = info
            .profit
            .segments()
            .iter()
            .map(|(b, v)| (b.ticks(), *v))
            .collect();
        if info.profit.tail_value() > 0 {
            let horizon = self
                .slots
                .keys()
                .next_back()
                .map(|t| t.ticks())
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
            if let Some((_, slots)) =
                self.search_segment(info.arrival, bound, min_d, v, allot, k_needed)
            {
                for &t in &slots {
                    self.slots.entry(t).or_default().push(OracleSlotEntry {
                        density: v,
                        allot,
                        id: info.id,
                    });
                }
                self.jobs.insert(info.id, OraclePJob { slots });
                return;
            }
            prev_bound = bound;
        }
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        self.release(id, now);
    }

    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.release(id, now);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        self.slots = self.slots.split_off(&view.now);
        let Some(entries) = self.slots.get(&view.now) else {
            return Vec::new();
        };
        let mut order: Vec<OracleSlotEntry> = entries.clone();
        order.sort_by(|a, b| b.density.total_cmp(&a.density).then(a.id.0.cmp(&b.id.0)));
        let alive: HashMap<JobId, u32> = view.jobs().iter().copied().collect();
        let mut left = view.m;
        let mut out = Vec::new();
        for e in order {
            if left == 0 {
                break;
            }
            if !alive.contains_key(&e.id) {
                continue;
            }
            if e.allot <= left {
                out.push((e.id, e.allot));
                left -= e.allot;
            }
        }
        out
    }

    fn allocation_stable_between_events(&self) -> bool {
        // The frozen value: the seed scheduler both reads `view.now` and
        // mutates `self.slots` on every `allocate` call, so it must stay on
        // the naive engine path.
        false
    }

    fn reset(&mut self) -> bool {
        self.jobs.clear();
        self.slots.clear();
        true
    }
}

/// The seed implementation of the random work-conserving baseline: a fresh
/// shuffle of the alive list per `allocate` call, fed through a `HashMap`
/// ready-count walk — byte-for-byte the `RandomOrder` the crate shipped with
/// through PR 9, pinned to the naive per-tick path. The width-1
/// bounded-stability rewrite in [`baselines`](crate::baselines) is held
/// byte-identical to this oracle by
/// `crates/verify/tests/profit_differential.rs`.
#[derive(Debug)]
pub struct OracleRandomOrder {
    seed: u64,
    rng: Rng64,
    /// Alive job ids in arrival order (the pre-shuffle order).
    alive: Vec<JobId>,
}

impl OracleRandomOrder {
    /// Create the oracle for the given seed (`m` comes from the view).
    pub fn new(_m: u32, seed: u64) -> OracleRandomOrder {
        OracleRandomOrder {
            seed,
            rng: Rng64::seed_from(seed),
            alive: Vec::new(),
        }
    }
}

impl OnlineScheduler for OracleRandomOrder {
    fn name(&self) -> String {
        "RANDOM".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        self.alive.push(info.id);
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut ids = self.alive.clone();
        self.rng.shuffle(&mut ids);
        let ready: HashMap<JobId, u32> = view.jobs().iter().copied().collect();
        let mut left = view.m;
        let mut out = Vec::new();
        for id in ids {
            if left == 0 {
                break;
            }
            let Some(&r) = ready.get(&id) else { continue };
            let k = r.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
        out
    }
    fn allocation_stable_between_events(&self) -> bool {
        // The frozen value: one RNG draw per call pins the oracle to the
        // naive per-tick path.
        false
    }
    fn reset(&mut self) -> bool {
        self.alive.clear();
        self.rng = Rng64::seed_from(self.seed);
        true
    }
}

/// Per-admitted-job record of the EDF-AC oracle.
#[derive(Debug, Clone, Copy)]
struct AdmJob {
    abs_deadline: Time,
    work: Work,
    seq: u64,
}

/// The seed implementation of EDF with demand-bound admission control.
#[derive(Debug)]
pub struct OracleEdfAc {
    m: u32,
    admitted: HashMap<JobId, AdmJob>,
    seq: u64,
    report: Option<Vec<AdmissionEvent>>,
}

impl OracleEdfAc {
    /// Create the oracle for `m` processors.
    pub fn new(m: u32) -> OracleEdfAc {
        assert!(m >= 1);
        OracleEdfAc {
            m,
            admitted: HashMap::new(),
            seq: 0,
            report: None,
        }
    }

    fn admission_failure(
        &self,
        cand: &AdmJob,
        cand_span: Work,
        now: Time,
    ) -> Option<AdmissionReason> {
        if cand.abs_deadline.since(now) < cand_span.units() {
            return Some(AdmissionReason::SpanInfeasible);
        }
        let mut deadlines: Vec<Time> = self
            .admitted
            .values()
            .map(|j| j.abs_deadline)
            .chain(std::iter::once(cand.abs_deadline))
            .collect();
        deadlines.sort_unstable();
        deadlines.dedup();
        for &d in &deadlines {
            let window = d.since(now) as u128 * self.m as u128;
            let demand: u128 = self
                .admitted
                .values()
                .chain(std::iter::once(cand))
                .filter(|j| j.abs_deadline <= d)
                .map(|j| j.work.units() as u128)
                .sum();
            if demand > window {
                return Some(AdmissionReason::DemandBound);
            }
        }
        None
    }
}

impl OnlineScheduler for OracleEdfAc {
    fn name(&self) -> String {
        "EDF-AC".into()
    }

    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        let abs_deadline = info.abs_deadline().unwrap_or_else(|| {
            info.arrival
                .saturating_add(info.profit.last_useful_time().ticks())
        });
        let cand = AdmJob {
            abs_deadline,
            work: info.work,
            seq: self.seq,
        };
        self.seq += 1;
        let decision = match self.admission_failure(&cand, info.span, now) {
            None => {
                self.admitted.insert(info.id, cand);
                AdmissionDecision::Admitted
            }
            Some(reason) => AdmissionDecision::Rejected(reason),
        };
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent {
                job: info.id,
                decision,
            });
        }
    }

    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.admitted.remove(&id);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.admitted.remove(&id);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut order: Vec<(Time, u64, JobId)> = view
            .jobs()
            .iter()
            .filter_map(|&(id, _)| self.admitted.get(&id).map(|j| (j.abs_deadline, j.seq, id)))
            .collect();
        order.sort_unstable();
        let ready: HashMap<JobId, u32> = view.jobs().iter().copied().collect();
        let mut left = view.m;
        let mut out = Vec::new();
        for (_, _, id) in order {
            if left == 0 {
                break;
            }
            let r = ready.get(&id).copied().unwrap_or(0);
            let k = r.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
        out
    }

    fn allocation_stable_between_events(&self) -> bool {
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
