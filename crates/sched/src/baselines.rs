//! Baseline online schedulers.
//!
//! All baselines are *work-conserving*: they order the alive jobs by some
//! priority and hand each job as many processors as it has ready nodes until
//! the machine is full. (Scheduler S is deliberately **not** work-conserving
//! — it reserves band capacity — which is exactly what the baseline
//! comparison experiment, E7 in DESIGN.md, probes.)
//!
//! * [`Fifo`] — first-come-first-served;
//! * [`Edf`] — earliest absolute deadline first (the classic real-time
//!   policy, good at low load, collapses under overload);
//! * [`GreedyDensity`] — highest static density `p/W` first (profit-aware
//!   greedy, no admission control);
//! * [`LeastLaxity`] — smallest `d − brent(W, L, m)` first (deadline slack
//!   aware);
//! * [`RandomOrder`] — a seeded random order each tick (sanity floor);
//! * [`SNoAdmission`] — ablation of scheduler S: same allotments `n_i` and
//!   density order, but *every* job is admitted (no δ-good test, no band
//!   condition). Quantifies what the admission machinery buys.
//!
//! Two literature baselines are not plain work-conserving priority fills:
//!
//! * [`MoldableList`] — a moldable list scheduler in the style of Perotin,
//!   Sun & Raghavan: per-job allotments fixed at arrival and capped at
//!   `⌈m/2⌉`, list scheduling in arrival order;
//! * [`EquiPartition`] — a non-clairvoyant equipartition in the style of
//!   Garg, Gupta, Kumar & Singla: the machine is split evenly among alive
//!   jobs with no access to work, span, deadline, or profit.
//!
//! Each scheduler keeps only the state its policy needs. The view lists
//! the alive jobs in arrival order, so FIFO, RANDOM, EQUI and MOLD-LIST walk
//! it directly (MOLD-LIST keeps just each job's allotment). The priority
//! baselines — EDF, HDF, LLF, S-noadmit and [`EdfAc`](crate::EdfAc) — keep
//! one `AliveSet` each: a `BTreeMap` ordered by `(key, seq)`, where the
//! key is an exact integer or [`Density`] fixed at arrival and `seq` is the
//! arrival sequence. The unique ascending `seq` tiebreak makes the
//! maintained order identical to a stable sort by key, so a fill walks the
//! map instead of re-sorting per tick. Arrival, completion and expiry each
//! cost O(log n) in the alive count, and the per-tick path allocates
//! nothing.

use crate::model::{JobModel, Rules};
use crate::slab::JobSlab;
use dagsched_core::{AlgoParams, Density, JobId, Rng64, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, Allocation, JobInfo, OnlineScheduler, TickView,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A priority scheduler's alive jobs, in ascending `(key, seq)` order, each
/// carrying a value `V` fixed at arrival (an allotment, a work, or nothing).
///
/// `key` is the owner's exact priority, computed once at arrival; `seq`
/// counts arrivals, so equal keys keep arrival order. `keys` remembers each
/// alive job's map key, so removal by id is a lookup plus one O(log n) map
/// removal rather than a scan.
#[derive(Debug)]
pub(crate) struct AliveSet<K, V> {
    order: BTreeMap<(K, u64), (JobId, V)>,
    keys: JobSlab<(K, u64)>,
    seq: u64,
}

impl<K, V> Default for AliveSet<K, V> {
    fn default() -> Self {
        AliveSet {
            order: BTreeMap::new(),
            keys: JobSlab::new(),
            seq: 0,
        }
    }
}

impl<K: Ord + Copy, V: Copy> AliveSet<K, V> {
    /// Add job `id` under priority `key`; it sorts after every alive job
    /// with an equal key.
    pub(crate) fn insert(&mut self, id: JobId, key: K, value: V) {
        let k = (key, self.seq);
        self.seq += 1;
        let old = self.keys.insert(id, k);
        debug_assert!(old.is_none(), "job {id:?} arrived twice");
        self.order.insert(k, (id, value));
    }

    /// Drop job `id`; a no-op if it is not in the set.
    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some(k) = self.keys.remove(id) {
            self.order.remove(&k);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.keys.clear();
        self.seq = 0;
    }

    /// The jobs with their keys and values, in `(key, seq)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, JobId, V)> + '_ {
        self.order.iter().map(|(&(k, _), &(id, v))| (k, id, v))
    }

    /// The jobs that are in `view`, with their ready counts, in
    /// `(key, seq)` order.
    pub(crate) fn ready<'a>(
        &'a self,
        view: &'a TickView<'a>,
    ) -> impl Iterator<Item = (JobId, u32)> + 'a {
        self.order
            .values()
            .filter_map(|&(id, _)| Some((id, view.ready_count(id)?)))
    }
}

/// A job's absolute deadline, or the last time it can still earn profit.
pub(crate) fn deadline(info: &JobInfo) -> Time {
    info.abs_deadline().unwrap_or_else(|| {
        info.arrival
            .saturating_add(info.profit.last_useful_time().ticks())
    })
}

/// Work-conserving fill: walk `(id, ready)` in priority order and give each
/// job `min(ready, left)` of the `m` processors. `out` is appended to.
pub(crate) fn fill(order: impl Iterator<Item = (JobId, u32)>, m: u32, out: &mut Allocation) {
    let mut left = m;
    for (id, r) in order {
        if left == 0 {
            break;
        }
        let k = r.min(left);
        if k > 0 {
            out.push((id, k));
            left -= k;
        }
    }
}

/// First-come-first-served: the view's arrival order.
#[derive(Debug)]
pub struct Fifo;

impl Fifo {
    /// Create the scheduler (`m` comes from the view).
    pub fn new(_m: u32) -> Fifo {
        Fifo
    }
}

impl OnlineScheduler for Fifo {
    fn name(&self) -> String {
        "FIFO".into()
    }
    fn on_arrival(&mut self, _info: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        fill(view.jobs().iter().copied(), view.m, out);
    }
    fn allocation_stable_between_events(&self) -> bool {
        // A pure function of the view.
        true
    }
    fn group_aware(&self) -> bool {
        // The fill order is priority order, so fastest-first placement puts
        // the highest-ranked jobs on the fastest processors.
        true
    }
    fn reset(&mut self) -> bool {
        true
    }
}

macro_rules! priority_baseline {
    ($(#[$doc:meta])* $name:ident, $label:expr, $key:ty, $derive:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            m: u32,
            alive: AliveSet<$key, ()>,
        }

        impl $name {
            /// Create the scheduler for `m` processors.
            pub fn new(m: u32) -> $name {
                $name {
                    m,
                    alive: AliveSet::default(),
                }
            }
        }

        impl OnlineScheduler for $name {
            fn name(&self) -> String {
                $label.into()
            }
            fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
                let key: fn(&JobInfo, u32) -> $key = $derive;
                self.alive.insert(info.id, key(info, self.m), ());
            }
            fn on_completion(&mut self, id: JobId, _now: Time) {
                self.alive.remove(id);
            }
            fn on_expiry(&mut self, id: JobId, _now: Time) {
                self.alive.remove(id);
            }
            fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
                let mut out = Vec::new();
                self.allocate_into(view, &mut out);
                out
            }
            fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
                out.clear();
                fill(self.alive.ready(view), view.m, out);
            }
            fn allocation_stable_between_events(&self) -> bool {
                // Keys are fixed at arrival and the fill is a pure function
                // of the alive set and ready counts, independent of `now`.
                true
            }
            fn group_aware(&self) -> bool {
                // The fill order is priority order, so fastest-first
                // placement puts the highest-ranked jobs on the fastest
                // processors.
                true
            }
            fn reset(&mut self) -> bool {
                self.alive.clear();
                true
            }
        }
    };
}

priority_baseline!(
    /// Earliest absolute deadline first.
    Edf,
    "EDF",
    Time,
    |info, _| deadline(info)
);

priority_baseline!(
    /// Highest static density `p/W` first.
    GreedyDensity,
    "HDF",
    Reverse<Density>,
    |info, _| Reverse(Density::new(info.profit.max_profit(), info.work.units().into()))
);

priority_baseline!(
    /// Least laxity `d − ((W − L)/m + L)` first, compared exactly as
    /// `m·d − (W − L + L·m)`.
    LeastLaxity,
    "LLF",
    i128,
    |info, m| {
        let (w, l, m) = (info.work.units(), info.span.units(), i128::from(m));
        m * i128::from(deadline(info).ticks()) - (i128::from(w - l) + i128::from(l) * m)
    }
);

/// Random job order each tick, from a fixed seed.
#[derive(Debug)]
pub struct RandomOrder {
    seed: u64,
    rng: Rng64,
    jobs: Vec<(JobId, u32)>,
}

impl RandomOrder {
    /// Create the scheduler with the given seed (`m` comes from the view).
    pub fn new(_m: u32, seed: u64) -> RandomOrder {
        RandomOrder {
            seed,
            rng: Rng64::seed_from(seed),
            jobs: Vec::new(),
        }
    }
}

impl OnlineScheduler for RandomOrder {
    fn name(&self) -> String {
        "RANDOM".into()
    }
    fn on_arrival(&mut self, _info: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        // Shuffle the view's arrival order.
        self.jobs.clear();
        self.jobs.extend_from_slice(view.jobs());
        self.rng.shuffle(&mut self.jobs);
        fill(self.jobs.iter().copied(), view.m, out);
    }
    fn allocation_stable_between_events(&self) -> bool {
        // Deliberately NOT stable: each call consumes RNG state and may
        // return a different order.
        false
    }
    fn bounded_stability(&self) -> bool {
        // ... but it IS *boundedly* stable with single-tick windows: the
        // engine re-asks (and the RNG re-rolls) every tick, exactly as the
        // naive path would, while keeping the claim/advance machinery.
        true
    }
    fn stable_until(&self, now: Time) -> Option<Time> {
        Some(now.after(1))
    }
    fn reset(&mut self) -> bool {
        self.rng = Rng64::seed_from(self.seed);
        true
    }
}

/// Ablation: scheduler S's allotment-and-density rule without admission
/// control — every arriving job goes straight to the running queue.
#[derive(Debug)]
pub struct SNoAdmission {
    rules: Rules,
    /// Alive jobs and their allotments, by density descending, then
    /// arrival order — the allocate order.
    alive: AliveSet<Reverse<Density>, u32>,
    report: Option<Vec<AdmissionEvent>>,
}

impl SNoAdmission {
    /// Create the ablated scheduler.
    pub fn new(m: u32, params: AlgoParams) -> SNoAdmission {
        SNoAdmission {
            rules: Rules::new(m, &params, 1.0),
            alive: AliveSet::default(),
            report: None,
        }
    }
}

impl OnlineScheduler for SNoAdmission {
    fn name(&self) -> String {
        "S-noadmit".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let job = JobModel::derive(info, &self.rules);
        self.alive.insert(info.id, Reverse(job.density), job.allot);
        if let Some(buf) = self.report.as_mut() {
            // The ablation's whole point: every job is admitted.
            buf.push(AdmissionEvent {
                job: info.id,
                decision: AdmissionDecision::Admitted,
            });
        }
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.remove(id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.remove(id);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        let mut left = view.m;
        for (_, id, allot) in self.alive.iter() {
            if left == 0 {
                break;
            }
            if allot <= left {
                out.push((id, allot));
                left -= allot;
            }
        }
    }
    fn allocation_stable_between_events(&self) -> bool {
        // Pure walk over densities and allotments fixed at arrival.
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
        self.alive.clear();
        self.report = None;
        true
    }
}

/// Moldable list scheduler after Perotin, Sun & Raghavan (multi-resource
/// list scheduling of moldable jobs under precedence constraints, 2021),
/// adapted to the single processor resource: each job's allotment is fixed
/// at arrival to the value that balances its area against its critical path
/// (`max(W/p, L)` is minimized at `p = ⌈W/L⌉`), then *limited* to `⌈m/2⌉` —
/// the paper's μ-bounded allotment trick that keeps list scheduling from
/// starving wide jobs — and jobs are list-scheduled in arrival order.
///
/// Unlike the work-conserving baselines above, a job never exceeds its
/// fixed allotment (that is what makes it *moldable*: the size is chosen
/// once, not re-negotiated per tick), but unused capacity still flows to
/// later jobs in list order.
#[derive(Debug)]
pub struct MoldableList {
    m: u32,
    /// Each alive job's allotment; the list is the view's arrival order.
    allot: JobSlab<u32>,
}

impl MoldableList {
    /// Create the scheduler for `m` processors.
    pub fn new(m: u32) -> MoldableList {
        MoldableList {
            m,
            allot: JobSlab::new(),
        }
    }
}

impl OnlineScheduler for MoldableList {
    fn name(&self) -> String {
        "MOLD-LIST".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let (w, l) = (info.work.units(), info.span.units().max(1));
        let cap = u64::from(self.m.div_ceil(2).max(1));
        self.allot
            .insert(info.id, w.div_ceil(l).clamp(1, cap) as u32);
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.allot.remove(id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.allot.remove(id);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        let capped = view
            .jobs()
            .iter()
            .map(|&(id, r)| (id, self.allot.get(id).map_or(0, |&a| r.min(a))));
        fill(capped, view.m, out);
    }
    fn allocation_stable_between_events(&self) -> bool {
        // List order and allotments are fixed at arrival; the fill is a
        // pure function of the alive set and ready counts.
        true
    }
    fn group_aware(&self) -> bool {
        true
    }
    fn reset(&mut self) -> bool {
        self.allot.clear();
        true
    }
}

/// Non-clairvoyant equipartition after Garg, Gupta, Kumar & Singla
/// (non-clairvoyant precedence-constrained scheduling, 2019): the machine
/// is split as evenly as possible among the alive jobs, ignoring work,
/// span, deadline, *and* profit — the scheduler sees nothing but the alive
/// set and each job's ready width, exactly the non-clairvoyant information
/// model, and keeps no state of its own. Capacity a job cannot absorb
/// (ready width below its share) flows to later jobs in arrival order,
/// keeping the policy work-conserving.
#[derive(Debug)]
pub struct EquiPartition;

impl EquiPartition {
    /// Create the scheduler (`m` comes from the view).
    pub fn new(_m: u32) -> EquiPartition {
        EquiPartition
    }
}

impl OnlineScheduler for EquiPartition {
    fn name(&self) -> String {
        "EQUI".into()
    }
    fn on_arrival(&mut self, _info: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        let (m, jobs) = (view.m, view.jobs());
        let k = jobs.len() as u32;
        if k == 0 {
            return;
        }
        // Even split first: job i gets ⌊m/k⌋ (+1 for the first m mod k
        // jobs), capped by its ready width.
        let (quota, rem) = (m / k, m % k);
        let mut left = m;
        for (i, &(id, r)) in jobs.iter().enumerate() {
            let share = quota + u32::from((i as u32) < rem);
            let give = r.min(share).min(left);
            if give > 0 {
                out.push((id, give));
                left -= give;
            }
        }
        if left == 0 {
            return;
        }
        // Work-conserving second pass: hand leftover capacity to jobs with
        // ready width beyond their share, in arrival order. `out` entries
        // are in arrival order too, so patching them keeps the invariant.
        let mut at = 0;
        for &(id, r) in jobs {
            if left == 0 {
                break;
            }
            match out.get_mut(at) {
                Some(e) if e.0 == id => {
                    let extra = (r - e.1).min(left);
                    e.1 += extra;
                    left -= extra;
                    at += 1;
                }
                _ => {
                    // The job got nothing in pass one: its ready width or
                    // its share was zero.
                    let give = r.min(left);
                    if give > 0 {
                        out.insert(at, (id, give));
                        left -= give;
                        at += 1;
                    }
                }
            }
        }
    }
    fn allocation_stable_between_events(&self) -> bool {
        // The split depends only on the alive count and ready widths.
        true
    }
    fn group_aware(&self) -> bool {
        true
    }
    fn reset(&mut self) -> bool {
        true
    }
}

/// Ablation wrapper: run any scheduler with group-aware placement forced
/// **off**, so on a related-machines platform its allocation entries consume
/// processors in declaration order instead of fastest-first.
///
/// Every other trait method delegates verbatim, so on a uniform platform the
/// wrapper is behaviorally invisible. The golden test
/// `related_machines_profit_is_golden` compares `Edf` against
/// `AggregateBlind<Edf>` on a skewed platform to pin what fastest-first
/// placement alone is worth.
#[derive(Debug)]
pub struct AggregateBlind<S>(pub S);

impl<S: OnlineScheduler> OnlineScheduler for AggregateBlind<S> {
    fn name(&self) -> String {
        format!("{}-blind", self.0.name())
    }
    fn on_arrival(&mut self, info: &JobInfo, now: Time) {
        self.0.on_arrival(info, now);
    }
    fn on_completion(&mut self, id: JobId, now: Time) {
        self.0.on_completion(id, now);
    }
    fn on_expiry(&mut self, id: JobId, now: Time) {
        self.0.on_expiry(id, now);
    }
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        self.0.allocate(view)
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.0.allocate_into(view, out);
    }
    fn allocation_stable_between_events(&self) -> bool {
        self.0.allocation_stable_between_events()
    }
    fn bounded_stability(&self) -> bool {
        self.0.bounded_stability()
    }
    fn stable_until(&self, now: Time) -> Option<Time> {
        self.0.stable_until(now)
    }
    fn group_aware(&self) -> bool {
        false
    }
    fn enable_admission_reporting(&mut self) {
        self.0.enable_admission_reporting();
    }
    fn drain_admission_events(&mut self, out: &mut Vec<AdmissionEvent>) {
        self.0.drain_admission_events(out);
    }
    fn reset(&mut self) -> bool {
        self.0.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Work;
    use dagsched_dag::gen;
    use dagsched_engine::{simulate, SimConfig};
    use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};

    fn info(id: u32, arrival: u64, w: u64, l: u64, d: u64, p: u64) -> JobInfo {
        JobInfo {
            id: JobId(id),
            arrival: Time(arrival),
            work: Work(w),
            span: Work(l),
            profit: StepProfitFn::deadline(Time(d), p),
        }
    }

    /// An insertion-sorted `Vec` model of the alive set: `(key, seq, id)`
    /// entries placed by binary search on `(key, seq)`, removed with
    /// `retain`.
    #[derive(Default)]
    struct SortedVecModel {
        alive: Vec<(i64, u64, JobId)>,
        seq: u64,
    }

    impl SortedVecModel {
        fn insert(&mut self, id: JobId, key: i64) {
            let e = (key, self.seq, id);
            self.seq += 1;
            let at = self.alive.partition_point(|x| (x.0, x.1) < (e.0, e.1));
            self.alive.insert(at, e);
        }

        fn remove(&mut self, id: JobId) {
            self.alive.retain(|e| e.2 != id);
        }

        fn ids(&self) -> Vec<JobId> {
            self.alive.iter().map(|e| e.2).collect()
        }
    }

    /// Random interleavings of insert, remove (of alive and of unknown
    /// ids) and clear, over a key pool full of ties and extremes. The set
    /// must iterate exactly like the model's ascending list and, keyed by
    /// `Reverse(key)`, exactly like the model of the negated keys.
    #[test]
    fn alive_set_iterates_like_the_insertion_sorted_vec() {
        const POOL: [i64; 8] = [0, 1, -1, 2, -2, 7, i64::MAX, i64::MIN + 1];
        for seed in 0..200 {
            let mut rng = Rng64::seed_from(seed);
            let (mut asc, mut desc) = (SortedVecModel::default(), SortedVecModel::default());
            let mut set: AliveSet<i64, u32> = AliveSet::default();
            let mut rev: AliveSet<Reverse<i64>, ()> = AliveSet::default();
            let mut next_id = 0u32;
            for _ in 0..300 {
                match rng.gen_range(20) {
                    0..=10 => {
                        let key = POOL[rng.gen_range(POOL.len() as u64) as usize];
                        let id = JobId(next_id);
                        next_id += 1;
                        asc.insert(id, key);
                        desc.insert(id, -key);
                        set.insert(id, key, id.0 * 3);
                        rev.insert(id, Reverse(key), ());
                    }
                    11..=18 => {
                        // Mostly alive ids; now and then one never seen.
                        let id = JobId(rng.gen_range(u64::from(next_id) + 2) as u32);
                        asc.remove(id);
                        desc.remove(id);
                        set.remove(id);
                        rev.remove(id);
                    }
                    _ => {
                        asc = SortedVecModel::default();
                        desc = SortedVecModel::default();
                        set.clear();
                        rev.clear();
                    }
                }
                let got: Vec<_> = set.iter().collect();
                let want: Vec<_> = asc
                    .alive
                    .iter()
                    .map(|&(k, _, id)| (k, id, id.0 * 3))
                    .collect();
                assert_eq!(got, want, "seed {seed}");
                let rev_ids: Vec<_> = rev.iter().map(|(_, id, _)| id).collect();
                assert_eq!(rev_ids, desc.ids(), "seed {seed}");
            }
        }
    }

    #[test]
    fn fifo_orders_by_arrival_sequence() {
        let mut s = Fifo::new(2);
        s.on_arrival(&info(0, 0, 10, 1, 50, 1), Time(0));
        s.on_arrival(&info(1, 0, 10, 1, 5, 99), Time(0));
        let jobs = [(JobId(0), 4u32), (JobId(1), 4)];
        let alloc = s.allocate(&TickView::new(2, Time(0), &jobs));
        assert_eq!(alloc, vec![(JobId(0), 2)], "all capacity to the first");
    }

    #[test]
    fn edf_prefers_earliest_deadline() {
        let mut s = Edf::new(2);
        s.on_arrival(&info(0, 0, 10, 1, 50, 1), Time(0));
        s.on_arrival(&info(1, 0, 10, 1, 5, 1), Time(0));
        let jobs = [(JobId(0), 4u32), (JobId(1), 4)];
        let alloc = s.allocate(&TickView::new(2, Time(0), &jobs));
        assert_eq!(alloc[0].0, JobId(1));
    }

    #[test]
    fn hdf_prefers_density_not_raw_profit() {
        let mut s = GreedyDensity::new(2);
        s.on_arrival(&info(0, 0, 100, 1, 50, 60), Time(0)); // density 0.6
        s.on_arrival(&info(1, 0, 10, 1, 50, 20), Time(0)); // density 2.0
        let jobs = [(JobId(0), 4u32), (JobId(1), 4)];
        let alloc = s.allocate(&TickView::new(2, Time(0), &jobs));
        assert_eq!(alloc[0].0, JobId(1));
    }

    #[test]
    fn llf_prefers_tighter_slack() {
        let mut s = LeastLaxity::new(4);
        // Same deadline; job 1 has much more work → less laxity.
        s.on_arrival(&info(0, 0, 8, 1, 40, 1), Time(0));
        s.on_arrival(&info(1, 0, 120, 1, 40, 1), Time(0));
        let jobs = [(JobId(0), 4u32), (JobId(1), 4)];
        let alloc = s.allocate(&TickView::new(4, Time(0), &jobs));
        assert_eq!(alloc[0].0, JobId(1));
    }

    #[test]
    fn equal_keys_break_ties_by_arrival_order() {
        // Three identical jobs under EDF, announced out of id order: the
        // maintained sorted list must keep them in the order the hooks saw
        // them, like a stable sort by key — not in id (view) order.
        let mut s = Edf::new(8);
        for id in [2, 0, 1] {
            s.on_arrival(&info(id, 0, 10, 1, 50, 1), Time(0));
        }
        let jobs = [(JobId(0), 2u32), (JobId(1), 2), (JobId(2), 2)];
        let alloc = s.allocate(&TickView::new(8, Time(0), &jobs));
        assert_eq!(
            alloc,
            vec![(JobId(2), 2), (JobId(0), 2), (JobId(1), 2)],
            "ties resolve by seq"
        );
    }

    #[test]
    fn work_conserving_fill_respects_ready_and_capacity() {
        let mut s = Fifo::new(4);
        s.on_arrival(&info(0, 0, 10, 10, 90, 1), Time(0)); // a chain: 1 ready
        s.on_arrival(&info(1, 0, 10, 1, 90, 1), Time(0));
        let jobs = [(JobId(0), 1u32), (JobId(1), 10)];
        let alloc = s.allocate(&TickView::new(4, Time(0), &jobs));
        assert_eq!(alloc, vec![(JobId(0), 1), (JobId(1), 3)]);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let inst = WorkloadGen::standard(4, 40, 9).generate().unwrap();
        let run = |seed| {
            let mut s = RandomOrder::new(4, seed);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn all_baselines_run_clean_on_a_real_workload() {
        let inst = WorkloadGen::standard(8, 80, 13).generate().unwrap();
        let mut results = Vec::new();
        let cfg = SimConfig::default();
        macro_rules! run {
            ($s:expr) => {{
                let mut s = $s;
                let r = simulate(&inst, &mut s, &cfg).unwrap();
                results.push((r.scheduler.clone(), r.total_profit));
            }};
        }
        run!(Fifo::new(8));
        run!(Edf::new(8));
        run!(GreedyDensity::new(8));
        run!(LeastLaxity::new(8));
        run!(RandomOrder::new(8, 5));
        run!(SNoAdmission::new(8, AlgoParams::from_epsilon(1.0).unwrap()));
        for (name, profit) in &results {
            assert!(*profit > 0, "{name} earned nothing");
        }
    }

    #[test]
    fn moldable_allotment_balances_area_against_span_and_is_capped() {
        let mut s = MoldableList::new(8);
        // W=40, L=10 → p* = ⌈40/10⌉ = 4, at the cap ⌈8/2⌉ = 4.
        s.on_arrival(&info(0, 0, 40, 10, 90, 1), Time(0));
        // W=100, L=2 → p* = 50, capped to 4.
        s.on_arrival(&info(1, 0, 100, 2, 90, 1), Time(0));
        let jobs = [(JobId(0), 8u32), (JobId(1), 8)];
        let alloc = s.allocate(&TickView::new(8, Time(0), &jobs));
        assert_eq!(
            alloc,
            vec![(JobId(0), 4), (JobId(1), 4)],
            "fixed allotments, never the full ready width"
        );
    }

    #[test]
    fn equi_splits_evenly_and_redistributes_unused_shares() {
        let mut s = EquiPartition::new(6);
        for id in 0..3 {
            s.on_arrival(&info(id, 0, 10, 1, 90, 1), Time(0));
        }
        // Job 0 can only absorb 1 of its 2-processor share; the spare
        // processor flows to job 1 (first in arrival order with headroom).
        let jobs = [(JobId(0), 1u32), (JobId(1), 6), (JobId(2), 2)];
        let alloc = s.allocate(&TickView::new(6, Time(0), &jobs));
        assert_eq!(alloc, vec![(JobId(0), 1), (JobId(1), 3), (JobId(2), 2)]);
    }

    #[test]
    fn literature_baselines_run_clean_and_match_their_naive_twin() {
        let inst = WorkloadGen::standard(6, 50, 17).generate().unwrap();
        let naive_cfg = SimConfig {
            fast_forward: false,
            ..SimConfig::default()
        };
        let fast = simulate(&inst, &mut MoldableList::new(6), &SimConfig::default()).unwrap();
        let naive = simulate(&inst, &mut MoldableList::new(6), &naive_cfg).unwrap();
        assert!(fast.total_profit > 0);
        assert!(fast.same_outcome(&naive), "MOLD-LIST fast path diverged");
        let fast = simulate(&inst, &mut EquiPartition::new(6), &SimConfig::default()).unwrap();
        let naive = simulate(&inst, &mut EquiPartition::new(6), &naive_cfg).unwrap();
        assert!(fast.total_profit > 0);
        assert!(fast.same_outcome(&naive), "EQUI fast path diverged");
    }

    #[test]
    fn expiry_and_completion_shrink_the_alive_set() {
        let mut s = Edf::new(2);
        s.on_arrival(&info(0, 0, 10, 1, 50, 1), Time(0));
        s.on_arrival(&info(1, 0, 10, 1, 5, 1), Time(0));
        s.on_completion(JobId(1), Time(3));
        s.on_expiry(JobId(0), Time(50));
        let jobs: [(JobId, u32); 0] = [];
        assert!(s.allocate(&TickView::new(2, Time(51), &jobs)).is_empty());
    }

    #[test]
    fn sno_admission_runs_everything_greedily() {
        // Two band-conflicting jobs: plain S parks one, the ablation runs
        // both at once when capacity allows.
        let dag0 = gen::block(60, 1).into_shared();
        let inst = Instance::new(
            8,
            vec![
                JobSpec::new(
                    JobId(0),
                    Time(0),
                    dag0.clone(),
                    StepProfitFn::deadline(Time(24), 60),
                ),
                JobSpec::new(
                    JobId(1),
                    Time(0),
                    dag0,
                    StepProfitFn::deadline(Time(24), 60),
                ),
            ],
        )
        .unwrap();
        let mut s = SNoAdmission::new(8, AlgoParams::from_epsilon(1.0).unwrap());
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert_eq!(r.completed(), 2, "both jobs fit when run simultaneously");
    }
}
