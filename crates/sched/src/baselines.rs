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
//! Two literature baselines sit outside the work-conserving macro family:
//!
//! * [`MoldableList`] — a moldable list scheduler in the style of Perotin,
//!   Sun & Raghavan: per-job allotments fixed at arrival and capped at
//!   `⌈m/2⌉`, list scheduling in arrival order;
//! * [`EquiPartition`] — a non-clairvoyant equipartition in the style of
//!   Garg, Gupta, Kumar & Singla: the machine is split evenly among alive
//!   jobs with no access to work, span, deadline, or profit.
//!
//! Every priority key here is fixed at arrival, so each scheduler keeps its
//! alive jobs in one `AliveSet`: a `BTreeMap` ordered by `(key, seq)`,
//! where `seq` is the arrival sequence. The unique ascending `seq` tiebreak
//! makes the maintained order identical to a stable sort by key, so a fill
//! walks the map instead of re-sorting per tick. Arrival, completion and
//! expiry each cost O(log n) in the alive count, and the per-tick path (a
//! walk that reads ready counts from the view) allocates nothing.

use crate::model::{JobModel, Rules};
use crate::slab::JobSlab;
use dagsched_core::{AlgoParams, Density, JobId, Rng64, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, Allocation, JobInfo, OnlineScheduler, TickView,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// An `f64` ordered by [`f64::total_cmp`], so it can key an `AliveSet`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A baseline's alive jobs, in ascending `(key, seq)` order, each carrying
/// a value `V` fixed at arrival (an allotment, or nothing). Keys are `f64`
/// priorities, except S-noadmit's exact densities.
///
/// `key` is the owner's priority, computed once at arrival; `seq` counts
/// arrivals, so equal keys keep arrival order. `keys` remembers each alive
/// job's map key, so removal by id is a lookup plus one O(log n) map
/// removal rather than a scan.
#[derive(Debug)]
struct AliveSet<V, K = OrdF64> {
    order: BTreeMap<(K, u64), (JobId, V)>,
    keys: JobSlab<(K, u64)>,
    seq: u64,
}

impl<V, K> Default for AliveSet<V, K> {
    fn default() -> Self {
        AliveSet {
            order: BTreeMap::new(),
            keys: JobSlab::new(),
            seq: 0,
        }
    }
}

impl<V: Copy, K: Ord + Copy> AliveSet<V, K> {
    /// Add job `id` under priority `key`; it sorts after every alive job
    /// with an equal key.
    fn insert(&mut self, id: JobId, key: impl Into<K>, value: V) {
        let k = (key.into(), self.seq);
        self.seq += 1;
        let old = self.keys.insert(id, k);
        debug_assert!(old.is_none(), "job {id:?} arrived twice");
        self.order.insert(k, (id, value));
    }

    /// Drop job `id`; a no-op if it is not alive.
    fn remove(&mut self, id: JobId) {
        if let Some(k) = self.keys.remove(id) {
            self.order.remove(&k);
        }
    }

    fn clear(&mut self) {
        self.order.clear();
        self.keys.clear();
        self.seq = 0;
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Alive jobs and their values, in `(key, seq)` order.
    fn iter(&self) -> impl Iterator<Item = (JobId, V)> + '_ {
        self.order.values().copied()
    }

    fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.values().map(|&(id, _)| id)
    }
}

impl From<f64> for OrdF64 {
    fn from(x: f64) -> OrdF64 {
        OrdF64(x)
    }
}

/// A job's absolute deadline, or the last time it can still earn profit.
fn deadline(info: &JobInfo) -> Time {
    info.abs_deadline().unwrap_or_else(|| {
        info.arrival
            .saturating_add(info.profit.last_useful_time().ticks())
    })
}

/// Work-conserving fill: walk `order`, give each job `min(ready, left)`.
/// `out` is appended to.
fn fill(order: impl Iterator<Item = JobId>, view: &TickView<'_>, out: &mut Allocation) {
    let mut left = view.m;
    for id in order {
        if left == 0 {
            break;
        }
        let Some(r) = view.ready_count(id) else {
            continue;
        };
        let k = r.min(left);
        if k > 0 {
            out.push((id, k));
            left -= k;
        }
    }
}

macro_rules! baseline {
    ($(#[$doc:meta])* $name:ident, $label:expr, $key:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            m: u32,
            alive: AliveSet<()>,
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
                let key: fn(&JobInfo, u32) -> f64 = $key;
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
                fill(self.alive.ids(), view, out);
            }
            fn allocation_stable_between_events(&self) -> bool {
                // Every baseline orders by keys fixed at arrival (seq,
                // absolute deadline, static density, laxity key) and fills
                // work-conservingly from the view — a pure function of the
                // alive set and ready counts, independent of `now`.
                true
            }
            fn group_aware(&self) -> bool {
                // On a related-machines platform the baselines want their
                // highest-ranked jobs on the fastest processors: the fill
                // order is already priority order, so fastest-first
                // placement is exactly right.
                true
            }
            fn reset(&mut self) -> bool {
                self.alive.clear();
                true
            }
        }
    };
}

baseline!(
    /// First-come-first-served (by arrival sequence).
    Fifo,
    "FIFO",
    // One key for every job: the `seq` tiebreak alone orders the set.
    |_, _| 0.0
);

baseline!(
    /// Earliest absolute deadline first.
    Edf,
    "EDF",
    |info, _| deadline(info).as_f64()
);

baseline!(
    /// Highest static density `p/W` first.
    GreedyDensity,
    "HDF",
    |info, _| -(info.profit.max_profit() as f64 / info.work.as_f64())
);

baseline!(
    /// Least laxity (`d − brent`) first.
    LeastLaxity,
    "LLF",
    |info, m| {
        let w = info.work.as_f64();
        let l = info.span.as_f64();
        deadline(info).as_f64() - ((w - l) / m as f64 + l)
    }
);

/// Random job order each tick, from a fixed seed.
#[derive(Debug)]
pub struct RandomOrder {
    alive: AliveSet<()>,
    seed: u64,
    rng: Rng64,
    ids: Vec<JobId>,
}

impl RandomOrder {
    /// Create the scheduler with the given seed (`m` comes from the view).
    pub fn new(_m: u32, seed: u64) -> RandomOrder {
        RandomOrder {
            alive: AliveSet::default(),
            seed,
            rng: Rng64::seed_from(seed),
            ids: Vec::new(),
        }
    }
}

impl OnlineScheduler for RandomOrder {
    fn name(&self) -> String {
        "RANDOM".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        // One key for every job: the pre-shuffle order is arrival order.
        self.alive.insert(info.id, 0.0, ());
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
        self.ids.clear();
        self.ids.extend(self.alive.ids());
        self.rng.shuffle(&mut self.ids);
        fill(self.ids.iter().copied(), view, out);
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
        self.alive.clear();
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
    alive: AliveSet<u32, Reverse<Density>>,
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
        for (id, allot) in self.alive.iter() {
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
    /// Alive jobs and their allotments in arrival order — the list.
    alive: AliveSet<u32>,
}

impl MoldableList {
    /// Create the scheduler for `m` processors.
    pub fn new(m: u32) -> MoldableList {
        MoldableList {
            m,
            alive: AliveSet::default(),
        }
    }
}

impl OnlineScheduler for MoldableList {
    fn name(&self) -> String {
        "MOLD-LIST".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        let w = info.work.as_f64();
        let l = info.span.as_f64().max(1.0);
        let cap = self.m.div_ceil(2).max(1);
        let allot = ((w / l).ceil() as u32).clamp(1, cap);
        self.alive.insert(info.id, 0.0, allot);
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
        for (id, allot) in self.alive.iter() {
            if left == 0 {
                break;
            }
            let Some(r) = view.ready_count(id) else {
                continue;
            };
            let k = r.min(allot).min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
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
        self.alive.clear();
        true
    }
}

/// Non-clairvoyant equipartition after Garg, Gupta, Kumar & Singla
/// (non-clairvoyant precedence-constrained scheduling, 2019): the machine
/// is split as evenly as possible among the alive jobs, ignoring work,
/// span, deadline, *and* profit — the scheduler sees nothing but the alive
/// set and each job's ready width, exactly the non-clairvoyant information
/// model. Capacity a job cannot absorb (ready width below its share) flows
/// to later jobs in arrival order, keeping the policy work-conserving.
#[derive(Debug)]
pub struct EquiPartition {
    /// Alive jobs in arrival order.
    alive: AliveSet<()>,
}

impl EquiPartition {
    /// Create the scheduler (`m` comes from the view).
    pub fn new(_m: u32) -> EquiPartition {
        EquiPartition {
            alive: AliveSet::default(),
        }
    }

    fn fill(&self, view: &TickView<'_>, out: &mut Allocation) {
        let m = view.m;
        let k = self.alive.len() as u32;
        if k == 0 {
            return;
        }
        // Even split first: job i gets ⌊m/k⌋ (+1 for the first m mod k
        // jobs), capped by its ready width.
        let (quota, rem) = (m / k, m % k);
        let mut left = m;
        for (i, id) in self.alive.ids().enumerate() {
            let share = quota + u32::from((i as u32) < rem);
            let Some(r) = view.ready_count(id) else {
                continue;
            };
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
        for id in self.alive.ids() {
            if left == 0 {
                break;
            }
            let Some(r) = view.ready_count(id) else {
                continue;
            };
            match out.get_mut(at) {
                Some(e) if e.0 == id => {
                    let extra = (r - e.1).min(left);
                    e.1 += extra;
                    left -= extra;
                    at += 1;
                }
                _ => {
                    // Job got nothing in pass one (share rounded to zero
                    // while ready > 0 can't happen — shares are ≥ ⌊m/k⌋ ≥ 0
                    // and give > 0 whenever both share and ready are — but
                    // ready == 0 jobs are skipped, so just insert).
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
}

impl OnlineScheduler for EquiPartition {
    fn name(&self) -> String {
        "EQUI".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        self.alive.insert(info.id, 0.0, ());
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
        self.fill(view, out);
    }
    fn allocation_stable_between_events(&self) -> bool {
        // The split depends only on the alive count and ready widths.
        true
    }
    fn group_aware(&self) -> bool {
        true
    }
    fn reset(&mut self) -> bool {
        self.alive.clear();
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
    /// entries placed by binary search under `cmp` on the
    /// keys, then ascending `seq`, and removed with `retain`.
    struct SortedVecModel {
        alive: Vec<(f64, u64, JobId)>,
        seq: u64,
        cmp: fn(&f64, &f64) -> std::cmp::Ordering,
    }

    impl SortedVecModel {
        fn insert(&mut self, id: JobId, key: f64) {
            let e = (key, self.seq, id);
            self.seq += 1;
            let at = self
                .alive
                .partition_point(|x| (self.cmp)(&x.0, &e.0).then(x.1.cmp(&e.1)).is_lt());
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
    /// ids) and clear, over a key pool full of ties, signed zeros,
    /// infinities and NaNs. The set must iterate exactly like the model's
    /// ascending list (FIFO, EDF, HDF, LLF, RANDOM, MOLD-LIST, EQUI) and,
    /// keyed by `-key`, exactly like the model's descending list.
    #[test]
    fn alive_set_iterates_like_the_insertion_sorted_vec() {
        const POOL: [f64; 12] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            1e300,
        ];
        for seed in 0..200 {
            let mut rng = Rng64::seed_from(seed);
            let mut asc = SortedVecModel {
                alive: Vec::new(),
                seq: 0,
                cmp: f64::total_cmp,
            };
            let mut desc = SortedVecModel {
                alive: Vec::new(),
                seq: 0,
                cmp: |a, b| a.total_cmp(b).reverse(),
            };
            let mut set: AliveSet<u32> = AliveSet::default();
            let mut neg: AliveSet<()> = AliveSet::default();
            let mut next_id = 0u32;
            for _ in 0..300 {
                match rng.gen_range(20) {
                    0..=10 => {
                        let key = POOL[rng.gen_range(POOL.len() as u64) as usize];
                        let id = JobId(next_id);
                        next_id += 1;
                        asc.insert(id, key);
                        desc.insert(id, key);
                        set.insert(id, key, id.0 * 3);
                        neg.insert(id, -key, ());
                    }
                    11..=18 => {
                        // Mostly alive ids; now and then one never seen.
                        let id = JobId(rng.gen_range(u64::from(next_id) + 2) as u32);
                        asc.remove(id);
                        desc.remove(id);
                        set.remove(id);
                        neg.remove(id);
                    }
                    _ => {
                        for m in [&mut asc, &mut desc] {
                            m.alive.clear();
                            m.seq = 0;
                        }
                        set.clear();
                        neg.clear();
                    }
                }
                assert_eq!(set.ids().collect::<Vec<_>>(), asc.ids(), "seed {seed}");
                assert!(set.iter().all(|(id, v)| v == id.0 * 3), "seed {seed}");
                assert_eq!(set.len(), asc.alive.len());
                assert_eq!(neg.ids().collect::<Vec<_>>(), desc.ids(), "seed {seed}");
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
