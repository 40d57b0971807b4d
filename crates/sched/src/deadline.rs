//! Scheduler **S** for jobs with deadlines (Section 3) — the paper's main
//! algorithm.
//!
//! Per arriving job `J_i` with work `W_i`, span `L_i`, relative deadline
//! `D_i` and profit `p_i`, S computes:
//!
//! * allotment `n_i = (W_i−L_i)/(D_i/(1+2δ) − L_i)` — the (near-)minimum
//!   number of dedicated processors that finish the job by `D_i/(1+2δ)`
//!   without knowing the DAG (Observation 2), rounded up to an integer and
//!   floored at 1 (the paper's `n_i` is fractional; Lemma 1's bound
//!   `n_i ≤ b²m` holds for the rounded value up to the +1 integrality slack);
//! * budget `x_i = (W_i−L_i)/n_i + L_i`;
//! * density `v_i = p_i/(x_i·n_i)` — potential profit per processor step.
//!
//! `JobModel::derive` computes all three exactly, as integers and integer
//! ratios. Jobs are *started* (admitted to queue `Q`) only if they are
//! `δ`-good (`D_i ≥ (1+2δ)x_i`, which the exact rounded-up allotment
//! guarantees for every admissible job) and every density band
//! `[v_j, c·v_j)` stays within `b·m` processors (condition (2), checked by
//! the [`DensityBands`] that holds `Q`). Everything else waits in
//! queue `P`; at each job completion, `δ`-fresh jobs from `P` that now pass
//! the band check are started. Execution is greedy highest-density-first,
//! granting each scheduled job its full allotment.
//!
//! ## Hot-path layout
//!
//! The per-event path (completion → [`admit_from_p`](SchedulerS) scan;
//! window → [`allocate_into`](OnlineScheduler::allocate_into) + backfill)
//! is allocation-free after warm-up: job records live in a dense
//! [`JobSlab`] indexed by `JobId`, `Q` is a [`DensityBands`] population
//! and `P` a sorted `Vec`, both in density order, the band condition is
//! one O(|Q|) sweep, ready counts are read from the view, and every
//! per-call index (grant slots, the admission candidate list) is a hoisted
//! scratch buffer.
//! The completion scan is *targeted*: it re-checks only the parked jobs
//! whose outcome can have changed since their last check, and jumps over
//! every stretch of them the band cannot take (see
//! [`admit_from_p`](SchedulerS)). Those are two sets: the jobs within a
//! band `(v/c, c·v)` of a density `v` that left `Q` since the previous
//! scan, and the jobs whose deadline has passed. A job deferred at arrival
//! is not a third: being δ-good, it was δ-fresh then and failed on the band
//! alone, so only a removal in its band can start it. The scan walks `P`
//! in place, removing a key it reached by index: a completion costs
//! O(probes · |Q| + removals · |P|) plus a few binary searches per re-check
//! interval and per jump, rather than a probe of every job in `P`. Every
//! bound it compares against is an exact density, so it needs no slack.
//! [`PaperS`](crate::PaperS) transcribes Section 3 with the full scan, and
//! the differential tests hold this scheduler byte-identical to it.

use crate::bands::{DensityBands, Stretch};
use crate::model::{JobModel, Rules};
use crate::slab::{DenseU32Map, JobSlab};
use dagsched_core::{AlgoParams, Density, Dyadic, JobId, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    TickView,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The waiting queue `P`: a `Vec` set of `(density, id)` keys, sorted
/// ascending when read. Inserts append. The next read keeps an appended
/// tail that is already ascending and starts above the last sorted key as
/// it is, the common case of equal-density arrivals in id order; any other
/// tail is sorted and merged in from the back, moving each old key at most
/// once: the thousands of jobs parked in one tick cost one sort, not one
/// shift each. A warmed-up queue reuses its backing storage, so the
/// per-event paths do not allocate.
#[derive(Debug, Clone, Default)]
struct DensityQueue {
    /// Sorted up to `sorted`; the keys after it are appended since.
    items: Vec<(Density, JobId)>,
    sorted: usize,
    /// Scratch: the appended keys while they are merged in.
    merge: Vec<(Density, JobId)>,
}

impl DensityQueue {
    fn insert(&mut self, key: (Density, JobId)) {
        self.items.push(key);
    }

    /// The keys, ascending.
    fn keys(&mut self) -> &[(Density, JobId)] {
        if self.sorted < self.items.len() {
            let from = self.sorted.saturating_sub(1);
            if !self.items[from..].is_sorted() {
                self.merge_tail();
            }
            self.sorted = self.items.len();
        }
        &self.items
    }

    /// Sort the appended keys and merge them in from the back.
    fn merge_tail(&mut self) {
        self.merge.clear();
        self.merge.extend_from_slice(&self.items[self.sorted..]);
        self.merge.sort_unstable();
        let (mut hi, mut end) = (self.sorted, self.items.len());
        for &key in self.merge.iter().rev() {
            let at = self.items[..hi].partition_point(|e| *e < key);
            self.items.copy_within(at..hi, end - (hi - at));
            end -= hi - at + 1;
            hi = at;
            self.items[end] = key;
        }
    }

    fn remove(&mut self, key: &(Density, JobId)) {
        if let Ok(at) = self.keys().binary_search(key) {
            self.remove_at(at);
        }
    }

    /// Remove the key at index `at` of [`keys`](Self::keys), read since the
    /// last insert.
    fn remove_at(&mut self, at: usize) {
        debug_assert!(at < self.sorted && self.sorted == self.items.len());
        self.items.remove(at);
        self.sorted -= 1;
    }

    fn clear(&mut self) {
        self.items.clear();
        self.sorted = 0;
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// A job S has seen: what it computed at arrival, and where the job is.
/// Inadmissible jobs (not δ-good even at `n = m`) park in `P` and are
/// never started.
#[derive(Debug, Clone, Copy)]
struct SJob {
    model: JobModel,
    in_q: bool,
}

/// Counters exposed for the analysis experiments (Lemma 5 etc.).
#[derive(Debug, Clone, Default)]
pub struct SchedulerSMetrics {
    /// `‖R‖`: total profit of jobs ever started (admitted to `Q`).
    pub started_profit: u64,
    /// `|R|`.
    pub started_count: usize,
    /// Jobs admitted directly at arrival.
    pub admitted_at_arrival: usize,
    /// Jobs admitted later, at a completion event.
    pub admitted_from_p: usize,
    /// Arrival-time admissions refused by the band condition.
    pub band_rejections: u64,
    /// Jobs that were never δ-good (deadline too tight).
    pub inadmissible: usize,
    /// High-water mark of `|Q|`.
    pub max_q_len: usize,
    /// `P` candidates the completion scans probed, summed over every
    /// completion. Candidates passed over inside a blocked stretch are not
    /// counted; expired ones dropped there are. Deterministic: the
    /// targeted scan's work counter, equal with and without invariant
    /// checks.
    pub admission_probes: u64,
}

/// The Section 3 scheduler. See module docs.
#[derive(Debug)]
pub struct SchedulerS {
    params: AlgoParams,
    m: u32,
    jobs: JobSlab<SJob>,
    /// `Q`: the started jobs, ascending by (density, id); walked in reverse
    /// for highest-density-first, and the population condition (2) checks.
    q: DensityBands,
    /// `P`: the waiting jobs, same order.
    p: DensityQueue,
    metrics: SchedulerSMetrics,
    check_invariants: bool,
    /// The arrival-time derivation's constants. Its speed hint is
    /// Corollary 1's transformation: when the engine runs S at speed `s`,
    /// every node's work is effectively scaled by `1/s`, so arrival-time
    /// computations divide `W` and `L` by this hint (default 1).
    rules: Rules,
    /// Work-conserving extension (the paper's future-work item): backfill
    /// processors left idle by the standard pass. Admission, allotments and
    /// priorities are untouched — only spare capacity is used.
    work_conserving: bool,
    /// Admission-decision buffer for the engine's observer plumbing
    /// (`None` = reporting off, the default: zero cost when unobserved).
    report: Option<Vec<AdmissionEvent>>,
    /// The band width `c`.
    c: Dyadic,
    /// Every density removed from `Q` since the last completion scan: the
    /// centres of the scan's re-check intervals `(v/c, c·v)`.
    removed: Vec<Density>,
    /// `(abs_deadline, id)` of every job parked in `P`, earliest first. Lazy
    /// deletion: entries of jobs that since left `P` are dropped when popped.
    p_deadlines: BinaryHeap<Reverse<(Time, JobId)>>,
    /// Scratch: the completion scan's due keys outside every re-check
    /// interval, ascending.
    admit_scratch: Vec<(Density, JobId)>,
    /// Scratch: the candidates whose deadline has passed (the due keys of
    /// [`admit_from_p`](Self::admit_from_p)), ascending.
    expired_scratch: Vec<(Density, JobId)>,
    /// Scratch: job → slot position in the allocation being built.
    slot_lut: DenseU32Map,
}

impl SchedulerS {
    /// Create S for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> SchedulerS {
        assert!(m >= 1);
        let c = Dyadic::new(params.c());
        SchedulerS {
            params,
            m,
            jobs: JobSlab::new(),
            q: DensityBands::new(c, params.band_capacity(m)),
            p: DensityQueue::default(),
            metrics: SchedulerSMetrics::default(),
            check_invariants: false,
            rules: Rules::new(m, &params, 1.0),
            work_conserving: false,
            report: None,
            c,
            removed: Vec::new(),
            p_deadlines: BinaryHeap::new(),
            admit_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            slot_lut: DenseU32Map::new(),
        }
    }

    /// Tell S it runs on `s`-speed processors (Corollary 1's reduction:
    /// equivalent to scaling all node works by `1/s`). Arrival-time
    /// allotments, budgets and densities then use `W/s` and `L/s`.
    pub fn with_speed_hint(mut self, s: f64) -> SchedulerS {
        assert!(s.is_finite() && s > 0.0, "speed hint must be positive");
        self.rules = Rules::new(self.m, &self.params, s);
        self
    }

    /// Convenience: S with the recommended constants for `ε`.
    pub fn with_epsilon(m: u32, epsilon: f64) -> SchedulerS {
        SchedulerS::new(m, AlgoParams::from_epsilon(epsilon).expect("valid epsilon"))
    }

    /// Enable the work-conserving backfill extension (see
    /// [`allocate`](OnlineScheduler::allocate)): the paper's analysis is
    /// oblivious to what runs on processors the standard pass leaves idle,
    /// so backfilling cannot invalidate the admission invariants — it only
    /// adds opportunistic progress. This explores the paper's future-work
    /// direction of practical, work-conserving variants of S.
    pub fn work_conserving(mut self) -> SchedulerS {
        self.work_conserving = true;
        self
    }

    /// Enable Observation-3 re-verification after every queue mutation
    /// (O(|Q|²) per event), and replay the full walk on every completion
    /// scan: each `P` job the scan passes over, whether untouched since its
    /// last check or inside a blocked stretch, is re-probed to prove the
    /// skip sound (O(|P| · |Q|) per completion).
    /// For tests.
    pub fn with_invariant_checks(mut self) -> SchedulerS {
        self.check_invariants = true;
        self
    }

    /// Analysis counters.
    pub fn metrics(&self) -> &SchedulerSMetrics {
        &self.metrics
    }

    /// The parameters in use.
    pub fn params(&self) -> &AlgoParams {
        &self.params
    }

    /// Is the job currently in the started queue `Q`? (test hook)
    pub fn in_q(&self, id: JobId) -> bool {
        self.jobs.get(id).is_some_and(|j| j.in_q)
    }

    /// Number of jobs waiting in `P`. (test hook)
    pub fn p_len(&self) -> usize {
        self.p.len()
    }

    /// Record one admission decision (no-op unless reporting is enabled).
    fn record(&mut self, job: JobId, decision: AdmissionDecision) {
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent { job, decision });
        }
    }

    fn assert_invariant(&self) {
        if self.check_invariants {
            assert!(
                self.q.check_invariant(),
                "Observation 3 violated: a density band exceeds b*m"
            );
        }
    }

    /// Admit into Q (caller verified the conditions, and took a parked
    /// job's key out of `P`).
    fn start_job(&mut self, id: JobId, from_p: bool) {
        let job = self.jobs.get_mut(id).expect("known job");
        job.in_q = true;
        let JobModel {
            density,
            allot,
            profit,
            ..
        } = job.model;
        if from_p {
            self.metrics.admitted_from_p += 1;
        } else {
            self.metrics.admitted_at_arrival += 1;
        }
        self.q.insert(id, density, allot);
        self.metrics.started_profit += profit;
        self.metrics.started_count += 1;
        self.metrics.max_q_len = self.metrics.max_q_len.max(self.q.len());
        self.record(id, AdmissionDecision::Admitted);
        self.assert_invariant();
    }

    /// Drop a job from whichever queue holds it. `at` is its index in
    /// [`DensityQueue::keys`], if the caller knows it.
    fn forget(&mut self, id: JobId, at: Option<usize>) {
        if let Some(job) = self.jobs.remove(id) {
            let key = (job.model.density, id);
            if job.in_q {
                self.q.remove(id);
                self.removed.push(key.0);
            } else {
                self.unpark(key, at);
            }
        }
        self.assert_invariant();
    }

    /// Take a parked job's key out of `P`; `at` is its index in
    /// [`DensityQueue::keys`], if the caller knows it.
    fn unpark(&mut self, key: (Density, JobId), at: Option<usize>) {
        match at {
            Some(at) => {
                debug_assert_eq!(self.p.items[at], key);
                self.p.remove_at(at);
            }
            None => self.p.remove(&key),
        }
    }

    /// The job's model, if it is parked in `P`.
    fn parked(&self, id: JobId) -> Option<JobModel> {
        self.jobs.get(id).filter(|j| !j.in_q).map(|j| j.model)
    }

    /// The standard pass: walk `Q` highest-density-first, granting each
    /// started job its full allotment while it fits. Clears `out`; returns
    /// the processors left idle. Reads nothing but the queues.
    fn standard_pass(&self, m: u32, out: &mut Allocation) -> u32 {
        out.clear();
        let mut left = m;
        for (id, _, allot) in self.q.iter().rev() {
            if left == 0 {
                break;
            }
            if allot <= left {
                out.push((id, allot));
                left -= allot;
            }
        }
        left
    }

    /// Work-conserving backfill over processors the standard pass left
    /// idle, in three stages of decreasing theoretical blessing:
    ///
    /// 1. top up *scheduled* jobs to their ready-node counts (a scheduled
    ///    job with more ready nodes than its allotment can absorb spare
    ///    processors with zero risk);
    /// 2. partially schedule Q jobs that were skipped because their full
    ///    allotment did not fit;
    /// 3. run waiting (`P`) jobs opportunistically — they stay officially
    ///    un-started, keeping the admission accounting intact, but spare
    ///    capacity does real work toward their completion.
    ///
    /// Ready counts come from the view (O(log alive) each); grant slots
    /// are tracked in a dense scratch map rebuilt from `out` each call,
    /// O(|out|) ≤ O(m), so merging a grant into its job's entry is an O(1)
    /// slot lookup — no per-call hashing or allocation.
    fn backfill(&mut self, view: &TickView<'_>, mut left: u32, out: &mut Allocation) {
        self.slot_lut.clear();
        for (slot, &(id, _)) in out.iter().enumerate() {
            self.slot_lut.set(id, slot as u32);
        }
        // Stage 1 + 2: walk Q by density again.
        for (id, ..) in self.q.iter().rev() {
            if left == 0 {
                return;
            }
            let Some(r) = view.ready_count(id) else {
                continue;
            };
            let slot = self.slot_lut.get(id);
            let have = slot.map_or(0, |s| out[s as usize].1);
            let want = r.saturating_sub(have).min(left);
            if want == 0 {
                continue;
            }
            left -= want;
            match slot {
                Some(s) => out[s as usize].1 += want,
                None => {
                    self.slot_lut.set(id, out.len() as u32);
                    out.push((id, want));
                }
            }
        }
        // Stage 3: waiting jobs by density.
        for &(_, id) in self.p.keys().iter().rev() {
            if left == 0 {
                return;
            }
            let Some(r) = view.ready_count(id) else {
                continue;
            };
            let want = r.min(left);
            if want == 0 {
                continue;
            }
            left -= want;
            debug_assert!(self.slot_lut.get(id).is_none(), "P and Q are disjoint");
            out.push((id, want));
        }
    }

    /// The completion-event admission pass. The paper's rule walks all of
    /// `P` by density (desc), dropping dead jobs and starting every δ-fresh
    /// job that passes the band condition. This pass walks the same order
    /// but probes only the parked jobs whose outcome can differ from their
    /// last check, and jumps over stretches the band rules out; the rest
    /// would be no-ops.
    ///
    /// Why skipping a job untouched since its last check is exact. A job's
    /// last check is an earlier scan or its arrival, and the arrival check
    /// is a scan's check: an admissible job is δ-good at its allotment,
    /// `D ≥ (1+2δ)·x`, so its integer slack `D` is at least `⌈(1+δ)·x⌉` and
    /// it is δ-fresh at arrival. A job `j` at density `d` that is still in
    /// `P` after its last check therefore failed for a reason that
    /// persists:
    ///
    /// * `!admissible` never changes.
    /// * Not δ-fresh: the slack `d_j − t` only shrinks, so a job that stops
    ///   being fresh never becomes fresh again.
    /// * `fits(d, a)` was false. `fits` reads only the `Q` jobs with
    ///   density in the open interval `(d/c, c·d)`: the candidate's own
    ///   window `[d, c·d)` and the windows of the anchors `v ≤ d < c·v`.
    ///   Every other (flank) anchor keeps its load and is within capacity
    ///   by Observation 3. And `fits` can only become false as `Q` grows,
    ///   so it turns true again only after a `Q` job in that interval
    ///   leaves.
    ///
    /// So the candidates are the union of two sets:
    ///
    /// * **Interval keys:** the `P` jobs in `(v/c, c·v)` for each density
    ///   `v` removed from `Q` since the last scan, by a completion or a
    ///   `Q`-job expiry. A job deferred since the last scan is one of them
    ///   whenever a removal in its band, the one thing that can turn its
    ///   failed `fits` around, has happened since its arrival check.
    /// * **Due keys:** the `P` jobs with `abs_deadline <= now`, from the
    ///   deadline heap, so their `Rejected(DeadlinePassed)` events still
    ///   fire.
    ///
    /// Within a scan `Q` only grows, so the full walk would meet every
    /// skipped job with a `Q` at least as large on its interval as at its
    /// last check.
    ///
    /// **Blocked stretches.** When a candidate at density `d` fails on
    /// `fits` alone, [`DensityBands::blocked_stretch`] gives the lowest
    /// `lo` such that an allotment-1 job fits nowhere in `[lo, d]`, and
    /// the walk jumps to the candidates below `lo`, probing on the way
    /// only the due keys in the stretch. Why the jump is exact:
    ///
    /// * Within one scan `Q` only grows, so a stretch that cannot take one
    ///   processor cannot take any allotment for the rest of the scan.
    /// * Every job skipped this way has `abs_deadline > now` (the due keys
    ///   are every parked job whose deadline has passed), so the full scan
    ///   would do nothing for it. The due keys are probed in descending
    ///   order, so each `Rejected(DeadlinePassed)` event keeps its
    ///   position.
    ///
    /// The candidates are walked in descending `(density, id)` order with
    /// the full scan's per-candidate body ([`probe`](Self::probe)), so
    /// admissions and rejections come out in the same order. The walk reads
    /// `P` in place: the interval keys as index ranges of `P`, one per
    /// removed density (found when the walk reaches it, below every key
    /// walked so far), merged with the due keys that lie outside every
    /// interval. A probe removes a key it reached through an index range by
    /// that index. Cost: O(probes · |Q| + removals · |P|), plus two binary
    /// searches per interval; a probe that fails on `fits` alone adds one
    /// stretch query and three binary searches.
    fn admit_from_p(&mut self, now: Time) {
        let mut extra = std::mem::take(&mut self.admit_scratch);
        let mut expired = std::mem::take(&mut self.expired_scratch);
        self.collect_candidates(now, &mut extra, &mut expired);
        let removed = std::mem::take(&mut self.removed);
        // The walk reads `P`'s keys in place, sorted from here on.
        self.p.keys();
        // Invariant mode replays the full walk over a snapshot of `P`.
        let replay: Vec<(Density, JobId)> = if self.check_invariants {
            self.p.items.clone()
        } else {
            Vec::new()
        };
        let mut unwalked = replay.as_slice();
        // The walk's state: `P` indices `[lo, hi)` of the current interval
        // not yet walked, the intervals around `removed[..r]` not yet
        // entered, the keys `extra[..e]`, the last key walked and the last
        // stretch jumped, below both of which every key still to be walked
        // lies. A probe removes only its own key, at or above the cursor,
        // so the indices below it stay valid.
        let (mut lo, mut hi, mut r, mut e) = (0, 0, removed.len(), extra.len());
        let (mut last, mut floor): (Option<(Density, JobId)>, Option<Stretch>) = (None, None);
        let c = self.c;
        loop {
            while lo == hi && r > 0 {
                r -= 1;
                let v = removed[r];
                let (bottom, top) = (v.band_bottom(c), v.band_top(c));
                lo = self.p.items.partition_point(|k| !bottom.under(k.0));
                hi = self
                    .p
                    .items
                    .partition_point(|k| {
                        top.covers(k.0)
                            && last.is_none_or(|l| *k < l)
                            && floor.is_none_or(|s| !self.q.in_stretch(s, k.0))
                    })
                    .max(lo);
            }
            let (key, at) = match (lo < hi, e > 0) {
                (true, true) if extra[e - 1] > self.p.items[hi - 1] => {
                    e -= 1;
                    (extra[e], None)
                }
                (true, _) => {
                    hi -= 1;
                    (self.p.items[hi], Some(hi))
                }
                (false, true) => {
                    e -= 1;
                    (extra[e], None)
                }
                (false, false) => break,
            };
            last = Some(key);
            self.replay_to(&mut unwalked, key, now);
            if !self.probe(key.1, at, now) {
                continue;
            }
            let Some(stretch) = self.q.blocked_stretch(key.0) else {
                continue;
            };
            // Jump below the stretch, probing only its due keys. Every key
            // still to be walked lies below the stretch, so removing them
            // shifts none of the indices left to walk.
            floor = Some(stretch);
            let below = |k: &(Density, JobId)| !self.q.in_stretch(stretch, k.0);
            if lo < hi {
                hi = lo + self.p.items[lo..hi].partition_point(below);
            }
            e = extra[..e].partition_point(below);
            let from = expired.partition_point(below);
            let to = expired.partition_point(|k| *k < key);
            for &k in expired[from..to].iter().rev() {
                self.replay_to(&mut unwalked, k, now);
                self.probe(k.1, None, now);
            }
        }
        // Invariant mode: the `P` jobs below the last probe were passed
        // over too. (Outside it, `unwalked` is empty.)
        for &(_, id) in unwalked.iter().rev() {
            self.assert_skip_sound(id, now);
        }
        self.removed = removed;
        self.removed.clear();
        self.admit_scratch = extra;
        self.expired_scratch = expired;
    }

    /// Gather the candidates of [`admit_from_p`](Self::admit_from_p):
    /// `removed` sorted ascending without duplicates; `expired` the due
    /// keys, and `extra` those of them outside every re-check interval,
    /// each ascending by `(density, id)`.
    fn collect_candidates(
        &mut self,
        now: Time,
        extra: &mut Vec<(Density, JobId)>,
        expired: &mut Vec<(Density, JobId)>,
    ) {
        extra.clear();
        expired.clear();
        self.removed.sort_unstable();
        self.removed.dedup();

        // Each job parks once, so its deadline entry is popped once.
        while let Some(&Reverse((deadline, id))) = self.p_deadlines.peek() {
            if deadline > now {
                break;
            }
            self.p_deadlines.pop();
            if let Some(job) = self.parked(id) {
                expired.push((job.density, id));
            }
        }
        expired.sort_unstable();
        // A key inside an interval is walked with the interval's `P` slice.
        // `d ∈ (v/c, c·v)` iff `v ∈ (d/c, c·d)`, so the least removed `v`
        // with `c·v > d` decides.
        let (removed, c) = (&self.removed, self.c);
        extra.extend(expired.iter().filter(|&&(d, _)| {
            let at = removed.partition_point(|&v| !d.lt_scaled(v, c));
            at == removed.len() || !removed[at].lt_scaled(d, c)
        }));
    }

    /// The full scan's per-candidate body: drop the job if its deadline has
    /// passed, else start it if it is admissible, δ-fresh and fits. `at` is
    /// the job's index in [`DensityQueue::keys`], if the walk knows it.
    /// Counts the probe; returns true iff the job failed on `fits` alone.
    fn probe(&mut self, id: JobId, at: Option<usize>, now: Time) -> bool {
        self.metrics.admission_probes += 1;
        let Some(job) = self.jobs.get(id).map(|j| j.model) else {
            return false;
        };
        // Remove jobs whose absolute deadline has passed.
        if job.abs_deadline <= now {
            self.forget(id, at);
            self.record(
                id,
                AdmissionDecision::Rejected(AdmissionReason::DeadlinePassed),
            );
            return false;
        }
        if !job.admissible || Self::stale(&job, now) {
            return false;
        }
        if self.q.fits(job.density, job.allot) {
            self.unpark((job.density, id), at);
            self.start_job(id, true);
            return false;
        }
        true
    }

    /// Not δ-fresh: `d_i − t < (1+δ)x_i`, i.e. `d_i − t < ⌈(1+δ)x_i⌉`.
    fn stale(job: &JobModel, now: Time) -> bool {
        job.abs_deadline.since(now) < job.fresh_slack
    }

    /// Invariant mode's replay of the full walk, advanced to the probe of
    /// `key`: every `P` key above it in `unwalked` (ascending) was passed
    /// over, by either skip rule, and must be one the full scan would leave
    /// alone at this point of the walk. No-op outside invariant mode.
    fn replay_to(&self, unwalked: &mut &[(Density, JobId)], key: (Density, JobId), now: Time) {
        if !self.check_invariants {
            return;
        }
        loop {
            let (&last, rest) = unwalked
                .split_last()
                .expect("scan candidate missing from P");
            *unwalked = rest;
            if last == key {
                return;
            }
            assert!(last > key, "scan candidate {key:?} missing from P");
            self.assert_skip_sound(last.1, now);
        }
    }

    /// The skip-soundness check: the full scan would do nothing for `id`
    /// at this point of its walk.
    fn assert_skip_sound(&self, id: JobId, now: Time) {
        let job = self.parked(id).expect("P holds only parked jobs");
        assert!(
            job.abs_deadline > now,
            "completion scan skipped {id:?}, whose deadline has passed"
        );
        assert!(
            !(job.admissible && !Self::stale(&job, now) && self.q.fits(job.density, job.allot)),
            "completion scan skipped {id:?}, which the full scan would start"
        );
    }
}

impl OnlineScheduler for SchedulerS {
    fn name(&self) -> String {
        if self.work_conserving {
            format!("S-wc(eps={})", self.params.epsilon())
        } else {
            format!("S(eps={})", self.params.epsilon())
        }
    }

    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        // S targets deadline jobs; a general profit function is treated via
        // its flat prefix (deadline = x*, profit = the flat value).
        let model = JobModel::derive(info, &self.rules);
        self.jobs.insert(info.id, SJob { model, in_q: false });
        if !model.admissible {
            self.metrics.inadmissible += 1;
        }
        // An admissible job is δ-good at its allotment.
        if model.admissible && self.q.fits(model.density, model.allot) {
            self.start_job(info.id, false);
        } else {
            let reason = if model.admissible {
                self.metrics.band_rejections += 1;
                AdmissionReason::BandCapacity
            } else {
                AdmissionReason::Infeasible
            };
            self.record(info.id, AdmissionDecision::Deferred(reason));
            self.p.insert((model.density, info.id));
            self.p_deadlines
                .push(Reverse((model.abs_deadline, info.id)));
        }
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        self.forget(id, None);
        self.admit_from_p(now);
    }

    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.forget(id, None);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        let left = self.standard_pass(view.m, out);
        if self.work_conserving && left > 0 {
            self.backfill(view, left, out);
        }
    }

    fn allocation_stable_between_events(&self) -> bool {
        // S re-decides only on events: `allocate` (and the optional
        // work-conserving backfill) is a pure walk over the density-ordered
        // queues, which change exclusively in the arrival / completion /
        // expiry hooks. Nothing reads `view.now`.
        true
    }

    fn group_aware(&self) -> bool {
        // S emits its running queue in density order; fastest-first
        // placement puts the densest jobs' nodes on the fastest groups.
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
        // Everything run-dependent goes; the construction parameters
        // (params, m, rules, work_conserving, check_invariants) and the
        // scratch buffers stay.
        self.jobs.clear();
        self.q.clear();
        self.p.clear();
        self.removed.clear();
        self.p_deadlines.clear();
        self.metrics = SchedulerSMetrics::default();
        self.report = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{cmp_products, Speed, Work};
    use dagsched_dag::gen;
    use dagsched_engine::{simulate, simulate_observed, JobStatus, NodePick, SimConfig, Trace};
    use dagsched_workload::{
        DeadlinePolicy, Instance, JobSpec, ProfitPolicy, StepProfitFn, WorkloadGen,
    };

    fn info(id: u32, arrival: u64, w: u64, l: u64, d: u64, p: u64) -> JobInfo {
        JobInfo {
            id: JobId(id),
            arrival: Time(arrival),
            work: Work(w),
            span: Work(l),
            profit: StepProfitFn::deadline(Time(d), p),
        }
    }

    fn sched(m: u32) -> SchedulerS {
        SchedulerS::with_epsilon(m, 1.0).with_invariant_checks()
    }

    #[test]
    fn slack_job_is_admitted_and_allocated() {
        let mut s = sched(8);
        // W=64, L=4, m=8: brent = 11.5; Theorem-2 deadline (eps=1): 23.
        s.on_arrival(&info(0, 0, 64, 4, 23, 10), Time(0));
        assert!(s.in_q(JobId(0)));
        assert_eq!(s.metrics().started_count, 1);
        assert_eq!(s.metrics().started_profit, 10);
        let jobs = [(JobId(0), 5u32)];
        let view = TickView::new(8, Time(0), &jobs);
        let alloc = s.allocate(&view);
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].0, JobId(0));
        let n = alloc[0].1;
        // Lemma 1 (+1 integrality): n ≤ b²m + 1.
        let p = s.params();
        assert!(n as f64 <= p.b() * p.b() * 8.0 + 1.0, "allot {n}");
        assert!(n >= 1);
    }

    #[test]
    fn tight_deadline_job_parks_in_p_forever() {
        let mut s = sched(8);
        // Deadline below L: infeasible for any scheduler.
        s.on_arrival(&info(0, 0, 64, 16, 10, 10), Time(0));
        assert!(!s.in_q(JobId(0)));
        assert_eq!(s.p_len(), 1);
        assert_eq!(s.metrics().inadmissible, 1);
        let view_jobs = [(JobId(0), 64u32)];
        assert!(s
            .allocate(&TickView::new(8, Time(0), &view_jobs))
            .is_empty());
    }

    #[test]
    fn band_overflow_parks_then_completion_admits() {
        let p = AlgoParams::from_epsilon(1.0).unwrap();
        let m = 8u32;
        let mut s = SchedulerS::new(m, p).with_invariant_checks();
        // Fill the band: several equal-density jobs, each of allotment ~4.
        // W=60, L=1, D=24 -> n = ceil(59/(24/1.5 - 1)) = ceil(3.93) = 4.
        let cap = p.b() * m as f64; // ~6.9
        s.on_arrival(&info(0, 0, 60, 1, 24, 60), Time(0));
        assert!(s.in_q(JobId(0)));
        // Same shape again: 4 + 4 = 8 > b*m ≈ 6.93 -> parked.
        s.on_arrival(&info(1, 0, 60, 1, 24, 60), Time(0));
        assert!(!s.in_q(JobId(1)), "band capacity {cap} must reject");
        assert_eq!(s.metrics().band_rejections, 1);
        // Job 0 completes early: job 1 is δ-fresh and must now be admitted
        // (Lemma 7's mechanism).
        s.on_completion(JobId(0), Time(2));
        assert!(s.in_q(JobId(1)));
        assert_eq!(s.metrics().admitted_from_p, 1);
        assert_eq!(s.metrics().started_count, 2);
    }

    #[test]
    fn stale_job_in_p_is_not_admitted() {
        let mut s = sched(8);
        s.on_arrival(&info(0, 0, 60, 1, 24, 60), Time(0));
        s.on_arrival(&info(1, 0, 60, 1, 24, 60), Time(0));
        assert!(!s.in_q(JobId(1)));
        // Completion happens so late that job 1 is no longer δ-fresh:
        // x ≈ 15.75, fresh threshold (1+δ)x ≈ 19.7, deadline 24 → any
        // completion after t = 4.3 leaves it stale.
        s.on_completion(JobId(0), Time(10));
        assert!(!s.in_q(JobId(1)), "stale job must stay in P");
        // And a completion after its deadline drops it entirely.
        s.on_completion(JobId(99), Time(30)); // unknown id: only triggers scan
        assert_eq!(s.p_len(), 0);
    }

    #[test]
    fn allocation_is_density_ordered_and_capacity_bounded() {
        let mut s = sched(8);
        // Three admitted jobs with distinct densities (profit varies).
        s.on_arrival(&info(0, 0, 30, 1, 30, 10), Time(0)); // low density
        s.on_arrival(&info(1, 0, 30, 1, 30, 90), Time(0)); // high
        s.on_arrival(&info(2, 0, 30, 1, 30, 40), Time(0)); // mid
        let jobs = [(JobId(0), 9u32), (JobId(1), 9), (JobId(2), 9)];
        let alloc = s.allocate(&TickView::new(8, Time(0), &jobs));
        // Highest density first.
        assert_eq!(alloc[0].0, JobId(1));
        let total: u32 = alloc.iter().map(|(_, k)| *k).sum();
        assert!(total <= 8);
    }

    #[test]
    fn allocate_into_reuses_the_buffer() {
        let mut s = sched(8);
        s.on_arrival(&info(0, 0, 64, 4, 23, 10), Time(0));
        let jobs = [(JobId(0), 5u32)];
        let view = TickView::new(8, Time(0), &jobs);
        let mut buf = vec![(JobId(77), 99u32)]; // stale content must vanish
        s.allocate_into(&view, &mut buf);
        assert_eq!(buf, s.allocate(&view), "into-variant matches allocate");
        let before_ptr = buf.as_ptr();
        s.allocate_into(&view, &mut buf);
        assert_eq!(buf.as_ptr(), before_ptr, "no reallocation on reuse");
    }

    #[test]
    fn single_slack_job_completes_via_engine() {
        // Theorem-2-conformant single job must complete by its deadline.
        let dag = gen::fork_join(3, 6, 2).into_shared();
        let (w, l) = (dag.total_work(), dag.span());
        let m = 8u32;
        let brent = (w.as_f64() - l.as_f64()) / m as f64 + l.as_f64();
        let d = (2.0 * brent).ceil() as u64; // slack factor 1+eps = 2
        let inst = Instance::new(
            m,
            vec![JobSpec::new(
                JobId(0),
                Time(0),
                dag,
                StepProfitFn::deadline(Time(d), 5),
            )],
        )
        .unwrap();
        let mut s = sched(m);
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert!(
            matches!(r.outcomes[0], JobStatus::Completed { .. }),
            "outcome: {:?}",
            r.outcomes[0]
        );
        assert_eq!(r.total_profit, 5);
    }

    #[test]
    fn engine_run_respects_observation3_and_makes_profit() {
        // A loaded random workload with Theorem-2 slack; S must earn a
        // nontrivial fraction and never trip the invariant checker.
        let gen = WorkloadGen {
            deadlines: DeadlinePolicy::SlackFactor(2.0),
            profits: ProfitPolicy::UniformDensity { lo: 1.0, hi: 4.0 },
            ..WorkloadGen::standard(16, 120, 7)
        };
        let inst = gen.generate().unwrap();
        let mut s = SchedulerS::with_epsilon(16, 1.0).with_invariant_checks();
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert!(r.total_profit > 0, "S earned nothing");
        assert!(s.metrics().started_count > 0);
        // ‖C‖ ≤ ‖R‖ by definition.
        assert!(r.total_profit <= s.metrics().started_profit);
    }

    #[test]
    fn completed_profit_only_counts_started_jobs() {
        // Every completion the engine reports must be a job S started
        // (jobs in P are never allocated processors).
        let gen = WorkloadGen::standard(8, 60, 21);
        let inst = gen.generate().unwrap();
        let mut s = SchedulerS::with_epsilon(8, 1.0);
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        let completed: usize = r.outcomes.iter().filter(|o| o.is_completed()).count();
        assert!(completed <= s.metrics().started_count);
    }

    #[test]
    fn works_under_speed_augmentation() {
        // Corollary 1 setting: tight-ish deadlines, engine at speed 2+eps.
        let gen = WorkloadGen {
            deadlines: DeadlinePolicy::SlackFactor(1.05),
            ..WorkloadGen::standard(8, 80, 3)
        };
        let inst = gen.generate().unwrap();
        let cfg_fast = SimConfig {
            speed: Speed::new(5, 2).unwrap(), // 2.5x
            pick: NodePick::Fifo,
            ..SimConfig::default()
        };
        let mut s_fast = SchedulerS::with_epsilon(8, 1.0);
        let fast = simulate(&inst, &mut s_fast, &cfg_fast).unwrap();
        let mut s_slow = SchedulerS::with_epsilon(8, 1.0);
        let slow = simulate(&inst, &mut s_slow, &SimConfig::default()).unwrap();
        assert!(
            fast.total_profit >= slow.total_profit,
            "speed augmentation cannot hurt: fast {} < slow {}",
            fast.total_profit,
            slow.total_profit
        );
    }

    #[test]
    fn work_conserving_backfill_tops_up_and_runs_p_jobs() {
        let mut s = sched(8).work_conserving();
        // One admitted wide job with allotment ~4 but 8 ready nodes, and one
        // band-rejected job parked in P.
        s.on_arrival(&info(0, 0, 60, 1, 24, 60), Time(0));
        s.on_arrival(&info(1, 0, 60, 1, 24, 60), Time(0));
        assert!(s.in_q(JobId(0)));
        assert!(!s.in_q(JobId(1)));
        let jobs = [(JobId(0), 8u32), (JobId(1), 8u32)];
        let alloc = s.allocate(&TickView::new(8, Time(0), &jobs));
        let total: u32 = alloc.iter().map(|(_, k)| *k).sum();
        assert_eq!(
            total, 8,
            "work-conserving: no idle processors, got {alloc:?}"
        );
        // Job 0 got topped up beyond its allotment; job 1 got the rest.
        let k0 = alloc.iter().find(|(j, _)| *j == JobId(0)).unwrap().1;
        let k1 = alloc.iter().find(|(j, _)| *j == JobId(1)).map(|(_, k)| *k);
        assert!(k0 > 4 || k1.is_some(), "spare capacity must go somewhere");
        assert!(s.name().starts_with("S-wc"));
    }

    #[test]
    fn work_conserving_never_hurts_on_batch_workloads() {
        // Same instance, S vs S-wc: backfill only adds progress, so profit
        // cannot drop on these batch workloads (priorities are identical).
        for seed in [3u64, 9, 27] {
            let gen = WorkloadGen {
                arrivals: dagsched_workload::ArrivalProcess::AllAtOnce,
                deadlines: DeadlinePolicy::SlackFactor(2.0),
                ..WorkloadGen::standard(8, 40, seed)
            };
            let inst = gen.generate().unwrap();
            let mut plain = SchedulerS::with_epsilon(8, 1.0);
            let p = simulate(&inst, &mut plain, &SimConfig::default()).unwrap();
            let mut wc = SchedulerS::with_epsilon(8, 1.0).work_conserving();
            let w = simulate(&inst, &mut wc, &SimConfig::default()).unwrap();
            assert!(
                w.total_profit >= p.total_profit,
                "seed {seed}: wc {} < plain {}",
                w.total_profit,
                p.total_profit
            );
        }
    }

    #[test]
    fn work_conserving_preserves_observation3() {
        // Backfill must not touch the band structure.
        let gen = WorkloadGen::standard(8, 60, 5);
        let inst = gen.generate().unwrap();
        let mut s = SchedulerS::with_epsilon(8, 1.0)
            .work_conserving()
            .with_invariant_checks();
        simulate(&inst, &mut s, &SimConfig::default()).unwrap();
    }

    /// S behind a wrapper that logs, per completion, the completed job, the
    /// candidates its scan probed, and `|P|` before the scan (what the full
    /// scan would have probed).
    struct ProbeLog {
        s: SchedulerS,
        scans: Vec<(JobId, u64, usize)>,
    }

    impl OnlineScheduler for ProbeLog {
        fn name(&self) -> String {
            self.s.name()
        }
        fn on_arrival(&mut self, info: &JobInfo, now: Time) {
            self.s.on_arrival(info, now);
        }
        fn on_completion(&mut self, id: JobId, now: Time) {
            let (before, p_len) = (self.s.metrics().admission_probes, self.s.p_len());
            self.s.on_completion(id, now);
            let probes = self.s.metrics().admission_probes - before;
            self.scans.push((id, probes, p_len));
        }
        fn on_expiry(&mut self, id: JobId, now: Time) {
            self.s.on_expiry(id, now);
        }
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            self.s.allocate(view)
        }
        fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
            self.s.allocate_into(view, out);
        }
        fn allocation_stable_between_events(&self) -> bool {
            self.s.allocation_stable_between_events()
        }
    }

    #[test]
    fn foreground_completions_probe_only_their_band() {
        // The parked single-node shape, scaled down: `n` background jobs of
        // work ~10,000 and a far deadline park in P behind the band
        // capacity (b·m ≈ 3.5 on m = 4), while two tiny tight-deadline jobs
        // arrive per tick. The two populations sit ~15,000x apart in
        // density, far outside each other's bands (c ≈ 53).
        let n = 400u32;
        let mut rng = dagsched_core::Rng64::seed_from(1);
        let mut jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    Time(0),
                    gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                    StepProfitFn::deadline(Time(500_000), 1),
                )
            })
            .collect();
        for i in 0..n {
            jobs.push(JobSpec::new(
                JobId(n + i),
                Time((i / 2) as u64),
                gen::single(2).into_shared(),
                StepProfitFn::deadline(Time(60), 3),
            ));
        }
        let inst = Instance::new(4, jobs).unwrap();
        let mut log = ProbeLog {
            s: SchedulerS::with_epsilon(4, 1.0).with_invariant_checks(),
            scans: Vec::new(),
        };
        simulate(&inst, &mut log, &SimConfig::default()).unwrap();

        let total: u64 = log.scans.iter().map(|&(_, probes, _)| probes).sum();
        assert_eq!(total, log.s.metrics().admission_probes);
        let foreground: Vec<_> = log.scans.iter().filter(|(id, ..)| id.0 >= n).collect();
        assert!(
            foreground.len() > n as usize / 2,
            "foreground completions ran"
        );
        // A foreground completion re-checks only the parked foreground
        // jobs in its band, a population the arrival rate and the 60-tick
        // deadline bound independently of n, while the full scan probed
        // all of P, background included. The background deferrals are
        // probed by no foreground scan, the first one included.
        const BAND_BOUND: u64 = 64;
        for &&(id, probes, p_len) in &foreground {
            assert!(
                probes <= BAND_BOUND,
                "completion of {id:?} probed {probes} of |P| = {p_len}"
            );
            assert!(
                p_len as u64 > 4 * BAND_BOUND,
                "the full scan would have probed |P| = {p_len}"
            );
        }
    }

    #[test]
    fn parked_dense_scan_skips_blocked_stretches() {
        // The S simulation of the `parked-dense` benchmark at seed 1: 1,500
        // background jobs parked behind the band, and the foreground stream
        // of `foreground_completions_probe_only_their_band`. Each
        // background completion admits the densest parked job, which
        // refills the band; the other ~1,420 in-band candidates then sit in
        // one blocked stretch. Probing them one by one cost 254,006 probes.
        // Invariant checks replay the full walk against every skip; they do
        // not change the probe count. A `Trace` observer changes nothing
        // about how the run steps: the traced run takes the untraced 922
        // steps over 500,001 ticks, in at most one trace window per step.
        let n = 1_500u32;
        let mut rng = dagsched_core::Rng64::seed_from(1).child(0);
        let mut jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    Time(0),
                    gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                    StepProfitFn::deadline(Time(500_000), 1),
                )
            })
            .collect();
        for i in 0..n {
            jobs.push(JobSpec::new(
                JobId(n + i),
                Time((i / 2) as u64),
                gen::single(2).into_shared(),
                StepProfitFn::deadline(Time(60), 3),
            ));
        }
        let inst = Instance::new(4, jobs).unwrap();
        let mut s = SchedulerS::with_epsilon(4, 1.0).with_invariant_checks();
        let r = simulate(&inst, &mut s, &SimConfig::default()).unwrap();

        let metrics = s.metrics();
        assert_eq!(metrics.admission_probes, 6_980);
        assert!(metrics.admission_probes <= 254_006 / 5);
        assert_eq!(metrics.admitted_from_p, 1_295);
        assert_eq!(metrics.started_count, 1_302);
        // `Q` stays this small, which is what makes linear band scans the
        // right structure; a workload that grows it far past this should
        // revisit `DensityBands`.
        assert_eq!(metrics.max_q_len, 6);
        assert_eq!(r.total_profit, 3_598);
        assert_eq!(r.steps_executed, 922);

        let mut trace = Trace::new();
        let mut s = SchedulerS::with_epsilon(4, 1.0);
        let traced = simulate_observed(&inst, &mut s, &SimConfig::default(), &mut trace).unwrap();
        assert!(traced.same_outcome(&r));
        assert_eq!(traced.steps_executed, r.steps_executed);
        assert_eq!(trace.ticks(), 500_001);
        assert!(trace.windows().len() as u64 <= traced.steps_executed);
    }

    /// `DensityQueue` against a `BTreeSet` of the same keys, over random
    /// runs of in-order appends (equal densities, ascending ids),
    /// out-of-order bursts with ties written in different terms, reads,
    /// removals by key (present or not) and removals by index.
    #[test]
    fn density_queue_matches_a_sorted_set() {
        let mut rng = dagsched_core::Rng64::seed_from(30);
        let mut queue = DensityQueue::default();
        let mut model = std::collections::BTreeSet::new();
        let mut next = 0u32;
        let density = |rng: &mut dagsched_core::Rng64| {
            let k = rng.gen_range(3) + 1;
            Density::new(
                (rng.gen_range(4) + 1) * k,
                (rng.gen_range(4) + 1) as u128 * k as u128,
            )
        };
        for _ in 0..3_000 {
            match rng.gen_range(6) {
                0 | 1 => {
                    // Half the runs sit above every key (density 5): these
                    // appends need no merge.
                    let d = match rng.gen_range(2) {
                        0 => Density::new(5, 1),
                        _ => density(&mut rng),
                    };
                    for _ in 0..rng.gen_range(6) {
                        queue.insert((d, JobId(next)));
                        model.insert((d, JobId(next)));
                        next += 1;
                    }
                }
                2 => {
                    let mut burst: Vec<_> = (0..rng.gen_range(6) as u32)
                        .map(|i| (density(&mut rng), JobId(next + i)))
                        .collect();
                    next += burst.len() as u32;
                    rng.shuffle(&mut burst);
                    for key in burst {
                        queue.insert(key);
                        model.insert(key);
                    }
                }
                3 => {
                    // A key in the set, or one most likely not.
                    let key = match rng.gen_range(2) {
                        0 if !model.is_empty() => {
                            let at = rng.gen_range(model.len() as u64) as usize;
                            *model.iter().nth(at).expect("in range")
                        }
                        _ => (
                            density(&mut rng),
                            JobId(rng.gen_range(next as u64 + 1) as u32),
                        ),
                    };
                    queue.remove(&key);
                    model.remove(&key);
                }
                4 if !model.is_empty() => {
                    let at = rng.gen_range(model.len() as u64) as usize;
                    let key = queue.keys()[at];
                    queue.remove_at(at);
                    assert!(model.remove(&key), "{key:?} is not in the set");
                }
                _ => {}
            }
            let want: Vec<_> = model.iter().copied().collect();
            assert_eq!(queue.len(), want.len());
            if rng.gen_range(3) == 0 {
                assert_eq!(queue.keys(), want.as_slice());
            }
        }
        assert_eq!(
            queue.keys(),
            model.iter().copied().collect::<Vec<_>>().as_slice()
        );
        assert!(next > 2_000, "{next} keys inserted");
    }

    #[test]
    fn admitted_jobs_satisfy_lemma_bounds() {
        // Run a batch and check Lemma 1 / Lemma 2 / Lemma 3 exactly on every
        // job S computes parameters for.
        let gen = WorkloadGen {
            deadlines: DeadlinePolicy::SlackFactor(2.0),
            ..WorkloadGen::standard(12, 80, 11)
        };
        let inst = gen.generate().unwrap();
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let m = 12u32;
        let [g, e, a] = [params.good_factor(), 1.0 + params.epsilon(), params.a()].map(Dyadic::new);
        for j in inst.jobs() {
            let info = JobInfo {
                id: j.id,
                arrival: j.arrival,
                work: j.work(),
                span: j.span(),
                profit: j.profit.clone(),
            };
            let model = JobModel::derive(&info, &Rules::new(m, &params, 1.0));
            assert!(
                model.admissible,
                "Theorem-2 slack deadlines are always feasible"
            );
            let (n, xn) = (model.allot as u128, model.density.xn());
            let w = j.work().units() as u128;
            let d = j.rel_deadline().unwrap().ticks() as u128;
            // Lemma 1 with integrality slack: n ≤ ⌊b²m⌋ + 1, i.e.
            // (n − 1)·(1+ε) ≤ (1+2δ)·m.
            assert!(cmp_products(n - 1, e.mant(), e.exp(), m as u128, g.mant(), g.exp()).is_le());
            // Lemma 2: δ-good, D·n ≥ (1+2δ)·x·n.
            assert!(cmp_products(d * n, 1, 0, g.mant(), xn, g.exp()).is_ge());
            // Lemma 3 with integrality slack: x·n ≤ aW + x (one extra
            // processor for at most x steps), i.e. x·n·(n − 1) ≤ a·W·n.
            assert!(cmp_products(xn, n - 1, 0, a.mant(), w * n, a.exp()).is_le());
        }
    }
}
