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
//! Jobs are *started* (admitted to queue `Q`) only if they are `δ`-good
//! (`D_i ≥ (1+2δ)x_i`) and every density band `[v_j, c·v_j)` stays within
//! `b·m` processors (condition (2), maintained by
//! [`DensityBands`] structure). Everything else waits in
//! queue `P`; at each job completion, `δ`-fresh jobs from `P` that now pass
//! the band check are started. Execution is greedy highest-density-first,
//! granting each scheduled job its full allotment.
//!
//! ## Hot-path layout
//!
//! The per-event path (completion → [`admit_from_p`](SchedulerS) scan;
//! window → [`allocate_into`](OnlineScheduler::allocate_into) + backfill)
//! is allocation-free after warm-up: job records live in a dense
//! [`JobSlab`] indexed by `JobId`, the density-ordered queues `Q` and `P`
//! are sorted `Vec`s, the band condition is answered in O(log |Q|) by the
//! incremental [`DensityBands`], and every per-call index (ready counts,
//! grant slots, the admission candidate list) is a hoisted scratch buffer.
//! The completion scan is *targeted*: it re-checks only the parked jobs
//! whose outcome can have changed since the previous scan, and jumps over
//! every stretch of them the band cannot take (see
//! [`admit_from_p`](SchedulerS)). A completion costs one copy of its
//! candidates plus O(probes · log |Q| + removals · log |P|), rather than a
//! probe of every job in `P`. The pre-refactor implementation
//! survives as [`OracleSchedulerS`](crate::oracle::OracleSchedulerS), which
//! the differential tests hold this one byte-identical to.

use crate::bands::{DensityBands, BAND_SLACK};
use crate::ord::OrdF64;
use crate::slab::{DenseU32Map, JobSlab};
use dagsched_core::{AlgoParams, JobId, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    TickView, ViewDelta,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A sorted-`Vec` ordered set of `(density, id)` keys: the `BTreeSet` it
/// replaces allocated a node per insert, which put the queues on the
/// per-event allocation budget. Binary-search insert/remove keep the exact
/// iteration order `BTreeSet` had (ascending by `(OrdF64, JobId)`), and a
/// warmed-up queue reuses its backing storage forever.
#[derive(Debug, Clone, Default)]
struct DensityQueue {
    items: Vec<(OrdF64, JobId)>,
}

impl DensityQueue {
    fn insert(&mut self, key: (OrdF64, JobId)) {
        let at = self.items.partition_point(|e| e < &key);
        self.items.insert(at, key);
    }

    fn remove(&mut self, key: &(OrdF64, JobId)) -> bool {
        match self.items.binary_search(key) {
            Ok(at) => {
                self.items.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// The keys with density in `[lo, hi]` (`lo ≤ hi`), ascending.
    fn density_range(&self, lo: f64, hi: f64) -> &[(OrdF64, JobId)] {
        let start = self.items.partition_point(|(d, _)| d.0 < lo);
        let end = self.items.partition_point(|(d, _)| d.0 <= hi);
        &self.items[start..end]
    }

    /// Iterate ascending by `(density, id)`.
    fn iter(&self) -> std::slice::Iter<'_, (OrdF64, JobId)> {
        self.items.iter()
    }
}

/// Per-job quantities S computes at arrival.
#[derive(Debug, Clone, Copy)]
struct SJob {
    allot: u32,
    x: f64,
    density: f64,
    profit: u64,
    abs_deadline: Time,
    /// False if the deadline is too tight for any allotment (not δ-good
    /// even at `n = m`); such jobs park in `P` and are never started.
    admissible: bool,
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
    /// Started jobs, ordered by (density, id) ascending; iterated in reverse
    /// for highest-density-first.
    q: DensityQueue,
    /// Waiting jobs, same order.
    p: DensityQueue,
    bands: DensityBands,
    metrics: SchedulerSMetrics,
    check_invariants: bool,
    /// Corollary 1's transformation: when the engine runs S at speed `s`,
    /// every node's work is effectively scaled by `1/s`, so arrival-time
    /// computations divide `W` and `L` by this hint (default 1).
    speed_hint: f64,
    /// Work-conserving extension (the paper's future-work item): backfill
    /// processors left idle by the standard pass. Admission, allotments and
    /// priorities are untouched — only spare capacity is used.
    work_conserving: bool,
    /// Admission-decision buffer for the engine's observer plumbing
    /// (`None` = reporting off, the default: zero cost when unobserved).
    report: Option<Vec<AdmissionEvent>>,
    /// Density intervals `[v/c, c·v]` (widened by [`BAND_SLACK`]) around
    /// every `v` removed from `Q` since the last completion scan.
    recheck_bands: Vec<(f64, f64)>,
    /// Jobs parked in `P` since the last completion scan.
    deferred_since_scan: Vec<JobId>,
    /// `(abs_deadline, id)` of every job parked in `P`, earliest first. Lazy
    /// deletion: entries of jobs that since left `P` are dropped when popped.
    p_deadlines: BinaryHeap<Reverse<(Time, JobId)>>,
    /// Scratch: the completion scan's candidate keys, ascending.
    admit_scratch: Vec<(OrdF64, JobId)>,
    /// Scratch: the candidates whose deadline has passed (set (c) of
    /// [`admit_from_p`](Self::admit_from_p)), ascending.
    expired_scratch: Vec<(OrdF64, JobId)>,
    /// Ready counts of the current view, for backfill: per-call scratch on
    /// the rebuild path, persistent across calls on the delta path.
    ready_lut: DenseU32Map,
    /// Scratch: job → slot position in the allocation being built.
    slot_lut: DenseU32Map,
    /// True while `ready_lut` mirrors the engine's maintained view (delta
    /// path only; a full `allocate_into` invalidates it).
    lut_live: bool,
    /// True while the previous allocate call's `out` is still current.
    cache_live: bool,
}

impl SchedulerS {
    /// Create S for `m` processors with the given constants.
    pub fn new(m: u32, params: AlgoParams) -> SchedulerS {
        assert!(m >= 1);
        let capacity = params.b() * m as f64;
        SchedulerS {
            params,
            m,
            jobs: JobSlab::new(),
            q: DensityQueue::default(),
            p: DensityQueue::default(),
            bands: DensityBands::new(params.c(), capacity),
            metrics: SchedulerSMetrics::default(),
            check_invariants: false,
            speed_hint: 1.0,
            work_conserving: false,
            report: None,
            recheck_bands: Vec::new(),
            deferred_since_scan: Vec::new(),
            p_deadlines: BinaryHeap::new(),
            admit_scratch: Vec::new(),
            expired_scratch: Vec::new(),
            ready_lut: DenseU32Map::new(),
            slot_lut: DenseU32Map::new(),
            lut_live: false,
            cache_live: false,
        }
    }

    /// Tell S it runs on `s`-speed processors (Corollary 1's reduction:
    /// equivalent to scaling all node works by `1/s`). Arrival-time
    /// allotments, budgets and densities then use `W/s` and `L/s`.
    pub fn with_speed_hint(mut self, s: f64) -> SchedulerS {
        assert!(s.is_finite() && s > 0.0, "speed hint must be positive");
        self.speed_hint = s;
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
    /// (O(|Q| log |Q|) per event), and replay the full walk on every
    /// completion scan: each `P` job the scan passes over, whether
    /// untouched since its last check or inside a blocked stretch, is
    /// re-probed to prove the skip sound (O(|P| log |Q|) per completion).
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
                self.bands.check_invariant(),
                "Observation 3 violated: a density band exceeds b*m"
            );
        }
    }

    /// Admit into Q (caller verified the conditions).
    fn start_job(&mut self, id: JobId, from_p: bool) {
        let job = self.jobs.get_mut(id).expect("known job");
        job.in_q = true;
        let key = (OrdF64(job.density), id);
        let (density, allot, profit) = (job.density, job.allot, job.profit);
        if from_p {
            self.p.remove(&key);
            self.metrics.admitted_from_p += 1;
        } else {
            self.metrics.admitted_at_arrival += 1;
        }
        self.q.insert(key);
        self.bands.insert(id, density, allot);
        self.metrics.started_profit += profit;
        self.metrics.started_count += 1;
        self.metrics.max_q_len = self.metrics.max_q_len.max(self.q.len());
        self.record(id, AdmissionDecision::Admitted);
        self.assert_invariant();
    }

    /// Drop a job from whichever queue holds it.
    fn forget(&mut self, id: JobId) {
        if let Some(job) = self.jobs.remove(id) {
            let key = (OrdF64(job.density), id);
            if job.in_q {
                self.q.remove(&key);
                self.bands.remove(id);
                let (v, c) = (job.density, self.params.c());
                self.recheck_bands
                    .push((v / c * (1.0 - BAND_SLACK), v * c * (1.0 + BAND_SLACK)));
            } else {
                self.p.remove(&key);
            }
        }
        self.assert_invariant();
    }

    /// The job's record, if it is parked in `P`.
    fn parked(&self, id: JobId) -> Option<SJob> {
        self.jobs.get(id).filter(|j| !j.in_q).copied()
    }

    /// The standard pass: walk `Q` highest-density-first, granting each
    /// started job its full allotment while it fits. Clears `out`; returns
    /// the processors left idle. Reads nothing but the queues, so both the
    /// rebuild and the delta handoff share it verbatim.
    fn standard_pass(&self, m: u32, out: &mut Allocation) -> u32 {
        out.clear();
        let mut left = m;
        for &(_, id) in self.q.iter().rev() {
            if left == 0 {
                break;
            }
            let job = self.jobs.get(id).expect("queued job is known");
            if job.allot <= left {
                out.push((id, job.allot));
                left -= job.allot;
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
    /// Ready counts and grant slots are tracked in dense scratch maps — no
    /// per-call hashing or allocation, and the grant merge that used to
    /// rescan `out` per grant (`out.iter_mut().find`) is now an O(1) slot
    /// lookup.
    fn backfill(&mut self, view: &TickView<'_>, left: u32, out: &mut Allocation) {
        self.ready_lut.clear();
        for &(id, r) in view.jobs() {
            self.ready_lut.set(id, r);
        }
        self.backfill_with_lut(left, out);
    }

    /// The backfill walk against an already-current `ready_lut` — the delta
    /// path's variant of [`backfill`](SchedulerS::backfill) with the
    /// O(alive) ready-count rebuild factored out. The slot lut is still
    /// rebuilt from `out` each call, which is O(|out|) ≤ O(m).
    fn backfill_with_lut(&mut self, mut left: u32, out: &mut Allocation) {
        self.slot_lut.clear();
        for (slot, &(id, _)) in out.iter().enumerate() {
            self.slot_lut.set(id, slot as u32);
        }
        // Stage 1 + 2: walk Q by density again.
        for &(_, id) in self.q.iter().rev() {
            if left == 0 {
                return;
            }
            let Some(r) = self.ready_lut.get(id) else {
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
        for &(_, id) in self.p.iter().rev() {
            if left == 0 {
                return;
            }
            let Some(r) = self.ready_lut.get(id) else {
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
    /// Why skipping a job untouched since its last check is exact. A job
    /// `j` at density `d` that is still in `P` after its last check (an
    /// earlier scan, or its arrival) failed for a reason that persists:
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
    /// So the candidates are the union of three sets:
    ///
    /// * **(a)** `P` jobs in `(v/c, c·v)` for each density `v` removed from
    ///   `Q` since the last scan, by a completion or a `Q`-job expiry. The
    ///   interval is widened by [`BAND_SLACK`] against float rounding:
    ///   visiting too many is harmless, skipping one would not be.
    /// * **(b)** `P` jobs deferred since the last scan. Their arrival check
    ///   is not a scan's: a `NotDeltaGood` deferral may be δ-fresh and fit.
    /// * **(c)** `P` jobs with `abs_deadline <= now`, from the deadline
    ///   heap, so their `Rejected(DeadlinePassed)` events still fire.
    ///
    /// Within a scan `Q` only grows, so the full walk would meet every
    /// skipped job with a `Q` at least as large on its interval as at its
    /// last check.
    ///
    /// **Blocked stretches.** When a candidate at density `d` fails on
    /// `fits` alone, [`DensityBands::blocked_stretch`] gives the lowest
    /// `lo` such that an allotment-1 job fits nowhere in `[lo, d]`, and
    /// the walk jumps to the candidates below `lo`, probing on the way
    /// only the set-(c) keys in the stretch. Why the jump is exact:
    ///
    /// * Within one scan `Q` only grows, so a stretch that cannot take one
    ///   processor cannot take any allotment for the rest of the scan.
    /// * Every job skipped this way has `abs_deadline > now` (set (c)
    ///   holds every parked job whose deadline has passed), so the full
    ///   scan would do nothing for it. The set-(c) keys are probed in
    ///   descending order, so each `Rejected(DeadlinePassed)` event keeps
    ///   its position.
    ///
    /// The candidates are walked in descending `(density, id)` order with
    /// the full scan's per-candidate body ([`probe`](Self::probe)), so
    /// admissions and rejections come out in the same order. Cost: one
    /// copy of the candidates, plus O(probes · log |Q| + removals ·
    /// log |P|); a probe that fails on `fits` alone adds one stretch query
    /// and two binary searches.
    fn admit_from_p(&mut self, now: Time) {
        let mut candidates = std::mem::take(&mut self.admit_scratch);
        let mut expired = std::mem::take(&mut self.expired_scratch);
        self.collect_candidates(now, &mut candidates, &mut expired);
        // Invariant mode replays the full walk over a snapshot of `P`.
        let replay: Vec<(OrdF64, JobId)> = if self.check_invariants {
            self.p.iter().copied().collect()
        } else {
            Vec::new()
        };
        let mut unwalked = replay.as_slice();
        let mut i = candidates.len();
        while i > 0 {
            i -= 1;
            let key = candidates[i];
            self.replay_to(&mut unwalked, key, now);
            if !self.probe(key.1, now) {
                continue;
            }
            let Some(lo) = self.bands.blocked_stretch(key.0 .0) else {
                continue;
            };
            let bottom = candidates[..i].partition_point(|k| k.0 .0 < lo);
            let from = expired.partition_point(|k| k.0 .0 < lo);
            let to = expired.partition_point(|k| *k < key);
            for &k in expired[from..to].iter().rev() {
                self.replay_to(&mut unwalked, k, now);
                self.probe(k.1, now);
            }
            i = bottom;
        }
        // Invariant mode: the `P` jobs below the last probe were passed
        // over too. (Outside it, `unwalked` is empty.)
        for &(_, id) in unwalked.iter().rev() {
            self.assert_skip_sound(id, now);
        }
        self.admit_scratch = candidates;
        self.expired_scratch = expired;
    }

    /// Gather the sets (a)–(c) of [`admit_from_p`](Self::admit_from_p) into
    /// `out`, ascending by `(density, id)` without duplicates, with set (c)
    /// also in `expired`, same order; and reset the since-last-scan logs.
    fn collect_candidates(
        &mut self,
        now: Time,
        out: &mut Vec<(OrdF64, JobId)>,
        expired: &mut Vec<(OrdF64, JobId)>,
    ) {
        out.clear();
        expired.clear();
        // (a): merge the re-check intervals, then copy each `P` slice once;
        // disjoint intervals taken in order give sorted, distinct keys.
        self.recheck_bands
            .sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut merged: Option<(f64, f64)> = None;
        for (lo, hi) in self.recheck_bands.drain(..) {
            match merged {
                Some((cur_lo, cur_hi)) if lo <= cur_hi => merged = Some((cur_lo, cur_hi.max(hi))),
                _ => {
                    if let Some((cur_lo, cur_hi)) = merged {
                        out.extend_from_slice(self.p.density_range(cur_lo, cur_hi));
                    }
                    merged = Some((lo, hi));
                }
            }
        }
        if let Some((cur_lo, cur_hi)) = merged {
            out.extend_from_slice(self.p.density_range(cur_lo, cur_hi));
        }
        let in_band = out.len();

        // (b) and (c), restricted to jobs still parked.
        for id in self.deferred_since_scan.drain(..) {
            if let Some(job) = self.jobs.get(id).filter(|j| !j.in_q) {
                out.push((OrdF64(job.density), id));
            }
        }
        while let Some(&Reverse((deadline, id))) = self.p_deadlines.peek() {
            if deadline > now {
                break;
            }
            self.p_deadlines.pop();
            if let Some(job) = self.parked(id) {
                out.push((OrdF64(job.density), id));
                expired.push((OrdF64(job.density), id));
            }
        }
        if out.len() > in_band {
            out.sort_unstable();
            out.dedup();
        }
        expired.sort_unstable();
    }

    /// The full scan's per-candidate body: drop the job if its deadline has
    /// passed, else start it if it is admissible, δ-fresh and fits. Counts
    /// the probe; returns true iff the job failed on `fits` alone.
    fn probe(&mut self, id: JobId, now: Time) -> bool {
        self.metrics.admission_probes += 1;
        let Some(job) = self.jobs.get(id).copied() else {
            return false;
        };
        // Remove jobs whose absolute deadline has passed.
        if job.abs_deadline <= now {
            self.forget(id);
            self.record(
                id,
                AdmissionDecision::Rejected(AdmissionReason::DeadlinePassed),
            );
            return false;
        }
        if !job.admissible || self.stale(&job, now) {
            return false;
        }
        if self.bands.fits(job.density, job.allot) {
            self.start_job(id, true);
            return false;
        }
        true
    }

    /// Not δ-fresh: `d_i − t < (1+δ)x_i`.
    fn stale(&self, job: &SJob, now: Time) -> bool {
        let slack = job.abs_deadline.since(now) as f64;
        slack < self.params.fresh_factor() * job.x
    }

    /// Invariant mode's replay of the full walk, advanced to the probe of
    /// `key`: every `P` key above it in `unwalked` (ascending) was passed
    /// over, by either skip rule, and must be one the full scan would leave
    /// alone at this point of the walk. No-op outside invariant mode.
    fn replay_to(&self, unwalked: &mut &[(OrdF64, JobId)], key: (OrdF64, JobId), now: Time) {
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
            !(job.admissible && !self.stale(&job, now) && self.bands.fits(job.density, job.allot)),
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
        let (d_rel, profit) = info
            .profit
            .as_deadline()
            .unwrap_or((info.profit.flat_until(), info.profit.max_profit()));
        let w = info.work.as_f64() / self.speed_hint;
        let l = info.span.as_f64() / self.speed_hint;
        let d = d_rel.as_f64();

        // Fractional allotment; None means the deadline is infeasible under
        // the (1+2δ) contraction even with unbounded parallelism.
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
                profit,
                abs_deadline,
                admissible,
                in_q: false,
            },
        );
        if !admissible {
            self.metrics.inadmissible += 1;
        }

        if delta_good && self.bands.fits(density, allot) {
            self.start_job(info.id, false);
        } else {
            if delta_good {
                self.metrics.band_rejections += 1;
            }
            let reason = if !admissible {
                AdmissionReason::Infeasible
            } else if !delta_good {
                AdmissionReason::NotDeltaGood
            } else {
                AdmissionReason::BandCapacity
            };
            self.record(info.id, AdmissionDecision::Deferred(reason));
            self.p.insert((OrdF64(density), info.id));
            self.deferred_since_scan.push(info.id);
            self.p_deadlines.push(Reverse((abs_deadline, info.id)));
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
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        self.lut_live = false;
        self.cache_live = false;
        let left = self.standard_pass(view.m, out);
        if self.work_conserving && left > 0 {
            self.backfill(view, left, out);
        }
    }

    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        if self.cache_live && delta.is_empty() {
            // No hook fired and no ready count moved: the previous call's
            // `out` (still in the buffer) is exactly what a full walk would
            // recompute.
            return true;
        }
        if self.work_conserving {
            // Only the backfill reads ready counts; keep its lut current
            // incrementally instead of rebuilding it O(alive) per step.
            if self.lut_live {
                self.ready_lut.apply_view_delta(delta);
            } else {
                self.ready_lut.clear();
                for &(id, r) in view.jobs() {
                    self.ready_lut.set(id, r);
                }
                self.lut_live = true;
            }
        }
        let left = self.standard_pass(view.m, out);
        if self.work_conserving && left > 0 {
            self.backfill_with_lut(left, out);
        }
        self.cache_live = true;
        true
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
        // (params, m, speed_hint, work_conserving, check_invariants) and the
        // scratch buffers stay. `bands.clear()` restarts its priority
        // stream, so queue shapes replay identically.
        self.jobs.clear();
        self.q.clear();
        self.p.clear();
        self.recheck_bands.clear();
        self.deferred_since_scan.clear();
        self.p_deadlines.clear();
        self.bands.clear();
        self.metrics = SchedulerSMetrics::default();
        self.report = None;
        self.ready_lut.clear();
        self.lut_live = false;
        self.cache_live = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{Speed, Work};
    use dagsched_dag::gen;
    use dagsched_engine::{simulate, JobStatus, NodePick, SimConfig};
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
        fn allocate_delta(
            &mut self,
            delta: &ViewDelta,
            view: &TickView<'_>,
            out: &mut Allocation,
        ) -> bool {
            self.s.allocate_delta(delta, view, out)
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
        // The first scan checks every deferral once, background included.
        // After it, a foreground completion re-checks only the parked
        // foreground jobs in its band, a population the arrival rate and
        // the 60-tick deadline bound independently of n, while the full
        // scan probed all of P, background included.
        const BAND_BOUND: u64 = 64;
        for &&(id, probes, p_len) in &foreground[1..] {
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
        // not change the probe count.
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
        assert_eq!(metrics.admission_probes, 6_982);
        assert!(metrics.admission_probes <= 254_006 / 5);
        assert_eq!(metrics.admitted_from_p, 1_295);
        assert_eq!(metrics.started_count, 1_302);
        assert_eq!(r.total_profit, 3_598);
    }

    #[test]
    fn admitted_jobs_satisfy_lemma_bounds() {
        // Run a batch and check Lemma 1 / Lemma 2 / Lemma 3 on every job S
        // actually computed parameters for.
        let gen = WorkloadGen {
            deadlines: DeadlinePolicy::SlackFactor(2.0),
            ..WorkloadGen::standard(12, 80, 11)
        };
        let inst = gen.generate().unwrap();
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let m = 12u32;
        for j in inst.jobs() {
            let w = j.work().as_f64();
            let l = j.span().as_f64();
            let d = j.rel_deadline().unwrap().as_f64();
            let Some(frac) = params.raw_allotment(w, l, d) else {
                panic!("Theorem-2 slack deadlines are always feasible");
            };
            let n = (frac.ceil() as u32).max(1);
            // Lemma 1 with integrality slack.
            assert!(n as f64 <= params.b().powi(2) * m as f64 + 1.0);
            let x = AlgoParams::x_time(w, l, n);
            // Lemma 2: δ-good (rounding n *up* only shrinks x).
            assert!(x * params.good_factor() <= d + 1e-9);
            // Lemma 3 with integrality slack: x·n ≤ aW + x (one extra
            // processor for at most x steps).
            assert!(x * n as f64 <= params.a() * w + x + 1e-9);
        }
    }
}
