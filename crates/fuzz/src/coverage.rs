//! The coverage signal: cheap execution features driving corpus retention.
//!
//! Classic fuzzers use branch coverage; here the interesting "branches" are
//! semantic and already surface on the [`SimObserver`] stream, so coverage
//! is a set of small integer *feature ids* derived from it:
//!
//! * which admission verdict × reason combinations fired;
//! * which density bands (powers of `c` of the density) admitted jobs
//!   landed in — Observation 3's unit of accounting;
//! * expiry-batch sizes (log₂ buckets) — the kernel's sorted batch pops;
//! * execution-window widths (log₂ buckets) — fast-forward horizon shapes;
//! * which event kinds collided on one tick (arrival/expiry/completion
//!   masks) — the kernel's tie-break cases as seen from the stream;
//! * end-time and peak-alive-set buckets.
//!
//! A candidate that produces any feature id the corpus has not produced
//! before is retained. Every id is below 232, so a run's features and the
//! corpus-wide map are fixed 256-bit sets ([`FeatureSet`]) and a merge is
//! four ORs and popcounts. The corpus saturates quickly on boring
//! mutations and only structurally new behavior survives — which is the
//! point.

use dagsched_core::{JobId, NodeId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, AdmissionReason, JobInfo, SimObserver};

/// A set of feature ids below [`FeatureSet::CAPACITY`], one bit each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureSet([u64; 4]);

impl FeatureSet {
    /// One more than the largest id the set can hold.
    pub const CAPACITY: u32 = 256;

    /// The empty set.
    pub fn new() -> FeatureSet {
        FeatureSet::default()
    }

    /// Add `id`. Panics if `id >= CAPACITY`.
    pub fn insert(&mut self, id: u32) {
        self.0[(id / 64) as usize] |= 1 << (id % 64);
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        id < Self::CAPACITY && self.0[(id / 64) as usize] & (1 << (id % 64)) != 0
    }

    /// The number of ids in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..Self::CAPACITY).filter(|&id| self.contains(id))
    }

    /// Add every id of `other`; returns how many were new.
    pub fn union_with(&mut self, other: &FeatureSet) -> usize {
        let mut new = 0;
        for (w, o) in self.0.iter_mut().zip(other.0) {
            new += (o & !*w).count_ones() as usize;
            *w |= o;
        }
        new
    }
}

impl FromIterator<u32> for FeatureSet {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> FeatureSet {
        let mut set = FeatureSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// `floor(log2(x)) + 1` for x > 0, else 0 — a stable small bucket index.
fn log2_bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Feature block 0..24: verdict × reason.
fn verdict_feature(decision: AdmissionDecision) -> u32 {
    match decision {
        AdmissionDecision::Admitted => 7,
        AdmissionDecision::Deferred(r) => 8 + reason_index(r),
        AdmissionDecision::Rejected(r) => 16 + reason_index(r),
    }
}

/// Feature block 32..96: the density band `floor(log_c v)` an admitted
/// job occupies, clamped to ±31.
fn band_feature(v: f64, c: f64) -> u32 {
    let band = (v.ln() / c.ln()).floor().clamp(-31.0, 32.0) as i32;
    32 + (band + 31) as u32
}

/// Feature block 96..112: expiry-batch size buckets.
fn expiry_batch_feature(run: u64) -> u32 {
    96 + log2_bucket(run).min(15)
}

/// Feature block 112..152: window-width buckets.
fn window_feature(ticks: u64) -> u32 {
    112 + log2_bucket(ticks).min(39)
}

/// Feature block 152..160: event kinds colliding on one tick.
fn collision_feature(mask: u8) -> u32 {
    152 + mask as u32
}

/// Feature block 160..200: end-time buckets.
fn end_feature(at: u64) -> u32 {
    160 + log2_bucket(at).min(39)
}

/// Feature block 200..232: alive-set size buckets.
fn alive_feature(jobs: usize) -> u32 {
    200 + log2_bucket(jobs as u64).min(31)
}

fn reason_index(r: AdmissionReason) -> u32 {
    match r {
        AdmissionReason::BandCapacity => 0,
        AdmissionReason::NotDeltaGood => 1,
        AdmissionReason::Infeasible => 2,
        AdmissionReason::DemandBound => 3,
        AdmissionReason::SpanInfeasible => 4,
        AdmissionReason::DeadlinePassed => 5,
        AdmissionReason::Unconditional => 6,
    }
}

const ARRIVED: u8 = 1;
const EXPIRED: u8 = 2;
const COMPLETED: u8 = 4;

/// Observer that folds one run's event stream into a feature-id set.
#[derive(Debug)]
pub struct CoverageObserver {
    /// Band base `c` (densities are bucketed by `floor(log_c v)`).
    c: f64,
    /// Density per job id, recorded at arrival.
    density: Vec<f64>,
    features: FeatureSet,
    // Per-tick collision mask state.
    cur_t: u64,
    cur_mask: u8,
    // Run-length state for expiry batches.
    expiry_t: u64,
    expiry_run: u64,
}

impl CoverageObserver {
    /// A fresh observer bucketing densities by powers of `c`.
    pub fn new(c: f64) -> CoverageObserver {
        CoverageObserver {
            c,
            density: Vec::new(),
            features: FeatureSet::new(),
            cur_t: u64::MAX,
            cur_mask: 0,
            expiry_t: u64::MAX,
            expiry_run: 0,
        }
    }

    /// The feature ids this run produced. Call after the run (flushing of
    /// per-tick state happens in [`SimObserver::on_end`]).
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// Consume the observer, returning its feature set.
    pub fn into_features(self) -> FeatureSet {
        self.features
    }

    fn flush_tick(&mut self) {
        if self.cur_mask.count_ones() >= 2 {
            self.features.insert(collision_feature(self.cur_mask));
        }
        self.cur_mask = 0;
    }

    fn flush_expiry_run(&mut self) {
        if self.expiry_run > 0 {
            self.features.insert(expiry_batch_feature(self.expiry_run));
            self.expiry_run = 0;
        }
    }

    fn note(&mut self, t: Time, bit: u8) {
        if t.ticks() != self.cur_t {
            self.flush_tick();
            self.cur_t = t.ticks();
        }
        self.cur_mask |= bit;
    }
}

impl SimObserver for CoverageObserver {
    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        let idx = info.id.index();
        if self.density.len() <= idx {
            self.density.resize(idx + 1, 0.0);
        }
        self.density[idx] = info.profit.max_profit() as f64 / info.work.units().max(1) as f64;
        self.note(now, ARRIVED);
    }

    fn on_admission(&mut self, _now: Time, event: AdmissionEvent) {
        self.features.insert(verdict_feature(event.decision));
        if matches!(event.decision, AdmissionDecision::Admitted) {
            let v = self
                .density
                .get(event.job.index())
                .copied()
                .unwrap_or(1.0)
                .max(f64::MIN_POSITIVE);
            self.features.insert(band_feature(v, self.c));
        }
    }

    fn on_window(
        &mut self,
        _at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        _alloc: &[(JobId, u32)],
        _progress: &[(JobId, u64)],
    ) {
        self.features.insert(window_feature(ticks));
        self.features.insert(alive_feature(jobs.len()));
        self.flush_expiry_run();
    }

    fn on_node_complete(&mut self, _at: Time, _job: JobId, _node: NodeId) {}

    fn on_job_complete(&mut self, at: Time, _job: JobId, _profit: u64) {
        self.note(at, COMPLETED);
        self.flush_expiry_run();
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        let _ = job;
        self.note(at, EXPIRED);
        if at.ticks() == self.expiry_t {
            self.expiry_run += 1;
        } else {
            self.flush_expiry_run();
            self.expiry_t = at.ticks();
            self.expiry_run = 1;
        }
    }

    fn on_end(&mut self, at: Time) {
        self.flush_tick();
        self.flush_expiry_run();
        self.features.insert(end_feature(at.ticks()));
    }

    fn on_start(&mut self, _m: u32, _speed: Speed, _horizon: Time) {}
}

/// The accumulated corpus-wide feature set.
#[derive(Debug, Default)]
pub struct CoverageMap {
    seen: FeatureSet,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Merge one run's features; returns how many were new.
    pub fn merge(&mut self, features: &FeatureSet) -> usize {
        self.seen.union_with(features)
    }

    /// Total distinct features observed so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_engine::{simulate_observed, SimConfig};
    use dagsched_sched::SchedulerS;
    use dagsched_workload::WorkloadGen;

    #[test]
    fn expiry_batches_and_collisions_bucket() {
        let mut cov = CoverageObserver::new(2.0);
        cov.on_job_expired(Time(5), JobId(0));
        cov.on_job_expired(Time(5), JobId(1));
        cov.on_job_expired(Time(5), JobId(2));
        cov.on_job_complete(Time(5), JobId(3), 1);
        cov.on_end(Time(6));
        // Batch of 3 -> bucket 2; expiry+completion collided at t=5.
        assert!(cov.features().contains(96 + 2));
        assert!(cov.features().contains(152 + (EXPIRED | COMPLETED) as u32));
    }

    #[test]
    fn a_real_run_produces_stable_features() {
        let inst = WorkloadGen::standard(3, 12, 5).generate().unwrap();
        let run = || {
            let mut cov = CoverageObserver::new(1.5);
            let mut s = SchedulerS::with_epsilon(3, 1.0);
            simulate_observed(&inst, &mut s, &SimConfig::default(), &mut cov).unwrap();
            cov.into_features()
        };
        let f = run();
        assert!(!f.is_empty());
        assert_eq!(f, run(), "features are deterministic");
        // At least one admission verdict and one window width fired.
        assert!(f.iter().any(|id| id < 24));
        assert!(f.iter().any(|id| (112..152).contains(&id)));
    }

    #[test]
    fn coverage_map_counts_new_features_only() {
        let mut map = CoverageMap::new();
        let a: FeatureSet = [1, 2, 3].into_iter().collect();
        let b: FeatureSet = [3, 4, 255].into_iter().collect();
        assert_eq!(map.merge(&a), 3);
        assert_eq!(map.merge(&b), 2);
        assert_eq!(map.merge(&b), 0);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn feature_set_iterates_in_order() {
        let set: FeatureSet = [200, 0, 63, 64, 255, 63].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 200, 255]);
        assert_eq!(set.len(), 5);
        assert!(!set.contains(1) && !set.contains(FeatureSet::CAPACITY));
        assert!(FeatureSet::new().is_empty());
    }

    /// Every block's largest id, at its extreme input, is below the
    /// bitset's capacity; the largest of all is the alive-set block's 231.
    #[test]
    fn highest_feature_id_fits_the_bitset() {
        let reasons = [
            AdmissionReason::BandCapacity,
            AdmissionReason::NotDeltaGood,
            AdmissionReason::Infeasible,
            AdmissionReason::DemandBound,
            AdmissionReason::SpanInfeasible,
            AdmissionReason::DeadlinePassed,
            AdmissionReason::Unconditional,
        ];
        let verdicts = reasons.iter().flat_map(|&r| {
            [
                AdmissionDecision::Deferred(r),
                AdmissionDecision::Rejected(r),
            ]
        });
        let mut ids: Vec<u32> = verdicts
            .chain([AdmissionDecision::Admitted])
            .map(verdict_feature)
            .collect();
        for c in [1.0 + 1e-9, 1.5, 1e9] {
            for v in [f64::MIN_POSITIVE, 1.0, f64::MAX] {
                ids.push(band_feature(v, c));
            }
        }
        ids.extend([
            expiry_batch_feature(u64::MAX),
            window_feature(u64::MAX),
            collision_feature(ARRIVED | EXPIRED | COMPLETED),
            end_feature(u64::MAX),
            alive_feature(usize::MAX),
        ]);
        assert_eq!(ids.iter().max(), Some(&231));
        assert!(ids.iter().all(|&id| id < FeatureSet::CAPACITY));
    }

    /// One judged run per seed-corpus entry yields exactly the features the
    /// `BTreeSet<u32>` observer this bitset replaced produced (recorded on
    /// that code, one line per entry; entry 4 runs the S-profit subject,
    /// and was re-recorded when S-profit's allotments, slot counts and
    /// tail-step cap became exact; entry 3, the band burst of chains at
    /// `D = (1+2δ)·L`, when such chains became δ-good on one processor).
    #[test]
    fn seed_corpus_features_are_pinned() {
        use crate::oracle::{run_exec_with, OracleSet, Subject};
        let pinned: [&[u32]; 6] = [
            &[7, 8, 10, 62, 63, 97, 113, 114, 116, 155, 164, 201, 202],
            &[
                7, 8, 10, 21, 62, 63, 97, 113, 155, 158, 164, 200, 201, 202, 203,
            ],
            &[10, 97, 113, 165, 200, 201, 202],
            &[7, 8, 63, 99, 113, 114, 164, 200, 203],
            &[97, 113, 114, 115, 117, 166, 201, 202],
            &[7, 8, 63, 97, 113, 114, 115, 169, 201, 202],
        ];
        let corpus = crate::corpus::seed_corpus();
        assert_eq!(corpus.len(), pinned.len());
        for (i, (fi, want)) in corpus.iter().zip(pinned).enumerate() {
            let subject = if fi.sprofit_subject {
                Subject::scheduler_s_profit()
            } else {
                Subject::scheduler_s()
            };
            let inst = fi.to_instance().expect("seed corpus is valid");
            let out = run_exec_with(
                &inst,
                &subject,
                &OracleSet::default(),
                0,
                None,
                &fi.base_config(),
            );
            assert!(out.failure.is_none(), "entry {i}: {:?}", out.failure);
            assert_eq!(out.features.iter().collect::<Vec<_>>(), want, "entry {i}");
        }
    }
}
