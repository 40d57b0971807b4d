//! Lemma 1 and the allocation discipline as continuously-checked invariants.

use crate::model::Models;
use crate::violation::{Recorder, Violation};
use dagsched_core::{cmp_products, AlgoParams, Dyadic, JobId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};

/// Checks scheduler S's allocation discipline on every window:
///
/// * Σ alloc ≤ m (independently of the engine's own validation);
/// * every allocation goes to a *started* job, and grants it **exactly** its
///   allotment `n_i` (the paper's S always hands a scheduled job its full
///   allotment — surplus processors idle);
/// * Lemma 1 at admission: `n_i ≤ b²m + 1` (the `+1` is the integrality
///   slack of rounding the fractional allotment up).
///
/// The work-conserving variant S-wc deliberately backfills idle processors
/// beyond allotments and onto waiting jobs; for it, enable
/// [`allow_backfill`](AllotmentChecker::allow_backfill), which keeps the
/// Σ ≤ m and Lemma 1 checks but drops the exact-allotment discipline.
#[derive(Debug)]
pub struct AllotmentChecker {
    backfill: bool,
    pub(crate) models: Models,
    started: Vec<JobId>,
    rec: Recorder,
}

impl AllotmentChecker {
    /// Create the checker; `params` must match the scheduler's.
    pub fn new(params: AlgoParams) -> AllotmentChecker {
        AllotmentChecker {
            backfill: false,
            models: Models::new(params),
            started: Vec::new(),
            rec: Recorder::new("allotment"),
        }
    }

    /// Mirror the scheduler's speed hint.
    pub fn with_speed_hint(mut self, s: f64) -> AllotmentChecker {
        self.models.set_speed_hint(s);
        self
    }

    /// Relax the exact-allotment discipline for work-conserving backfill.
    pub fn allow_backfill(mut self) -> AllotmentChecker {
        self.backfill = true;
        self
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> AllotmentChecker {
        self.rec.lenient();
        self
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.rec.violations()
    }
}

impl SimObserver for AllotmentChecker {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        self.models.m = m;
    }

    fn on_job_arrival(&mut self, _now: Time, info: &JobInfo) {
        self.models.insert(info.id, self.models.derive(info));
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        if event.decision != AdmissionDecision::Admitted {
            return;
        }
        if !self.started.contains(&event.job) {
            self.started.push(event.job);
        }
        // Lemma 1 (with integrality slack): an admitted job's allotment is
        // at most b²m + 1.
        if let Some(jm) = self.models.get(event.job) {
            // n ≤ ⌊b²m⌋ + 1 ⇔ (n − 1)·(1+ε) ≤ (1+2δ)·m, as b² = (1+2δ)/(1+ε).
            let params = &self.models.params;
            let (g, e) = (
                Dyadic::new(params.good_factor()),
                Dyadic::new(1.0 + params.epsilon()),
            );
            let (n, m) = (jm.allot as u128, self.models.m as u128);
            if cmp_products(n - 1, e.mant(), e.exp(), m, g.mant(), g.exp()).is_gt() {
                self.rec.flag(
                    now,
                    Some(event.job),
                    format!(
                        "Lemma 1 violated: allotment {n} > b²m+1 = {:.3}",
                        params.b().powi(2) * m as f64 + 1.0
                    ),
                );
            }
        }
    }

    fn on_window(
        &mut self,
        at: Time,
        _ticks: u64,
        _jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        _progress: &[(JobId, u64)],
    ) {
        let total: u64 = alloc.iter().map(|&(_, k)| k as u64).sum();
        if total > self.models.m as u64 {
            self.rec.flag(
                at,
                None,
                format!(
                    "{total} processors allocated on an m = {} machine",
                    self.models.m
                ),
            );
        }
        if self.backfill {
            return;
        }
        for &(id, k) in alloc {
            if !self.started.contains(&id) {
                self.rec.flag(
                    at,
                    Some(id),
                    format!("{k} processors for an un-started job"),
                );
                continue;
            }
            if let Some(jm) = self.models.get(id) {
                if k != jm.allot {
                    self.rec.flag(
                        at,
                        Some(id),
                        format!("holds {k} processors but allotment is {}", jm.allot),
                    );
                }
            }
        }
    }

    fn on_job_complete(&mut self, _at: Time, job: JobId, _profit: u64) {
        self.started.retain(|&j| j != job);
        self.models.remove(job);
    }

    fn on_job_expired(&mut self, _at: Time, job: JobId) {
        self.started.retain(|&j| j != job);
        self.models.remove(job);
    }
}
