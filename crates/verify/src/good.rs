//! δ-goodness and δ-freshness of every admission, checked at the decision.

use crate::model::Models;
use crate::violation::{Recorder, Violation};
use dagsched_core::{AlgoParams, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, AdmissionReason, JobInfo, SimObserver};

/// Checks that every job the scheduler starts deserved it:
///
/// * admitted **at arrival**: the job must be δ-good — feasible allotment
///   and `D ≥ (1+2δ)·x` (Lemma 2's precondition);
/// * admitted **later** (from the waiting queue `P`): the job must still be
///   δ-fresh — `d − t ≥ (1+δ)·x` at the admission time `t` (the paper's
///   freshness test, which Lemma 6's completion argument relies on);
/// * a [`Deferred`](AdmissionDecision::Deferred) verdict whose stated reason
///   contradicts the recomputed model (e.g. "not δ-good" for a job that is)
///   is also flagged — the reasons are part of the observable contract.
#[derive(Debug)]
pub struct DeltaGoodChecker {
    pub(crate) models: Models,
    rec: Recorder,
}

impl DeltaGoodChecker {
    /// Create the checker; `params` must match the scheduler's.
    pub fn new(params: AlgoParams) -> DeltaGoodChecker {
        DeltaGoodChecker {
            models: Models::new(params),
            rec: Recorder::new("delta-good"),
        }
    }

    /// Mirror the scheduler's speed hint.
    pub fn with_speed_hint(mut self, s: f64) -> DeltaGoodChecker {
        self.models.set_speed_hint(s);
        self
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> DeltaGoodChecker {
        self.rec.lenient();
        self
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.rec.violations()
    }
}

impl SimObserver for DeltaGoodChecker {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        self.models.m = m;
    }

    fn on_job_arrival(&mut self, _now: Time, info: &JobInfo) {
        self.models.insert(info.id, self.models.derive(info));
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        let Some(jm) = self.models.get(event.job) else {
            self.rec
                .flag(now, Some(event.job), "decision for an unknown job".into());
            return;
        };
        match event.decision {
            AdmissionDecision::Admitted => {
                if !jm.admissible {
                    self.rec.flag(
                        now,
                        Some(event.job),
                        "started an infeasible job (no allotment ≤ m meets the deadline)".into(),
                    );
                } else if now == jm.arrival {
                    if !jm.delta_good {
                        self.rec.flag(
                            now,
                            Some(event.job),
                            format!(
                                "started at arrival but not δ-good: D = {} < (1+2δ)x = {:.4}",
                                jm.rel_deadline,
                                self.models.params.good_factor() * jm.x()
                            ),
                        );
                    }
                } else {
                    // Late admission must be δ-fresh at the decision time:
                    // `d − t ≥ (1+δ)x`. A mutant may admit past the
                    // deadline, where the slack is negative.
                    let fresh = self.models.params.fresh_factor();
                    let stale =
                        now > jm.abs_deadline || !jm.covers(jm.abs_deadline.since(now), fresh);
                    if stale {
                        let slack = jm.abs_deadline.as_f64() - now.as_f64();
                        self.rec.flag(
                            now,
                            Some(event.job),
                            format!(
                                "started stale: slack {slack} < (1+δ)x = {:.4}",
                                fresh * jm.x()
                            ),
                        );
                    }
                }
            }
            AdmissionDecision::Deferred(AdmissionReason::Infeasible) if jm.admissible => {
                self.rec.flag(
                    now,
                    Some(event.job),
                    "deferred as infeasible, but an allotment ≤ m works".into(),
                );
            }
            AdmissionDecision::Deferred(AdmissionReason::NotDeltaGood) if jm.delta_good => {
                self.rec.flag(
                    now,
                    Some(event.job),
                    "deferred as not δ-good, but the recomputed model is δ-good".into(),
                );
            }
            _ => {}
        }
    }
}
