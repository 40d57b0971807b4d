//! Observation 3 as a continuously-checked invariant.

use crate::model::Models;
use crate::violation::{Recorder, Violation};
use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};

/// Is any density band over capacity? Pure population check shared with the
/// `DensityBands` agreement tests: for every anchor `(v_j, ·)` in `members`,
/// the total allotment of members with density in `[v_j, c·v_j)` must stay
/// within `capacity`. Returns the first violating `(anchor_density, load)`.
pub fn band_overload(members: &[(f64, u32)], c: f64, capacity: f64) -> Option<(f64, u64)> {
    for &(anchor, _) in members {
        let hi = c * anchor;
        let load: u64 = members
            .iter()
            .filter(|(d, _)| *d >= anchor && *d < hi)
            .map(|(_, a)| *a as u64)
            .sum();
        if load as f64 > capacity {
            return Some((anchor, load));
        }
    }
    None
}

/// Re-derives Observation 3 — `N(Q, v_j, c·v_j) ≤ b·m` for every started
/// job `j` — from the live event stream, on every admission / completion /
/// expiry, entirely independent of `DensityBands`' own bookkeeping.
///
/// The checker tracks its own started set `Q` (jobs with an
/// [`Admitted`](AdmissionDecision::Admitted) decision that have not
/// completed or expired) and recomputes each job's density and allotment
/// from the paper's formulas ([`job_model`](crate::job_model)). Attach it
/// only to schedulers that promise Observation 3 — S and S-wc; the
/// no-admission ablation violates it by design (which the mutant tests use
/// as a fixture).
#[derive(Debug)]
pub struct BandCapacityChecker {
    pub(crate) models: Models,
    started: Vec<JobId>,
    /// `(density, allotment)` of every started job, rebuilt per check.
    members: Vec<(f64, u32)>,
    rec: Recorder,
}

impl BandCapacityChecker {
    /// Create the checker; `params` must match the scheduler's.
    pub fn new(params: AlgoParams) -> BandCapacityChecker {
        BandCapacityChecker {
            models: Models::new(params),
            started: Vec::new(),
            members: Vec::new(),
            rec: Recorder::new("band-capacity"),
        }
    }

    /// Mirror the scheduler's speed hint (see `SchedulerS::with_speed_hint`).
    pub fn with_speed_hint(mut self, s: f64) -> BandCapacityChecker {
        self.models.set_speed_hint(s);
        self
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> BandCapacityChecker {
        self.rec.lenient();
        self
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.rec.violations()
    }

    /// Current started-set size (test hook).
    pub fn q_len(&self) -> usize {
        self.started.len()
    }

    fn verify(&mut self, at: Time) {
        self.members.clear();
        self.members.extend(
            self.started
                .iter()
                .filter_map(|&id| self.models.get(id).map(|jm| (jm.density, jm.allot))),
        );
        let c = self.models.params.c();
        let capacity = self.models.params.b() * self.models.m as f64;
        if let Some((anchor, load)) = band_overload(&self.members, c, capacity) {
            self.rec.flag(
                at,
                None,
                format!(
                    "Observation 3 violated: band [{anchor:.6}, {:.6}) holds \
                     {load} processors > capacity {capacity:.4}",
                    c * anchor
                ),
            );
        }
    }
}

impl SimObserver for BandCapacityChecker {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        self.models.m = m;
    }

    fn on_job_arrival(&mut self, _now: Time, info: &JobInfo) {
        self.models.insert(info.id, self.models.derive(info));
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        if event.decision == AdmissionDecision::Admitted {
            if self.started.contains(&event.job) {
                self.rec.flag(now, Some(event.job), "admitted twice".into());
            } else {
                self.started.push(event.job);
            }
            self.verify(now);
        }
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, _profit: u64) {
        self.started.retain(|&j| j != job);
        self.models.remove(job);
        self.verify(at);
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        self.started.retain(|&j| j != job);
        self.models.remove(job);
        self.verify(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_detects_anchor_band_excess() {
        // c = 2, capacity = 6: three allot-3 members at the same density
        // load the anchor band with 9.
        let members = [(1.0, 3u32), (1.0, 3), (1.0, 3)];
        let (anchor, load) = band_overload(&members, 2.0, 6.0).unwrap();
        assert_eq!(anchor, 1.0);
        assert_eq!(load, 9);
    }

    #[test]
    fn overload_respects_half_open_upper_bound() {
        // Member exactly at c·v is outside the anchor's band.
        let members = [(1.0, 4u32), (2.0, 4)];
        assert!(band_overload(&members, 2.0, 5.0).is_none());
        // Just inside the band it counts.
        let members = [(1.0, 4u32), (1.999, 4)];
        assert!(band_overload(&members, 2.0, 5.0).is_some());
    }

    #[test]
    fn empty_population_never_overloads() {
        assert!(band_overload(&[], 2.0, 1.0).is_none());
    }
}
