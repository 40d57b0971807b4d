//! Observation 3 as a continuously-checked invariant.

use crate::model::Models;
use crate::violation::{Recorder, Violation};
use dagsched_core::{AlgoParams, Density, Dyadic, JobId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};

/// Is any density band over capacity? Pure population check shared with the
/// `DensityBands` agreement tests: for every anchor `(v_j, ·)` in `members`,
/// the total allotment of members with density in `[v_j, c·v_j)` must stay
/// within `capacity`. Returns the first violating `(anchor_density, load)`.
pub fn band_overload(
    members: &[(Density, u32)],
    c: Dyadic,
    capacity: u64,
) -> Option<(Density, u64)> {
    for &(anchor, _) in members {
        let top = anchor.band_top(c);
        let load: u64 = members
            .iter()
            .filter(|&&(d, _)| d >= anchor && top.covers(d))
            .map(|(_, a)| *a as u64)
            .sum();
        if load > capacity {
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
    members: Vec<(Density, u32)>,
    /// The capacity `⌊b·m⌋`, set at the run's start.
    capacity: u64,
    rec: Recorder,
}

impl BandCapacityChecker {
    /// Create the checker; `params` must match the scheduler's.
    pub fn new(params: AlgoParams) -> BandCapacityChecker {
        BandCapacityChecker {
            models: Models::new(params),
            started: Vec::new(),
            members: Vec::new(),
            capacity: 0,
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
        let (c, capacity) = (self.models.params.c(), self.capacity);
        if let Some((anchor, load)) = band_overload(&self.members, Dyadic::new(c), capacity) {
            self.rec.flag(
                at,
                None,
                format!(
                    "Observation 3 violated: band [{anchor:?}, {c}·{anchor:?}) holds \
                     {load} processors > capacity ⌊b·m⌋ = {capacity}"
                ),
            );
        }
    }
}

impl SimObserver for BandCapacityChecker {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        self.models.m = m;
        self.capacity = self.models.params.band_capacity(m);
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

    fn two() -> Dyadic {
        Dyadic::new(2.0)
    }

    #[test]
    fn overload_detects_anchor_band_excess() {
        let one = Density::new(1, 1);
        let members = [(one, 3u32), (one, 3), (Density::new(2, 2), 3)];
        let (anchor, load) = band_overload(&members, two(), 6).unwrap();
        assert_eq!(anchor, one);
        assert_eq!(load, 9);
    }

    #[test]
    fn overload_respects_half_open_upper_bound() {
        let members = [(Density::new(1, 1), 4u32), (Density::new(2, 1), 4)];
        assert!(band_overload(&members, two(), 5).is_none());
        let members = [(Density::new(1, 1), 4u32), (Density::new(1999, 1000), 4)];
        assert!(band_overload(&members, two(), 5).is_some());
    }

    #[test]
    fn empty_population_never_overloads() {
        assert!(band_overload(&[], two(), 1).is_none());
    }
}
