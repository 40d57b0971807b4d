//! Exact work accounting per window, for every scheduler.
//!
//! Unlike the S-specific checkers, these invariants are universal engine
//! guarantees: no job ever advances faster than its allocation allows, no
//! job processes more than its total work, a completed job has consumed
//! *exactly* its work, and an expired job strictly less.

use crate::violation::{Recorder, Violation};
use dagsched_core::{JobId, MachineGroups, Speed, Time};
use dagsched_engine::{JobInfo, SimObserver};

/// Per-window work-conservation oracle (scaled-unit exact, no floats).
#[derive(Debug)]
pub struct WorkConservationChecker {
    /// Scaled units one processor completes per tick (`speed.num`).
    units: u64,
    /// Work scale (`speed.den`): a job's scaled total is `W · scale`.
    scale: u64,
    /// `(total, done)` scaled units per job, indexed by [`JobId::index`];
    /// a job that never arrived, or has completed or expired, reads `(0, 0)`.
    work: Vec<(u64, u64)>,
    rec: Recorder,
}

impl Default for WorkConservationChecker {
    fn default() -> WorkConservationChecker {
        WorkConservationChecker::new()
    }
}

impl WorkConservationChecker {
    /// Create the checker (no parameters: the speed comes from `on_start`).
    pub fn new() -> WorkConservationChecker {
        WorkConservationChecker {
            units: 0,
            scale: 0,
            work: Vec::new(),
            rec: Recorder::new("work-conservation"),
        }
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> WorkConservationChecker {
        self.rec.lenient();
        self
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.rec.violations()
    }

    fn slot(&mut self, id: JobId) -> &mut (u64, u64) {
        let i = id.index();
        if self.work.len() <= i {
            self.work.resize(i + 1, (0, 0));
        }
        &mut self.work[i]
    }

    /// Reset `id`'s accounting, returning its `(total, done)`.
    fn take(&mut self, id: JobId) -> (u64, u64) {
        self.work.get_mut(id.index()).map_or((0, 0), std::mem::take)
    }
}

impl SimObserver for WorkConservationChecker {
    fn on_start(&mut self, _m: u32, speed: Speed, _horizon: Time) {
        self.units = speed.units_per_tick();
        self.scale = speed.work_scale();
    }

    fn on_platform(&mut self, groups: &MachineGroups) {
        // Related-machines run: all work is scaled by the group lcm (not the
        // reporting speed's own denominator), and the tightest universal
        // per-processor bound is the fastest group's units.
        self.scale = groups.work_scale();
        self.units = groups.units_per_group().iter().copied().max().unwrap_or(0);
    }

    fn on_job_arrival(&mut self, _now: Time, info: &JobInfo) {
        let total = info.work.units() * self.scale;
        *self.slot(info.id) = (total, 0);
    }

    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        _jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        for (i, &(id, delta)) in progress.iter().enumerate() {
            // The window's capacity for this job: its processors × ticks ×
            // per-tick units (saturated: a capacity past `u64::MAX` bounds
            // no `u64` delta). `progress` is aligned with `alloc` by contract.
            let k = alloc.get(i).map_or(0, |&(aid, k)| {
                debug_assert_eq!(aid, id, "progress misaligned with alloc");
                k as u64
            });
            let cap = k.saturating_mul(ticks).saturating_mul(self.units);
            if delta > cap {
                self.rec.flag(
                    at,
                    Some(id),
                    format!(
                        "{delta} scaled units in a window with capacity \
                         {k} procs × {ticks} ticks × {} units = {cap}",
                        self.units
                    ),
                );
            }
            let (total, done) = self.slot(id);
            *done += delta;
            let (total, d) = (*total, *done);
            if d > total {
                self.rec.flag(
                    at,
                    Some(id),
                    format!("processed {d} scaled units but total work is {total}"),
                );
            }
        }
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, _profit: u64) {
        let (total, done) = self.take(job);
        if done != total {
            self.rec.flag(
                at,
                Some(job),
                format!("completed with {done} of {total} scaled units processed"),
            );
        }
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        let (total, done) = self.take(job);
        if done >= total && total > 0 {
            self.rec.flag(
                at,
                Some(job),
                format!("expired after processing {done} of {total} scaled units"),
            );
        }
    }
}
