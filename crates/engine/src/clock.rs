//! The clock layer: simulated-time bookkeeping shared by both execution
//! paths.
//!
//! A [`Clock`] owns the three time-like quantities of a run — the current
//! tick, the hard horizon (the one the driver's windows read), and the two
//! effort counters (`ticks_simulated` counts covered simulated time,
//! `steps_executed` counts engine scheduling rounds) — and the two ways
//! they may legally advance:
//!
//! * `skip_idle_to` jumps over a gap in which nothing
//!   is alive and nothing arrives (no ticks are charged: the naive reference
//!   path never iterated those ticks either);
//! * `advance_window` closes one engine step of `s` ticks (`s` ticks, 1
//!   step): one reference tick on the naive path; on the fast-forward path
//!   a quiet or idle window, or a quiet window and its completion tick.
//!
//! Keeping the counters behind these two operations is what makes
//! `ticks_simulated` byte-identical between the naive and fast-forward paths:
//! there is no other way to move time.

use dagsched_core::Time;
use dagsched_workload::Instance;

/// Simulated-time state of one run. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Clock {
    now: Time,
    horizon: Time,
    ticks_simulated: u64,
    steps_executed: u64,
}

impl Clock {
    /// A clock starting at `start` with the given hard stop.
    pub(crate) fn new(start: Time, horizon: Time) -> Clock {
        Clock {
            now: start,
            horizon,
            ticks_simulated: 0,
            steps_executed: 0,
        }
    }

    /// The current tick.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The hard stop.
    #[inline]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Simulated ticks covered so far (idle gaps skipped, bulk windows
    /// counted at full width).
    #[inline]
    pub fn ticks_simulated(&self) -> u64 {
        self.ticks_simulated
    }

    /// Engine scheduling rounds executed so far.
    #[inline]
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Whether the run may still advance.
    #[inline]
    pub(crate) fn before_horizon(&self) -> bool {
        self.now < self.horizon
    }

    /// Jump over an idle gap (nothing alive, next arrival at `t`). Charges
    /// no ticks — the reference path never iterates idle gaps either. The
    /// driver reads the target from the lifecycle's arrival cursor on both
    /// paths. Every job that arrived before the gap is terminal, so the
    /// jump passes no pending expiry: the lifecycle's expiry cursor relies
    /// on it.
    #[inline]
    pub(crate) fn skip_idle_to(&mut self, t: Time) {
        self.now = t;
    }

    /// Close one engine step of `s` ticks.
    #[inline]
    pub(crate) fn advance_window(&mut self, s: u64) {
        self.now = self.now.after(s);
        self.ticks_simulated += s;
        self.steps_executed += 1;
    }
}

/// A horizon every work-conserving schedule fits in: after the last useful
/// moment of any job, one processor could still drain all remaining work.
/// O(1): both terms are cached on the instance.
pub fn auto_horizon(inst: &Instance) -> Time {
    inst.horizon()
        .saturating_add(inst.total_work().as_ticks())
        .saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_the_two_advance_operations() {
        let mut c = Clock::new(Time(5), Time(100));
        assert_eq!(c.now(), Time(5));
        assert!(c.before_horizon());
        c.skip_idle_to(Time(20));
        assert_eq!(c.now(), Time(20));
        assert_eq!(c.ticks_simulated(), 0, "idle skips charge nothing");
        c.advance_window(1);
        assert_eq!((c.ticks_simulated(), c.steps_executed()), (1, 1));
        c.advance_window(10);
        assert_eq!((c.ticks_simulated(), c.steps_executed()), (11, 2));
        assert_eq!(c.now(), Time(31));
    }

    #[test]
    fn horizon_capping() {
        let mut c = Clock::new(Time(0), Time(10));
        c.skip_idle_to(Time(7));
        c.advance_window(2);
        assert!(c.before_horizon());
        c.advance_window(1);
        assert!(!c.before_horizon());
    }
}
