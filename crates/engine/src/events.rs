//! The discrete-event kernel: next-event selection for the fast-forward
//! engine.
//!
//! The fast-forward path asks one question every step: *how far can the
//! clock jump before anything observable happens?* Two kinds of boundary
//! bound the jump. The first is the nearest completion of a node claimed
//! this step. The driver's claim pass visits every claimed node anyway, so
//! it folds the smallest remaining work over them as it goes; no claimed
//! node finishes within `min_q - 1` ticks. The second kind is every
//! boundary the claim pass does not see. Rescanning the alive set for
//! them every step costs O(alive) even when nothing changed since the last
//! step. An [`EventKernel`] answers the same question in amortized O(1):
//! the window is then `min(min_q - 1, window(t))`.
//!
//! The kernel belongs to the production path only. The naive reference
//! path (`SimConfig::fast_forward` off) steps one tick at a time, skips
//! idle gaps from the arrival list and finds expiries with the O(alive)
//! [`Lifecycle::expire_hopeless`](crate::lifecycle::Lifecycle) scan, so the
//! naive-vs-fast differential checks the kernel against an independent
//! answer.
//!
//! # Source taxonomy
//!
//! | source                           | held in                         | armed           | passed                                  |
//! |----------------------------------|---------------------------------|-----------------|-----------------------------------------|
//! | arrival cursor (one global)      | a field                         | at construction | overwritten after each admission batch  |
//! | horizon (one global)             | a field                         | at construction | never                                   |
//! | expiry boundary (zero-tail job)  | the instance's `expiry_order()` | by the instance | once: due, or skipped as terminal       |
//!
//! A zero-tail job's expiry boundary `last_useful_abs()` is fixed by the
//! instance and never moves, so
//! [`Instance::expiry_order`](dagsched_workload::Instance::expiry_order)
//! sorts every boundary once, as `(time, job)`, and the kernel walks that
//! slice with one cursor. Nothing is pushed, popped or re-keyed, and each
//! key is passed exactly once over a run.
//!
//! # Validity
//!
//! A key is *valid* iff its job's outcome is still unfinished; only the
//! lifecycle's terminal transitions write outcomes, so a key turns invalid
//! once and for good. Both queries take the key slice and a validity test
//! (`Lifecycle::is_terminal`): `window` moves the cursor past invalid keys
//! and stops at the first valid one; `pop_due_expiries` moves it past every
//! key at or below `t` and emits the valid ones.
//!
//! A job that has not arrived yet is unfinished, so its key is valid and
//! may bound a window. That is harmless: its key time is `arrival + last
//! useful ≥ arrival`, and arrivals are sorted, so the key is at or after
//! the armed arrival cursor, which already bounds the window.
//!
//! # Tie-break contract
//!
//! Keys order by `(time, job)`. No window crosses a valid key, and an idle
//! skip happens only when every arrived job is terminal, so every valid key
//! the cursor reaches in `pop_due_expiries` has `time == t`: due expiries
//! come out in ascending job order (= arrival order: instance ids are
//! assigned in arrival order), which is the order the naive scan expires
//! them in. The expiry hooks, outcomes and pool pushes follow it, so the
//! due sequence is part of what the golden digests in
//! `tests/golden_outputs.rs` pin down.

use dagsched_core::{JobId, Time};

/// What the expiry cursor did over a run, for tests that pin the kernel's
/// work.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CursorCounts {
    /// Keys passed as due expiries.
    pub(crate) due: u64,
    /// Keys passed because their job was already terminal.
    pub(crate) skipped: u64,
}

/// The driver's next-event index and the lifecycle's expiry index. See
/// the [module docs](self).
pub struct EventKernel {
    /// The next not-yet-admitted arrival; `None` = every job has arrived.
    armed_arrival: Option<Time>,
    /// The run's hard stop.
    horizon: Time,
    /// Index of the first expiry key not yet passed.
    next_expiry: usize,
    #[cfg(test)]
    pub(crate) counts: CursorCounts,
}

impl EventKernel {
    /// A kernel for a run that stops at `horizon`. The arrival cursor is
    /// not armed; the driver arms the first arrival iff the kernel is on.
    pub(crate) fn new(horizon: Time) -> EventKernel {
        EventKernel {
            armed_arrival: None,
            horizon,
            next_expiry: 0,
            #[cfg(test)]
            counts: CursorCounts::default(),
        }
    }

    /// The currently-armed arrival time (the driver's idle-skip target).
    #[inline]
    pub(crate) fn armed_arrival(&self) -> Option<Time> {
        self.armed_arrival
    }

    /// (Re-)arm the arrival cursor at `at`.
    #[inline]
    pub(crate) fn arm_arrival(&mut self, at: Time) {
        self.armed_arrival = Some(at);
    }

    /// Disarm the arrival cursor (every job has arrived).
    #[inline]
    pub(crate) fn disarm_arrival(&mut self) {
        self.armed_arrival = None;
    }

    /// Ticks from `t` to the nearest boundary: the earliest valid key of
    /// `keys` (the instance's expiry order), the arrival cursor or the
    /// horizon. Moves the cursor past the keys of terminal jobs.
    pub(crate) fn window(
        &mut self,
        t: Time,
        keys: &[(Time, JobId)],
        is_terminal: impl Fn(JobId) -> bool,
    ) -> u64 {
        let mut next = self.horizon;
        if let Some(at) = self.armed_arrival {
            next = next.min(at);
        }
        while let Some(&(at, job)) = keys.get(self.next_expiry) {
            if !is_terminal(job) {
                debug_assert!(at >= t, "a valid expiry is never in the past");
                next = next.min(at);
                break;
            }
            self.next_expiry += 1;
            #[cfg(test)]
            {
                self.counts.skipped += 1;
            }
        }
        next.since(t)
    }

    /// Move the cursor past every key of `keys` with `time ≤ t`, collecting
    /// the *due* expiries (keys of jobs not yet terminal) into `out` in
    /// ascending job order (= arrival order; see the module docs).
    pub(crate) fn pop_due_expiries(
        &mut self,
        t: Time,
        keys: &[(Time, JobId)],
        is_terminal: impl Fn(JobId) -> bool,
        out: &mut Vec<JobId>,
    ) {
        while let Some(&(at, job)) = keys.get(self.next_expiry) {
            if at > t {
                break;
            }
            self.next_expiry += 1;
            let due = !is_terminal(job);
            if due {
                debug_assert!(at == t, "a valid expiry is never in the past");
                out.push(job);
            }
            #[cfg(test)]
            if due {
                self.counts.due += 1;
            } else {
                self.counts.skipped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(list: &[(u64, u32)]) -> Vec<(Time, JobId)> {
        list.iter().map(|&(t, j)| (Time(t), JobId(j))).collect()
    }

    #[test]
    fn tie_break_orders_time_then_job() {
        // The instance's key order: equal times break by ascending id, so
        // due expiries at one tick come out in arrival order.
        let ks = keys(&[(4, 9), (5, 0), (5, 1)]);
        let mut k = EventKernel::new(Time(100));
        let mut due = Vec::new();
        k.pop_due_expiries(Time(4), &ks, |_| false, &mut due);
        assert_eq!(due, vec![JobId(9)]);
        due.clear();
        k.pop_due_expiries(Time(5), &ks, |_| false, &mut due);
        assert_eq!(due, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn rearming_the_arrival_cursor_invalidates_the_old_entry() {
        let mut k = EventKernel::new(Time(100));
        k.arm_arrival(Time(5));
        k.arm_arrival(Time(9)); // supersedes 5
        assert_eq!(k.window(Time(3), &[], |_| false), 6);
        k.disarm_arrival();
        assert_eq!(
            k.window(Time(3), &[], |_| false),
            97,
            "only the horizon remains"
        );
    }

    #[test]
    fn disarmed_expiry_entries_are_skipped() {
        // A terminal job's key no longer bounds the window, and the cursor
        // passes it for good.
        let ks = keys(&[(7, 0), (12, 1)]);
        let mut terminal = [false; 2];
        let mut k = EventKernel::new(Time(50));
        assert_eq!(k.window(Time(2), &ks, |j| terminal[j.index()]), 5);
        terminal[0] = true;
        assert_eq!(k.window(Time(2), &ks, |j| terminal[j.index()]), 10);
        terminal[1] = true;
        assert_eq!(k.window(Time(2), &ks, |j| terminal[j.index()]), 48);
        assert_eq!(k.counts, CursorCounts { due: 0, skipped: 2 });
    }

    #[test]
    fn pop_due_collects_expiries_sorted_and_disarms_them() {
        // Job 1 completed before its boundary; job 3 is not yet due.
        let ks = keys(&[(5, 0), (5, 1), (5, 2), (30, 3)]);
        let terminal = |j: JobId| j == JobId(1);
        let mut k = EventKernel::new(Time(100));
        let mut due = Vec::new();
        k.pop_due_expiries(Time(5), &ks, terminal, &mut due);
        assert_eq!(
            due,
            vec![JobId(0), JobId(2)],
            "ascending id = arrival order"
        );
        due.clear();
        // Popping again at the same t: the cursor is past them, nothing due.
        k.pop_due_expiries(Time(5), &ks, terminal, &mut due);
        assert!(due.is_empty());
        k.pop_due_expiries(Time(30), &ks, terminal, &mut due);
        assert_eq!(due, vec![JobId(3)]);
        assert_eq!(k.counts, CursorCounts { due: 3, skipped: 1 });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random instances (zero-tail and, for `kind == 0`, tail jobs;
        /// equal expiry times)
        /// run as the driver runs them: admit arrivals, pop due expiries,
        /// mark random alive jobs completed, then jump to a random tick
        /// inside the window. At every query the due set and the window
        /// equal a brute-force mirror of the naive scan over the alive
        /// jobs, and no key is passed twice.
        #[test]
        fn cursor_matches_the_naive_scan_on_random_instances(
            mut specs in proptest::collection::vec((0u64..12, 1u64..10, 0u8..3), 1..24),
            marks in proptest::collection::vec((0u32..24, 0u64..100), 0..40),
            horizon in 1u64..40,
        ) {
            use dagsched_workload::{Instance, JobSpec, StepProfitFn};
            use proptest::prelude::{prop_assert, prop_assert_eq};
            specs.sort_unstable(); // arrivals ascending
            let jobs: Vec<JobSpec> = specs
                .iter()
                .enumerate()
                .map(|(i, &(r, d, kind))| {
                    let profit = if kind == 0 {
                        StepProfitFn::steps(vec![(Time(d), 2)], 1).unwrap()
                    } else {
                        StepProfitFn::deadline(Time(d), 2)
                    };
                    let dag = dagsched_dag::gen::single(1).into_shared();
                    JobSpec::new(JobId(i as u32), Time(r), dag, profit)
                })
                .collect();
            let inst = Instance::new(1, jobs).unwrap();
            let jobs = inst.jobs();
            let n = jobs.len();
            let horizon = Time(horizon);
            let mut k = EventKernel::new(horizon);
            let (mut next_arrival, mut terminal, mut alive) = (0, vec![false; n], vec![false; n]);
            let mut marks = marks.iter();
            let mut due = Vec::new();
            let mut t = jobs[0].arrival;
            while t < horizon {
                while next_arrival < n && jobs[next_arrival].arrival <= t {
                    alive[next_arrival] = true;
                    next_arrival += 1;
                }
                match jobs.get(next_arrival) {
                    Some(j) => k.arm_arrival(j.arrival),
                    None => k.disarm_arrival(),
                }
                due.clear();
                k.pop_due_expiries(t, inst.expiry_order(), |j| terminal[j.index()], &mut due);
                let want: Vec<JobId> = (0..n)
                    .filter(|&i| {
                        alive[i] && jobs[i].profit.tail_value() == 0 && t >= jobs[i].last_useful_abs()
                    })
                    .map(|i| JobId(i as u32))
                    .collect();
                prop_assert_eq!(due.clone(), want, "due set diverges at t={}", t.0);
                for j in &due {
                    alive[j.index()] = false;
                    terminal[j.index()] = true;
                }
                let (job, step) = marks.next().copied().unwrap_or((u32::MAX, 1));
                if let Some(a) = alive.get_mut(job as usize).filter(|a| **a) {
                    *a = false;
                    terminal[job as usize] = true;
                }
                let next = (0..n)
                    .filter(|&i| alive[i] && jobs[i].profit.tail_value() == 0)
                    .map(|i| jobs[i].last_useful_abs())
                    .chain(jobs.get(next_arrival).map(|j| j.arrival))
                    .fold(horizon, Time::min);
                let w = k.window(t, inst.expiry_order(), |j| terminal[j.index()]);
                prop_assert_eq!(w, next.since(t), "window diverges at t={}", t.0);
                prop_assert!(w > 0);
                t = Time(t.0 + 1 + step % w);
            }
            let passed = k.counts.due + k.counts.skipped;
            prop_assert!(passed as usize <= inst.expiry_order().len());
        }
    }
}
