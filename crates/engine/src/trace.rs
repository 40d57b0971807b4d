//! Execution traces and schedule-quality metrics.
//!
//! [`Trace`] is a [`SimObserver`]: pass it to
//! [`simulate_observed`](crate::simulate_observed), alone or in
//! [`Observers`](crate::observe::Observers). It merges adjacent windows with
//! the same allocation, so both engine paths record equal traces, a traced
//! run steps exactly like an untraced one, and memory grows with allocation
//! changes, not ticks. [`Trace::stats`] derives preemption counts and
//! utilization (the paper's future-work axis); [`Trace::render`] prints the
//! per-tick Gantt-style dump the examples use.

use crate::observe::SimObserver;
use dagsched_core::{JobId, Speed, Time};
use std::collections::{HashMap, HashSet};

/// Consecutive ticks that ran one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWindow {
    /// The first tick of the window.
    pub at: Time,
    /// Number of ticks the window covers (≥ 1).
    pub ticks: u64,
    /// `(job, processors granted)` at every tick of the window, in the
    /// order the scheduler listed them.
    pub alloc: Vec<(JobId, u32)>,
}

/// A run's execution trace. A trace describes one run: `on_start` clears
/// whatever an earlier run recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    m: u32,
    windows: Vec<TraceWindow>,
    /// Completion time of every completed job.
    completions: HashMap<JobId, Time>,
}

/// Aggregate schedule-quality metrics derived from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Ticks with at least one processor busy.
    pub busy_ticks: u64,
    /// Σ processors granted over all ticks (saturating at `u64::MAX`: one
    /// bulk window can span nearly `u64::MAX` ticks).
    pub processor_ticks: u64,
    /// Mean fraction of `m` granted over busy ticks.
    pub mean_utilization: f64,
    /// Number of *preemptions*: a job held processors at tick `t`, was
    /// alive, but held none at the next recorded tick (its final tick
    /// before completion does not count).
    pub preemptions: u64,
    /// Number of *allotment changes*: consecutive ticks where a job's
    /// processor count changed (excluding 0↔k transitions counted above).
    pub resize_events: u64,
    /// Distinct jobs that ever ran.
    pub jobs_run: usize,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// The recorded windows, in time order; adjacent windows differ in
    /// allocation or are separated by an idle gap.
    pub fn windows(&self) -> &[TraceWindow] {
        &self.windows
    }

    /// Number of recorded ticks (the run's `ticks_simulated`).
    pub fn ticks(&self) -> u64 {
        self.windows.iter().map(|w| w.ticks).sum()
    }

    /// First tick at which a job held processors.
    pub fn first_start(&self, id: JobId) -> Option<Time> {
        self.windows
            .iter()
            .find(|w| w.alloc.iter().any(|&(j, _)| j == id))
            .map(|w| w.at)
    }

    /// Total processor-ticks granted to one job (saturating at `u64::MAX`).
    pub fn processor_ticks_of(&self, id: JobId) -> u64 {
        self.windows.iter().fold(0u64, |sum, w| {
            let granted = w.alloc.iter().find(|&&(j, _)| j == id);
            let k = granted.map_or(0, |&(_, k)| k as u64);
            sum.saturating_add(k.saturating_mul(w.ticks))
        })
    }

    /// Aggregate statistics, in O(windows). A window's allocation holds for
    /// every tick it covers, so preemptions and resizes can only happen
    /// where one window ends and the next starts; a job completing at that
    /// boundary is descheduled, not preempted.
    pub fn stats(&self) -> TraceStats {
        let mut jobs: HashSet<JobId> = HashSet::new();
        let mut st = TraceStats::default();
        for (i, w) in self.windows.iter().enumerate() {
            let granted: u64 = w.alloc.iter().map(|&(_, k)| k as u64).sum();
            if granted > 0 {
                st.busy_ticks += w.ticks;
            }
            st.processor_ticks = st
                .processor_ticks
                .saturating_add(granted.saturating_mul(w.ticks));
            jobs.extend(w.alloc.iter().map(|&(j, _)| j));
            // Compare with the previous window only if it is adjacent in
            // simulated time (idle gaps are skipped by the engine).
            let prev = i.checked_sub(1).map(|p| &self.windows[p]);
            let Some(prev) = prev.filter(|p| p.at.after(p.ticks) == w.at) else {
                continue;
            };
            let cur: HashMap<JobId, u32> = w.alloc.iter().copied().collect();
            for &(id, k_prev) in &prev.alloc {
                match cur.get(&id) {
                    None if self.completions.get(&id) != Some(&w.at) => st.preemptions += 1,
                    Some(&k) if k != k_prev => st.resize_events += 1,
                    _ => {}
                }
            }
        }
        st.jobs_run = jobs.len();
        if st.busy_ticks > 0 {
            st.mean_utilization =
                st.processor_ticks as f64 / (st.busy_ticks as f64 * self.m as f64);
        }
        st
    }

    /// A compact textual Gantt-like dump (one line per tick), for debugging
    /// and the examples. Only the first `max_ticks` ticks are rendered.
    pub fn render(&self, max_ticks: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut budget = max_ticks as u64;
        for w in &self.windows {
            let mut alloc = String::new();
            for (j, k) in &w.alloc {
                let _ = write!(alloc, " {j}x{k}");
            }
            for t in 0..w.ticks.min(budget) {
                let _ = writeln!(out, "t={:<6}{alloc}", w.at.after(t).ticks());
            }
            budget = budget.saturating_sub(w.ticks);
            if budget == 0 {
                break;
            }
        }
        let ticks = self.ticks();
        if ticks > max_ticks as u64 {
            let _ = writeln!(out, "... ({} more ticks)", ticks - max_ticks as u64);
        }
        out
    }
}

impl SimObserver for Trace {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        *self = Trace {
            m,
            ..Trace::default()
        };
    }

    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        _jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        _progress: &[(JobId, u64)],
    ) {
        match self.windows.last_mut() {
            Some(last) if last.at.after(last.ticks) == at && last.alloc == alloc => {
                last.ticks += ticks
            }
            _ => self.windows.push(TraceWindow {
                at,
                ticks,
                alloc: alloc.to_vec(),
            }),
        }
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, _profit: u64) {
        self.completions.insert(job, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(at, ticks, [(job, k)])`.
    type Window<'a> = (u64, u64, &'a [(u32, u32)]);

    /// A trace on `m` processors fed `windows`.
    fn trace(m: u32, windows: &[Window]) -> Trace {
        let mut tr = Trace::new();
        tr.on_start(m, Speed::ONE, Time(1_000));
        for &(at, ticks, alloc) in windows {
            let alloc: Vec<_> = alloc.iter().map(|&(j, k)| (JobId(j), k)).collect();
            tr.on_window(Time(at), ticks, &[], &alloc, &[]);
        }
        tr
    }

    #[test]
    fn empty_trace_stats() {
        let s = trace(4, &[]).stats();
        assert_eq!((s.busy_ticks, s.preemptions, s.jobs_run), (0, 0, 0));
        assert_eq!(s.mean_utilization, 0.0);
    }

    #[test]
    fn utilization_and_processor_ticks() {
        let s = trace(4, &[(0, 1, &[(0, 4)]), (1, 1, &[(0, 2)]), (2, 1, &[])]).stats();
        assert_eq!((s.busy_ticks, s.processor_ticks, s.jobs_run), (2, 6, 1));
        assert!((s.mean_utilization - 0.75).abs() < 1e-12); // (1.0 + 0.5)/2
        let huge = trace(4, &[(0, u64::MAX / 2, &[(0, 4)])]);
        assert_eq!(huge.stats().processor_ticks, u64::MAX, "saturates");
        assert_eq!(huge.processor_ticks_of(JobId(0)), u64::MAX);
    }

    #[test]
    fn preemption_vs_completion_vs_resize() {
        // At t=1 j1 is descheduled and j0 resized; at t=2 j0 is descheduled
        // but completed at that boundary, so only j1 was preempted.
        let mut tr = trace(
            4,
            &[
                (0, 1, &[(0, 2), (1, 1)]),
                (1, 1, &[(0, 1)]),
                (2, 1, &[(2, 1)]),
            ],
        );
        tr.on_job_complete(Time(2), JobId(0), 1);
        let s = tr.stats();
        assert_eq!((s.preemptions, s.resize_events, s.jobs_run), (1, 1, 3));
    }

    #[test]
    fn idle_gaps_do_not_create_phantom_preemptions() {
        // The next window starts far in the future (engine skipped the gap).
        let s = trace(2, &[(0, 1, &[(0, 1)]), (100, 1, &[(1, 1)])]).stats();
        assert_eq!(s.preemptions, 0, "non-adjacent windows are not compared");
    }

    #[test]
    fn per_job_queries() {
        let tr = trace(4, &[(5, 1, &[(0, 2)]), (6, 3, &[(0, 2), (1, 1)])]);
        assert_eq!(tr.first_start(JobId(0)), Some(Time(5)));
        assert_eq!(tr.first_start(JobId(1)), Some(Time(6)));
        assert_eq!(tr.first_start(JobId(9)), None);
        assert_eq!(tr.processor_ticks_of(JobId(0)), 8);
        assert_eq!(tr.processor_ticks_of(JobId(1)), 3);
        assert_eq!(tr.ticks(), 4);
    }

    #[test]
    fn render_is_bounded() {
        let tr = trace(2, &[(0, 10, &[(0, 1)])]);
        let out = tr.render(3);
        assert_eq!(out.lines().count(), 4, "{out}");
        assert!(out.contains("7 more ticks") && out.contains("t=0"));
        assert_eq!(tr.render(usize::MAX).lines().count(), 10);
    }

    #[test]
    fn adjacent_equal_windows_merge_and_a_new_run_clears() {
        let mut wide = trace(4, &[(0, 3, &[(0, 2)]), (3, 1, &[]), (9, 2, &[])]);
        let per_tick = [0, 1, 2].map(|t| (t, 1, &[(0, 2)][..]));
        let idle = [3, 9, 10].map(|t| (t, 1, &[][..]));
        assert_eq!(wide, trace(4, &[per_tick, idle].concat()));
        assert_eq!(
            wide.windows().len(),
            3,
            "an idle gap separates equal windows"
        );
        wide.on_start(2, Speed::ONE, Time(10));
        assert_eq!(wide, trace(2, &[]));
    }
}
