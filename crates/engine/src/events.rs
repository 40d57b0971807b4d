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
//! step. An [`EventKernel`] answers the same question in O(log n): the
//! window is then `min(min_q - 1, window(t))`.
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
//! | source                           | held in     | armed                 | re-keyed / disarmed                 |
//! |----------------------------------|-------------|-----------------------|-------------------------------------|
//! | arrival cursor (one global)      | a field     | at construction       | overwritten after each admission batch |
//! | horizon (one global)             | a field     | at construction       | never                               |
//! | expiry boundary (zero-tail job)  | the heap    | at admission          | disarmed when the job goes terminal |
//!
//! Only expiries are many, so only they go through the lazy-deletion
//! binary min-heap. The two global sources are single values that a field
//! answers in O(1), where a heap entry would cost a push and a stale pop
//! per arrival batch. `window` folds the heap's valid top with both
//! fields.
//!
//! # Lazy deletion and staleness
//!
//! Heap entries are never removed in place. Each job records its
//! currently-armed expiry key (`armed_expiry[job]`) and an entry is
//! *valid* iff it matches; stale entries are discarded when they surface
//! at the top. Discarding is safe because an expiry is armed once at
//! admission and disarmed at the job's terminal transition — never
//! re-armed — so a discarded key is gone for good.
//!
//! # Tie-break contract
//!
//! Heap entries order by `(time, job)`. The window width is a *minimum*
//! over the valid entry times and the two fields, so the tie order can
//! never change a computed window. Due expiries pop in ascending job
//! order (= arrival order: instance ids are assigned in arrival order),
//! which is the order the naive scan expires them in; the expiry hooks,
//! outcomes and pool pushes follow it, so the pop sequence is part of
//! what the golden digests in `tests/golden_outputs.rs` pin down.
//!
//! # Memory bound
//!
//! Lazy deletion alone would let the heap grow with the total number of
//! disarmed expiries. The kernel counts them (`stale_hint`) and, once they
//! could dominate the heap, compacts in place with `BinaryHeap::retain`,
//! keeping only entries whose key is still armed. The backing capacity is
//! kept, and the bound becomes O(armed expiries) — which is what keeps the
//! engine's zero-allocation arrival-storm property intact.

use dagsched_core::{JobId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One heap entry: a zero-tail job's expiry boundary. Derived `Ord` is
/// lexicographic over the field order, which realizes the `(time, job)`
/// tie-break contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExpiryKey {
    time: Time,
    job: u32,
}

/// Compaction fires only once at least this many keys were superseded —
/// below it the heap is too small for lazy corpses to matter.
pub(crate) const COMPACT_MIN_STALE: usize = 64;

/// What the expiry heap did over a run, for tests that pin how much of its
/// work is on stale keys.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HeapCounts {
    /// Entries popped as due expiries.
    pub(crate) live_pops: u64,
    /// Entries popped as stale, by [`EventKernel::window`] or
    /// [`EventKernel::pop_due_expiries`].
    pub(crate) stale_pops: u64,
    /// Compactions run.
    pub(crate) compactions: u64,
    /// Stale entries the compactions dropped.
    pub(crate) compacted: u64,
}

/// The driver's next-event index and the lifecycle's expiry index. See
/// the [module docs](self).
pub struct EventKernel {
    /// Min-heap over [`ExpiryKey`] (`Reverse`: `BinaryHeap` is a max-heap).
    heap: BinaryHeap<Reverse<ExpiryKey>>,
    /// Armed expiry boundary per job; `Time::MAX` = not armed.
    armed_expiry: Vec<Time>,
    /// The next not-yet-admitted arrival; `None` = every job has arrived.
    armed_arrival: Option<Time>,
    /// The run's hard stop.
    horizon: Time,
    /// Expiry keys disarmed or superseded since the last compaction (never
    /// decremented — naturally-popped corpses just make the next
    /// compaction earlier).
    stale_hint: usize,
    #[cfg(test)]
    pub(crate) counts: HeapCounts,
}

impl EventKernel {
    /// A kernel for an instance of `n` jobs whose run stops at `horizon`.
    /// No arrival or expiry is armed; the driver arms the first arrival
    /// iff the kernel is on.
    pub(crate) fn new(n: usize, horizon: Time) -> EventKernel {
        EventKernel {
            heap: BinaryHeap::new(),
            armed_expiry: vec![Time::MAX; n],
            armed_arrival: None,
            horizon,
            stale_hint: 0,
            #[cfg(test)]
            counts: HeapCounts::default(),
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

    /// Arm `job`'s expiry boundary at `at` (admission of a zero-tail job).
    pub(crate) fn arm_expiry(&mut self, job: JobId, at: Time) {
        let slot = &mut self.armed_expiry[job.index()];
        if *slot != Time::MAX {
            self.stale_hint += 1;
        }
        *slot = at;
        self.heap.push(Reverse(ExpiryKey {
            time: at,
            job: job.0,
        }));
    }

    /// Disarm `job`'s expiry boundary (terminal transition). No-op if it
    /// was never armed (tail-profit jobs).
    pub(crate) fn disarm_expiry(&mut self, job: JobId) {
        let slot = &mut self.armed_expiry[job.index()];
        if *slot != Time::MAX {
            *slot = Time::MAX;
            self.stale_hint += 1;
        }
    }

    /// Ticks from `t` to the nearest armed boundary: the earliest valid
    /// expiry, the arrival cursor or the horizon, discarding stale heap
    /// entries as they surface.
    pub(crate) fn window(&mut self, t: Time) -> u64 {
        self.maybe_compact();
        let mut next = self.horizon;
        if let Some(at) = self.armed_arrival {
            next = next.min(at);
        }
        while let Some(&Reverse(e)) = self.heap.peek() {
            if self.armed_expiry[e.job as usize] == e.time {
                debug_assert!(e.time >= t, "a valid expiry is never in the past");
                next = next.min(e.time);
                break;
            }
            self.heap.pop();
            #[cfg(test)]
            {
                self.counts.stale_pops += 1;
            }
        }
        next.since(t)
    }

    /// Pop every entry with `time ≤ t`, collecting the *due* expiries into
    /// `out` in ascending job order (= arrival order). Due expiries are
    /// disarmed as they pop; every other entry at or below `t` is stale
    /// for good (see the module docs) and is dropped.
    pub(crate) fn pop_due_expiries(&mut self, t: Time, out: &mut Vec<JobId>) {
        self.maybe_compact();
        while self.heap.peek().is_some_and(|&Reverse(top)| top.time <= t) {
            let Reverse(e) = self.heap.pop().expect("just peeked");
            let slot = &mut self.armed_expiry[e.job as usize];
            let due = *slot == e.time;
            if due {
                *slot = Time::MAX;
                out.push(JobId(e.job));
            }
            #[cfg(test)]
            if due {
                self.counts.live_pops += 1;
            } else {
                self.counts.stale_pops += 1;
            }
        }
        out.sort_unstable();
    }

    /// In-place compaction: once the superseded-key count could dominate,
    /// retain only entries whose key is still armed. Keeps the backing
    /// capacity.
    fn maybe_compact(&mut self) {
        if self.stale_hint < COMPACT_MIN_STALE || self.stale_hint * 2 < self.heap.len() {
            return;
        }
        #[cfg(test)]
        let before = self.heap.len();
        let armed = &self.armed_expiry;
        self.heap
            .retain(|&Reverse(e)| armed[e.job as usize] == e.time);
        self.stale_hint = 0;
        #[cfg(test)]
        {
            self.counts.compactions += 1;
            self.counts.compacted += (before - self.heap.len()) as u64;
        }
    }

    /// Heap length (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of armed expiry keys — the only keys the heap holds (tests).
    #[cfg(test)]
    pub(crate) fn armed_keys(&self) -> usize {
        self.armed_expiry
            .iter()
            .filter(|&&t| t != Time::MAX)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_break_orders_time_then_job() {
        let key = |time, job| ExpiryKey {
            time: Time(time),
            job,
        };
        let mut keys = vec![key(5, 1), key(4, 9), key(5, 0)];
        keys.sort();
        assert_eq!(keys, vec![key(4, 9), key(5, 0), key(5, 1)]);
    }

    #[test]
    fn rearming_the_arrival_cursor_invalidates_the_old_entry() {
        let mut k = EventKernel::new(1, Time(100));
        k.arm_arrival(Time(5));
        k.arm_arrival(Time(9)); // supersedes 5
        assert_eq!(k.window(Time(3)), 6);
        k.disarm_arrival();
        assert_eq!(k.window(Time(3)), 97, "only the horizon remains");
        assert_eq!(k.len(), 0, "the global sources never enter the heap");
    }

    #[test]
    fn disarmed_expiry_entries_are_skipped() {
        let mut k = EventKernel::new(2, Time(50));
        k.arm_expiry(JobId(0), Time(7));
        k.arm_expiry(JobId(1), Time(12));
        assert_eq!(k.window(Time(2)), 5);
        k.disarm_expiry(JobId(0));
        assert_eq!(k.window(Time(2)), 10);
        k.disarm_expiry(JobId(1));
        assert_eq!(k.window(Time(2)), 48);
    }

    #[test]
    fn pop_due_collects_expiries_sorted_and_disarms_them() {
        let mut k = EventKernel::new(3, Time(100));
        // Armed out of id order, one of them not yet due.
        k.arm_expiry(JobId(2), Time(5));
        k.arm_expiry(JobId(0), Time(5));
        k.arm_expiry(JobId(1), Time(30));
        let mut due = Vec::new();
        k.pop_due_expiries(Time(5), &mut due);
        assert_eq!(
            due,
            vec![JobId(0), JobId(2)],
            "ascending id = arrival order"
        );
        due.clear();
        // Popping again at the same t: already disarmed, nothing due.
        k.pop_due_expiries(Time(5), &mut due);
        assert!(due.is_empty());
        due.clear();
        k.pop_due_expiries(Time(30), &mut due);
        assert_eq!(due, vec![JobId(1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Adversarial arm/disarm churn over the expiry boundaries and the
        /// arrival cursor: after every query the heap stays bounded by the
        /// armed expiries plus the compaction slack, and no live key is
        /// ever dropped — the due-expiry pops and the window always agree
        /// with a naive mirror of the armed state.
        #[test]
        fn churn_keeps_the_heap_bounded_and_drops_no_live_key(
            ops in proptest::collection::vec((0u8..4, 0u32..16, 0u64..40), 1..300)
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let horizon = Time(1_000_000);
            let mut k = EventKernel::new(16, horizon);
            let mut now = Time(0);
            // Mirror of the armed state: expiry per job, arrival cursor.
            let mut mirror = [Time::MAX; 16];
            let mut arrival: Option<Time> = None;
            let mut due = Vec::new();
            for &(sel, job, dt) in &ops {
                match sel {
                    0 => {
                        let at = Time(now.0 + dt);
                        k.arm_expiry(JobId(job), at);
                        mirror[job as usize] = at;
                    }
                    1 => {
                        k.disarm_expiry(JobId(job));
                        mirror[job as usize] = Time::MAX;
                    }
                    2 => {
                        let at = Time(500_000 + dt);
                        k.arm_arrival(at);
                        arrival = Some(at);
                    }
                    _ => {
                        now = Time(now.0 + dt);
                        due.clear();
                        k.pop_due_expiries(now, &mut due);
                        let expect: Vec<JobId> = (0..16u32)
                            .filter(|&j| mirror[j as usize] <= now)
                            .map(JobId)
                            .collect();
                        prop_assert_eq!(due.clone(), expect, "due set diverges at t={}", now.0);
                        for j in &due {
                            mirror[j.index()] = Time::MAX;
                        }
                        // Every armed expiry > now must still bound the
                        // window (no live key dropped by compaction).
                        let min_live = mirror
                            .iter()
                            .copied()
                            .chain(arrival)
                            .chain(std::iter::once(horizon))
                            .min()
                            .expect("horizon is always armed");
                        prop_assert_eq!(k.window(now), min_live.since(now));
                        // Heap bound: one live entry per armed expiry plus
                        // the corpses compaction is allowed to defer.
                        let live = mirror.iter().filter(|&&t| t != Time::MAX).count();
                        prop_assert_eq!(k.armed_keys(), live);
                        prop_assert!(
                            k.len() <= 2 * live + COMPACT_MIN_STALE,
                            "heap holds {} entries for {} live keys",
                            k.len(),
                            live
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compaction_bounds_the_heap_under_rekey_churn() {
        let mut k = EventKernel::new(1, Time(1_000_000));
        // Re-arm one expiry far more often than the compaction threshold,
        // querying the kernel each round as the driver does every step
        // (compaction piggybacks on the queries): without it the heap
        // would hold one corpse per re-arm.
        let mut due = Vec::new();
        for i in 0..10_000u64 {
            k.arm_expiry(JobId(0), Time(100 + i));
            k.pop_due_expiries(Time(50), &mut due);
        }
        assert!(due.is_empty());
        assert!(
            k.len() < 2 * COMPACT_MIN_STALE + 2,
            "heap holds {} entries despite 10k re-keys",
            k.len()
        );
        // The surviving armed entry still answers correctly.
        assert_eq!(k.window(Time(50)), 10_049);
    }
}
