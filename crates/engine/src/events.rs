//! The discrete-event kernel: O(log n) next-event selection for the
//! fast-forward engine.
//!
//! The fast-forward path asks one question every step: *how far can the
//! clock jump before anything observable happens?* Two kinds of boundary
//! bound the jump. The first is the nearest completion of a node claimed
//! this step. The driver's claim pass visits every claimed node anyway, so
//! it folds `min_q = min ceil(rem/units)` over them as it goes; no claimed
//! node finishes within `min_q - 1` ticks. The second kind is every
//! boundary the claim pass does not see. Rescanning the alive set for
//! them every step costs O(alive) even when nothing changed since the last
//! step. An [`EventKernel`] answers the same question in O(log n) by
//! keeping each such *event source* armed in one lazy-deletion binary
//! min-heap. The window is then `min(min_q - 1, window(t))`.
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
//! | source                           | armed                              | re-keyed / disarmed                     |
//! |----------------------------------|------------------------------------|-----------------------------------------|
//! | arrival cursor (one global)      | at construction                    | re-armed after each admission batch     |
//! | expiry boundary (zero-tail job)  | at admission                       | disarmed when the job goes terminal     |
//! | horizon (one global)             | at construction                    | never                                   |
//!
//! # Lazy deletion and staleness
//!
//! Heap entries are never removed in place. Each source records its
//! currently-armed key (`armed_arrival`, `armed_expiry[job]`) and an entry
//! is *valid* iff it matches; stale entries are discarded when they
//! surface at the top. Discarding is safe because a discarded key is gone
//! for good:
//!
//! * the arrival cursor only advances, so a superseded arrival time never
//!   returns;
//! * an expiry is armed once at admission and disarmed at the job's
//!   terminal transition — never re-armed.
//!
//! # Tie-break contract
//!
//! Entries order by `(time, kind, job)` with kinds in declaration order —
//! arrival < expiry < horizon at equal time. The window width is a
//! *minimum over valid entry times*, so the tie order can never change a
//! computed window; fixing it anyway keeps the pop sequence (and therefore
//! the kernel's internal traversal) deterministic, which is what the
//! golden digests in `tests/golden_outputs.rs` pin down byte-for-byte.
//!
//! # Memory bound
//!
//! Lazy deletion alone would let the heap grow with the total number of
//! re-keys. The kernel counts superseded keys (`stale_hint`) and, once they
//! could dominate the heap, compacts in place with `BinaryHeap::retain`,
//! keeping only entries whose key is still armed. The backing capacity is
//! kept, and the bound becomes O(armed state) — which is what keeps the
//! engine's zero-allocation arrival-storm property intact.

use dagsched_core::{JobId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Event-source kind. Declaration order *is* the tie-break order at equal
/// time: arrival < expiry < horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SourceKind {
    /// The next not-yet-admitted arrival.
    Arrival,
    /// A zero-tail job's expiry boundary (`last_useful_abs`).
    Expiry,
    /// The run's hard stop.
    Horizon,
}

/// One heap entry. Derived `Ord` is lexicographic over the field order,
/// which realizes the `(time, kind, job)` tie-break contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: Time,
    kind: SourceKind,
    /// The job of an expiry boundary; 0 for the global sources.
    job: u32,
}

/// Compaction fires only once at least this many keys were superseded —
/// below it the heap is too small for lazy corpses to matter.
pub(crate) const COMPACT_MIN_STALE: usize = 64;

/// The discrete-event heap shared by the driver's window computation and
/// the lifecycle's expiry index. See the [module docs](self).
pub struct EventKernel {
    /// Min-heap over [`EventKey`] (`Reverse`: `BinaryHeap` is a max-heap).
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Armed expiry boundary per job; `Time::MAX` = not armed.
    armed_expiry: Vec<Time>,
    /// Armed arrival-cursor key; `None` = no pending arrival.
    armed_arrival: Option<Time>,
    /// Keys superseded since the last compaction (never decremented —
    /// naturally-popped corpses just make the next compaction earlier).
    stale_hint: usize,
}

impl EventKernel {
    /// An empty kernel for an instance of `n` jobs. Nothing is armed; the
    /// driver arms the horizon and the first arrival iff the kernel is on.
    pub(crate) fn new(n: usize) -> EventKernel {
        EventKernel {
            heap: BinaryHeap::new(),
            armed_expiry: vec![Time::MAX; n],
            armed_arrival: None,
            stale_hint: 0,
        }
    }

    fn push(&mut self, time: Time, kind: SourceKind, job: u32) {
        self.heap.push(Reverse(EventKey { time, kind, job }));
    }

    /// Arm the run's hard stop (once, at construction).
    pub(crate) fn arm_horizon(&mut self, at: Time) {
        self.push(at, SourceKind::Horizon, 0);
    }

    /// The currently-armed arrival time (the driver's idle-skip target).
    #[inline]
    pub(crate) fn armed_arrival(&self) -> Option<Time> {
        self.armed_arrival
    }

    /// (Re-)arm the arrival cursor at `at`.
    pub(crate) fn arm_arrival(&mut self, at: Time) {
        if self.armed_arrival == Some(at) {
            return;
        }
        if self.armed_arrival.is_some() {
            self.stale_hint += 1;
        }
        self.armed_arrival = Some(at);
        self.push(at, SourceKind::Arrival, 0);
    }

    /// Disarm the arrival cursor (every job has arrived).
    pub(crate) fn disarm_arrival(&mut self) {
        if self.armed_arrival.take().is_some() {
            self.stale_hint += 1;
        }
    }

    /// Arm `job`'s expiry boundary at `at` (admission of a zero-tail job).
    pub(crate) fn arm_expiry(&mut self, job: JobId, at: Time) {
        let slot = &mut self.armed_expiry[job.index()];
        if *slot != Time::MAX {
            self.stale_hint += 1;
        }
        *slot = at;
        self.push(at, SourceKind::Expiry, job.0);
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

    /// Ticks from `t` to the nearest armed boundary: `min(valid entry
    /// time) - t`, discarding stale entries as they surface. The horizon
    /// entry is always armed, so the minimum always exists.
    pub(crate) fn window(&mut self, t: Time) -> u64 {
        self.maybe_compact();
        loop {
            let Reverse(e) = *self.heap.peek().expect("the horizon is always armed");
            if is_armed(e, self.armed_arrival, &self.armed_expiry) {
                debug_assert!(e.time >= t, "a valid entry is never in the past");
                return e.time.since(t);
            }
            self.heap.pop();
        }
    }

    /// Pop every entry with `time ≤ t`, collecting the *due* expiries into
    /// `out` in ascending job order (= arrival order: instance ids are
    /// assigned in arrival order). Due expiries are disarmed as they pop;
    /// everything else at or below `t` is permanently stale (see the
    /// module docs) and is dropped.
    pub(crate) fn pop_due_expiries(&mut self, t: Time, out: &mut Vec<JobId>) {
        self.maybe_compact();
        while self.heap.peek().is_some_and(|&Reverse(top)| top.time <= t) {
            let Reverse(e) = self.heap.pop().expect("just peeked");
            match e.kind {
                SourceKind::Expiry => {
                    let slot = &mut self.armed_expiry[e.job as usize];
                    if *slot == e.time {
                        *slot = Time::MAX;
                        out.push(JobId(e.job));
                    }
                }
                SourceKind::Arrival => {
                    // Admissions ran before this pop, so a due *valid*
                    // arrival entry cannot exist — only superseded cursors.
                    debug_assert_ne!(self.armed_arrival, Some(e.time));
                }
                SourceKind::Horizon => {
                    unreachable!("the run guard keeps t strictly before the horizon")
                }
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
        let (arrival, expiry) = (self.armed_arrival, &self.armed_expiry);
        self.heap.retain(|&Reverse(e)| is_armed(e, arrival, expiry));
        self.stale_hint = 0;
    }

    /// Heap length (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of armed keys: expiry boundaries, the arrival cursor, and
    /// the horizon (tests).
    #[cfg(test)]
    pub(crate) fn armed_keys(&self) -> usize {
        self.armed_expiry
            .iter()
            .filter(|&&t| t != Time::MAX)
            .count()
            + usize::from(self.armed_arrival.is_some())
            + 1
    }
}

/// Whether entry `e` matches its source's currently-armed key.
#[inline]
fn is_armed(e: EventKey, arrival: Option<Time>, expiry: &[Time]) -> bool {
    match e.kind {
        SourceKind::Horizon => true,
        SourceKind::Arrival => arrival == Some(e.time),
        SourceKind::Expiry => expiry[e.job as usize] == e.time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_break_orders_kinds_then_job() {
        let key = |kind, job| EventKey {
            time: Time(5),
            kind,
            job,
        };
        let mut keys = vec![
            key(SourceKind::Horizon, 0),
            key(SourceKind::Expiry, 1),
            key(SourceKind::Arrival, 0),
            key(SourceKind::Expiry, 0),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                key(SourceKind::Arrival, 0),
                key(SourceKind::Expiry, 0),
                key(SourceKind::Expiry, 1),
                key(SourceKind::Horizon, 0),
            ]
        );
        // Time dominates the kind: an earlier horizon sorts before a later
        // arrival.
        assert!(
            EventKey {
                time: Time(4),
                kind: SourceKind::Horizon,
                job: 0,
            } < key(SourceKind::Arrival, 0)
        );
    }

    #[test]
    fn rearming_the_arrival_cursor_invalidates_the_old_entry() {
        let mut k = EventKernel::new(1);
        k.arm_horizon(Time(100));
        k.arm_arrival(Time(5));
        k.arm_arrival(Time(9)); // supersedes 5
                                // From t = 3 the stale 5-entry surfaces first and must be skipped.
        assert_eq!(k.window(Time(3)), 6);
        k.disarm_arrival();
        assert_eq!(k.window(Time(3)), 97, "only the horizon remains");
    }

    #[test]
    fn disarmed_expiry_entries_are_skipped() {
        let mut k = EventKernel::new(2);
        k.arm_horizon(Time(50));
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
        let mut k = EventKernel::new(3);
        k.arm_horizon(Time(100));
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

        /// Adversarial arm/disarm churn over the arrival cursor and the
        /// expiry boundaries: after every query the heap stays bounded by
        /// the live armed state plus the compaction slack, and no live key
        /// is ever dropped — the due-expiry pops and the window always
        /// agree with a naive mirror of the armed state.
        ///
        /// Arrival re-arms land far above every pop instant (the driver
        /// runs admissions before popping, so a *valid* due arrival entry
        /// cannot exist — the kernel debug-asserts exactly that).
        #[test]
        fn churn_keeps_the_heap_bounded_and_drops_no_live_key(
            ops in proptest::collection::vec((0u8..4, 0u32..16, 0u64..40), 1..300)
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
                        let mut k = EventKernel::new(16);
            let horizon = Time(1_000_000);
            k.arm_horizon(horizon);
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
                        // Heap bound: one live entry per armed key plus the
                        // corpses compaction is allowed to defer.
                        let live = mirror.iter().filter(|&&t| t != Time::MAX).count()
                            + usize::from(arrival.is_some())
                            + 1;
                        prop_assert!(
                            k.len() <= 2 * live + COMPACT_MIN_STALE + 2,
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
        let mut k = EventKernel::new(1);
        k.arm_horizon(Time(1_000_000));
        // Re-arm the arrival cursor far more often than the compaction
        // threshold, querying the kernel each round as the driver does
        // every step (compaction piggybacks on the queries): without it
        // the heap would hold one corpse per re-arm.
        let mut due = Vec::new();
        for i in 0..10_000u64 {
            k.arm_arrival(Time(100 + i));
            k.pop_due_expiries(Time(50), &mut due);
        }
        assert!(
            k.len() < 2 * COMPACT_MIN_STALE + 2,
            "heap holds {} entries despite 10k re-keys",
            k.len()
        );
        // The surviving armed entry still answers correctly.
        assert_eq!(k.window(Time(50)), 10_049);
    }
}
