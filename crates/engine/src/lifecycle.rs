//! The lifecycle layer: the arrival → (expiry | completion) state machine.
//!
//! A [`Lifecycle`] owns every per-job state the engine keeps — the dense
//! slab of unfolded DAG states (one [`UnfoldState`] per alive job, whose
//! single cell vector also carries the execution round's node claims), the
//! arrival cursor, the expiry cursor, the alive list (always in arrival
//! order), terminal outcomes, and earned profit — and the three transitions
//! a job can make:
//!
//! * `admit_arrivals` materializes every job
//!   with `arrival ≤ t` and runs the scheduler's and observer's arrival
//!   hooks;
//! * `expire_hopeless` abandons zero-tail jobs
//!   past their last useful moment (the reference path's O(alive) scan;
//!   the production path pops the due ids off the expiry cursor via
//!   `expire_due`);
//! * `complete` retires jobs whose last node
//!   finished, paying `p(t_done − r)`.
//!
//! The scheduler and observer hooks fire *inside* the transition methods so
//! that the ordering contract of [`observe`](crate::observe) is enforced in
//! exactly one place.
//!
//! # Next boundary
//!
//! The two cursors also answer the production path's one event question,
//! `next_boundary`: the earliest tick at which a job arrives or expires.
//! (The horizon is the clock's, and node completions are the driver's claim
//! pass's.) The next arrival is `jobs[next_arrival].arrival`. A zero-tail
//! job's expiry boundary `last_useful_abs()` is fixed by the instance, so
//! [`Instance::expiry_order`] sorts every boundary once, as `(time, job)`,
//! and one cursor walks that slice: nothing is pushed, popped or re-keyed,
//! and each key is passed exactly once over a run. A key is *valid* while
//! its job is not terminal; a key turns invalid once and for good.
//! `next_boundary` moves the cursor past invalid keys and stops at the
//! first valid one; `expire_due` moves it past every key at or below `t`
//! and expires the valid ones. A job that has not arrived yet is not
//! terminal, so its key is valid and may bound a window. That is harmless:
//! its key is at or after its arrival, which is at or after the next
//! arrival, which already bounds the window.
//!
//! Keys order by `(time, job)`. No window crosses a valid key, and an idle
//! skip happens only when every arrived job is terminal, so every valid key
//! `expire_due` reaches has `time == t`: due expiries come out in ascending
//! job order (= arrival order: instance ids are assigned in arrival order),
//! the order the naive scan expires them in.

use crate::observe::SimObserver;
use crate::result::JobStatus;
use crate::sched_api::{JobInfo, OnlineScheduler};
use dagsched_core::{JobId, NodeId, Time};
use dagsched_dag::UnfoldState;
use dagsched_workload::{Instance, JobSpec};

/// What the expiry cursor did over a run, for tests that pin its work.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CursorCounts {
    /// Keys passed as due expiries.
    pub(crate) due: u64,
    /// Keys passed because their job was already terminal.
    pub(crate) skipped: u64,
}

/// The per-job state machine of one run. See the [module docs](self).
pub struct Lifecycle {
    /// Unfolded DAG execution state, dense by job index (`None` = not
    /// arrived or already terminal).
    pub(crate) live: Vec<Option<UnfoldState>>,
    /// Terminal (or at-horizon) outcome per job.
    pub(crate) outcomes: Vec<JobStatus>,
    /// Arrived, unfinished, unexpired jobs — in arrival order.
    pub(crate) alive: Vec<JobId>,
    /// The persistently-maintained scheduler view: `(id, ready_count)` per
    /// alive job, always element-for-element parallel to `alive` (same
    /// order — arrival order, which is ascending id order). Admissions
    /// append, terminal transitions compact in order (never swap-remove:
    /// [`TickView::ready_count`](crate::sched_api::TickView) binary-searches
    /// ascending ids and the observer's window payload carries this slice
    /// verbatim), and the driver patches ready counts after node
    /// completions. The reference path ignores it and calls
    /// [`rebuild_view`](Lifecycle::rebuild_view) every tick instead.
    view: Vec<(JobId, u32)>,
    /// Dense id → position hint into `view` and `alive`, meaningful only
    /// for alive jobs. Arrivals append and removals compact, so a job's
    /// position only ever moves left: the hint (written at arrival and
    /// refreshed by each [`position`](Self::position) lookup) is an upper
    /// bound on the true position, never rewritten for the tail behind a
    /// removal.
    pos_hint: Vec<u32>,
    /// Whether the maintained view changed (a job entered or left it, or a
    /// ready count moved) since the driver last cleared the flag. The
    /// production path clears it at each fresh allocation and replays the
    /// previous allocation while it stays `false`.
    pub(crate) view_changed: bool,
    /// Index of the next not-yet-arrived job.
    pub(crate) next_arrival: usize,
    /// Index of the first key of the instance's expiry order not yet
    /// passed (production path only).
    next_expiry: usize,
    #[cfg(test)]
    pub(crate) counts: CursorCounts,
    /// Σ profit of completed jobs.
    pub(crate) total_profit: u64,
    /// Free list of retired unfold states. Terminal transitions push here
    /// instead of dropping, and `admit_arrivals` pops + `reset_from`s (which
    /// also clears every claim bit), so an arrival storm is
    /// allocation-free once the pool reaches the high-water mark of
    /// concurrently alive jobs. A cold arrival allocates the one cell
    /// vector.
    pool: Vec<UnfoldState>,
}

impl Lifecycle {
    /// Fresh state for an instance of `n` jobs.
    pub(crate) fn new(n: usize) -> Lifecycle {
        let mut live: Vec<Option<UnfoldState>> = Vec::with_capacity(n);
        live.resize_with(n, || None);
        Lifecycle {
            live,
            outcomes: vec![JobStatus::Unfinished; n],
            alive: Vec::new(),
            view: Vec::new(),
            pos_hint: vec![0; n],
            view_changed: false,
            next_arrival: 0,
            next_expiry: 0,
            #[cfg(test)]
            counts: CursorCounts::default(),
            total_profit: 0,
            pool: Vec::new(),
        }
    }

    /// Pooled slots currently available for reuse (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Jobs currently alive, in arrival order.
    #[inline]
    pub fn alive(&self) -> &[JobId] {
        &self.alive
    }

    /// The maintained scheduler view: `(id, ready_count)` per alive job, in
    /// arrival order — what [`rebuild_view`](Self::rebuild_view) builds
    /// from scratch, kept current incrementally.
    #[inline]
    pub fn view(&self) -> &[(JobId, u32)] {
        &self.view
    }

    /// Rebuild the scheduler's tick view into `out` from the alive list:
    /// `(id, ready_count)` per alive job, in arrival order. O(alive); the
    /// naive reference path's handoff, and the specification the
    /// maintained [`view`](Self::view) is tested against.
    pub fn rebuild_view(&self, out: &mut Vec<(JobId, u32)>) {
        out.clear();
        for &id in &self.alive {
            let st = self.live[id.index()].as_ref().expect("alive implies live");
            out.push((id, st.ready_count() as u32));
        }
    }

    /// Re-read `id`'s ready count from its unfold state and patch the
    /// maintained view (flagging the change) if it moved.
    /// The driver calls this after a step's completion tick, for each job
    /// that finished a node there and goes on: node completions (which
    /// unlock successors) are the only thing that moves a ready count, and
    /// a step's quiet ticks complete none.
    pub(crate) fn patch_ready(&mut self, id: JobId) {
        let st = self.live[id.index()].as_ref().expect("patched job is live");
        let rc = st.ready_count() as u32;
        let pos = self.position(id);
        self.pos_hint[id.index()] = pos as u32;
        if self.view[pos].1 != rc {
            self.view[pos].1 = rc;
            self.view_changed = true;
        }
    }

    /// The position of alive `id` in `view` (and `alive`): its hint if the
    /// hint still points at it, else a binary search of the ascending ids
    /// below the hint. O(1) while no earlier job has left since the hint
    /// was written, O(log alive) otherwise.
    fn position(&self, id: JobId) -> usize {
        let hint = self.pos_hint[id.index()] as usize;
        match self.view.get(hint) {
            Some(&(at, _)) if at == id => hint,
            _ => self.view[..hint.min(self.view.len())]
                .binary_search_by_key(&id, |e| e.0)
                .expect("alive job is in the view"),
        }
    }

    /// Remove an ascending batch of alive ids from the maintained view in
    /// one ordered compaction pass that starts at the first removed
    /// position (used by the expiry transitions, which collect their batch
    /// sorted).
    fn remove_batch_from_view(&mut self, removed: &[JobId]) {
        let Some(&first) = removed.first() else {
            return;
        };
        self.view_changed = true;
        let from = self.position(first);
        compact(&mut self.view, from, removed, |&(id, _)| id);
    }

    /// Profit earned so far.
    #[inline]
    pub fn total_profit(&self) -> u64 {
        self.total_profit
    }

    /// Whether `id` is alive (bounds-checked: safe for scheduler-supplied
    /// ids).
    #[inline]
    pub fn is_alive(&self, id: JobId) -> bool {
        id.index() < self.live.len() && self.live[id.index()].is_some()
    }

    /// Whether `id` has reached a terminal outcome (completed or expired).
    /// A job that has not arrived yet is not terminal.
    #[inline]
    pub(crate) fn is_terminal(&self, id: JobId) -> bool {
        self.outcomes[id.index()] != JobStatus::Unfinished
    }

    /// Whether any job has yet to arrive.
    #[inline]
    pub(crate) fn pending_arrivals(&self) -> bool {
        self.next_arrival < self.live.len()
    }

    /// Materialize every job with `arrival ≤ t`, running the scheduler's
    /// and observer's arrival hooks in arrival order. Returns whether any
    /// job arrived (the driver drains admission decisions if so).
    pub(crate) fn admit_arrivals<O: SimObserver + ?Sized>(
        &mut self,
        jobs: &[JobSpec],
        t: Time,
        scale: u64,
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
    ) -> bool {
        let first = self.next_arrival;
        while self.next_arrival < jobs.len() && jobs[self.next_arrival].arrival <= t {
            let job = &jobs[self.next_arrival];
            let state = match self.pool.pop() {
                Some(mut recycled) => {
                    recycled.reset_from(job.dag.clone(), scale);
                    recycled
                }
                None => UnfoldState::new(job.dag.clone(), scale),
            };
            let ready0 = state.ready_count() as u32;
            self.live[job.id.index()] = Some(state);
            self.alive.push(job.id);
            self.pos_hint[job.id.index()] = self.view.len() as u32;
            self.view.push((job.id, ready0));
            self.view_changed = true;
            let info = JobInfo {
                id: job.id,
                arrival: job.arrival,
                work: job.work(),
                span: job.span(),
                profit: job.profit.clone(),
            };
            sched.on_arrival(&info, t);
            obs.on_job_arrival(t, &info);
            self.next_arrival += 1;
        }
        self.next_arrival > first
    }

    /// Abandon zero-tail jobs that can no longer earn anything even if they
    /// complete this very tick (completion time would be `t + 1`), running
    /// the expiry hooks. `expired` is scratch space: it holds this call's
    /// expired ids, in id order, and nothing reads it after the call.
    /// Returns whether any expired.
    pub(crate) fn expire_hopeless<O: SimObserver + ?Sized>(
        &mut self,
        jobs: &[JobSpec],
        t: Time,
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
        expired: &mut Vec<JobId>,
    ) -> bool {
        expired.clear();
        let live = &mut self.live;
        let outcomes = &mut self.outcomes;
        let pool = &mut self.pool;
        self.alive.retain(|&id| {
            let job = &jobs[id.index()];
            if job.profit.tail_value() == 0 && t >= job.last_useful_abs() {
                outcomes[id.index()] = JobStatus::Expired { at: t };
                if let Some(slot) = live[id.index()].take() {
                    pool.push(slot);
                }
                expired.push(id);
                false
            } else {
                true
            }
        });
        self.remove_batch_from_view(expired);
        for &id in expired.iter() {
            sched.on_expiry(id, t);
            obs.on_job_expired(t, id);
        }
        !expired.is_empty()
    }

    /// The earliest tick after the last admission at which a job arrives
    /// or a valid expiry key falls (see the [module docs](self)), or
    /// `None` when every job has arrived and no valid key is left. Moves
    /// the expiry cursor past the keys of terminal jobs.
    pub(crate) fn next_boundary(&mut self, inst: &Instance) -> Option<Time> {
        let keys = inst.expiry_order();
        let arrival = inst.jobs().get(self.next_arrival).map(|j| j.arrival);
        while let Some(&(at, job)) = keys.get(self.next_expiry) {
            if !self.is_terminal(job) {
                return Some(arrival.map_or(at, |a| a.min(at)));
            }
            self.next_expiry += 1;
            #[cfg(test)]
            {
                self.counts.skipped += 1;
            }
        }
        arrival
    }

    /// Indexed variant of [`expire_hopeless`](Self::expire_hopeless): pass
    /// every key of the instance's expiry order at or below `t`, expiring
    /// the jobs of the valid ones, instead of rescanning every alive job.
    /// O(due + keys passed) against the scan's O(alive); each key is passed
    /// once per run, and a step where nothing is due reads one key.
    ///
    /// Byte-identical to the scan by construction: due ids come out
    /// ascending, which *is* arrival order (see the [module docs](self)),
    /// so outcomes, pool pushes, and the expiry hooks all fire in the
    /// scan's order.
    pub(crate) fn expire_due<O: SimObserver + ?Sized>(
        &mut self,
        t: Time,
        inst: &Instance,
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
        expired: &mut Vec<JobId>,
    ) -> bool {
        expired.clear();
        let keys = inst.expiry_order();
        while let Some(&(at, job)) = keys.get(self.next_expiry) {
            if at > t {
                break;
            }
            self.next_expiry += 1;
            let due = !self.is_terminal(job);
            if due {
                debug_assert!(at == t, "a valid expiry is never in the past");
                expired.push(job);
            }
            #[cfg(test)]
            if due {
                self.counts.due += 1;
            } else {
                self.counts.skipped += 1;
            }
        }
        if expired.is_empty() {
            return false;
        }
        // `alive` and `expired` are both ascending, and `alive` runs
        // parallel to the view: one merge pass from the first expired
        // position.
        let from = self.position(expired[0]);
        compact(&mut self.alive, from, expired, |&id| id);
        self.remove_batch_from_view(expired);
        for &id in expired.iter() {
            self.outcomes[id.index()] = JobStatus::Expired { at: t };
            if let Some(slot) = self.live[id.index()].take() {
                self.pool.push(slot);
            }
        }
        for &id in expired.iter() {
            sched.on_expiry(id, t);
            obs.on_job_expired(t, id);
        }
        true
    }

    /// Release every claim in `claims` (the execution round's claim list),
    /// leaving it empty. The round releases before any job leaves, so
    /// every claimed job is live.
    pub(crate) fn release_claims(&mut self, claims: &mut Vec<(JobId, NodeId)>) {
        for (id, node) in claims.drain(..) {
            self.live[id.index()]
                .as_mut()
                .expect("claimed jobs are live")
                .release(node);
        }
    }

    /// Retire `completions` at `t_done`, paying each job's profit function
    /// at its relative completion time and running the completion hooks.
    pub(crate) fn complete<O: SimObserver + ?Sized>(
        &mut self,
        jobs: &[JobSpec],
        t_done: Time,
        completions: &[JobId],
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
    ) {
        for &id in completions {
            let job = &jobs[id.index()];
            let rel = Time(t_done.since(job.arrival));
            let profit = job.profit.eval(rel);
            self.total_profit += profit;
            self.outcomes[id.index()] = JobStatus::Completed { at: t_done, profit };
            if let Some(slot) = self.live[id.index()].take() {
                self.pool.push(slot);
            }
            // `alive` and `view` are parallel, so one lookup gives the
            // position in both: two memmoves of the tail behind it.
            let pos = self.position(id);
            self.alive.remove(pos);
            self.view.remove(pos);
            self.view_changed = true;
            sched.on_completion(id, t_done);
            obs.on_job_complete(t_done, id, profit);
        }
    }
}

/// Drop the ascending `removed` ids from `list[from..]`, keeping the order
/// of the rest; every removed id must be there.
fn compact<T: Copy>(list: &mut Vec<T>, from: usize, removed: &[JobId], id: impl Fn(&T) -> JobId) {
    let mut next = 0;
    let mut w = from;
    for r in from..list.len() {
        let e = list[r];
        if next < removed.len() && removed[next] == id(&e) {
            next += 1;
        } else {
            list[w] = e;
            w += 1;
        }
    }
    debug_assert_eq!(next, removed.len(), "every removed id was in the list");
    list.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;
    use crate::sched_api::{Allocation, TickView};
    use dagsched_dag::gen;
    use dagsched_workload::StepProfitFn;

    struct NopSched;
    impl OnlineScheduler for NopSched {
        fn name(&self) -> String {
            "nop".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
            Vec::new()
        }
    }

    #[test]
    fn terminal_transitions_recycle_live_slots() {
        let dag = gen::chain(3, 2).into_shared();
        let jobs: Vec<JobSpec> = (0..4u32)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    Time(u64::from(i)),
                    dag.clone(),
                    StepProfitFn::deadline(Time(1), 10),
                )
            })
            .collect();
        let mut lc = Lifecycle::new(jobs.len());
        let mut sched = NopSched;
        let mut obs = NullObserver;
        let mut expired = Vec::new();

        // Admit the first two jobs: pool empty, both slots fresh.
        assert!(lc.admit_arrivals(&jobs, Time(1), 1, &mut sched, &mut obs));
        assert_eq!(lc.pool_len(), 0);

        // Complete job 0 while its head node is still claimed (the driver
        // never retires a claimed state, but the pool must not depend on
        // it): the slot must land in the pool, not be dropped.
        lc.live[0].as_mut().expect("job 0 alive").claim(NodeId(0));
        lc.complete(&jobs, Time(1), &[JobId(0)], &mut sched, &mut obs);
        assert_eq!(lc.pool_len(), 1);

        // Job 2 arrives and must consume the pooled slot, with no claim
        // surviving the reset.
        assert!(lc.admit_arrivals(&jobs, Time(2), 1, &mut sched, &mut obs));
        assert_eq!(lc.pool_len(), 0);
        let st = lc.live[2].as_ref().expect("job 2 alive");
        assert_eq!(st.spec().num_nodes(), 3);
        assert!((0..3).all(|v| !st.is_claimed(NodeId(v))));
        assert_eq!(st.ready_count(), 1);
        assert_eq!(st.remaining_total(), dag.total_work());

        // Deadline 1 relative to arrival: by a late enough tick every alive
        // job (1 and 2) is hopeless; both slots return to the pool.
        lc.expire_hopeless(&jobs, Time(100), &mut sched, &mut obs, &mut expired);
        assert_eq!(expired.len(), 2);
        assert!(lc.alive().is_empty());
        assert_eq!(lc.pool_len(), 2);
    }

    /// An instance of one-node zero-tail jobs `(arrival, deadline)`, ids
    /// in list order; job `i`'s expiry key is `(arrival + deadline, i)`.
    fn deadline_jobs(list: &[(u64, u64)]) -> Instance {
        let dag = gen::single(1).into_shared();
        let jobs = list
            .iter()
            .enumerate()
            .map(|(i, &(r, d))| {
                JobSpec::new(
                    JobId(i as u32),
                    Time(r),
                    dag.clone(),
                    StepProfitFn::deadline(Time(d), 2),
                )
            })
            .collect();
        Instance::new(1, jobs).unwrap()
    }

    /// Admit every job of `inst` by `t` into `lc`.
    fn admit(lc: &mut Lifecycle, inst: &Instance, t: u64) {
        lc.admit_arrivals(inst.jobs(), Time(t), 1, &mut NopSched, &mut NullObserver);
    }

    /// The ids `expire_due` expires at `t`.
    fn due(lc: &mut Lifecycle, inst: &Instance, t: u64) -> Vec<JobId> {
        let mut expired = Vec::new();
        lc.expire_due(
            Time(t),
            inst,
            &mut NopSched,
            &mut NullObserver,
            &mut expired,
        );
        expired
    }

    #[test]
    fn tie_break_orders_time_then_job() {
        // Keys (4, 2), (5, 0), (5, 1): equal times break by ascending id,
        // so due expiries at one tick come out in arrival order.
        let inst = deadline_jobs(&[(0, 5), (0, 5), (0, 4)]);
        let mut lc = Lifecycle::new(3);
        admit(&mut lc, &inst, 0);
        assert_eq!(due(&mut lc, &inst, 4), vec![JobId(2)]);
        assert_eq!(due(&mut lc, &inst, 5), vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn terminal_jobs_keys_are_skipped() {
        // A terminal job's key no longer bounds the next boundary, and the
        // cursor passes it for good.
        let inst = deadline_jobs(&[(0, 7), (0, 12)]);
        let mut lc = Lifecycle::new(2);
        admit(&mut lc, &inst, 0);
        assert_eq!(lc.next_boundary(&inst), Some(Time(7)));
        lc.complete(
            inst.jobs(),
            Time(2),
            &[JobId(0)],
            &mut NopSched,
            &mut NullObserver,
        );
        assert_eq!(lc.next_boundary(&inst), Some(Time(12)));
        lc.complete(
            inst.jobs(),
            Time(2),
            &[JobId(1)],
            &mut NopSched,
            &mut NullObserver,
        );
        assert_eq!(lc.next_boundary(&inst), None, "only the horizon remains");
        assert_eq!(lc.counts, CursorCounts { due: 0, skipped: 2 });
    }

    #[test]
    fn expire_due_collects_expiries_in_id_order_once() {
        // Job 1 completed before its boundary; job 3 is not yet due.
        let inst = deadline_jobs(&[(0, 5), (0, 5), (0, 5), (0, 30)]);
        let mut lc = Lifecycle::new(4);
        admit(&mut lc, &inst, 0);
        lc.complete(
            inst.jobs(),
            Time(3),
            &[JobId(1)],
            &mut NopSched,
            &mut NullObserver,
        );
        assert_eq!(
            due(&mut lc, &inst, 5),
            vec![JobId(0), JobId(2)],
            "ascending id = arrival order"
        );
        // Expiring again at the same t: the cursor is past them.
        assert!(due(&mut lc, &inst, 5).is_empty());
        assert_eq!(due(&mut lc, &inst, 30), vec![JobId(3)]);
        assert_eq!(lc.counts, CursorCounts { due: 3, skipped: 1 });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random instances (zero-tail and, for `kind == 0`, tail jobs;
        /// equal expiry times) run as the driver runs them: admit
        /// arrivals, expire due jobs, complete a random alive job, then
        /// jump to a random tick before the next boundary. At every query
        /// the due set and the next boundary (capped at the horizon) equal
        /// a brute-force mirror of the naive scan over the alive jobs, and
        /// no key is passed twice.
        #[test]
        fn cursor_matches_the_naive_scan_on_random_instances(
            mut specs in proptest::collection::vec((0u64..12, 1u64..10, 0u8..3), 1..24),
            marks in proptest::collection::vec((0u32..24, 0u64..100), 0..40),
            horizon in 1u64..40,
        ) {
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
                    JobSpec::new(JobId(i as u32), Time(r), gen::single(1).into_shared(), profit)
                })
                .collect();
            let inst = Instance::new(1, jobs).unwrap();
            let jobs = inst.jobs();
            let n = jobs.len();
            let horizon = Time(horizon);
            let mut lc = Lifecycle::new(n);
            let (mut next_arrival, mut alive) = (0, vec![false; n]);
            let mut marks = marks.iter();
            let mut t = jobs[0].arrival;
            while t < horizon {
                admit(&mut lc, &inst, t.0);
                while next_arrival < n && jobs[next_arrival].arrival <= t {
                    alive[next_arrival] = true;
                    next_arrival += 1;
                }
                let got = due(&mut lc, &inst, t.0);
                let want: Vec<JobId> = (0..n)
                    .filter(|&i| {
                        alive[i] && jobs[i].profit.tail_value() == 0 && t >= jobs[i].last_useful_abs()
                    })
                    .map(|i| JobId(i as u32))
                    .collect();
                prop_assert_eq!(got.clone(), want, "due set diverges at t={}", t.0);
                for j in &got {
                    alive[j.index()] = false;
                }
                let (job, step) = marks.next().copied().unwrap_or((u32::MAX, 1));
                if let Some(a) = alive.get_mut(job as usize).filter(|a| **a) {
                    *a = false;
                    lc.complete(jobs, t.after(1), &[JobId(job)], &mut NopSched, &mut NullObserver);
                }
                let next = (0..n)
                    .filter(|&i| alive[i] && jobs[i].profit.tail_value() == 0)
                    .map(|i| jobs[i].last_useful_abs())
                    .chain(jobs.get(next_arrival).map(|j| j.arrival))
                    .fold(horizon, Time::min);
                let w = lc.next_boundary(&inst).map_or(horizon, |b| b.min(horizon)).since(t);
                prop_assert_eq!(w, next.since(t), "next boundary diverges at t={}", t.0);
                prop_assert!(w > 0);
                t = Time(t.0 + 1 + step % w);
            }
            let passed = lc.counts.due + lc.counts.skipped;
            prop_assert!(passed as usize <= inst.expiry_order().len());
        }
    }

    #[test]
    fn maintained_view_compacts_in_arrival_order_and_flags_changes() {
        let dag = gen::chain(3, 2).into_shared();
        let jobs: Vec<JobSpec> = (0..4u32)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    Time(0),
                    dag.clone(),
                    StepProfitFn::deadline(Time(1000), 10),
                )
            })
            .collect();
        let mut lc = Lifecycle::new(jobs.len());
        let mut sched = NopSched;
        let mut obs = NullObserver;

        // All four admit at once: the view lists them in arrival (id) order
        // with their initial ready counts, and the change is flagged.
        assert!(lc.admit_arrivals(&jobs, Time(0), 1, &mut sched, &mut obs));
        let expect: Vec<(JobId, u32)> = (0..4).map(|i| (JobId(i), 1)).collect();
        assert_eq!(lc.view(), &expect[..]);
        assert!(lc.view_changed);
        lc.view_changed = false;

        // Remove the middle job: ordered compaction, not swap-remove — the
        // tail keeps arrival order.
        lc.complete(&jobs, Time(1), &[JobId(1)], &mut sched, &mut obs);
        assert_eq!(
            lc.view(),
            &[(JobId(0), 1), (JobId(2), 1), (JobId(3), 1)],
            "compaction preserves arrival order"
        );
        assert!(lc.view_changed);
        lc.view_changed = false;

        // Patch a ready count in place: flagged only on change.
        lc.patch_ready(JobId(2));
        assert!(
            !lc.view_changed,
            "unchanged ready count must not be flagged"
        );

        // Removing the head compacts the remaining two, again in order.
        lc.complete(&jobs, Time(2), &[JobId(0)], &mut sched, &mut obs);
        assert_eq!(lc.view(), &[(JobId(2), 1), (JobId(3), 1)]);
        assert!(lc.view_changed);
        lc.view_changed = false;

        // An expiry scan that finds nothing due leaves the flag alone; one
        // that expires the rest sets it.
        let mut expired = Vec::new();
        lc.expire_hopeless(&jobs, Time(3), &mut sched, &mut obs, &mut expired);
        assert!(expired.is_empty() && !lc.view_changed);
        lc.expire_hopeless(&jobs, Time(5000), &mut sched, &mut obs, &mut expired);
        assert_eq!(expired, vec![JobId(2), JobId(3)]);
        assert!(lc.view().is_empty() && lc.view_changed);
    }
}
