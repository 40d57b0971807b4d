//! The lifecycle layer: the arrival → (expiry | completion) state machine.
//!
//! A [`Lifecycle`] owns every per-job state the engine keeps — the dense
//! slab of unfolded DAG states (`Live`), the arrival cursor, the alive
//! list (always in arrival order), terminal outcomes, and earned profit —
//! and the three transitions a job can make:
//!
//! * `admit_arrivals` materializes every job
//!   with `arrival ≤ t` and runs the scheduler's and observer's arrival
//!   hooks;
//! * `expire_hopeless` abandons zero-tail jobs
//!   past their last useful moment (the reference path's O(alive) scan;
//!   the production path pulls the due ids from the event kernel via
//!   `expire_hopeless_indexed`);
//! * `complete` retires jobs whose last node
//!   finished, paying `p(t_done − r)`.
//!
//! The scheduler and observer hooks fire *inside* the transition methods so
//! that the ordering contract of [`observe`](crate::observe) is enforced in
//! exactly one place.

use crate::observe::SimObserver;
use crate::result::JobStatus;
use crate::sched_api::{JobInfo, OnlineScheduler, ViewDelta};
use dagsched_core::{JobId, Time};
use dagsched_dag::UnfoldState;
use dagsched_workload::JobSpec;

/// Sentinel slot index for "not in the view".
const NO_SLOT: u32 = u32::MAX;

/// Per-alive-job engine bookkeeping.
pub(crate) struct Live {
    /// Unfolded DAG execution state.
    pub(crate) state: UnfoldState,
    /// Nodes claimed by a processor in the current tick (dense by node id);
    /// cleared via `dirty` after the tick.
    pub(crate) busy: Vec<bool>,
    pub(crate) dirty: Vec<u32>,
}

impl Live {
    /// Release every node claimed this tick (the single place the
    /// busy/dirty scratch pair is unwound).
    #[inline]
    pub(crate) fn release_claims(&mut self) {
        for d in self.dirty.drain(..) {
            self.busy[d as usize] = false;
        }
    }
}

/// The per-job state machine of one run. See the [module docs](self).
pub struct Lifecycle {
    /// Live execution state, dense by job index (`None` = not arrived or
    /// already terminal).
    pub(crate) live: Vec<Option<Live>>,
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
    /// Dense id → view/alive position map (`NO_SLOT` = not in the view).
    slot: Vec<u32>,
    /// View changes accumulated since the scheduler last allocated. The
    /// driver hands this to `allocate_delta` and clears it.
    pub(crate) delta: ViewDelta,
    /// Index of the next not-yet-arrived job.
    pub(crate) next_arrival: usize,
    /// Σ profit of completed jobs.
    pub(crate) total_profit: u64,
    /// Free list of retired [`Live`] slots. Terminal transitions push here
    /// instead of dropping, and `admit_arrivals` pops + `reset_from`s, so an
    /// arrival storm is allocation-free once the pool reaches the high-water
    /// mark of concurrently alive jobs.
    pool: Vec<Live>,
}

impl Lifecycle {
    /// Fresh state for an instance of `n` jobs.
    pub(crate) fn new(n: usize) -> Lifecycle {
        let mut live: Vec<Option<Live>> = Vec::with_capacity(n);
        live.resize_with(n, || None);
        Lifecycle {
            live,
            outcomes: vec![JobStatus::Unfinished; n],
            alive: Vec::new(),
            view: Vec::new(),
            slot: vec![NO_SLOT; n],
            delta: ViewDelta::default(),
            next_arrival: 0,
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
            let l = self.live[id.index()].as_ref().expect("alive implies live");
            out.push((id, l.state.ready_count() as u32));
        }
    }

    /// Re-read `id`'s ready count from its unfold state and patch the
    /// maintained view (recording the change in the delta) if it moved.
    /// The driver calls this after the reference execution path, the only
    /// place a ready count can change (node completions unlock successors);
    /// bulk fast-forward windows never complete a node, so they never need
    /// a patch.
    pub(crate) fn patch_ready(&mut self, id: JobId) {
        let l = self.live[id.index()].as_ref().expect("patched job is live");
        let rc = l.state.ready_count() as u32;
        let pos = self.slot[id.index()] as usize;
        debug_assert!(pos != NO_SLOT as usize, "patched job is in the view");
        if self.view[pos].1 != rc {
            self.view[pos].1 = rc;
            self.delta.ready_changed.push((id, rc));
        }
    }

    /// Remove `id` from the maintained view by ordered compaction (the
    /// entries behind it shift left one slot), recording the removal in the
    /// delta. O(tail behind the removed position).
    fn remove_from_view(&mut self, id: JobId) {
        let pos = self.slot[id.index()] as usize;
        debug_assert_eq!(self.view[pos].0, id, "slot map points at its job");
        self.view.remove(pos);
        self.slot[id.index()] = NO_SLOT;
        for j in pos..self.view.len() {
            self.slot[self.view[j].0.index()] = j as u32;
        }
        self.delta.removed.push(id);
    }

    /// Remove an ascending batch of ids from the maintained view in one
    /// compaction pass (the batched form of
    /// [`remove_from_view`](Self::remove_from_view), used by the expiry
    /// transitions which already collect their batch sorted).
    fn remove_batch_from_view(&mut self, removed: &[JobId]) {
        if removed.is_empty() {
            return;
        }
        let first = self.slot[removed[0].index()] as usize;
        let mut next = 0;
        let mut w = first;
        for r in first..self.view.len() {
            let (id, rc) = self.view[r];
            if next < removed.len() && removed[next] == id {
                next += 1;
                self.slot[id.index()] = NO_SLOT;
                self.delta.removed.push(id);
            } else {
                self.slot[id.index()] = w as u32;
                self.view[w] = (id, rc);
                w += 1;
            }
        }
        debug_assert_eq!(next, removed.len(), "every removed id was in the view");
        self.view.truncate(w);
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
            let mut slot = match self.pool.pop() {
                Some(mut recycled) => {
                    recycled.state.reset_from(job.dag.clone(), scale);
                    recycled
                }
                None => Live {
                    state: UnfoldState::new(job.dag.clone(), scale),
                    busy: Vec::new(),
                    dirty: Vec::new(),
                },
            };
            let nodes = slot.state.spec().num_nodes();
            slot.busy.clear();
            slot.busy.resize(nodes, false);
            slot.dirty.clear();
            let ready0 = slot.state.ready_count() as u32;
            self.live[job.id.index()] = Some(slot);
            self.alive.push(job.id);
            self.slot[job.id.index()] = self.view.len() as u32;
            self.view.push((job.id, ready0));
            self.delta.admitted.push((job.id, ready0));
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
    /// the expiry hooks. The expired ids are left in `expired` for the
    /// driver's fast-forward boundary logic. Returns whether any expired.
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

    /// Indexed variant of [`expire_hopeless`](Self::expire_hopeless): pull
    /// the due expiries from the kernel's sorted boundary index instead of
    /// rescanning every alive job. O(due · log n) against the scan's
    /// O(alive) — and O(1) on the (typical) step where nothing is due.
    ///
    /// Byte-identical to the scan by construction: the kernel returns due
    /// ids ascending, which *is* arrival order (instance ids are assigned
    /// in arrival order), so outcomes, pool pushes, and the expiry hooks
    /// all fire in the scan's order.
    pub(crate) fn expire_hopeless_indexed<O: SimObserver + ?Sized>(
        &mut self,
        t: Time,
        kernel: &mut crate::events::EventKernel,
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
        expired: &mut Vec<JobId>,
    ) -> bool {
        expired.clear();
        kernel.pop_due_expiries(t, expired);
        if expired.is_empty() {
            return false;
        }
        // `alive` and `expired` are both ascending: one merge pass.
        let mut next = 0;
        self.alive.retain(|&id| {
            if next < expired.len() && expired[next] == id {
                next += 1;
                false
            } else {
                true
            }
        });
        debug_assert_eq!(next, expired.len(), "every due expiry must be alive");
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
            // `alive` and `view` are parallel, so the slot map gives the
            // position in both: an O(tail) positional remove where the old
            // `retain(|&a| a != id)` rescanned the whole alive list.
            let pos = self.slot[id.index()] as usize;
            self.alive.remove(pos);
            self.remove_from_view(id);
            sched.on_completion(id, t_done);
            obs.on_job_complete(t_done, id, profit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;
    use crate::sched_api::{Allocation, TickView};
    use dagsched_core::{JobId, Time};
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

        // Complete job 0: its slot must land in the pool, not be dropped.
        lc.complete(&jobs, Time(1), &[JobId(0)], &mut sched, &mut obs);
        assert_eq!(lc.pool_len(), 1);

        // Job 2 arrives and must consume the pooled slot.
        assert!(lc.admit_arrivals(&jobs, Time(2), 1, &mut sched, &mut obs));
        assert_eq!(lc.pool_len(), 0);
        let l = lc.live[2].as_ref().expect("job 2 alive");
        assert_eq!(l.busy.len(), 3);
        assert!(l.busy.iter().all(|&b| !b));
        assert!(l.dirty.is_empty());
        assert_eq!(l.state.ready_count(), 1);
        assert_eq!(l.state.remaining_total(), dag.total_work());

        // Deadline 1 relative to arrival: by a late enough tick every alive
        // job (1 and 2) is hopeless; both slots return to the pool.
        lc.expire_hopeless(&jobs, Time(100), &mut sched, &mut obs, &mut expired);
        assert_eq!(expired.len(), 2);
        assert!(lc.alive().is_empty());
        assert_eq!(lc.pool_len(), 2);
    }

    #[test]
    fn maintained_view_compacts_in_arrival_order_and_records_deltas() {
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
        // with their initial ready counts, and the delta mirrors it.
        assert!(lc.admit_arrivals(&jobs, Time(0), 1, &mut sched, &mut obs));
        let expect: Vec<(JobId, u32)> = (0..4).map(|i| (JobId(i), 1)).collect();
        assert_eq!(lc.view(), &expect[..]);
        assert_eq!(lc.delta.admitted, expect);
        assert!(lc.delta.removed.is_empty() && lc.delta.ready_changed.is_empty());
        lc.delta.clear();

        // Remove the middle job: ordered compaction, not swap-remove — the
        // tail keeps arrival order, and the slot map follows it.
        lc.complete(&jobs, Time(1), &[JobId(1)], &mut sched, &mut obs);
        assert_eq!(
            lc.view(),
            &[(JobId(0), 1), (JobId(2), 1), (JobId(3), 1)],
            "compaction preserves arrival order"
        );
        assert_eq!(lc.delta.removed, vec![JobId(1)]);
        lc.delta.clear();

        // Patch a ready count in place: recorded once, and only on change.
        lc.patch_ready(JobId(2));
        assert!(
            lc.delta.ready_changed.is_empty(),
            "unchanged ready count must not be recorded"
        );

        // Removing the head compacts the remaining two, again in order.
        lc.complete(&jobs, Time(2), &[JobId(0)], &mut sched, &mut obs);
        assert_eq!(lc.view(), &[(JobId(2), 1), (JobId(3), 1)]);
        assert_eq!(lc.delta.removed, vec![JobId(0)]);
    }
}
