//! The lifecycle layer: the arrival → (expiry | completion) state machine.
//!
//! A [`Lifecycle`] owns every per-job state the engine keeps — the dense
//! slab of unfolded DAG states (one [`UnfoldState`] per alive job, whose
//! single cell vector also carries the execution round's node claims), the
//! arrival cursor, the alive list (always in arrival order), terminal
//! outcomes, and earned profit — and the three transitions a job can make:
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
use crate::sched_api::{JobInfo, OnlineScheduler};
use dagsched_core::{JobId, NodeId, Time};
use dagsched_dag::UnfoldState;
use dagsched_workload::JobSpec;

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
    /// Σ profit of completed jobs.
    pub(crate) total_profit: u64,
    /// Free list of retired unfold states. Terminal transitions push here
    /// instead of dropping, and `admit_arrivals` pops + `reset_from`s (which
    /// also clears any claim a held window left), so an arrival storm is
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
    /// The driver calls this after the reference execution path, the only
    /// place a ready count can change (node completions unlock successors);
    /// bulk fast-forward windows never complete a node, so they never need
    /// a patch.
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
    /// the due expiries from the kernel's cursor over the instance's sorted
    /// `expiry_keys` instead of rescanning every alive job. O(due + keys
    /// passed) against the scan's O(alive); each key is passed once per
    /// run, and a step where nothing is due reads one key.
    ///
    /// Byte-identical to the scan by construction: the kernel returns due
    /// ids ascending, which *is* arrival order (instance ids are assigned
    /// in arrival order), so outcomes, pool pushes, and the expiry hooks
    /// all fire in the scan's order.
    pub(crate) fn expire_hopeless_indexed<O: SimObserver + ?Sized>(
        &mut self,
        t: Time,
        kernel: &mut crate::events::EventKernel,
        expiry_keys: &[(Time, JobId)],
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
        expired: &mut Vec<JobId>,
    ) -> bool {
        expired.clear();
        kernel.pop_due_expiries(t, expiry_keys, |id| self.is_terminal(id), expired);
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

    /// Release every claim in `claims` (the driver's run-wide claim list),
    /// leaving it empty. A job that expired since its nodes were claimed is
    /// skipped: its pooled state clears every claim when it is reset.
    pub(crate) fn release_claims(&mut self, claims: &mut Vec<(JobId, NodeId)>) {
        for (id, node) in claims.drain(..) {
            if let Some(st) = self.live[id.index()].as_mut() {
                st.release(node);
            }
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

        // Complete job 0 while its head node is still claimed (as a job
        // expiring inside a held window leaves its state): the slot must
        // land in the pool, not be dropped.
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
