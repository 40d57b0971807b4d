//! The semi-non-clairvoyant scheduler interface.
//!
//! This trait is the enforcement point of the paper's information model:
//! everything a scheduler can learn about a job flows through [`JobInfo`]
//! (arrival-time knowledge: `W`, `L`, the profit function) and
//! [`TickView`] (per-tick knowledge: which started jobs are alive and how
//! many ready nodes each has). The DAG structure itself is never exposed.

use crate::observe::AdmissionEvent;
use dagsched_core::{JobId, MachineGroups, Time, Work};
use dagsched_workload::StepProfitFn;

/// What a semi-non-clairvoyant scheduler learns when a job arrives.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// The job's id (index into the instance).
    pub id: JobId,
    /// Release time `r_i`.
    pub arrival: Time,
    /// Total work `W_i`.
    pub work: Work,
    /// Critical-path length `L_i`.
    pub span: Work,
    /// The profit function `p_i(·)` over relative completion time.
    pub profit: StepProfitFn,
}

impl JobInfo {
    /// Relative deadline for throughput (single-step) jobs.
    pub fn rel_deadline(&self) -> Option<Time> {
        self.profit.as_deadline().map(|(d, _)| d)
    }

    /// Absolute deadline for throughput jobs.
    pub fn abs_deadline(&self) -> Option<Time> {
        self.rel_deadline()
            .map(|d| self.arrival.saturating_add(d.ticks()))
    }
}

/// Per-tick view of the system state offered to [`OnlineScheduler::allocate`].
///
/// `jobs` holds `(id, ready_count)` for every job that has arrived, is not
/// finished, and has not expired — in arrival order.
#[derive(Debug)]
pub struct TickView<'a> {
    /// Machine size.
    pub m: u32,
    /// Current tick.
    pub now: Time,
    jobs: &'a [(JobId, u32)],
    groups: Option<&'a MachineGroups>,
}

impl<'a> TickView<'a> {
    /// Construct a view (used by the engine and by scheduler unit tests).
    ///
    /// `jobs` must list strictly ascending ids, as engine-built views do:
    /// [`ready_count`](Self::ready_count) binary-searches them.
    pub fn new(m: u32, now: Time, jobs: &'a [(JobId, u32)]) -> TickView<'a> {
        debug_assert!(
            jobs.windows(2).all(|w| w[0].0 < w[1].0),
            "tick view ids must strictly ascend"
        );
        TickView {
            m,
            now,
            jobs,
            groups: None,
        }
    }

    /// Attach the platform's machine-group description (engine-built views
    /// always carry it; hand-built test views may omit it).
    pub fn with_groups(mut self, groups: &'a MachineGroups) -> TickView<'a> {
        self.groups = Some(groups);
        self
    }

    /// The platform's machine groups, if attached. Aggregate-blind
    /// schedulers never need this — `m` is the total over all groups.
    pub fn groups(&self) -> Option<&'a MachineGroups> {
        self.groups
    }

    /// Alive jobs as `(id, ready_node_count)`, in arrival order.
    pub fn jobs(&self) -> &[(JobId, u32)] {
        self.jobs
    }

    /// Ready-node count of one job (`None` if it is not alive).
    ///
    /// O(log n) by binary search: engine-built views list jobs in arrival
    /// order, and [`Instance::new`](dagsched_workload::Instance::new)
    /// guarantees ids are assigned in arrival order, so `jobs` is ascending
    /// by id ([`new`](Self::new) asserts it in debug builds). This is how
    /// every shipped scheduler that keeps its own order reads ready
    /// counts; the arrival-order ones walk [`jobs`](Self::jobs). None keeps
    /// a copy of the view.
    pub fn ready_count(&self, id: JobId) -> Option<u32> {
        self.jobs
            .binary_search_by_key(&id, |&(j, _)| j)
            .ok()
            .map(|i| self.jobs[i].1)
    }
}

/// A processor assignment for one tick: `(job, processor count)` pairs.
///
/// The engine validates that the job is alive, every count is ≥ 1 and the
/// total does not exceed `m`. Assigning more processors than a job has
/// ready nodes is legal — the surplus idles (exactly the paper's model,
/// where S always hands a job its full allotment `n_i`).
pub type Allocation = Vec<(JobId, u32)>;

/// What changed in the [`TickView`] between two allocate calls: the
/// argument of [`OnlineScheduler::allocate_delta`].
///
/// Retained for API compatibility; **the engine no longer builds or passes
/// it.** The production path replays the previous allocation itself
/// when the view has not changed (see
/// [`allocate_into`](OnlineScheduler::allocate_into)), and schedulers read
/// ready counts from the view with [`TickView::ready_count`].
///
/// One job id appears in at most one of the three lists, except that a job
/// admitted (or patched) and then removed before the next allocate appears
/// in `removed` as well: applying the lists in the order `admitted` →
/// `ready_changed` → `removed` yields the net effect.
#[derive(Debug, Clone, Default)]
pub struct ViewDelta {
    /// Jobs that entered the view: `(id, initial ready count)`, in
    /// admission (= arrival = ascending id) order.
    pub admitted: Vec<(JobId, u32)>,
    /// Jobs that left the view (completed or expired), ascending per batch.
    pub removed: Vec<JobId>,
    /// Jobs whose ready count changed in place: `(id, new ready count)`.
    pub ready_changed: Vec<(JobId, u32)>,
}

/// An online scheduler driving the engine.
///
/// The engine calls the three event hooks as the simulation unfolds and
/// [`allocate`](OnlineScheduler::allocate) once per tick. Implementations
/// must be deterministic given their construction parameters — all
/// experiment reproducibility rests on that.
pub trait OnlineScheduler {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// A new job arrived (called before `allocate` of the same tick).
    fn on_arrival(&mut self, job: &JobInfo, now: Time);

    /// A job completed during the previous tick (called before `allocate`).
    fn on_completion(&mut self, id: JobId, now: Time);

    /// A deadline job can no longer earn above its tail and was abandoned.
    fn on_expiry(&mut self, id: JobId, now: Time);

    /// Decide this tick's processor assignment.
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation;

    /// Buffer-reusing variant of [`allocate`](Self::allocate): write this
    /// tick's assignment into `out` instead of returning a fresh vector.
    ///
    /// This is the one allocation call the engine makes, on both paths. It
    /// hoists one `Allocation` buffer across the whole run, so schedulers
    /// that override this (and otherwise keep allocation off their event
    /// path) decide each tick without touching the allocator.
    /// Implementations must leave `out` holding exactly what `allocate`
    /// would have returned — the default clears `out` and delegates, so
    /// overriders must also start from `out.clear()` and must not read
    /// stale contents.
    ///
    /// The naive reference path
    /// ([`SimConfig::fast_forward`](crate::SimConfig) off) calls this every
    /// tick on a rebuilt view. The production path calls it only when the
    /// previous allocation may have gone stale: the view changed since the
    /// last call (an arrival, a completion, an expiry, or a ready count
    /// moved), or `now` left that call's stability window (see
    /// [`allocation_stable_between_events`](Self::allocation_stable_between_events)
    /// and [`bounded_stability`](Self::bounded_stability)). Otherwise it
    /// replays the previous `out` unchanged. A scheduler that declares
    /// neither stability is asked every step.
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        let alloc = self.allocate(view);
        out.extend_from_slice(&alloc);
    }

    /// Retained for API compatibility; **the engine no longer calls it.**
    ///
    /// It once let a scheduler patch its previous allocation from a
    /// [`ViewDelta`] and replay it when nothing changed. The engine does
    /// the replay itself (see [`allocate_into`](Self::allocate_into)), so
    /// an override is never reached. The default declines (`false`).
    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        let _ = (delta, view, out);
        false
    }

    /// Declare that this scheduler's allocation is *stable between events*,
    /// unlocking the engine's event-driven fast-forward path.
    ///
    /// Returning `true` is a contract: between two consecutive *events* —
    /// an arrival, a completion, an expiry, or any change to a job's ready
    /// count — repeated [`allocate`](Self::allocate) calls on views that
    /// differ only in [`TickView::now`] must
    ///
    /// 1. return the same [`Allocation`] (same pairs, same order),
    /// 2. be free of observable side effects (no per-call internal state
    ///    such as RNG draws, counters, or time-keyed queues), and
    /// 3. not depend on `view.now` other than through the event hooks.
    ///
    /// When this holds, the production path asks the scheduler once per
    /// change of the view and replays that allocation until the next
    /// change, and (with a deterministic pick policy) bulk-advances the
    /// claimed nodes across the whole inter-event window — identical
    /// results, O(events) instead of O(ticks). Schedulers that cannot
    /// promise this (e.g. randomized per-tick orders, or profit-curve
    /// trackers keyed on absolute time) keep the default `false` and are
    /// asked every tick.
    fn allocation_stable_between_events(&self) -> bool {
        false
    }

    /// Retained for API compatibility; **the engine no longer reads it.**
    ///
    /// It once selected whether the event kernel kept per-node completion
    /// entries for this scheduler. The kernel now holds only arrival,
    /// expiry and horizon boundaries, and the driver folds the nearest
    /// completion in its claim pass for every scheduler. The default
    /// forwards to
    /// [`allocation_stable_between_events`](Self::allocation_stable_between_events);
    /// there is no reason to override it.
    fn completion_keys_stable(&self) -> bool {
        self.allocation_stable_between_events()
    }

    /// Declare *bounded* stability: the allocation is stable between events
    /// **and** plan boundaries, with the boundaries reported per tick via
    /// [`stable_until`](Self::stable_until).
    ///
    /// This is the weaker sibling of
    /// [`allocation_stable_between_events`](Self::allocation_stable_between_events)
    /// for schedulers whose plan is *piecewise*-constant in `view.now` — a
    /// slot plan, a quantum rotation — rather than constant outright.
    /// Returning `true` is a contract: for every tick `t`, with no event
    /// hook firing in between, repeated `allocate` calls on views with
    /// `now ∈ [t, stable_until(t))` must satisfy the same three points as
    /// full stability (same allocation, no observable side effects, no
    /// other `now` dependence). The production path then replays the
    /// allocation decided at `t` while the view is unchanged and
    /// `now < stable_until(t)`, and fast-forwards in windows capped by
    /// `stable_until` instead of single ticks.
    ///
    /// Full stability subsumes this: schedulers returning `true` from
    /// `allocation_stable_between_events` are never asked. The default
    /// `false` keeps `now`-dependent schedulers on the per-tick path.
    fn bounded_stability(&self) -> bool {
        false
    }

    /// The end of the current stability window: the allocation decided at
    /// `now` stays valid (absent events) for every tick in
    /// `[now, stable_until(now))`.
    ///
    /// Only consulted when [`bounded_stability`](Self::bounded_stability)
    /// returns `true`: after each fresh allocation on the production path
    /// (to end its replay window) and once per fast-forward step. `None`
    /// means *no further plan boundary* — stable until the next event, like
    /// a fully stable scheduler. `Some(t)` with `t <= now` is treated as a
    /// single-tick window. The default `None` pairs with the default
    /// `bounded_stability` of `false` and is never reached.
    fn stable_until(&self, now: Time) -> Option<Time> {
        let _ = now;
        None
    }

    /// Ask the scheduler to start recording admission decisions for
    /// [`drain_admission_events`](Self::drain_admission_events). The engine
    /// calls this once at simulation start when an active
    /// [`SimObserver`](crate::observe::SimObserver) is attached; schedulers
    /// without admission control can ignore it (the default is a no-op, and
    /// no recording means no buffering cost on unobserved runs).
    fn enable_admission_reporting(&mut self) {}

    /// Append the admission decisions recorded since the last drain to
    /// `out`, in the order they were made. The engine drains after each
    /// batch of arrival, completion, and expiry hooks and forwards every
    /// event to the attached observer — on both execution paths, so the
    /// decisions land at identical stream positions. Default: none.
    fn drain_admission_events(&mut self, _out: &mut Vec<AdmissionEvent>) {}

    /// Declare that this scheduler understands heterogeneous platforms.
    ///
    /// Returning `true` asks the engine for **fastest-first placement**: on
    /// a platform with several machine groups, allocation entries consume
    /// processors in descending-speed order (ties broken by ascending group
    /// index), so the nodes a scheduler ranks highest land on the fastest
    /// processors. The default `false` keeps declaration-order placement —
    /// the scheduler transparently sees the aggregate `m` and need not know
    /// groups exist. On a uniform platform the two orders coincide, so this
    /// flag never changes uniform-run results. The engine samples the flag
    /// once at construction; it must be constant for the scheduler's
    /// lifetime.
    fn group_aware(&self) -> bool {
        false
    }

    /// Return this scheduler to its freshly-constructed state, keeping any
    /// allocated capacity, and report whether that was done.
    ///
    /// Returning `true` is a contract: after `reset()`, every subsequent
    /// run must be byte-identical to one on a newly constructed scheduler
    /// with the same parameters. Sweep runners use this to reuse one
    /// scheduler value (and its buffers) across many cells instead of
    /// rebuilding it per run. The default returns `false` — "I did not
    /// reset, build a fresh one" — so implementations that carry hidden
    /// cross-run state are never reused by accident.
    fn reset(&mut self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_info_deadline_accessors() {
        let info = JobInfo {
            id: JobId(2),
            arrival: Time(7),
            work: Work(30),
            span: Work(5),
            profit: StepProfitFn::deadline(Time(13), 4),
        };
        assert_eq!(info.rel_deadline(), Some(Time(13)));
        assert_eq!(info.abs_deadline(), Some(Time(20)));
    }

    #[test]
    fn tick_view_lookup() {
        let jobs = vec![(JobId(0), 3u32), (JobId(2), 0)];
        let view = TickView::new(4, Time(9), &jobs);
        assert_eq!(view.ready_count(JobId(0)), Some(3));
        assert_eq!(view.ready_count(JobId(2)), Some(0));
        assert_eq!(view.ready_count(JobId(1)), None);
        assert_eq!(view.jobs().len(), 2);
        assert_eq!(view.m, 4);
        assert_eq!(view.now, Time(9));
    }

    #[test]
    fn ready_count_binary_search_agrees_with_linear_scan() {
        // A sparse ascending view, as the engine builds them: present and
        // absent ids interleaved, including both ends.
        let jobs: Vec<(JobId, u32)> = (0..200u32)
            .filter(|i| i % 3 != 1)
            .map(|i| (JobId(i), i * 7))
            .collect();
        let view = TickView::new(8, Time(0), &jobs);
        for probe in 0..210u32 {
            let id = JobId(probe);
            let linear = jobs.iter().find(|(j, _)| *j == id).map(|(_, r)| *r);
            assert_eq!(view.ready_count(id), linear, "probe {probe}");
        }
    }
}
