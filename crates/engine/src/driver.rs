//! The resumable simulation driver: the engine core as an explicit object.
//!
//! [`SimDriver`] composes the three state layers — [`Clock`](crate::clock),
//! [`Platform`](crate::platform), [`Lifecycle`](crate::lifecycle) — with a
//! scheduler, a pick policy, and an observer, and exposes the run as a
//! sequence of explicit **steps**:
//!
//! * [`step`](SimDriver::step) executes exactly one engine scheduling round
//!   — one tick or one bulk fast-forward window — and reports whether the
//!   run is still live;
//! * [`run_until`](SimDriver::run_until) steps until simulated time reaches
//!   a target (a step may overshoot it: bulk windows are never split, which
//!   is what keeps a stepped run byte-identical to a one-shot run);
//! * [`finish`](SimDriver::finish) steps to the end and returns the
//!   [`SimResult`].
//!
//! [`simulate`](crate::simulate) and
//! [`simulate_observed`](crate::simulate_observed) are thin wrappers that
//! construct a driver and call `finish` — there is exactly one loop body in
//! the engine. A driver is generic over its observer so the unobserved
//! instantiation ([`NullObserver`]) monomorphizes with every observation
//! branch folded away; to keep access to an observer after the run, pass a
//! `&mut dyn SimObserver` (which itself implements [`SimObserver`]).
//!
//! [`SimConfig::fast_forward`] alone picks the path a driver runs (see the
//! [`sim`](crate::sim) module docs): the production path keeps an
//! [`EventKernel`] and the lifecycle's maintained view, and asks the
//! scheduler for a fresh allocation only when the view changed or the last
//! allocation's stability window ended (otherwise it replays that
//! allocation); the naive reference path steps tick by tick, scans for
//! expiries, rebuilds the view and asks every tick. The two share the
//! execution round (phase 6 of [`step`](SimDriver::step)) and the
//! lifecycle transitions, nothing else.
//!
//! Driving the same schedule stepped or one-shot produces the same
//! [`SimResult`] *including* `steps_executed` and the same event stream —
//! the `driver_differential` suite in `crates/verify` holds this
//! byte-identical over the stream-equivalence corpus.

use crate::clock::{auto_horizon, Clock};
use crate::events::EventKernel;
use crate::lifecycle::Lifecycle;
use crate::observe::{AdmissionEvent, NullObserver, SimObserver};
use crate::pick::Picker;
use crate::platform::Platform;
use crate::result::SimResult;
use crate::sched_api::{Allocation, OnlineScheduler, TickView};
use crate::sim::SimConfig;
use crate::trace::Trace;
use dagsched_core::{ticks_to_complete, JobId, NodeId, Result, SchedError, Time};
use dagsched_workload::Instance;

/// Scratch buffers reused across every step (no per-tick allocation):
/// the reference path's rebuilt tick view, validation output, expired ids,
/// the pick batch, per-processor continuations, the fast-forward claim
/// list, and the observation payload builders.
#[derive(Default)]
struct StepScratch {
    view_jobs: Vec<(JobId, u32)>,
    completions: Vec<JobId>,
    alloc: Allocation,
    expired: Vec<JobId>,
    picked: Vec<NodeId>,
    continuations: Vec<NodeId>,
    /// Fast-forward claim list: `(job, node, units)` with the per-tick rate
    /// of the processor each node is bound to.
    claimed: Vec<(JobId, NodeId, u64)>,
    adm_events: Vec<AdmissionEvent>,
    node_done: Vec<(JobId, NodeId)>,
    progress: Vec<(JobId, u64)>,
}

/// How long a fresh allocation stays valid while the view is unchanged: the
/// scheduler's stability declaration, sampled once at construction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stability {
    /// No declaration: the scheduler is asked every step.
    PerTick,
    /// [`OnlineScheduler::bounded_stability`]: valid until
    /// [`OnlineScheduler::stable_until`] of the tick it was decided at.
    Bounded,
    /// [`OnlineScheduler::allocation_stable_between_events`]: valid until
    /// the view changes.
    Full,
}

/// A resumable simulation run. See the [module docs](self).
pub struct SimDriver<'a, O: SimObserver = NullObserver> {
    inst: &'a Instance,
    sched: &'a mut dyn OnlineScheduler,
    cfg: SimConfig,
    obs: O,
    clock: Clock,
    platform: Platform,
    life: Lifecycle,
    picker: Picker,
    /// Next-event index; armed and read on the production path only.
    kernel: EventKernel,
    trace: Option<Trace>,
    /// Whether bulk fast-forward windows are engaged (pinned at
    /// construction: production path, scheduler opt-in, deterministic
    /// pick, no trace).
    fast_forward: bool,
    /// The scheduler's stability. On the production path it bounds how
    /// long `scratch.alloc` is replayed; with bulk windows engaged,
    /// [`Stability::Bounded`] also caps every window at
    /// [`OnlineScheduler::stable_until`] and lets allocation-idle
    /// stretches be bulk-skipped (the plan boundary — not the per-tick
    /// re-decision — is what ends an idle stretch).
    stability: Stability,
    /// Production path: while the maintained view is unchanged,
    /// `scratch.alloc` is what the scheduler would decide at every tick
    /// before this one, so it is replayed instead of asked for again.
    replay_before: Time,
    /// `obs.is_active()`, pinned at construction; a compile-time `false`
    /// for the [`NullObserver`] instantiation.
    observing: bool,
    done: bool,
    poisoned: bool,
    scratch: StepScratch,
}

impl<'a> SimDriver<'a, NullObserver> {
    /// An unobserved driver for `sched` on `inst` under `cfg`.
    pub fn new(
        inst: &'a Instance,
        sched: &'a mut dyn OnlineScheduler,
        cfg: &SimConfig,
    ) -> SimDriver<'a, NullObserver> {
        SimDriver::with_observer(inst, sched, cfg, NullObserver)
    }
}

impl<'a, O: SimObserver> SimDriver<'a, O> {
    /// A driver whose event stream feeds `obs`. Fires
    /// [`SimObserver::on_start`] immediately (construction is the start of
    /// the run). When the observer is active, the scheduler is asked to
    /// record admission decisions, exactly as in
    /// [`simulate_observed`](crate::simulate_observed).
    ///
    /// # Panics
    /// When the platform configuration is inconsistent with the instance
    /// (group total ≠ `m`). [`simulate`](crate::simulate) and
    /// [`simulate_observed`](crate::simulate_observed) pre-validate via
    /// [`SimConfig::resolve_groups`] and surface this as an error instead.
    pub fn with_observer(
        inst: &'a Instance,
        sched: &'a mut dyn OnlineScheduler,
        cfg: &SimConfig,
        mut obs: O,
    ) -> SimDriver<'a, O> {
        let cfg = cfg.clone();
        let jobs = inst.jobs();
        let n = jobs.len();
        let horizon = cfg.horizon.unwrap_or_else(|| auto_horizon(inst));
        let trace = cfg.record_trace.then(Trace::new);
        let observing = obs.is_active();
        if observing {
            sched.enable_admission_reporting();
        }
        let groups = cfg
            .resolve_groups(inst.m())
            .expect("platform configuration is inconsistent with the instance");
        let platform = Platform::with_groups(groups, sched.group_aware(), n);
        obs.on_start(inst.m(), platform.speed(), horizon);
        if !platform.groups().is_uniform() {
            obs.on_platform(platform.groups());
        }
        // The fast-forward path needs every source of per-tick variation
        // pinned down: a scheduler whose allocation is stable between
        // events (fully, or boundedly with `stable_until` capping every
        // window), a deterministic pick policy, and no per-tick trace.
        let stability = if sched.allocation_stable_between_events() {
            Stability::Full
        } else if sched.bounded_stability() {
            Stability::Bounded
        } else {
            Stability::PerTick
        };
        let fast_forward = cfg.fast_forward
            && trace.is_none()
            && cfg.pick.fast_forward_safe()
            && stability != Stability::PerTick;
        let mut kernel = EventKernel::new(n);
        if cfg.fast_forward {
            kernel.arm_horizon(horizon);
            kernel.arm_arrival(jobs[0].arrival);
        }
        SimDriver {
            clock: Clock::new(jobs[0].arrival, horizon),
            platform,
            life: Lifecycle::new(n),
            picker: Picker::new(cfg.pick.clone()),
            kernel,
            trace,
            fast_forward,
            stability,
            replay_before: Time(0),
            observing,
            done: false,
            poisoned: false,
            scratch: StepScratch::default(),
            inst,
            sched,
            cfg,
            obs,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Whether the run has ended ([`SimObserver::on_end`] has fired).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The clock layer (read-only).
    #[inline]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The platform layer (read-only).
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The lifecycle layer (read-only).
    #[inline]
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.life
    }

    /// Execute one engine scheduling round: one tick, or one bulk
    /// fast-forward window. Returns `Ok(true)` while the run is live;
    /// `Ok(false)` once it has ended (the first such call fires
    /// [`SimObserver::on_end`]; further calls are no-ops).
    ///
    /// # Errors
    /// [`SchedError::InvalidAllocation`] exactly as
    /// [`simulate`](crate::simulate). An error poisons the driver: every
    /// later `step`/`run_until`/`finish` fails.
    pub fn step(&mut self) -> Result<bool> {
        if self.poisoned {
            return Err(SchedError::InvalidAllocation(
                "driver was poisoned by an earlier invalid allocation".into(),
            ));
        }
        if self.done {
            return Ok(false);
        }
        let jobs = self.inst.jobs();
        // The one path switch: production (event kernel, maintained view,
        // allocation replay) or the naive reference path.
        let production = self.cfg.fast_forward;
        if !((self.life.pending_arrivals() || !self.life.alive.is_empty())
            && self.clock.before_horizon())
        {
            self.obs.on_end(self.clock.now());
            self.done = true;
            return Ok(false);
        }

        // Skip idle gaps between arrival waves. (The run guard above
        // ensures an arrival is pending whenever nothing is alive, so both
        // sources always have a target here.)
        if self.life.alive.is_empty() {
            let next = if production {
                self.kernel
                    .armed_arrival()
                    .expect("pending arrival is armed")
            } else {
                jobs[self.life.next_arrival].arrival
            };
            if next > self.clock.now() {
                self.clock.skip_idle_to(next);
            }
        }
        let t = self.clock.now();
        // `Some(units)` on a uniform platform: one hoisted rate for every
        // processor. Heterogeneous platforms walk the per-processor rates
        // with a placement cursor instead.
        let uniform_units = self.platform.uniform_units();

        // 1. Arrivals.
        let first_arrival = self.life.next_arrival;
        let arrived = self.life.admit_arrivals(
            jobs,
            t,
            self.platform.work_scale(),
            self.sched,
            &mut self.obs,
        );
        if arrived && production {
            // Arm each admitted zero-tail job's expiry boundary and re-arm
            // the arrival cursor past the admitted batch.
            for job in &jobs[first_arrival..self.life.next_arrival] {
                if job.profit.tail_value() == 0 {
                    self.kernel.arm_expiry(job.id, job.last_useful_abs());
                }
            }
            match jobs.get(self.life.next_arrival) {
                Some(next) => self.kernel.arm_arrival(next.arrival),
                None => self.kernel.disarm_arrival(),
            }
        }
        if self.observing && arrived {
            self.forward_admissions(t);
        }

        // 2. Expiry: zero-tail jobs that can no longer earn anything even
        // if they complete this very tick (completion time would be t+1).
        let expired_any = if production {
            self.life.expire_hopeless_indexed(
                t,
                &mut self.kernel,
                self.sched,
                &mut self.obs,
                &mut self.scratch.expired,
            )
        } else {
            self.life.expire_hopeless(
                jobs,
                t,
                self.sched,
                &mut self.obs,
                &mut self.scratch.expired,
            )
        };
        if self.observing && expired_any {
            self.forward_admissions(t);
        }

        // 3. Ask the scheduler. Production: the maintained view is already
        // current (phases 1–2 and the previous step's execution kept it
        // patched). If it has not changed since the last fresh allocation
        // and `t` is still inside that allocation's stability window, the
        // scheduler would decide the same again, so `scratch.alloc` (which
        // nothing writes between steps) is replayed. Otherwise ask for a
        // fresh allocation and open its window. Reference: rebuild the view
        // from scratch into the hoisted buffer and ask every tick.
        //
        // `fresh_until` keeps `stable_until(t)` when this step asked a
        // bounded scheduler afresh, so the window cap in phase 5 need not
        // ask again.
        let mut fresh_until = None;
        if production {
            if self.life.view_changed || t >= self.replay_before {
                let view = TickView::new(self.platform.m(), t, self.life.view())
                    .with_groups(self.platform.groups());
                self.sched.allocate_into(&view, &mut self.scratch.alloc);
                self.life.view_changed = false;
                self.replay_before = match self.stability {
                    Stability::PerTick => t,
                    Stability::Bounded => {
                        let until = self.sched.stable_until(t);
                        fresh_until = Some(until);
                        until.unwrap_or(Time::MAX)
                    }
                    Stability::Full => Time::MAX,
                };
            }
        } else {
            self.life.rebuild_view(&mut self.scratch.view_jobs);
            self.sched.allocate_into(
                &TickView::new(self.platform.m(), t, &self.scratch.view_jobs)
                    .with_groups(self.platform.groups()),
                &mut self.scratch.alloc,
            );
        }

        // 4. Validate.
        {
            let life = &self.life;
            if let Err(e) = self
                .platform
                .validate(t, &self.scratch.alloc, |id| life.is_alive(id))
            {
                self.poisoned = true;
                self.done = true;
                return Err(e);
            }
        }

        if let Some(tr) = self.trace.as_mut() {
            tr.push(t, &self.scratch.alloc);
        }

        // 5. Fast-forward: with a stable scheduler and a deterministic
        // picker, nothing observable changes until the next event. Claim
        // this tick's nodes — the batch the execution round below hands
        // out — find the widest window in which no claimed node can
        // finish and no arrival / expiry / horizon boundary falls, and
        // advance the whole window in one engine step.
        if self.fast_forward {
            let sc = &mut self.scratch;
            sc.claimed.clear();
            // Minimum over claimed nodes of the ticks until completion,
            // ceil(remaining / units): within `min_q - 1` ticks no claimed
            // node finishes, so the ready sets — and with them every pick
            // and every allocation — are frozen.
            let mut min_q = u64::MAX;
            let mut cursor = 0usize;
            for &(id, k) in &sc.alloc {
                let l = self.life.live[id.index()]
                    .as_mut()
                    .expect("validated alive");
                self.picker
                    .pick_into(&l.state, &l.busy, k as usize, &mut sc.picked);
                for (i, &node) in sc.picked.iter().enumerate() {
                    l.busy[node.index()] = true;
                    l.dirty.push(node.0);
                    // The i-th picked node binds to the i-th processor the
                    // entry consumes — the same pairing the execution
                    // round's per-processor loop realizes.
                    let pu = match uniform_units {
                        Some(u) => u,
                        None => self.platform.proc_units()[cursor + i],
                    };
                    let rem = l.state.node_remaining(node).units();
                    min_q = min_q.min(ticks_to_complete(rem, pu));
                    sc.claimed.push((id, node, pu));
                }
                cursor += k as usize;
            }
            // Bounded stability: the plan may change at the scheduler's
            // next boundary even with no job event in between, so every
            // window is additionally capped at `stable_until`. `None`
            // means no further boundary (stable to the next event, like a
            // fully stable scheduler); a boundary at or before `t` means a
            // single-tick window.
            let bounded = self.stability == Stability::Bounded;
            let bound_cap = if bounded {
                match fresh_until.unwrap_or_else(|| self.sched.stable_until(t)) {
                    Some(until) if until > t => until.since(t),
                    Some(_) => 1,
                    None => u64::MAX,
                }
            } else {
                u64::MAX
            };
            // Window width in ticks. Every cap is ≥ 1 (after the idle
            // skip the next arrival is strictly in the future, after step 2
            // every zero-tail job is strictly before its expiry boundary,
            // and the run guard keeps t < horizon), so s == 0 iff a claimed
            // node completes this very tick — which runs as a single-tick
            // round below. An empty claim set (empty allocation) also runs
            // the single tick: the naive path counts allocation-idle ticks
            // one by one, and `ticks_simulated` must stay byte-identical.
            // `min_q == 1` needs no heap query: a claimed node finishes this
            // tick, so `s == 0` whatever the heap holds.
            if !sc.claimed.is_empty() {
                let s = if min_q == 1 {
                    0
                } else {
                    (min_q - 1).min(self.kernel.window(t)).min(bound_cap)
                };
                if s > 0 {
                    // No claimed node completes within the window: each
                    // consumes its processor's full rate per tick
                    // (remaining > s·units of that processor), exactly as
                    // `s` reference ticks would, and no carryover,
                    // completion or hook can fire.
                    let mut total = 0u64;
                    for &(id, node, pu) in &sc.claimed {
                        let l = self.life.live[id.index()]
                            .as_mut()
                            .expect("claimed implies live");
                        l.state.advance_bulk(node, s * pu);
                        total += s * pu;
                    }
                    self.platform.record_units(total);
                    if self.observing {
                        // `claimed` lists each alloc entry's nodes
                        // contiguously, in alloc order: walk it once to sum
                        // each job's per-tick rate over its claimed nodes.
                        sc.progress.clear();
                        let mut rest = sc.claimed.as_slice();
                        for &(id, _) in &sc.alloc {
                            let cnt = rest.iter().take_while(|&&(j, _, _)| j == id).count();
                            let rate: u64 = rest[..cnt].iter().map(|&(_, _, pu)| pu).sum();
                            rest = &rest[cnt..];
                            sc.progress.push((id, s * rate));
                        }
                        self.obs
                            .on_window(t, s, self.life.view(), &sc.alloc, &sc.progress);
                    }
                    for &(id, _) in &sc.alloc {
                        self.life.live[id.index()]
                            .as_mut()
                            .expect("validated alive")
                            .release_claims();
                    }
                    self.clock.advance_window(s);
                    return Ok(true);
                }
            } else if bounded && sc.alloc.is_empty() && !self.life.alive.is_empty() {
                // Bounded schedulers idle *deliberately*: an empty
                // allocation with alive jobs is a plan gap (no slot at this
                // tick), and within `bound_cap` the per-tick re-decision
                // cannot change it. Skip the whole gap in one window — the
                // naive path would emit `s` identical empty-allocation
                // ticks, which the event log coalesces into exactly this
                // window, and `advance_window` charges the same
                // `ticks_simulated`. Restricted to bounded schedulers so
                // fully stable schedulers keep their frozen per-tick idle
                // accounting. When the last alive job left during this
                // step's own event phases the window has no job boundary
                // left to cap it — fall through to the single tick the
                // naive path charges before its run guard ends the run.
                let s = self.kernel.window(t).min(bound_cap);
                if s > 0 {
                    if self.observing {
                        sc.progress.clear();
                        self.obs
                            .on_window(t, s, self.life.view(), &sc.alloc, &sc.progress);
                    }
                    self.clock.advance_window(s);
                    return Ok(true);
                }
            }
            // A completion is due this tick (or nothing was claimed): run
            // the single-tick round below, which hands out the claimed
            // nodes (still marked busy) as each entry's first batch and
            // handles completion, carryover and unlocking.
        }

        // 6. Execute one tick (both paths).
        //
        // Each entry's fresh nodes come from a batch of up to `batch_k`
        // nodes in the picker's order. Within one tick the entry's eligible
        // set (ready and not busy) only shrinks: a handed-out node stays
        // busy, and every node a completion unlocks is marked busy below
        // before any later pick can see it. For a deterministic policy the
        // nodes one-node picks would return are therefore successive
        // prefixes of one policy order over the tick-start eligible set, so
        // one `k`-node pick per batch returns the same nodes in the same
        // order. A batch that came back short has drained the eligible set
        // for the rest of the tick. `Random`'s reservoir draws per call
        // are part of its output, so it keeps one call per node.
        let sc = &mut self.scratch;
        sc.completions.clear();
        if self.observing {
            sc.progress.clear();
            sc.node_done.clear();
        }
        let batching = self.cfg.pick.fast_forward_safe();
        // On the fast-forward path the claim pass ran this step: its
        // claims, contiguous per entry in alloc order, are the first
        // batches. (On the naive path the list is always empty.)
        let mut claimed = sc.claimed.as_slice();
        let mut cursor = 0usize;
        for &(id, k) in &sc.alloc {
            let l = self.life.live[id.index()]
                .as_mut()
                .expect("validated alive");
            let mut entry_units = 0u64;
            let batch_k = if batching { k as usize } else { 1 };
            let taken = claimed.iter().take_while(|&&(j, _, _)| j == id).count();
            sc.picked.clear();
            sc.picked
                .extend(claimed[..taken].iter().map(|&(_, node, _)| node));
            claimed = &claimed[taken..];
            let mut drained = self.fast_forward && taken < batch_k;
            let mut next = 0usize;
            // Nodes that become ready *during* this tick may only be
            // continued by the processor whose completion unlocked them —
            // any other processor has already spent this tick's time.
            // They are marked busy globally and kept in a per-processor
            // continuation list.
            for j in 0..k {
                let mut budget = match uniform_units {
                    Some(u) => u,
                    None => self.platform.proc_units()[cursor + j as usize],
                };
                sc.continuations.clear();
                while budget > 0 {
                    let node = match sc.continuations.pop() {
                        Some(n) => n,
                        None => {
                            if next == sc.picked.len() {
                                if drained {
                                    break;
                                }
                                self.picker
                                    .pick_into(&l.state, &l.busy, batch_k, &mut sc.picked);
                                for &n in &sc.picked {
                                    l.busy[n.index()] = true;
                                    l.dirty.push(n.0);
                                }
                                next = 0;
                                drained = sc.picked.len() < batch_k;
                                if sc.picked.is_empty() {
                                    break;
                                }
                            }
                            next += 1;
                            sc.picked[next - 1]
                        }
                    };
                    let (consumed, node_finished) = l.state.advance(node, budget);
                    self.platform.record_units(consumed);
                    entry_units += consumed;
                    budget -= consumed;
                    if !node_finished {
                        break;
                    }
                    if self.observing {
                        sc.node_done.push((id, node));
                    }
                    // Lock newly-ready successors for the rest of the tick;
                    // this processor may continue into them if allowed.
                    // (Disjoint field borrows: the spec is read through
                    // `l.state` while `l.busy`/`l.dirty` mutate — no Arc
                    // clone per completed node.)
                    for &succ in l.state.spec().successors(node) {
                        if l.state.is_ready(succ) && !l.busy[succ.index()] {
                            l.busy[succ.index()] = true;
                            l.dirty.push(succ.0);
                            if self.cfg.carryover {
                                sc.continuations.push(succ);
                            }
                        }
                    }
                    if !self.cfg.carryover {
                        break;
                    }
                }
            }
            l.release_claims();
            if self.observing {
                sc.progress.push((id, entry_units));
            }
            if l.state.is_complete() {
                sc.completions.push(id);
            }
            cursor += k as usize;
        }
        if self.observing {
            let vj: &[(JobId, u32)] = if production {
                self.life.view()
            } else {
                &sc.view_jobs
            };
            self.obs.on_window(t, 1, vj, &sc.alloc, &sc.progress);
            for &(id, node) in &sc.node_done {
                self.obs.on_node_complete(t, id, node);
            }
        }

        // Patch the maintained view's ready counts: node completions in
        // the execution loop above are the only thing that moves them, and
        // only for allocated jobs. Jobs completing this step skip the patch
        // — their removal in phase 7 covers it. (After the observer call:
        // the window payload carries the view the *scheduler* saw.)
        for &(id, _) in &sc.alloc {
            let l = self.life.live[id.index()]
                .as_ref()
                .expect("validated alive");
            if !l.state.is_complete() {
                self.life.patch_ready(id);
            }
        }

        // 7. Completions take effect at t+1.
        let t_done = t.after(1);
        self.life
            .complete(jobs, t_done, &sc.completions, self.sched, &mut self.obs);
        let completed_any = !sc.completions.is_empty();
        if completed_any && production {
            for &id in &sc.completions {
                self.kernel.disarm_expiry(id);
            }
        }
        if self.observing && completed_any {
            self.forward_admissions(t_done);
        }

        self.clock.advance_tick();
        Ok(true)
    }

    /// Drain the scheduler's recorded admission decisions and forward them
    /// to the observer at `at` — the one shared implementation behind the
    /// arrival, expiry, and completion drain points (the stream position of
    /// each batch is fixed by where `step` calls this).
    fn forward_admissions(&mut self, at: Time) {
        self.sched
            .drain_admission_events(&mut self.scratch.adm_events);
        for ev in self.scratch.adm_events.drain(..) {
            self.obs.on_admission(at, ev);
        }
    }

    /// Step until simulated time reaches `target` or the run ends,
    /// whichever comes first. A step may overshoot the target — bulk
    /// fast-forward windows are never split, which is what keeps a stepped
    /// run byte-identical to a one-shot run. Returns `Ok(true)` while the
    /// run is live.
    ///
    /// # Errors
    /// As [`step`](Self::step).
    pub fn run_until(&mut self, target: Time) -> Result<bool> {
        if self.poisoned {
            // Re-raise the canonical poisoned-driver error.
            self.step()?;
        }
        while !self.done && self.clock.now() < target {
            self.step()?;
        }
        Ok(!self.done)
    }

    /// Step to the end of the run and return the result.
    ///
    /// # Errors
    /// As [`step`](Self::step).
    pub fn finish(mut self) -> Result<SimResult> {
        while self.step()? {}
        Ok(SimResult {
            scheduler: self.sched.name(),
            outcomes: self.life.outcomes,
            total_profit: self.life.total_profit,
            scaled_units_processed: self.platform.scaled_units_processed(),
            work_scale: self.platform.work_scale(),
            ticks_simulated: self.clock.ticks_simulated(),
            steps_executed: self.clock.steps_executed(),
            end_time: self.clock.now(),
            trace: self.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::JobStatus;
    use crate::sched_api::JobInfo;
    use crate::sim::{simulate, SimConfig};
    use dagsched_workload::{ArrivalProcess, DeadlinePolicy, WorkloadGen};

    /// Work-conserving FIFO-by-arrival test scheduler (mirrors the one in
    /// `sim::tests`): hands each alive job as many processors as it has
    /// ready nodes, in arrival order.
    struct Greedy;

    impl OnlineScheduler for Greedy {
        fn name(&self) -> String {
            "greedy-test".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            let mut left = view.m;
            let mut out = Vec::new();
            for &(id, ready) in view.jobs() {
                if left == 0 {
                    break;
                }
                let k = ready.min(left);
                if k > 0 {
                    out.push((id, k));
                    left -= k;
                }
            }
            out
        }
        fn allocation_stable_between_events(&self) -> bool {
            true
        }
    }

    fn full_eq(a: &SimResult, b: &SimResult) {
        assert!(a.same_outcome(b));
        assert_eq!(
            a.steps_executed, b.steps_executed,
            "stepped and one-shot runs must agree on engine effort too"
        );
    }

    #[test]
    fn stepped_run_matches_one_shot_on_both_paths() {
        for seed in 0..4u64 {
            let inst = WorkloadGen::standard(4, 30, seed).generate().unwrap();
            for fast_forward in [true, false] {
                let cfg = SimConfig {
                    fast_forward,
                    ..SimConfig::default()
                };
                let one_shot = simulate(&inst, &mut Greedy, &cfg).unwrap();
                let mut sched = Greedy;
                let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
                let mut steps = 0u64;
                while drv.step().unwrap() {
                    steps += 1;
                }
                assert!(drv.is_done());
                assert_eq!(steps, one_shot.steps_executed);
                let stepped = drv.finish().unwrap();
                full_eq(&stepped, &one_shot);
            }
        }
    }

    #[test]
    fn run_until_pauses_and_resumes_without_perturbing_the_run() {
        let inst = WorkloadGen::standard(4, 25, 9).generate().unwrap();
        let one_shot = simulate(&inst, &mut Greedy, &SimConfig::default()).unwrap();
        let mut sched = Greedy;
        let cfg = SimConfig::default();
        let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
        // Walk the horizon in uneven strides; each pause must leave the
        // driver at or past the target without splitting any window.
        let mut target = Time(1);
        while drv.run_until(target).unwrap() {
            assert!(drv.now() >= target || drv.is_done());
            target = target.after(7);
        }
        let stepped = drv.finish().unwrap();
        full_eq(&stepped, &one_shot);
    }

    #[test]
    fn driver_exposes_layers_readonly() {
        let inst = WorkloadGen::standard(2, 8, 3).generate().unwrap();
        let cfg = SimConfig::default();
        let mut sched = Greedy;
        let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
        assert_eq!(drv.platform().m(), 2);
        assert_eq!(drv.clock().steps_executed(), 0);
        drv.step().unwrap();
        assert_eq!(drv.clock().steps_executed(), 1);
        assert!(!drv.lifecycle().alive().is_empty() || drv.lifecycle().total_profit() > 0);
    }

    #[test]
    fn invalid_allocation_poisons_the_driver() {
        use dagsched_dag::gen;
        use dagsched_workload::{Instance, JobSpec, StepProfitFn};
        struct Bad;
        impl OnlineScheduler for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_arrival(&mut self, _j: &JobInfo, _t: Time) {}
            fn on_completion(&mut self, _i: JobId, _t: Time) {}
            fn on_expiry(&mut self, _i: JobId, _t: Time) {}
            fn allocate(&mut self, _v: &TickView<'_>) -> Allocation {
                vec![(JobId(42), 1)]
            }
        }
        let inst = Instance::new(
            1,
            vec![JobSpec::new(
                JobId(0),
                Time(0),
                gen::single(5).into_shared(),
                StepProfitFn::deadline(Time(50), 1),
            )],
        )
        .unwrap();
        let mut sched = Bad;
        let cfg = SimConfig::default();
        let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
        assert!(drv.step().is_err());
        // Poisoned: every later call fails rather than returning a bogus
        // partial result.
        assert!(drv.step().is_err());
        assert!(drv.run_until(Time(10)).is_err());
        assert!(drv.finish().is_err());
    }

    #[test]
    fn completed_jobs_report_through_the_lifecycle_layer() {
        let inst = WorkloadGen::standard(4, 10, 1).generate().unwrap();
        let cfg = SimConfig::default();
        let one_shot = simulate(&inst, &mut Greedy, &cfg).unwrap();
        let mut sched = Greedy;
        let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
        while drv.step().unwrap() {}
        let done: usize = (0..inst.jobs().len())
            .filter(|&i| matches!(drv.lifecycle().outcomes[i], JobStatus::Completed { .. }))
            .count();
        assert_eq!(done, one_shot.completed());
        assert_eq!(drv.lifecycle().total_profit(), one_shot.total_profit);
    }

    /// Single-node-job scheduler with a pinned priority: each tick it
    /// selects the `m` alive jobs that come first in `select`, and lists
    /// them in `place` order, which on an aggregate-blind platform fixes
    /// which processor each entry binds to (declaration order).
    struct Pinned {
        select: Vec<u32>,
        place: Vec<u32>,
    }

    impl OnlineScheduler for Pinned {
        fn name(&self) -> String {
            "pinned-test".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            let mut chosen: Vec<JobId> = self
                .select
                .iter()
                .map(|&j| JobId(j))
                .filter(|&id| view.jobs().iter().any(|&(a, r)| a == id && r > 0))
                .take(view.m as usize)
                .collect();
            chosen.sort_by_key(|id| self.place.iter().position(|&j| j == id.0));
            chosen.into_iter().map(|id| (id, 1)).collect()
        }
        fn allocation_stable_between_events(&self) -> bool {
            true
        }
    }

    /// Related machines: a node first claimed at 1 unit/tick, then
    /// preempted, then re-claimed on the 2-unit group lands on the same
    /// last-safe tick as its first claim (rem 10 from t = 0 at 1 unit/tick:
    /// tick 9; rem 9 from t = 5 at 2 units/tick: tick 9 again). Event
    /// kernels that cache per-node completion ticks must not lose it.
    #[test]
    fn reclaim_on_a_faster_group_matches_naive() {
        use dagsched_core::MachineGroups;
        use dagsched_dag::gen;
        use dagsched_workload::{Instance, JobSpec, StepProfitFn};
        let job = |id: u32, at: u64, work: u64| {
            JobSpec::new(
                JobId(id),
                Time(at),
                gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(1000), 1),
            )
        };
        // A (job 0) and B (job 1) start on processors 0 (1 unit) and 1
        // (2 units); C (job 2) arrives at t = 1 and preempts A on
        // processor 0; B finishes at t = 5 and A takes processor 1.
        let inst = Instance::new(2, vec![job(0, 0, 10), job(1, 0, 10), job(2, 1, 100)]).unwrap();
        let groups: MachineGroups = "1x1,1x2".parse().unwrap();
        let mk = || Pinned {
            select: vec![2, 1, 0],
            place: vec![2, 0, 1],
        };
        let run = |cfg: &SimConfig| simulate(&inst, &mut mk(), cfg).unwrap();
        let fast = run(&SimConfig::on_groups(groups.clone()));
        let naive = run(&SimConfig {
            fast_forward: false,
            ..SimConfig::on_groups(groups)
        });
        assert!(fast.same_outcome(&naive));
        assert_eq!(
            fast.outcomes[0],
            JobStatus::Completed {
                at: Time(10),
                profit: 1
            },
            "A re-claimed on the 2-unit group at t = 5 finishes during tick 9"
        );
        // Windows [0,1) [1,4) [5,9) [10,100) plus the three completion
        // ticks 4, 9 and 100.
        assert_eq!(fast.steps_executed, 7);
        assert_eq!(naive.steps_executed, 101);
    }

    /// The reference round picks each entry's nodes once per tick, not once
    /// per processor: on the Figure 1 job at m = 64 (a 7,560-node block
    /// ready at once, unit nodes finishing every tick) both clairvoyant
    /// picks make at most two picker calls per tick on either path.
    #[test]
    fn picker_runs_once_per_entry_per_tick() {
        use crate::pick::NodePick;
        use dagsched_dag::gen;
        use dagsched_workload::{Instance, JobSpec, StepProfitFn};
        let m = 64;
        let dag = gen::fig1(m, 120, 1).into_shared();
        let deadline = Time(dag.total_work().as_ticks() + 2);
        let inst = Instance::new(
            m,
            vec![JobSpec::new(
                JobId(0),
                Time::ZERO,
                dag,
                StepProfitFn::deadline(deadline, 1),
            )],
        )
        .unwrap();
        for pick in [NodePick::CriticalPathFirst, NodePick::AdversarialLowHeight] {
            for fast_forward in [true, false] {
                let cfg = SimConfig {
                    pick: pick.clone(),
                    fast_forward,
                    ..SimConfig::default()
                };
                let mut sched = Greedy;
                let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
                while drv.step().unwrap() {}
                let (calls, ticks) = (drv.picker.calls, drv.clock.ticks_simulated());
                assert!(
                    calls <= 2 * ticks,
                    "{pick:?} fast_forward={fast_forward}: {calls} picker calls in {ticks} ticks"
                );
                assert!(drv.finish().unwrap().outcomes[0].is_completed());
            }
        }
    }

    /// The kernel holds only arrival, expiry and horizon keys: after every
    /// step of a real run its heap stays within twice the armed keys plus
    /// the compaction slack.
    #[test]
    fn kernel_heap_stays_bounded_by_armed_keys() {
        use crate::events::COMPACT_MIN_STALE;
        for seed in 0..3u64 {
            // Loose deadlines: most jobs complete long before their expiry
            // boundary, so each completion leaves a disarmed entry that
            // only compaction can reclaim.
            let inst = WorkloadGen {
                arrivals: ArrivalProcess::Poisson { rate: 0.2 },
                deadlines: DeadlinePolicy::SlackFactor(100.0),
                ..WorkloadGen::standard(4, 400, seed)
            }
            .generate()
            .unwrap();
            let cfg = SimConfig::default();
            let one_shot = simulate(&inst, &mut Greedy, &cfg).unwrap();
            let mut sched = Greedy;
            let mut drv = SimDriver::new(&inst, &mut sched, &cfg);
            let mut peak = 0;
            while drv.step().unwrap() {
                let (len, armed) = (drv.kernel.len(), drv.kernel.armed_keys());
                assert!(
                    len <= 2 * armed + COMPACT_MIN_STALE + 2,
                    "seed {seed} t={}: heap holds {len} entries for {armed} armed keys",
                    drv.now().0
                );
                peak = peak.max(len);
            }
            assert!(
                peak > COMPACT_MIN_STALE,
                "seed {seed}: the heap must grow past the compaction threshold"
            );
            full_eq(&drv.finish().unwrap(), &one_shot);
        }
    }
}
