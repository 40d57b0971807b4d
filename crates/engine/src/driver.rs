//! The resumable simulation driver: the engine core as an explicit object.
//!
//! [`SimDriver`] composes the three state layers — [`Clock`](crate::clock),
//! [`Platform`](crate::platform), [`Lifecycle`](crate::lifecycle) — with a
//! scheduler, a pick policy, and an observer, and exposes the run as a
//! sequence of explicit **steps**:
//!
//! * [`step`](SimDriver::step) executes exactly one engine scheduling round
//!   — one tick, or on the fast-forward path a bulk window of quiet ticks
//!   up to the next event, together with the completion tick that ends it
//!   when that event is a node completion — and reports whether the run is
//!   still live;
//! * [`run_until`](SimDriver::run_until) steps until simulated time reaches
//!   a target (a step may overshoot it: steps are never split, which is
//!   what keeps a stepped run byte-identical to a one-shot run);
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
//! [`sim`](crate::sim) module docs): the production path keeps the
//! lifecycle's maintained view and asks the scheduler for a fresh
//! allocation only when the view changed or the last allocation's validity
//! ended (otherwise it replays that allocation); the naive reference path
//! steps tick by tick, scans for expiries, rebuilds the view and asks every
//! tick. The two share the per-processor execution round (phase 6 of
//! [`step`](SimDriver::step)) and the lifecycle transitions, nothing else.
//!
//! The production path keeps one window rule. Each fresh allocation gets
//! one validity end, `valid_until`, from the scheduler's stability
//! declaration: the next tick for a scheduler that declares none,
//! [`stable_until`](OnlineScheduler::stable_until) of the tick it was asked
//! at (at least the next tick) for a boundedly stable one, and no end for a
//! fully stable one. With a deterministic pick, a step then runs every
//! claimed node up to the earliest of `valid_until`, the lifecycle's next
//! arrival or expiry boundary, the horizon and the completion tick of the
//! earliest claimed node: a quiet stretch, an idle stretch (nothing
//! claimed) and a per-tick scheduler's single tick alike.
//!
//! Observers see a step's quiet ticks as one window and its completion
//! tick as a window of one tick, with the node completions at that tick:
//! the calls a separate window and a separate completion tick would make,
//! whatever the step structure.
//!
//! Driving the same schedule stepped or one-shot produces the same
//! [`SimResult`] *including* `steps_executed` and the same event stream —
//! the `stream_equiv` suite in `crates/verify` holds this
//! byte-identical for every production scheduler.

use crate::clock::{auto_horizon, Clock};
use crate::lifecycle::Lifecycle;
use crate::observe::{AdmissionEvent, NullObserver, SimObserver};
use crate::pick::Picker;
use crate::platform::Platform;
use crate::result::SimResult;
use crate::sched_api::{Allocation, OnlineScheduler, TickView};
use crate::sim::SimConfig;
use dagsched_core::{ticks_to_complete, JobId, NodeId, Result, SchedError, Time};
use dagsched_workload::Instance;

/// Scratch buffers reused across every step (no per-tick allocation):
/// the reference path's rebuilt tick view, validation output, the
/// executed tick's completed and touched jobs, expiry scratch, the pick
/// batch, per-processor continuations, the fast-forward claim list, the
/// round's list of claimed nodes, and the observation payload builders.
#[derive(Default)]
struct StepScratch {
    view_jobs: Vec<(JobId, u32)>,
    completions: Vec<JobId>,
    /// Jobs that finished a node in the executed tick and did not
    /// complete: the only ready counts that can have moved.
    touched: Vec<JobId>,
    alloc: Allocation,
    expired: Vec<JobId>,
    picked: Vec<NodeId>,
    continuations: Vec<NodeId>,
    /// Fast-forward claim list: `(job, node, units)` with the per-tick rate
    /// of the processor each node is bound to.
    claimed: Vec<(JobId, NodeId, u64)>,
    /// Every node whose claim bit is set, in claim order: set and released
    /// within one execution round.
    claims: Vec<(JobId, NodeId)>,
    adm_events: Vec<AdmissionEvent>,
    node_done: Vec<(JobId, NodeId)>,
    progress: Vec<(JobId, u64)>,
}

/// How long a fresh allocation stays valid while the view is unchanged: the
/// scheduler's stability declaration, sampled once at construction and read
/// only where a fresh ask sets `valid_until`.
#[derive(Clone, Copy)]
enum Stability {
    /// No declaration: valid for the tick it was decided at.
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
    /// Whether steps run the claim pass and windows (pinned at
    /// construction: production path and a deterministic pick).
    fast_forward: bool,
    /// The scheduler's stability: what a fresh ask sets `valid_until` to.
    stability: Stability,
    /// Production path: while the maintained view is unchanged and the
    /// clock is before this tick, `scratch.alloc` is what the scheduler
    /// would decide, so it is replayed instead of asked for again, and
    /// every window ends here at the latest.
    valid_until: Time,
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
    /// (group total ≠ `m`), and — when that job arrives — when a job's work
    /// scaled by the platform's work scale overflows `u64` ("scaled work
    /// overflows u64"). [`simulate`](crate::simulate) and
    /// [`simulate_observed`](crate::simulate_observed) pre-validate both
    /// (via [`SimConfig::resolve_groups`] and
    /// [`scale_work`](dagsched_core::scale_work) on the instance's total
    /// work) and surface them as errors instead.
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
        let stability = if sched.allocation_stable_between_events() {
            Stability::Full
        } else if sched.bounded_stability() {
            Stability::Bounded
        } else {
            Stability::PerTick
        };
        SimDriver {
            clock: Clock::new(jobs[0].arrival, horizon),
            platform,
            life: Lifecycle::new(n),
            picker: Picker::new(cfg.pick.clone()),
            fast_forward: cfg.fast_forward && cfg.pick.fast_forward_safe(),
            stability,
            valid_until: Time(0),
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
    /// fast-forward window up to the next event, through the completion
    /// tick of the earliest node it runs when that comes first. Returns
    /// `Ok(true)` while the run is live;
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
        // The one path switch: production (expiry cursor, maintained view,
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
        // ensures an arrival is pending whenever nothing is alive.)
        if self.life.alive.is_empty() {
            let next = jobs[self.life.next_arrival].arrival;
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
        let arrived = self.life.admit_arrivals(
            jobs,
            t,
            self.platform.work_scale(),
            self.sched,
            &mut self.obs,
        );
        if self.observing && arrived {
            self.forward_admissions(t);
        }

        // 2. Expiry: zero-tail jobs that can no longer earn anything even
        // if they complete this very tick (completion time would be t+1).
        let expired_any = if production {
            self.life.expire_due(
                t,
                self.inst,
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
        // and `t` is still before that allocation's `valid_until`, the
        // scheduler would decide the same again, so `scratch.alloc` (which
        // nothing writes between steps) is replayed. Otherwise ask for a
        // fresh allocation and set its validity end: the only place the
        // stability declaration is read. Reference: rebuild the view from
        // scratch into the hoisted buffer and ask every tick.
        let mut fresh = !production;
        if production {
            if self.life.view_changed || t >= self.valid_until {
                let view = TickView::new(self.platform.m(), t, self.life.view())
                    .with_groups(self.platform.groups());
                self.sched.allocate_into(&view, &mut self.scratch.alloc);
                self.life.view_changed = false;
                fresh = true;
                self.valid_until = match self.stability {
                    Stability::PerTick => t.after(1),
                    Stability::Bounded => self
                        .sched
                        .stable_until(t)
                        .map_or(Time::MAX, |until| until.max(t.after(1))),
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

        // 4. Validate a fresh allocation. A replayed one is the same
        // `scratch.alloc` that already passed against the same alive set
        // (any arrival, expiry or completion sets `view_changed`, which
        // forces a fresh ask) on the same machine, so it cannot fail now.
        // The reference path validates every tick.
        if fresh {
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

        // 5. Fast-forward: with a deterministic picker, nothing observable
        // changes before the step's cap: `valid_until`, the lifecycle's
        // next arrival or expiry boundary, or the horizon. The claim pass
        // picks this tick's nodes — the batch the execution round below
        // hands out first — and finds `min_q`, the ticks until the earliest
        // of them finishes. For `min_q − 1` ticks no claimed node finishes,
        // so the ready sets — and with them every pick and every
        // allocation — are frozen: those quiet ticks advance in bulk. Tick
        // `t + min_q − 1` is the completion tick. When the cap falls after
        // it, this step runs the quiet ticks and the completion tick, one
        // step per node completion. Otherwise the step ends at the cap, and
        // the next step starts with that boundary's events.
        //
        // The claim pass sets no claim bits: entries name distinct jobs
        // and one pick returns distinct nodes, so the bits matter only to
        // the execution round's later picks, which claim the first batch
        // before they pick again.
        //
        // `bulk` counts the quiet ticks this step advanced; the execution
        // round runs tick `t + bulk`. `ran` says the completion tick needs
        // no per-processor round and already ran.
        let mut bulk = 0u64;
        let mut ran = false;
        if self.fast_forward {
            let (min_q, leftover) = self.claim_pass(uniform_units);
            // Every cap is > `t` (after the idle skip the next arrival is
            // strictly in the future, after step 2 every valid expiry key
            // is, a fresh `valid_until` is at least `t + 1`, and the run
            // guard keeps t < horizon). An empty claim set with jobs alive
            // is one idle window up to the cap, as the naive path's empty
            // ticks are. When the last alive job left during this step's
            // own event phases, no job boundary is left to cap the window:
            // fall through to the single tick the naive path charges before
            // its run guard ends the run. `min_q == 1` needs no boundary
            // query: a claimed node finishes this tick, whatever the next
            // boundary is.
            let idle = self.scratch.claimed.is_empty();
            if min_q > 1 && !(idle && self.life.alive.is_empty()) {
                let w = self.window(t);
                if idle || w < min_q {
                    // A boundary falls on or before the completion tick:
                    // advance to it and let the next step handle its
                    // events.
                    self.advance_quiet(t, w);
                    self.clock.advance_window(w);
                    return Ok(true);
                }
                bulk = min_q - 1;
            }
            if !idle && (!self.cfg.carryover || !leftover) {
                // No node finishing on the completion tick has budget left
                // over, so no processor continues into another node and the
                // per-processor round reduces to one `advance` of `min_q`
                // ticks' budget per claimed node, in claim order: each
                // non-finishing node consumes its processor's full rate
                // every tick, and each finishing one consumes its remainder
                // and frees its processor for the rest of the tick.
                if self.observing && bulk > 0 {
                    self.observe_quiet(t, bulk);
                }
                self.run_claimed(bulk);
                ran = true;
            } else if bulk > 0 {
                self.advance_quiet(t, bulk);
            }
        }
        let tick = t.after(bulk);

        // 6. Execute tick `tick` (both paths) in the per-processor round,
        // unless the claim list already ran it above.
        if !ran {
            self.run_round();
        }
        let sc = &mut self.scratch;
        if self.observing {
            let vj: &[(JobId, u32)] = if production {
                self.life.view()
            } else {
                &sc.view_jobs
            };
            self.obs.on_window(tick, 1, vj, &sc.alloc, &sc.progress);
            for &(id, node) in &sc.node_done {
                self.obs.on_node_complete(tick, id, node);
            }
        }

        // Patch the maintained view's ready counts: node completions in
        // the execution round are the only thing that moves them, so only
        // jobs that finished a node and go on need it — jobs completing
        // this step are covered by their removal in phase 7. (After the
        // observer call: the window payload carries the view the
        // *scheduler* saw.)
        for &id in &sc.touched {
            self.life.patch_ready(id);
        }

        // 7. Completions take effect at the end of the executed tick.
        let t_done = tick.after(1);
        self.life
            .complete(jobs, t_done, &sc.completions, self.sched, &mut self.obs);
        let completed_any = !sc.completions.is_empty();
        if self.observing && completed_any {
            self.forward_admissions(t_done);
        }

        self.clock.advance_window(bulk + 1);
        Ok(true)
    }

    /// Fill `scratch.claimed` with this tick's picks for every allocation
    /// entry, each node with the per-tick rate of the processor it binds to,
    /// and return the ticks until the earliest of them completes,
    /// `ceil(remaining / rate)` (`u64::MAX` when nothing is claimed), and
    /// whether a node finishing then has budget left over in that tick
    /// (remaining not a multiple of its rate). A uniform platform folds the
    /// smallest remaining work and divides once; a heterogeneous one
    /// divides per node by its processor's rate.
    fn claim_pass(&mut self, uniform_units: Option<u64>) -> (u64, bool) {
        let sc = &mut self.scratch;
        sc.claimed.clear();
        let mut min_q = u64::MAX;
        let mut min_rem = u64::MAX;
        let mut leftover = false;
        let mut cursor = 0usize;
        for &(id, k) in &sc.alloc {
            let st = self.life.live[id.index()]
                .as_ref()
                .expect("validated alive");
            self.picker.pick_into(st, k as usize, &mut sc.picked);
            for (i, &node) in sc.picked.iter().enumerate() {
                let rem = st.node_remaining(node).units();
                // The i-th picked node binds to the i-th processor the
                // entry consumes — the same pairing the execution round's
                // per-processor loop realizes.
                let pu = match uniform_units {
                    Some(u) => {
                        min_rem = min_rem.min(rem);
                        u
                    }
                    None => {
                        let pu = self.platform.proc_units()[cursor + i];
                        let q = ticks_to_complete(rem, pu);
                        let short = !rem.is_multiple_of(pu);
                        if q < min_q {
                            (min_q, leftover) = (q, short);
                        } else if q == min_q {
                            leftover |= short;
                        }
                        pu
                    }
                };
                sc.claimed.push((id, node, pu));
            }
            cursor += k as usize;
        }
        if let Some(u) = uniform_units {
            if min_rem != u64::MAX {
                min_q = ticks_to_complete(min_rem, u);
                leftover = !min_rem.is_multiple_of(u);
            }
        }
        (min_q, leftover)
    }

    /// Ticks from `t` to the step's cap: the earliest of `valid_until`, the
    /// lifecycle's next arrival or expiry boundary, and the horizon.
    fn window(&mut self, t: Time) -> u64 {
        let cap = self.valid_until.min(self.clock.horizon());
        self.life
            .next_boundary(self.inst)
            .map_or(cap, |b| b.min(cap))
            .since(t)
    }

    /// Advance every claimed node by `s` ticks of its processor's rate: a
    /// window in which no claimed node finishes, so each consumes its full
    /// rate every tick (remaining > s·units), exactly as `s` reference
    /// ticks would, and no carryover, completion or hook can fire.
    fn advance_quiet(&mut self, t: Time, s: u64) {
        let mut total = 0u64;
        for &(id, node, pu) in &self.scratch.claimed {
            self.life.live[id.index()]
                .as_mut()
                .expect("claimed implies live")
                .advance_bulk(node, s * pu);
            total += s * pu;
        }
        self.platform.record_units(total);
        if self.observing {
            self.observe_quiet(t, s);
        }
    }

    /// Report the `s` quiet ticks from `t` to the observer, each job's
    /// progress being its claimed nodes' summed rate times `s`.
    fn observe_quiet(&mut self, t: Time, s: u64) {
        let sc = &mut self.scratch;
        // `claimed` lists each alloc entry's nodes contiguously, in alloc
        // order: walk it once to sum each job's per-tick rate.
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

    /// Run the `bulk` quiet ticks and the completion tick after them on
    /// the claim list alone: each claimed node gets `bulk + 1` ticks of its
    /// processor's rate in one [`advance`](dagsched_dag::UnfoldState::advance),
    /// in claim order. Fills the completion tick's progress, finished
    /// nodes, completed and touched jobs as the per-processor round does.
    fn run_claimed(&mut self, bulk: u64) {
        let ticks = bulk + 1;
        let sc = &mut self.scratch;
        sc.completions.clear();
        sc.touched.clear();
        if self.observing {
            sc.progress.clear();
            sc.node_done.clear();
        }
        let mut total = 0u64;
        let mut rest = sc.claimed.as_slice();
        for &(id, _) in &sc.alloc {
            let st = self.life.live[id.index()]
                .as_mut()
                .expect("validated alive");
            let cnt = rest.iter().take_while(|&&(j, _, _)| j == id).count();
            let (mine, tail) = rest.split_at(cnt);
            rest = tail;
            let (mut units, mut rate, mut finished_any) = (0u64, 0u64, false);
            for &(_, node, pu) in mine {
                // Saturating: a budget past `u64::MAX` finishes the node
                // exactly as the true one would.
                let (consumed, finished) = st.advance(node, ticks.saturating_mul(pu));
                units += consumed;
                rate += pu;
                if finished {
                    finished_any = true;
                    if self.observing {
                        sc.node_done.push((id, node));
                    }
                }
            }
            total += units;
            if self.observing {
                sc.progress.push((id, units - bulk * rate));
            }
            if st.is_complete() {
                sc.completions.push(id);
            } else if finished_any {
                sc.touched.push(id);
            }
        }
        self.platform.record_units(total);
    }

    /// The per-processor execution round of one tick (phase 6 of
    /// [`step`](Self::step)): fills the tick's progress, finished nodes,
    /// completed and touched jobs, and releases every claim it set.
    ///
    /// Each entry's fresh nodes come from a batch of up to `batch_k` nodes
    /// in the picker's order. Within one tick the entry's eligible set
    /// (ready and unclaimed) only shrinks: a handed-out node stays claimed,
    /// and every node a completion unlocks is claimed before any later
    /// pick can see it. For a deterministic policy the nodes one-node picks
    /// would return are therefore successive prefixes of one policy order
    /// over the tick-start eligible set, so one `k`-node pick per batch
    /// returns the same nodes in the same order. A batch that came back
    /// short has drained the eligible set for the rest of the tick.
    /// `Random`'s reservoir draws per call are part of its output, so it
    /// keeps one call per node.
    fn run_round(&mut self) {
        let sc = &mut self.scratch;
        sc.completions.clear();
        sc.touched.clear();
        if self.observing {
            sc.progress.clear();
            sc.node_done.clear();
        }
        let uniform_units = self.platform.uniform_units();
        let batching = self.cfg.pick.fast_forward_safe();
        // On the fast-forward path the claim pass ran this step: its
        // picks, contiguous per entry in alloc order, are the first
        // batches. (On the naive path the list is always empty.)
        let mut claimed = sc.claimed.as_slice();
        let mut cursor = 0usize;
        for &(id, k) in &sc.alloc {
            let st = self.life.live[id.index()]
                .as_mut()
                .expect("validated alive");
            let mut entry_units = 0u64;
            let mut finished_any = false;
            let batch_k = if batching { k as usize } else { 1 };
            let taken = claimed.iter().take_while(|&&(j, _, _)| j == id).count();
            sc.picked.clear();
            for &(_, node, _) in &claimed[..taken] {
                st.claim(node);
                sc.claims.push((id, node));
                sc.picked.push(node);
            }
            claimed = &claimed[taken..];
            let mut drained = self.fast_forward && taken < batch_k;
            let mut next = 0usize;
            // Nodes that become ready *during* this tick may only be
            // continued by the processor whose completion unlocked them —
            // any other processor has already spent this tick's time.
            // They are claimed for the tick and kept in a per-processor
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
                                self.picker.pick_into(st, batch_k, &mut sc.picked);
                                for &n in &sc.picked {
                                    st.claim(n);
                                    sc.claims.push((id, n));
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
                    let (consumed, node_finished) = st.advance(node, budget);
                    self.platform.record_units(consumed);
                    entry_units += consumed;
                    budget -= consumed;
                    if !node_finished {
                        break;
                    }
                    finished_any = true;
                    if self.observing {
                        sc.node_done.push((id, node));
                    }
                    // Lock newly-ready successors for the rest of the tick;
                    // this processor may continue into them if allowed.
                    let carryover = self.cfg.carryover;
                    st.claim_ready_successors(node, |succ| {
                        sc.claims.push((id, succ));
                        if carryover {
                            sc.continuations.push(succ);
                        }
                    });
                    if !self.cfg.carryover {
                        break;
                    }
                }
            }
            if self.observing {
                sc.progress.push((id, entry_units));
            }
            if st.is_complete() {
                sc.completions.push(id);
            } else if finished_any {
                sc.touched.push(id);
            }
            cursor += k as usize;
        }
        // Entries name distinct jobs (validation rejects duplicates), so
        // releasing every claim after the round equals releasing each
        // entry's claims after the entry.
        self.life.release_claims(&mut sc.claims);
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
    /// whichever comes first. A step may overshoot the target — steps are
    /// never split, which is what keeps a stepped run byte-identical to a
    /// one-shot run. Returns `Ok(true)` while the run is live.
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
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::JobStatus;
    use crate::sched_api::JobInfo;
    use crate::sim::{simulate, SimConfig};
    use dagsched_workload::WorkloadGen;

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
    /// tick 9; rem 9 from t = 5 at 2 units/tick: tick 9 again). An engine
    /// that caches per-node completion ticks must not lose it.
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
        // Steps [0,1) (capped by C's arrival), [1,5) (B's completion tick
        // 4 on the claim list), [5,10) (A's completion tick 9 leaves one
        // unit of budget over: the per-processor round) and [10,101).
        assert_eq!(fast.steps_executed, 4);
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

    /// Records every observer callback as one line: the event stream a
    /// JSONL writer serializes, in order.
    #[derive(Default)]
    struct Lines(Vec<String>);

    impl SimObserver for Lines {
        fn on_start(&mut self, m: u32, speed: dagsched_core::Speed, horizon: Time) {
            self.0.push(format!("start {m} {speed:?} {horizon:?}"));
        }
        fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
            self.0.push(format!("arrival {now:?} {:?}", info.id));
        }
        fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
            self.0.push(format!("admission {now:?} {event:?}"));
        }
        fn on_window(
            &mut self,
            at: Time,
            ticks: u64,
            jobs: &[(JobId, u32)],
            alloc: &[(JobId, u32)],
            progress: &[(JobId, u64)],
        ) {
            self.0.push(format!(
                "window {at:?} {ticks} {jobs:?} {alloc:?} {progress:?}"
            ));
        }
        fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
            self.0.push(format!("node {at:?} {job:?} {node:?}"));
        }
        fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
            self.0.push(format!("complete {at:?} {job:?} {profit}"));
        }
        fn on_job_expired(&mut self, at: Time, job: JobId) {
            self.0.push(format!("expired {at:?} {job:?}"));
        }
        fn on_end(&mut self, at: Time) {
            self.0.push(format!("end {at:?}"));
        }
    }

    /// A one-node job of `work` arriving at `at`, due `deadline` after it.
    fn one_node(id: u32, at: u64, work: u64, deadline: u64) -> dagsched_workload::JobSpec {
        dagsched_workload::JobSpec::new(
            JobId(id),
            Time(at),
            dagsched_dag::gen::single(work).into_shared(),
            dagsched_workload::StepProfitFn::deadline(Time(deadline), 1),
        )
    }

    /// What a checked run on the production path did.
    struct CheckedRun {
        /// Simulated time after each step: where each step ended.
        step_ends: Vec<Time>,
        /// The one-shot run's observer calls.
        lines: Vec<String>,
        result: SimResult,
    }

    /// Drive `inst` step by step on the production path under `cfg`,
    /// recording where each step ended, and check the run against
    /// everything it must equal: the naive path's outcome, and a one-shot
    /// run's `steps_executed` and event stream — both for the step-by-step
    /// run and for one paused with `run_until` at every target in `pauses`.
    fn check_run_on(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        pauses: &[Time],
        cfg: &SimConfig,
    ) -> CheckedRun {
        let mut one_shot_lines = Lines::default();
        let one_shot = {
            let mut s = mk();
            let obs: &mut dyn SimObserver = &mut one_shot_lines;
            SimDriver::with_observer(inst, &mut *s, cfg, obs)
                .finish()
                .unwrap()
        };
        let naive = simulate(
            inst,
            &mut *mk(),
            &SimConfig {
                fast_forward: false,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert!(one_shot.same_outcome(&naive), "production path != naive");

        let mut stepped_lines = Lines::default();
        let mut s = mk();
        let obs: &mut dyn SimObserver = &mut stepped_lines;
        let mut drv = SimDriver::with_observer(inst, &mut *s, cfg, obs);
        let mut step_ends = Vec::new();
        while drv.step().unwrap() {
            step_ends.push(drv.now());
        }
        let stepped = drv.finish().unwrap();
        full_eq(&stepped, &one_shot);
        assert_eq!(stepped_lines.0, one_shot_lines.0, "stepped event stream");

        let mut paused_lines = Lines::default();
        let mut s = mk();
        let obs: &mut dyn SimObserver = &mut paused_lines;
        let mut drv = SimDriver::with_observer(inst, &mut *s, cfg, obs);
        for &target in pauses {
            drv.run_until(target).unwrap();
        }
        let paused = drv.finish().unwrap();
        full_eq(&paused, &one_shot);
        assert_eq!(paused_lines.0, one_shot_lines.0, "paused event stream");

        CheckedRun {
            step_ends,
            lines: one_shot_lines.0,
            result: one_shot,
        }
    }

    /// [`check_run_on`] under the default configuration.
    fn check_run(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        pauses: &[Time],
    ) -> CheckedRun {
        check_run_on(inst, mk, pauses, &SimConfig::default())
    }

    /// The tick after each node completion the run reported: where a
    /// step ends when its completion tick ran in it.
    fn after_node_completions(lines: &[String]) -> Vec<Time> {
        lines
            .iter()
            .filter_map(|l| l.strip_prefix("node Time("))
            .map(|l| Time(l[..l.find(')').unwrap()].parse::<u64>().unwrap() + 1))
            .collect()
    }

    /// A chain of `n` nodes of 10 ticks each on one processor takes one
    /// step per node: its quiet ticks and its completion tick. The
    /// successor leaves the ready count at 1, so the next step replays.
    /// At speed 3/2 a node is 20 scaled units at 3 per tick: node 0 takes
    /// 7 ticks and carries its leftover unit into node 1 in the per-
    /// processor round; node 1 (19 units) takes 7 ticks and carries 2;
    /// node 2 (18 units) finishes with no budget left over, so its
    /// completion tick runs on the claim list alone.
    #[test]
    fn chains_take_one_step_per_node_completion() {
        for (speed, ends) in [
            (dagsched_core::Speed::ONE, [10, 20, 30]),
            (dagsched_core::Speed::new(3, 2).unwrap(), [7, 14, 20]),
        ] {
            let cfg = SimConfig::at_speed(speed);
            for n in [1u32, 3, 8] {
                let inst = Instance::new(
                    1,
                    vec![dagsched_workload::JobSpec::new(
                        JobId(0),
                        Time(0),
                        dagsched_dag::gen::chain(n, 10).into_shared(),
                        dagsched_workload::StepProfitFn::deadline(Time(1000), 1),
                    )],
                )
                .unwrap();
                let run = check_run_on(&inst, &|| Box::new(Greedy), &[], &cfg);
                assert_eq!(run.result.steps_executed, u64::from(n), "{speed:?}");
                assert_eq!(run.step_ends, after_node_completions(&run.lines));
                let k = ends.len().min(n as usize);
                assert_eq!(run.step_ends[..k], ends.map(Time)[..k], "{speed:?} n = {n}");
            }
        }
    }

    /// An arrival on the completion tick (t = 9, job 0's last tick) ends
    /// the window before it: the step at t = 9 admits job 1, which takes
    /// the processor, and job 0 finishes its last unit after it. An
    /// arrival on the tick after (t = 10) leaves job 0's window whole.
    #[test]
    fn arrival_on_the_completion_tick_ends_the_window() {
        let mk = || -> Box<dyn OnlineScheduler> {
            Box::new(Pinned {
                select: vec![1, 0],
                place: vec![1, 0],
            })
        };
        for (at, ends, done) in [(9, vec![9, 12, 13], 13), (10, vec![10, 13], 10)] {
            let inst =
                Instance::new(1, vec![one_node(0, 0, 10, 1000), one_node(1, at, 3, 1000)]).unwrap();
            let run = check_run(&inst, &mk, &[Time(4), Time(9), Time(10)]);
            assert_eq!(
                run.step_ends,
                ends.into_iter().map(Time).collect::<Vec<_>>()
            );
            assert_eq!(
                run.result.outcomes[0],
                JobStatus::Completed {
                    at: Time(done),
                    profit: 1
                },
                "arrival at {at}"
            );
        }
    }

    /// An expiry on the completion tick ends the window before it: job 0
    /// (deadline 9) expires at t = 9, the tick it would have finished on,
    /// and job 1 runs alone from there. With deadline 10 job 0's expiry
    /// key is the tick after its completion tick, so its window stays
    /// whole, it completes at t = 10, and the cursor skips its key.
    #[test]
    fn expiry_on_the_completion_tick_ends_the_window() {
        for (deadline, job0) in [
            (9, JobStatus::Expired { at: Time(9) }),
            (
                10,
                JobStatus::Completed {
                    at: Time(10),
                    profit: 1,
                },
            ),
        ] {
            let inst = Instance::new(
                2,
                vec![one_node(0, 0, 10, deadline), one_node(1, 0, 20, 1000)],
            )
            .unwrap();
            let run = check_run(&inst, &|| Box::new(Greedy), &[Time(5), Time(9)]);
            assert_eq!(run.step_ends, vec![Time(deadline), Time(20)]);
            assert_eq!(run.result.outcomes[0], job0, "deadline {deadline}");
            assert_eq!(
                run.result.outcomes[1],
                JobStatus::Completed {
                    at: Time(20),
                    profit: 1
                }
            );
        }
    }

    /// Boundedly stable test scheduler: arrival order in even shifts of
    /// `period` ticks, reverse arrival order in odd ones, one processor per
    /// ready node. `stable_until` is the end of the current shift, as
    /// S-profit's is the end of the current slot run.
    struct Shifts {
        period: u64,
    }

    impl OnlineScheduler for Shifts {
        fn name(&self) -> String {
            "shifts-test".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            let mut jobs: Vec<(JobId, u32)> = view.jobs().to_vec();
            if (view.now.0 / self.period) % 2 == 1 {
                jobs.reverse();
            }
            let mut left = view.m;
            let mut out = Vec::new();
            for (id, ready) in jobs {
                let k = ready.min(left);
                if k > 0 {
                    out.push((id, k));
                    left -= k;
                }
            }
            out
        }
        fn bounded_stability(&self) -> bool {
            true
        }
        fn stable_until(&self, now: Time) -> Option<Time> {
            Some(Time((now.0 / self.period + 1) * self.period))
        }
    }

    /// A `stable_until` boundary on the completion tick ends the window
    /// before it. With shifts of 9 ticks, job 0's last tick (t = 9) opens
    /// an odd shift that hands the processor to job 1; job 0 finishes its
    /// last unit in the next even shift (t = 18, a one-tick step), and
    /// job 1's windows end at each shift change until its last 4 units
    /// fit inside one. With shifts of 10 the boundary falls on the tick
    /// after job 0's completion tick, and every window runs whole.
    #[test]
    fn stable_until_boundary_on_the_completion_tick_ends_the_window() {
        for (period, ends, done0) in [
            (9, vec![9, 18, 19, 27, 36, 40], 19),
            (10, vec![10, 20, 30, 40], 10),
        ] {
            let inst =
                Instance::new(1, vec![one_node(0, 0, 10, 1000), one_node(1, 0, 30, 1000)]).unwrap();
            let run = check_run(&inst, &|| Box::new(Shifts { period }), &[Time(9), Time(18)]);
            assert_eq!(
                run.step_ends,
                ends.into_iter().map(Time).collect::<Vec<_>>()
            );
            assert_eq!(
                run.result.outcomes,
                vec![
                    JobStatus::Completed {
                        at: Time(done0),
                        profit: 1
                    },
                    JobStatus::Completed {
                        at: Time(40),
                        profit: 1
                    },
                ],
                "period {period}"
            );
        }
    }

    /// A fully stable scheduler that leaves a job alive with an empty
    /// allocation idles in one step per boundary-free stretch: job 0 is
    /// never picked, so [0, 20) ends at job 1's arrival, job 1 runs
    /// [20, 25), and [25, 50) ends at job 0's expiry. The step at t = 50
    /// expires the last alive job and charges the naive path's tick.
    #[test]
    fn stable_idle_stretches_take_one_step_each() {
        let inst =
            Instance::new(1, vec![one_node(0, 0, 10, 50), one_node(1, 20, 5, 1000)]).unwrap();
        let mk = || -> Box<dyn OnlineScheduler> {
            Box::new(Pinned {
                select: vec![1],
                place: vec![1],
            })
        };
        let run = check_run(&inst, &mk, &[Time(3), Time(22), Time(30)]);
        assert_eq!(
            run.step_ends,
            [20, 25, 50, 51].map(Time).to_vec(),
            "idle, busy, idle, the expiry tick"
        );
        assert_eq!(run.result.ticks_simulated, 51);
        assert!(run
            .lines
            .contains(&"window Time(0) 20 [(JobId(0), 1)] [] []".to_string()));
        assert!(run
            .lines
            .contains(&"window Time(25) 25 [(JobId(0), 1)] [] []".to_string()));
    }

    /// When the last alive job leaves during the step's own event phases
    /// (here: job 0 expires at t = 30 with nothing pending), no boundary is
    /// left to cap an idle window, and the step charges the single tick
    /// the naive path runs before its run guard ends the run.
    #[test]
    fn last_job_leaving_in_the_event_phases_charges_one_tick() {
        for select in [vec![], vec![0]] {
            let inst = Instance::new(1, vec![one_node(0, 0, 40, 30)]).unwrap();
            let mk = || -> Box<dyn OnlineScheduler> {
                Box::new(Pinned {
                    select: select.clone(),
                    place: select.clone(),
                })
            };
            let run = check_run(&inst, &mk, &[Time(10)]);
            assert_eq!(run.step_ends, vec![Time(30), Time(31)], "{select:?}");
            assert_eq!(run.result.ticks_simulated, 31);
            assert_eq!(run.result.outcomes[0], JobStatus::Expired { at: Time(30) });
        }
    }

    /// [`Greedy`] without a stability declaration: asked afresh every
    /// tick, so every step is one tick.
    struct Undeclared;

    impl OnlineScheduler for Undeclared {
        fn name(&self) -> String {
            "undeclared-test".into()
        }
        fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            Greedy.allocate(view)
        }
    }

    /// An undeclared scheduler shares the claim pass, capped at one tick:
    /// on the speed-3/2 chain of `chains_take_one_step_per_node_completion`
    /// (nodes 0 and 1 carry leftover budget into their successors in the
    /// per-processor round) it takes one step per tick, and its event
    /// stream is the naive path's, window for window.
    #[test]
    fn undeclared_scheduler_runs_the_carryover_chain_one_tick_a_step() {
        let cfg = SimConfig::at_speed(dagsched_core::Speed::new(3, 2).unwrap());
        let inst = Instance::new(
            1,
            vec![dagsched_workload::JobSpec::new(
                JobId(0),
                Time(0),
                dagsched_dag::gen::chain(3, 10).into_shared(),
                dagsched_workload::StepProfitFn::deadline(Time(1000), 1),
            )],
        )
        .unwrap();
        let run = check_run_on(&inst, &|| Box::new(Undeclared), &[Time(6), Time(7)], &cfg);
        assert_eq!(run.step_ends, (1..=20).map(Time).collect::<Vec<_>>());
        assert_eq!(after_node_completions(&run.lines), [7, 14, 20].map(Time));
        let mut naive = Lines::default();
        let naive_cfg = SimConfig {
            fast_forward: false,
            ..cfg
        };
        let obs: &mut dyn SimObserver = &mut naive;
        SimDriver::with_observer(&inst, &mut Undeclared, &naive_cfg, obs)
            .finish()
            .unwrap();
        assert_eq!(run.lines, naive.0);
        assert!(run.lines.contains(
            &"window Time(6) 1 [(JobId(0), 1)] [(JobId(0), 1)] [(JobId(0), 3)]".to_string()
        ));
    }

    /// `run_until` targets inside a step (a quiet tick, or the completion
    /// tick itself) are overshot, never split: the paused run is the
    /// one-shot run, event for event.
    #[test]
    fn run_until_pauses_inside_a_merged_step() {
        let inst = WorkloadGen::standard(4, 30, 5).generate().unwrap();
        let probe = check_run(&inst, &|| Box::new(Greedy), &[]);
        let merged: Vec<Time> = after_node_completions(&probe.lines)
            .into_iter()
            .filter(|t| probe.step_ends.contains(t))
            .collect();
        assert!(
            merged.len() > 10,
            "the workload must run completion ticks inside merged steps often"
        );
        let mut pauses: Vec<Time> = merged
            .iter()
            .flat_map(|&end| [Time(end.0 - 2), Time(end.0 - 1)])
            .collect();
        pauses.sort();
        let run = check_run(&inst, &|| Box::new(Greedy), &pauses);
        assert_eq!(run.step_ends, probe.step_ends);
    }

    /// Earliest-deadline-first test scheduler: alive jobs by absolute
    /// deadline (then id), each given as many processors as it has ready
    /// nodes.
    #[derive(Default)]
    struct DeadlineFirst {
        deadline: Vec<Time>,
    }

    impl OnlineScheduler for DeadlineFirst {
        fn name(&self) -> String {
            "edf-test".into()
        }
        fn on_arrival(&mut self, job: &JobInfo, _now: Time) {
            let i = job.id.index();
            if self.deadline.len() <= i {
                self.deadline.resize(i + 1, Time::MAX);
            }
            self.deadline[i] = job.abs_deadline().unwrap_or(Time::MAX);
        }
        fn on_completion(&mut self, _id: JobId, _now: Time) {}
        fn on_expiry(&mut self, _id: JobId, _now: Time) {}
        fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
            let mut order = view.jobs().to_vec();
            order.sort_by_key(|&(id, _)| (self.deadline[id.index()], id));
            let mut left = view.m;
            let mut out = Vec::new();
            for (id, ready) in order {
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

    /// The large-alive shape of the `parked-dense` benchmark (as copied in
    /// `tests/golden_outputs.rs`): `n` background jobs (work 9,500–10,500)
    /// at `t = 0` with deadline `far`, and `n` tiny foreground jobs with
    /// deadline 60 saturating `m = 4`, two single nodes or one 2-node chain
    /// per tick.
    fn parked_instance(n: usize, chains: bool, seed: u64, far: u64) -> Instance {
        use dagsched_workload::{JobSpec, StepProfitFn};
        let mut rng = dagsched_core::Rng64::seed_from(seed).child(chains as u64);
        let mut jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                JobSpec::new(
                    JobId(i as u32),
                    Time(0),
                    dagsched_dag::gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                    StepProfitFn::deadline(Time(far), 1),
                )
            })
            .collect();
        let per_tick = if chains { 1 } else { 2 };
        for i in 0..n {
            let dag = if chains {
                dagsched_dag::gen::chain(2, 2)
            } else {
                dagsched_dag::gen::single(2)
            };
            jobs.push(JobSpec::new(
                JobId((n + i) as u32),
                Time((i / per_tick) as u64),
                dag.into_shared(),
                StepProfitFn::deadline(Time(60), 3),
            ));
        }
        Instance::new(4, jobs).unwrap()
    }

    /// The expiry cursor's work under EDF: every key it passes is either
    /// a due expiry or the key of a job that already completed, and no key
    /// is passed twice. On the parked shape the foreground jobs complete
    /// and their keys are skipped, and the background survivors expire in
    /// one wave; on a standard instance every job completes, so every key
    /// passed is skipped (the run ends before the last key). Pinned so a
    /// change to the index shows here.
    #[test]
    fn expiry_cursor_passes_each_key_once() {
        use crate::lifecycle::CursorCounts;
        let run = |inst: &Instance| {
            let cfg = SimConfig::default();
            let mut sched = DeadlineFirst::default();
            let mut drv = SimDriver::new(inst, &mut sched, &cfg);
            while drv.step().unwrap() {}
            let counts = drv.life.counts;
            assert!(
                (counts.due + counts.skipped) as usize <= inst.expiry_order().len(),
                "{counts:?} passes more keys than the instance has"
            );
            let r = drv.finish().unwrap();
            (counts, r.expired())
        };
        let counts = |due, skipped| CursorCounts { due, skipped };
        for (chains, want, expired) in [
            (false, counts(995, 1_005), 995),
            (true, counts(996, 1_004), 996),
        ] {
            let inst = parked_instance(1_000, chains, 3, 20_000);
            assert_eq!(inst.expiry_order().len(), 2_000, "every key is passed");
            assert_eq!(run(&inst), (want, expired), "chains = {chains}");
        }
        let inst = WorkloadGen::standard(8, 400, 7).generate().unwrap();
        assert_eq!(run(&inst), (counts(0, 399), 0));
    }
}
