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
//! the `stream_equiv` suite in `crates/verify` holds this
//! byte-identical for every production scheduler.

use crate::clock::{auto_horizon, Clock};
use crate::events::EventKernel;
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
/// the reference path's rebuilt tick view, validation output, expired ids,
/// the pick batch, per-processor continuations, the fast-forward claim
/// list, the run-wide list of claimed nodes, and the observation payload
/// builders.
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
    /// Every node whose claim bit is set, in claim order: released after
    /// the execution round, or — for a held window — when the next step
    /// asks afresh.
    claims: Vec<(JobId, NodeId)>,
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
    /// Whether bulk fast-forward windows are engaged (pinned at
    /// construction: production path, scheduler opt-in, deterministic
    /// pick).
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
    /// The last bulk window ended one tick before its earliest claimed
    /// completion, and `scratch.claimed` is still claimed: if this
    /// step replays, those claims are exactly what the claim pass would
    /// pick again, and one of them finishes this tick.
    held: bool,
    /// `obs.is_active()`, pinned at construction; a compile-time `false`
    /// for the [`NullObserver`] instantiation.
    observing: bool,
    done: bool,
    poisoned: bool,
    scratch: StepScratch,
    /// Number of claim passes run, for tests that pin what held claims
    /// save.
    #[cfg(test)]
    claim_passes: u64,
    /// Number of held claim sets released by a fresh ask instead of run.
    #[cfg(test)]
    held_released: u64,
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
        // The fast-forward path needs every source of per-tick variation
        // pinned down: a scheduler whose allocation is stable between
        // events (fully, or boundedly with `stable_until` capping every
        // window) and a deterministic pick policy.
        let stability = if sched.allocation_stable_between_events() {
            Stability::Full
        } else if sched.bounded_stability() {
            Stability::Bounded
        } else {
            Stability::PerTick
        };
        let fast_forward =
            cfg.fast_forward && cfg.pick.fast_forward_safe() && stability != Stability::PerTick;
        let mut kernel = EventKernel::new(horizon);
        if cfg.fast_forward {
            kernel.arm_arrival(jobs[0].arrival);
        }
        SimDriver {
            clock: Clock::new(jobs[0].arrival, horizon),
            platform,
            life: Lifecycle::new(n),
            picker: Picker::new(cfg.pick.clone()),
            kernel,
            fast_forward,
            stability,
            replay_before: Time(0),
            held: false,
            observing,
            done: false,
            poisoned: false,
            scratch: StepScratch::default(),
            #[cfg(test)]
            claim_passes: 0,
            #[cfg(test)]
            held_released: 0,
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
        let arrived = self.life.admit_arrivals(
            jobs,
            t,
            self.platform.work_scale(),
            self.sched,
            &mut self.obs,
        );
        if arrived && production {
            // Re-arm the arrival cursor past the admitted batch.
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
                self.inst.expiry_order(),
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
        // nothing writes between steps) is replayed. Otherwise release any
        // claims the last window held, ask for a fresh allocation and open
        // its window. Reference: rebuild the view from scratch into the
        // hoisted buffer and ask every tick.
        //
        // `fresh_until` keeps `stable_until(t)` when this step asked a
        // bounded scheduler afresh, so the window cap in phase 5 need not
        // ask again.
        let mut fresh = !production;
        let mut fresh_until = None;
        if production {
            if self.life.view_changed || t >= self.replay_before {
                if std::mem::take(&mut self.held) {
                    self.life.release_claims(&mut self.scratch.claims);
                    #[cfg(test)]
                    {
                        self.held_released += 1;
                    }
                }
                let view = TickView::new(self.platform.m(), t, self.life.view())
                    .with_groups(self.platform.groups());
                self.sched.allocate_into(&view, &mut self.scratch.alloc);
                self.life.view_changed = false;
                fresh = true;
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

        // 5. Fast-forward: with a stable scheduler and a deterministic
        // picker, nothing observable changes until the next event. Claim
        // this tick's nodes — the batch the execution round below hands
        // out — find the widest window in which no claimed node can
        // finish and no arrival / expiry / horizon boundary falls, and
        // advance the whole window in one engine step.
        //
        // A window that ends one tick before its earliest claimed
        // completion keeps its claims (`held`). Picks are a pure function
        // of each job's ready list and claim bits, and no node completes
        // inside a window, so if the next step replays, the claim pass
        // would pick the same nodes again — and one of them finishes that
        // tick (`s == 0`). That step runs the tick on the held claims
        // directly; a step that asks afresh released them in phase 3.
        if self.fast_forward {
            let sc = &mut self.scratch;
            // Bounded stability: the plan may change at the scheduler's
            // next boundary even with no job event in between, so every
            // window is additionally capped at `stable_until`. `None`
            // means no further boundary (stable to the next event, like a
            // fully stable scheduler); a boundary at or before `t` means a
            // single-tick window. The cap is computed only where a window
            // can open — not on a step where a claimed node finishes this
            // tick — so such a step asks `stable_until` nothing.
            let bounded = self.stability == Stability::Bounded;
            let sched = &self.sched;
            let bound_cap = || {
                if !bounded {
                    return u64::MAX;
                }
                match fresh_until.unwrap_or_else(|| sched.stable_until(t)) {
                    Some(until) if until > t => until.since(t),
                    Some(_) => 1,
                    None => u64::MAX,
                }
            };
            // Held claims: one of them finishes this tick.
            let mut min_q = 1;
            if !std::mem::take(&mut self.held) {
                #[cfg(test)]
                {
                    self.claim_passes += 1;
                }
                sc.claimed.clear();
                // Ticks until the earliest claimed completion,
                // ceil(remaining / units): within `min_q - 1` ticks no
                // claimed node finishes, so the ready sets — and with them
                // every pick and every allocation — are frozen. A uniform
                // platform folds the smallest remaining work and divides
                // once; a heterogeneous one divides per node by its
                // processor's rate.
                min_q = u64::MAX;
                let mut min_rem = u64::MAX;
                let mut cursor = 0usize;
                for &(id, k) in &sc.alloc {
                    let st = self.life.live[id.index()]
                        .as_mut()
                        .expect("validated alive");
                    self.picker.pick_into(st, k as usize, &mut sc.picked);
                    for (i, &node) in sc.picked.iter().enumerate() {
                        st.claim(node);
                        sc.claims.push((id, node));
                        let rem = st.node_remaining(node).units();
                        // The i-th picked node binds to the i-th processor
                        // the entry consumes — the same pairing the
                        // execution round's per-processor loop realizes.
                        let pu = match uniform_units {
                            Some(u) => {
                                min_rem = min_rem.min(rem);
                                u
                            }
                            None => {
                                let pu = self.platform.proc_units()[cursor + i];
                                min_q = min_q.min(ticks_to_complete(rem, pu));
                                pu
                            }
                        };
                        sc.claimed.push((id, node, pu));
                    }
                    cursor += k as usize;
                }
                if let Some(u) = uniform_units {
                    if min_rem != u64::MAX {
                        min_q = if min_rem <= u {
                            1
                        } else {
                            ticks_to_complete(min_rem, u)
                        };
                    }
                }
            }
            // Window width in ticks. Every cap is ≥ 1 (after the idle
            // skip the next arrival is strictly in the future, after step 2
            // every zero-tail job is strictly before its expiry boundary,
            // and the run guard keeps t < horizon), so s == 0 iff a claimed
            // node completes this very tick — which runs as a single-tick
            // round below. An empty claim set (empty allocation) also runs
            // the single tick: the naive path counts allocation-idle ticks
            // one by one, and `ticks_simulated` must stay byte-identical.
            // `min_q == 1` needs no kernel query: a claimed node finishes
            // this tick, so `s == 0` whatever the next boundary is.
            if !sc.claimed.is_empty() {
                let s = if min_q == 1 {
                    0
                } else {
                    let life = &self.life;
                    let w = self
                        .kernel
                        .window(t, self.inst.expiry_order(), |id| life.is_terminal(id));
                    (min_q - 1).min(w).min(bound_cap())
                };
                if s > 0 {
                    // No claimed node completes within the window: each
                    // consumes its processor's full rate per tick
                    // (remaining > s·units of that processor), exactly as
                    // `s` reference ticks would, and no carryover,
                    // completion or hook can fire.
                    let mut total = 0u64;
                    for &(id, node, pu) in &sc.claimed {
                        self.life.live[id.index()]
                            .as_mut()
                            .expect("claimed implies live")
                            .advance_bulk(node, s * pu);
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
                    if s == min_q - 1 {
                        self.held = true;
                    } else {
                        self.life.release_claims(&mut sc.claims);
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
                let life = &self.life;
                let w = self
                    .kernel
                    .window(t, self.inst.expiry_order(), |id| life.is_terminal(id));
                let s = w.min(bound_cap());
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
            // nodes (still claimed) as each entry's first batch and
            // handles completion, carryover and unlocking.
        }

        // 6. Execute one tick (both paths).
        //
        // Each entry's fresh nodes come from a batch of up to `batch_k`
        // nodes in the picker's order. Within one tick the entry's eligible
        // set (ready and unclaimed) only shrinks: a handed-out node stays
        // claimed, and every node a completion unlocks is claimed below
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
            let st = self.life.live[id.index()]
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
            }
            cursor += k as usize;
        }
        // Entries name distinct jobs (validation rejects duplicates), so
        // releasing every claim after the round equals releasing each
        // entry's claims after the entry.
        self.life.release_claims(&mut sc.claims);
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
            let st = self.life.live[id.index()]
                .as_ref()
                .expect("validated alive");
            if !st.is_complete() {
                self.life.patch_ready(id);
            }
        }

        // 7. Completions take effect at t+1.
        let t_done = t.after(1);
        self.life
            .complete(jobs, t_done, &sc.completions, self.sched, &mut self.obs);
        let completed_any = !sc.completions.is_empty();
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

    /// What a run on the production path did with held claims.
    struct HeldRun {
        /// Times at which a bulk window ended holding its claims.
        held_ends: Vec<Time>,
        claim_passes: u64,
        held_released: u64,
        result: SimResult,
    }

    /// Drive `inst` step by step on the production path, recording where
    /// windows held their claims, and check the run against everything it
    /// must equal: the naive path's outcome, and a one-shot run's
    /// `steps_executed` and event stream — both for the step-by-step run
    /// and for one paused with `run_until` at every target in `pauses`.
    fn check_held_run(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        pauses: &[Time],
    ) -> HeldRun {
        check_held_run_on(inst, mk, pauses, &SimConfig::default())
    }

    /// [`check_held_run`] under `cfg`.
    fn check_held_run_on(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        pauses: &[Time],
        cfg: &SimConfig,
    ) -> HeldRun {
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
        let mut held_ends = Vec::new();
        while drv.step().unwrap() {
            if drv.held {
                held_ends.push(drv.now());
            }
        }
        let (claim_passes, held_released) = (drv.claim_passes, drv.held_released);
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

        HeldRun {
            held_ends,
            claim_passes,
            held_released,
            result: one_shot,
        }
    }

    /// A chain of `n` nodes of 10 ticks each on one processor: every node
    /// runs as one 9-tick window that ends a tick before the node finishes
    /// and holds its claim, then one completion tick that reuses it. The
    /// successor leaves the ready count at 1, so the next window replays
    /// without a fresh ask. Held claims save one claim pass per node:
    /// `n` passes for `2n` steps instead of `2n`. At speed 3/2 a node of
    /// 20 scaled units takes ceil(20 / 3) = 7 ticks (and carryover moves
    /// the leftover unit of each completion tick into the successor), so
    /// the windows are no longer 9 ticks but the count is the same.
    #[test]
    fn held_claims_save_one_claim_pass_per_completion_tick() {
        for speed in [
            dagsched_core::Speed::ONE,
            dagsched_core::Speed::new(3, 2).unwrap(),
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
                let run = check_held_run_on(&inst, &|| Box::new(Greedy), &[], &cfg);
                let n = u64::from(n);
                assert_eq!(run.result.steps_executed, 2 * n, "{speed:?}");
                assert_eq!(run.claim_passes, n, "one claim pass per node, not two");
                assert_eq!(run.held_released, 0);
                assert_eq!(run.held_ends.len() as u64, n);
                if speed == dagsched_core::Speed::ONE {
                    let ends: Vec<Time> = (0..n).map(|i| Time(10 * i + 9)).collect();
                    assert_eq!(run.held_ends, ends);
                }
            }
        }
    }

    /// Arrivals cap two windows. The one at t = 4 falls before the running
    /// node's last tick, so that window releases its claim; the one at
    /// t = 9 lands on a held window's end and preempts the held job, so
    /// the fresh ask must release the held claim (the preempted job would
    /// otherwise keep its node claimed and never finish).
    #[test]
    fn arrival_at_a_held_window_end_releases_the_claims() {
        let inst = Instance::new(
            1,
            vec![
                one_node(0, 0, 10, 1000),
                one_node(1, 4, 3, 1000),
                one_node(2, 9, 5, 1000),
            ],
        )
        .unwrap();
        let mk = || -> Box<dyn OnlineScheduler> {
            Box::new(Pinned {
                select: vec![2, 0, 1],
                place: vec![2, 0, 1],
            })
        };
        let run = check_held_run(&inst, &mk, &[Time(4), Time(9)]);
        assert_eq!(run.held_ends, vec![Time(9), Time(13), Time(17)]);
        assert_eq!(
            run.held_released, 1,
            "only the arrival at t = 9 meets held claims"
        );
        assert_eq!(
            run.result.outcomes[0],
            JobStatus::Completed {
                at: Time(15),
                profit: 1
            }
        );
    }

    /// Expiries cap two windows. Job 1, never run, expires at t = 5, before
    /// job 0's node is due, so that window releases its claim. Job 0 itself
    /// expires at t = 9, the end of a held window: its claim bit stays set
    /// in the pooled state, which job 2 reuses at t = 12. Admission resets
    /// every claim bit, so job 2 runs normally.
    #[test]
    fn expiry_at_a_held_window_end_drops_the_claims_with_the_job() {
        let inst = Instance::new(
            1,
            vec![
                one_node(0, 0, 10, 9),
                one_node(1, 0, 1, 5),
                one_node(2, 12, 4, 1000),
            ],
        )
        .unwrap();
        let run = check_held_run(&inst, &|| Box::new(Greedy), &[Time(5), Time(9)]);
        assert_eq!(run.held_ends, vec![Time(9), Time(15)]);
        assert_eq!(
            run.held_released, 1,
            "only the expiry at t = 9 meets held claims"
        );
        assert_eq!(run.result.outcomes[0], JobStatus::Expired { at: Time(9) });
        assert_eq!(run.result.outcomes[1], JobStatus::Expired { at: Time(5) });
        assert_eq!(
            run.result.outcomes[2],
            JobStatus::Completed {
                at: Time(16),
                profit: 1
            }
        );
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

    /// A `stable_until` boundary lands on a held window's end: the shift
    /// change at t = 9 asks afresh and hands the processor to the other
    /// job, so the held claim must be released there. The shift changes at
    /// t = 18, 27 and 36 cap windows that end before any node is due, so
    /// those windows release their claims; the window from t = 36 ends a
    /// tick before job 1 finishes and holds.
    #[test]
    fn stable_until_boundary_at_a_held_window_end_releases_the_claims() {
        let inst =
            Instance::new(1, vec![one_node(0, 0, 10, 1000), one_node(1, 0, 30, 1000)]).unwrap();
        let run = check_held_run(
            &inst,
            &|| Box::new(Shifts { period: 9 }),
            &[Time(9), Time(18)],
        );
        assert_eq!(run.held_ends, vec![Time(9), Time(39)]);
        assert_eq!(
            run.held_released, 1,
            "only the shift change at t = 9 meets held claims"
        );
        assert_eq!(
            run.result.outcomes,
            vec![
                JobStatus::Completed {
                    at: Time(19),
                    profit: 1
                },
                JobStatus::Completed {
                    at: Time(40),
                    profit: 1
                },
            ]
        );
    }

    /// `run_until` pauses exactly at each held window's end: the claims
    /// stay held across the pause and the resumed run is the one-shot run.
    #[test]
    fn run_until_pause_at_a_held_window_end_keeps_the_claims() {
        let inst = WorkloadGen::standard(4, 30, 5).generate().unwrap();
        let probe = check_held_run(&inst, &|| Box::new(Greedy), &[]);
        assert!(
            probe.held_ends.len() > 10,
            "the workload must hold claims often"
        );
        let run = check_held_run(&inst, &|| Box::new(Greedy), &probe.held_ends);
        assert_eq!(run.held_ends, probe.held_ends);
        assert_eq!(run.claim_passes, probe.claim_passes);
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
        use crate::events::CursorCounts;
        let run = |inst: &Instance| {
            let cfg = SimConfig::default();
            let mut sched = DeadlineFirst::default();
            let mut drv = SimDriver::new(inst, &mut sched, &cfg);
            while drv.step().unwrap() {}
            let counts = drv.kernel.counts;
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
