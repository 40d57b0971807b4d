//! The five-headed oracle: what "the fuzzer found something" means.
//!
//! Every candidate instance is judged by up to five independent checks,
//! in order, stopping at the first failure:
//!
//! 1. **Invariants** — the `dagsched-verify` suite (band capacity per
//!    Observation 3, allotment discipline per Lemma 1, δ-goodness, work
//!    conservation) attached to a full run. The suite is built lenient so
//!    the loop collects violations rather than unwinding; under the
//!    `verify-strict` feature the semantics are identical, only the
//!    failure transport differs.
//! 2. **Kernel vs scan** — the run repeated under
//!    [`WindowMode::EventKernel`] and [`WindowMode::ReferenceScan`] must
//!    produce the same outcome, the same step count, and byte-identical
//!    JSONL event streams.
//! 3. **Paused vs one-shot** — a [`SimDriver`] paused at several
//!    deterministically-derived horizons must finish byte-identical to the
//!    one-shot kernel run (the pacing-invisibility contract).
//! 4. **Delta vs rebuild** — the run repeated under
//!    [`HandoffMode::Delta`] and [`HandoffMode::Rebuild`] must produce the
//!    same outcome, step count and JSONL stream (the incremental-handoff
//!    contract from DESIGN.md §4.8).
//! 5. **Grouped vs scalar** — a uniform single-group
//!    [`MachineGroups`] platform at the base config's speed must be
//!    byte-identical (outcome, step count, JSONL) to the frozen
//!    [`PlatformMode::Scalar`] twin — the related-machines refactor's
//!    scalar-twin contract (DESIGN.md §4.9). This head always compares the
//!    *uniform* platform, whatever group shape the candidate is judged
//!    under elsewhere.
//!
//! A simulation error from any head is itself a failure (`sim-error`) —
//! that is how scheduler mutants that emit invalid allocations are caught.
//!
//! The coverage features of head 1's run are returned alongside the
//! verdict, so one exec yields both signals with at most eight simulations.
//!
//! All heads run over a caller-supplied *base* [`SimConfig`]
//! ([`run_exec_with`]) so the fuzz loop can judge candidates under the
//! mutated window/handoff configuration axis; the differential heads
//! override only the knob they are comparing.

use crate::coverage::CoverageObserver;
use dagsched_core::{AlgoParams, MachineGroups, Rng64, Time};
use dagsched_engine::{
    simulate_observed, HandoffMode, Observers, OnlineScheduler, PlatformMode, SimConfig, SimDriver,
    SimObserver, SimResult, WindowMode,
};
use dagsched_sched::{SchedulerS, SchedulerSProfit};
use dagsched_verify::{EventLog, InvariantSuite, WorkConservationChecker};
use dagsched_workload::Instance;
use std::collections::BTreeSet;

/// Which invariant checkers apply to a subject scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantProfile {
    /// The full scheduler-S suite (band, allotment, δ-good, work).
    SchedulerS {
        /// Relax the exact-allotment discipline (the S-wc variant).
        backfill: bool,
    },
    /// Only the universal work-conservation checker (baseline schedulers).
    WorkOnly,
    /// No invariant head (differential oracles only).
    Off,
}

/// The scheduler under test plus the invariant vocabulary that applies to
/// it. The default subject is the paper's scheduler S; the mutant-kill
/// tests substitute deliberately broken schedulers.
pub struct Subject {
    name: String,
    profile: InvariantProfile,
    make: Box<dyn Fn(u32) -> Box<dyn OnlineScheduler>>,
}

impl Subject {
    /// A subject from a factory closure (called once per simulation with
    /// the instance's machine count).
    pub fn new(
        name: impl Into<String>,
        profile: InvariantProfile,
        make: impl Fn(u32) -> Box<dyn OnlineScheduler> + 'static,
    ) -> Subject {
        Subject {
            name: name.into(),
            profile,
            make: Box::new(make),
        }
    }

    /// The default subject: scheduler S at ε = 1 with the full suite.
    pub fn scheduler_s() -> Subject {
        Subject::new("S", InvariantProfile::SchedulerS { backfill: false }, |m| {
            Box::new(SchedulerS::with_epsilon(m, 1.0))
        })
    }

    /// The general-profit subject: S-profit at ε = 1. Its slot-assignment
    /// admission deliberately breaks S's exact-allotment discipline, so only
    /// the universal work-conservation invariant applies; the differential
    /// heads (kernel/pause/handoff/twin) carry the byte-equality burden —
    /// which is exactly where the slot-plan fast path would show a crack.
    pub fn scheduler_s_profit() -> Subject {
        Subject::new("S-profit", InvariantProfile::WorkOnly, |m| {
            Box::new(SchedulerSProfit::with_epsilon(m, 1.0))
        })
    }

    /// The subject's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiate the scheduler for `m` machines.
    pub fn instantiate(&self, m: u32) -> Box<dyn OnlineScheduler> {
        (self.make)(m)
    }
}

/// Which oracle heads run. All on by default; the mutant-kill tests switch
/// the differential heads off for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSet {
    /// Head 1: the invariant suite.
    pub invariants: bool,
    /// Head 2: kernel-vs-scan byte equality.
    pub kernel_diff: bool,
    /// Head 3: paused-vs-one-shot byte equality.
    pub pause_diff: bool,
    /// Head 4: delta-vs-rebuild handoff byte equality.
    pub handoff_diff: bool,
    /// Head 5: uniform-grouped-vs-scalar-twin byte equality.
    pub twin_diff: bool,
}

impl Default for OracleSet {
    fn default() -> OracleSet {
        OracleSet {
            invariants: true,
            kernel_diff: true,
            pause_diff: true,
            handoff_diff: true,
            twin_diff: true,
        }
    }
}

/// A failed oracle head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which head failed: `invariants`, `kernel-vs-scan`,
    /// `paused-vs-oneshot`, `delta-vs-rebuild`, `grouped-vs-scalar`, or
    /// `sim-error`.
    pub oracle: &'static str,
    /// Human-readable evidence (violation list or first diverging line).
    pub detail: String,
}

/// The result of one fuzz exec: coverage features plus an optional failure.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Feature ids from the invariant head's run.
    pub features: BTreeSet<u32>,
    /// The first failing oracle head, if any.
    pub failure: Option<OracleFailure>,
}

fn first_diff(label: &str, a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("{label}: line {i}: {la:.120} != {lb:.120}");
        }
    }
    format!(
        "{label}: streams are a prefix of each other ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

fn run_under(
    inst: &Instance,
    subject: &Subject,
    cfg: &SimConfig,
    label: &str,
) -> Result<(SimResult, String), OracleFailure> {
    let mut log = EventLog::new();
    let mut sched = subject.instantiate(inst.m());
    match simulate_observed(inst, sched.as_mut(), cfg, &mut log) {
        Ok(r) => Ok((r, log.into_jsonl())),
        Err(e) => Err(OracleFailure {
            oracle: "sim-error",
            detail: format!("{label}: {e}"),
        }),
    }
}

fn run_windowed(
    inst: &Instance,
    subject: &Subject,
    cfg: &SimConfig,
    window: WindowMode,
) -> Result<(SimResult, String), OracleFailure> {
    let cfg = SimConfig {
        window,
        ..cfg.clone()
    };
    run_under(inst, subject, &cfg, &format!("{window:?}"))
}

/// Run one candidate through the enabled oracle heads under the default
/// [`SimConfig`] (event kernel, delta handoff). See [`run_exec_with`].
pub fn run_exec(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    replay_seed: Option<u64>,
) -> ExecOutcome {
    run_exec_with(
        inst,
        subject,
        set,
        pause_salt,
        replay_seed,
        &SimConfig::default(),
    )
}

/// Run one candidate through the enabled oracle heads over `base`.
///
/// `base` is the engine configuration the candidate is judged under — the
/// fuzz loop passes [`FuzzInstance::base_config`](crate::ir::FuzzInstance)
/// so the mutated window/handoff axis actually takes effect. Heads 2 and 4
/// override the knob they compare (window resp. handoff) and inherit the
/// rest.
///
/// `pause_salt` seeds head 3's pause schedule; the caller derives it
/// deterministically (from the master RNG in the fuzz loop, from the
/// instance's content hash on replay). `replay_seed`, when given, is
/// published to `dagsched-verify`'s panic context so a strict-mode unwind
/// prints a reproduction command.
pub fn run_exec_with(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    replay_seed: Option<u64>,
    base: &SimConfig,
) -> ExecOutcome {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    let cfg = base.clone();
    if let Some(seed) = replay_seed {
        dagsched_verify::context::set_replay_seed(seed);
    }

    // Head 1 (always simulated — it carries the coverage signal).
    let mut cov = CoverageObserver::new(params.c());
    let mut failure: Option<OracleFailure>;
    {
        let mut sched = subject.instantiate(inst.m());
        let run_with =
            |obs: &mut dyn SimObserver, sched: &mut dyn OnlineScheduler| -> Option<OracleFailure> {
                match simulate_observed(inst, sched, &cfg, obs) {
                    Ok(_) => None,
                    Err(e) => Some(OracleFailure {
                        oracle: "sim-error",
                        detail: e.to_string(),
                    }),
                }
            };
        match subject.profile {
            InvariantProfile::SchedulerS { backfill } if set.invariants => {
                let mut suite = InvariantSuite::for_scheduler_s(params);
                if backfill {
                    suite = suite.allow_backfill();
                }
                let mut suite = suite.lenient();
                {
                    let mut fan = Observers::new(vec![&mut suite, &mut cov]);
                    failure = run_with(&mut fan, sched.as_mut());
                }
                if failure.is_none() {
                    let vs = suite.violations();
                    if !vs.is_empty() {
                        let mut lines: Vec<String> =
                            vs.iter().take(4).map(|v| v.to_string()).collect();
                        if vs.len() > 4 {
                            lines.push(format!("... and {} more", vs.len() - 4));
                        }
                        failure = Some(OracleFailure {
                            oracle: "invariants",
                            detail: lines.join("; "),
                        });
                    }
                }
            }
            InvariantProfile::WorkOnly if set.invariants => {
                let mut work = WorkConservationChecker::new().lenient();
                {
                    let mut fan = Observers::new(vec![&mut work, &mut cov]);
                    failure = run_with(&mut fan, sched.as_mut());
                }
                if failure.is_none() && !work.violations().is_empty() {
                    failure = Some(OracleFailure {
                        oracle: "invariants",
                        detail: work.violations()[0].to_string(),
                    });
                }
            }
            _ => {
                failure = run_with(&mut cov, sched.as_mut());
            }
        }
    }
    if failure.is_some() {
        return ExecOutcome {
            features: cov.into_features(),
            failure,
        };
    }

    // Head 2: kernel vs scan byte equality.
    let mut one_shot: Option<(SimResult, String)> = None;
    if set.kernel_diff {
        let kernel = run_windowed(inst, subject, &cfg, WindowMode::EventKernel);
        let scan = run_windowed(inst, subject, &cfg, WindowMode::ReferenceScan);
        match (kernel, scan) {
            (Ok(k), Ok(s)) => {
                if !k.0.same_outcome(&s.0) || k.0.steps_executed != s.0.steps_executed {
                    failure =
                        Some(OracleFailure {
                            oracle: "kernel-vs-scan",
                            detail: format!(
                            "outcome diverges: kernel profit {} steps {}, scan profit {} steps {}",
                            k.0.total_profit, k.0.steps_executed, s.0.total_profit,
                            s.0.steps_executed
                        ),
                        });
                } else if k.1 != s.1 {
                    failure = Some(OracleFailure {
                        oracle: "kernel-vs-scan",
                        detail: first_diff("kernel != scan", &k.1, &s.1),
                    });
                } else {
                    one_shot = Some(k);
                }
            }
            (Err(f), _) | (_, Err(f)) => failure = Some(f),
        }
    }
    if failure.is_some() {
        return ExecOutcome {
            features: cov.into_features(),
            failure,
        };
    }

    // Head 3: paused driver vs one-shot, kernel mode.
    if set.pause_diff {
        let one_shot = match one_shot {
            Some(k) => Ok(k),
            None => run_windowed(inst, subject, &cfg, WindowMode::EventKernel),
        };
        match one_shot {
            Ok(base) => {
                let span = inst.stats().horizon.ticks() + 8;
                let mut prng = Rng64::seed_from(pause_salt);
                let n_pauses = 1 + prng.gen_range(6) as usize;
                let mut log = EventLog::new();
                let mut sched = subject.instantiate(inst.m());
                let mut driver = SimDriver::with_observer(
                    inst,
                    sched.as_mut(),
                    &cfg,
                    &mut log as &mut dyn SimObserver,
                );
                let mut pause_err: Option<OracleFailure> = None;
                for _ in 0..n_pauses {
                    if let Err(e) = driver.run_until(Time(prng.gen_range(span.max(1)))) {
                        pause_err = Some(OracleFailure {
                            oracle: "sim-error",
                            detail: format!("paused run: {e}"),
                        });
                        break;
                    }
                }
                let paused = match pause_err {
                    Some(f) => Err(f),
                    None => driver.finish().map_err(|e| OracleFailure {
                        oracle: "sim-error",
                        detail: format!("paused finish: {e}"),
                    }),
                };
                match paused {
                    Ok(r) => {
                        let jsonl = log.into_jsonl();
                        if !r.same_outcome(&base.0)
                            || r.steps_executed != base.0.steps_executed
                            || jsonl != base.1
                        {
                            failure = Some(OracleFailure {
                                oracle: "paused-vs-oneshot",
                                detail: first_diff("paused != one-shot", &jsonl, &base.1),
                            });
                        }
                    }
                    Err(f) => failure = Some(f),
                }
            }
            Err(f) => failure = Some(f),
        }
    }
    if failure.is_some() {
        return ExecOutcome {
            features: cov.into_features(),
            failure,
        };
    }

    // Head 4: delta vs rebuild handoff byte equality.
    if set.handoff_diff {
        let run_handoff = |handoff: HandoffMode, label: &str| {
            let cfg = SimConfig {
                handoff,
                ..cfg.clone()
            };
            run_under(inst, subject, &cfg, label)
        };
        let delta = run_handoff(HandoffMode::Delta, "delta handoff");
        let rebuild = run_handoff(HandoffMode::Rebuild, "rebuild handoff");
        match (delta, rebuild) {
            (Ok(d), Ok(r)) => {
                if !d.0.same_outcome(&r.0) || d.0.steps_executed != r.0.steps_executed {
                    failure = Some(OracleFailure {
                        oracle: "delta-vs-rebuild",
                        detail: format!(
                            "outcome diverges: delta profit {} steps {}, rebuild profit {} steps {}",
                            d.0.total_profit, d.0.steps_executed, r.0.total_profit,
                            r.0.steps_executed
                        ),
                    });
                } else if d.1 != r.1 {
                    failure = Some(OracleFailure {
                        oracle: "delta-vs-rebuild",
                        detail: first_diff("delta != rebuild", &d.1, &r.1),
                    });
                }
            }
            (Err(f), _) | (_, Err(f)) => failure = Some(f),
        }
    }
    if failure.is_some() {
        return ExecOutcome {
            features: cov.into_features(),
            failure,
        };
    }

    // Head 5: uniform grouped platform vs the frozen scalar twin. Always
    // compares the uniform platform at `cfg.speed` — a candidate judged
    // under a heterogeneous shape elsewhere still pins the twin contract
    // here, which is what keeps the refactored arithmetic honest on every
    // exec.
    if set.twin_diff {
        let uniform = MachineGroups::uniform(inst.m(), cfg.speed).expect("m >= 1");
        let grouped_cfg = SimConfig {
            groups: Some(uniform),
            platform: PlatformMode::Grouped,
            ..cfg.clone()
        };
        let scalar_cfg = SimConfig {
            groups: None,
            platform: PlatformMode::Scalar,
            ..cfg.clone()
        };
        let grouped = run_under(inst, subject, &grouped_cfg, "uniform grouped");
        let scalar = run_under(inst, subject, &scalar_cfg, "scalar twin");
        match (grouped, scalar) {
            (Ok(g), Ok(s)) => {
                if !g.0.same_outcome(&s.0) || g.0.steps_executed != s.0.steps_executed {
                    failure = Some(OracleFailure {
                        oracle: "grouped-vs-scalar",
                        detail: format!(
                            "outcome diverges: grouped profit {} steps {}, scalar profit {} steps {}",
                            g.0.total_profit, g.0.steps_executed, s.0.total_profit,
                            s.0.steps_executed
                        ),
                    });
                } else if g.1 != s.1 {
                    failure = Some(OracleFailure {
                        oracle: "grouped-vs-scalar",
                        detail: first_diff("grouped != scalar", &g.1, &s.1),
                    });
                }
            }
            (Err(f), _) | (_, Err(f)) => failure = Some(f),
        }
    }

    ExecOutcome {
        features: cov.into_features(),
        failure,
    }
}
