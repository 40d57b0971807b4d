//! The three-headed oracle: what "the fuzzer found something" means.
//!
//! Every candidate instance is judged by up to three independent checks,
//! in order, stopping at the first failure:
//!
//! 1. **Invariants** — the `dagsched-verify` suite (band capacity per
//!    Observation 3, allotment discipline per Lemma 1, δ-goodness, work
//!    conservation) attached to a full run on the production engine path.
//!    The suite is built lenient so the loop collects violations rather
//!    than unwinding; under the `verify-strict` feature the semantics are
//!    identical, only the failure transport differs. An [`EventLog`] rides
//!    in the same observer fan, so this run also supplies the fast-path
//!    outcome and event log the other two heads compare against.
//! 2. **Naive vs fast** — the run repeated on the naive per-tick reference
//!    path ([`SimConfig::fast_forward`] off: expiry scan, rebuilt view,
//!    full `allocate_into` every tick) must produce the same outcome and an
//!    equal event log. Step counts legitimately differ; the golden digests
//!    in `tests/golden_outputs.rs` pin the fast path's.
//! 3. **Paused vs one-shot** — a [`SimDriver`] paused at several
//!    deterministically-derived horizons must finish identical to head 1's
//!    one-shot run, step count and event log included (the
//!    pacing-invisibility contract).
//!
//! Heads 2 and 3 compare the logs by value: equal logs are exactly the ones
//! that render the same JSONL (see [`EventLog`]), and a passing exec renders
//! no text at all. Only a failing head renders both of its logs, to name
//! the first differing line in [`OracleFailure::detail`].
//!
//! A simulation error from any head is itself a failure (`sim-error`) —
//! that is how scheduler mutants that emit invalid allocations are caught.
//!
//! The coverage features of head 1's run are returned alongside the
//! verdict, so one exec yields both signals with at most three
//! simulations.
//!
//! All heads run over a caller-supplied *base* [`SimConfig`]
//! ([`run_exec_with`]) so the fuzz loop can judge candidates under the
//! mutated carry-over / pick / platform axis; head 2 overrides only
//! `fast_forward`.

use crate::coverage::{CoverageObserver, FeatureSet};
use dagsched_core::{AlgoParams, Rng64, Time};
use dagsched_engine::{
    simulate_observed, Observers, OnlineScheduler, SimConfig, SimDriver, SimObserver,
};
use dagsched_sched::{SchedulerS, SchedulerSProfit};
use dagsched_verify::{EventLog, InvariantSuite, WorkConservationChecker};
use dagsched_workload::Instance;

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
    /// heads (naive-vs-fast, paused) carry the log-equality burden —
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
/// heads off to isolate the one they exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSet {
    /// Head 1: the invariant suite.
    pub invariants: bool,
    /// Head 2: naive-vs-fast log equality.
    pub naive_diff: bool,
    /// Head 3: paused-vs-one-shot log equality.
    pub pause_diff: bool,
}

impl OracleSet {
    /// Every head off: the base for enabling exactly one.
    pub const NONE: OracleSet = OracleSet {
        invariants: false,
        naive_diff: false,
        pause_diff: false,
    };
}

impl Default for OracleSet {
    fn default() -> OracleSet {
        OracleSet {
            invariants: true,
            naive_diff: true,
            pause_diff: true,
        }
    }
}

/// A failed oracle head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which head failed: `invariants`, `naive-vs-fast`,
    /// `paused-vs-oneshot`, or `sim-error`.
    pub oracle: &'static str,
    /// Human-readable evidence (violation list or first diverging line).
    pub detail: String,
}

/// The result of one fuzz exec: coverage features plus an optional failure.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Feature ids from the invariant head's run.
    pub features: FeatureSet,
    /// The first failing oracle head, if any.
    pub failure: Option<OracleFailure>,
}

/// Run one candidate through the enabled oracle heads under the default
/// [`SimConfig`]. See [`run_exec_with`].
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
/// so the mutated configuration axis actually takes effect. Head 2
/// overrides only `fast_forward` and inherits the rest.
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
    if let Some(seed) = replay_seed {
        dagsched_verify::context::set_replay_seed(seed);
    }
    let mut cov = CoverageObserver::new(params.c());
    let failure = judge(inst, subject, set, pause_salt, base, params, &mut cov).err();
    ExecOutcome {
        features: cov.into_features(),
        failure,
    }
}

fn sim_error(label: &str, e: impl std::fmt::Display) -> OracleFailure {
    OracleFailure {
        oracle: "sim-error",
        detail: format!("{label}: {e}"),
    }
}

/// The heads in order; the first failure ends the exec.
fn judge(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    cfg: &SimConfig,
    params: AlgoParams,
    cov: &mut CoverageObserver,
) -> Result<(), OracleFailure> {
    // Head 1 (always simulated — it carries the coverage signal and the
    // fast-path event log).
    let (fast, fast_log) = {
        let mut log = EventLog::new();
        let mut sched = subject.instantiate(inst.m());
        let mut run = |fan: Vec<&mut dyn SimObserver>| {
            simulate_observed(inst, sched.as_mut(), cfg, &mut Observers::new(fan))
                .map_err(|e| sim_error("fast path", e))
        };
        let (r, violations) = match subject.profile {
            InvariantProfile::SchedulerS { backfill } if set.invariants => {
                let mut suite = InvariantSuite::for_scheduler_s(params);
                if backfill {
                    suite = suite.allow_backfill();
                }
                let mut suite = suite.lenient();
                let r = run(vec![&mut suite, cov, &mut log])?;
                let vs = suite.violations();
                let mut lines: Vec<String> = vs.iter().take(4).map(|v| v.to_string()).collect();
                if vs.len() > 4 {
                    lines.push(format!("... and {} more", vs.len() - 4));
                }
                (r, lines)
            }
            InvariantProfile::WorkOnly if set.invariants => {
                let mut work = WorkConservationChecker::new().lenient();
                let r = run(vec![&mut work, cov, &mut log])?;
                let first = work.violations().first().map(|v| v.to_string());
                (r, first.into_iter().collect())
            }
            _ => (run(vec![cov, &mut log])?, Vec::new()),
        };
        if !violations.is_empty() {
            return Err(OracleFailure {
                oracle: "invariants",
                detail: violations.join("; "),
            });
        }
        (r, log)
    };

    // Head 2: the naive reference path must match the fast path's outcome
    // and event log.
    if set.naive_diff {
        let naive_cfg = SimConfig {
            fast_forward: false,
            ..cfg.clone()
        };
        let mut log = EventLog::new();
        let mut sched = subject.instantiate(inst.m());
        let naive = simulate_observed(inst, sched.as_mut(), &naive_cfg, &mut log)
            .map_err(|e| sim_error("naive path", e))?;
        if !fast.same_outcome(&naive) {
            return Err(OracleFailure {
                oracle: "naive-vs-fast",
                detail: format!(
                    "outcome diverges: fast profit {}, naive profit {}",
                    fast.total_profit, naive.total_profit
                ),
            });
        }
        if log != fast_log {
            return Err(OracleFailure {
                oracle: "naive-vs-fast",
                detail: format!("fast != naive: {}", fast_log.first_diff(&log)),
            });
        }
    }

    // Head 3: a paused driver must finish identical to head 1's one-shot
    // run.
    if set.pause_diff {
        let span = inst.stats().horizon.ticks() + 8;
        let mut prng = Rng64::seed_from(pause_salt);
        let n_pauses = 1 + prng.gen_range(6) as usize;
        let mut log = EventLog::new();
        let mut sched = subject.instantiate(inst.m());
        let mut driver =
            SimDriver::with_observer(inst, sched.as_mut(), cfg, &mut log as &mut dyn SimObserver);
        for _ in 0..n_pauses {
            driver
                .run_until(Time(prng.gen_range(span.max(1))))
                .map_err(|e| sim_error("paused run", e))?;
        }
        let paused = driver.finish().map_err(|e| sim_error("paused finish", e))?;
        if !paused.same_outcome(&fast)
            || paused.steps_executed != fast.steps_executed
            || log != fast_log
        {
            return Err(OracleFailure {
                oracle: "paused-vs-oneshot",
                detail: format!("paused != one-shot: {}", log.first_diff(&fast_log)),
            });
        }
    }
    Ok(())
}
