//! Mutant fixtures: deliberately broken schedulers (and one corrupted event
//! stream) proving that every checker actually fires.
//!
//! A checker that never flags anything on correct schedulers is only
//! trustworthy if it demonstrably flags *incorrect* ones. Each test below
//! violates exactly one invariant and asserts the matching checker records
//! it (`.lenient()` so the tests also pass under `--features verify-strict`).

use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_dag::gen;
use dagsched_engine::{
    simulate, simulate_observed, AdmissionDecision, AdmissionEvent, Allocation, JobInfo, NodePick,
    OnlineScheduler, SimConfig, SimObserver, TickView,
};
use dagsched_sched::SNoAdmission;
use dagsched_verify::{
    AllotmentChecker, BandCapacityChecker, DeltaGoodChecker, WorkConservationChecker,
};
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

fn params() -> AlgoParams {
    AlgoParams::from_epsilon(1.0).expect("valid epsilon")
}

/// Reference-path config (mutants don't claim fast-forward stability).
fn naive_cfg() -> SimConfig {
    SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    }
}

/// Observation 3 mutant: the no-admission ablation starts every arriving
/// job, so a burst of identical-density jobs overloads their band.
#[test]
fn band_checker_fires_on_unbounded_admission() {
    let m = 2u32;
    let jobs: Vec<JobSpec> = (0..64)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(8).into_shared(),
                StepProfitFn::deadline(Time(5000), 4),
            )
        })
        .collect();
    let inst = Instance::new(m, jobs).expect("valid instance");
    let mut checker = BandCapacityChecker::new(params()).lenient();
    let mut mutant = SNoAdmission::new(m, params());
    simulate_observed(&inst, &mut mutant, &naive_cfg(), &mut checker).expect("runs");
    assert!(
        !checker.violations().is_empty(),
        "64 same-density jobs on m=2 must overload a band"
    );
    assert!(
        checker.violations()[0]
            .to_string()
            .contains("Observation 3"),
        "unexpected flag: {}",
        checker.violations()[0]
    );
}

/// δ-goodness mutant: the same ablation happily starts jobs whose deadline
/// leaves no δ slack (or is outright infeasible for `m` processors).
#[test]
fn delta_good_checker_fires_on_tight_admission() {
    let m = 4u32;
    // W=20, L=2, relative deadline 3: raw allotment (20-2)/(3-2) = 18 > m,
    // so the job is infeasible — scheduler S would park it forever.
    let inst = Instance::new(
        m,
        vec![JobSpec::new(
            JobId(0),
            Time(0),
            gen::block(10, 2).into_shared(),
            StepProfitFn::deadline(Time(3), 10),
        )],
    )
    .expect("valid instance");
    let mut checker = DeltaGoodChecker::new(params()).lenient();
    let mut mutant = SNoAdmission::new(m, params());
    simulate_observed(&inst, &mut mutant, &naive_cfg(), &mut checker).expect("runs");
    assert!(
        !checker.violations().is_empty(),
        "admitting an infeasible job must violate δ-goodness"
    );
}

/// Allotment mutant: admits with the correct paper allotment, then hands the
/// job a single processor anyway.
struct OneProcMutant {
    alive: Vec<JobId>,
    report: Option<Vec<AdmissionEvent>>,
}

impl OnlineScheduler for OneProcMutant {
    fn name(&self) -> String {
        "one-proc-mutant".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        self.alive.push(info.id);
        if let Some(buf) = self.report.as_mut() {
            buf.push(AdmissionEvent {
                job: info.id,
                decision: AdmissionDecision::Admitted,
            });
        }
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
        self.alive
            .first()
            .map(|&id| vec![(id, 1)])
            .unwrap_or_default()
    }
    fn enable_admission_reporting(&mut self) {
        self.report.get_or_insert_with(Vec::new);
    }
    fn drain_admission_events(&mut self, out: &mut Vec<AdmissionEvent>) {
        if let Some(buf) = self.report.as_mut() {
            out.append(buf);
        }
    }
}

#[test]
fn allotment_checker_fires_on_underallocation() {
    let m = 8u32;
    // W=32, L=1, relative deadline 5: allotment ceil(31/4) = 8 processors.
    let inst = Instance::new(
        m,
        vec![JobSpec::new(
            JobId(0),
            Time(0),
            gen::block(32, 1).into_shared(),
            StepProfitFn::deadline(Time(5), 10),
        )],
    )
    .expect("valid instance");
    let mut checker = AllotmentChecker::new(params()).lenient();
    let mut mutant = OneProcMutant {
        alive: Vec::new(),
        report: None,
    };
    simulate_observed(&inst, &mut mutant, &naive_cfg(), &mut checker).expect("runs");
    assert!(
        !checker.violations().is_empty(),
        "running an 8-allotment job on 1 processor must be flagged"
    );
    assert!(
        checker.violations()[0].to_string().contains("allotment"),
        "unexpected flag: {}",
        checker.violations()[0]
    );
}

/// Allocation-to-unknown mutant: allocates a job that was never admitted.
struct GhostMutant {
    alive: Vec<JobId>,
}

impl OnlineScheduler for GhostMutant {
    fn name(&self) -> String {
        "ghost-mutant".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        // Never reports an admission — the checker sees only the arrival.
        self.alive.push(info.id);
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
        self.alive
            .first()
            .map(|&id| vec![(id, 1)])
            .unwrap_or_default()
    }
}

#[test]
fn allotment_checker_fires_on_unadmitted_allocation() {
    let inst = Instance::new(
        2,
        vec![JobSpec::new(
            JobId(0),
            Time(0),
            gen::single(6).into_shared(),
            StepProfitFn::deadline(Time(50), 3),
        )],
    )
    .expect("valid instance");
    let mut checker = AllotmentChecker::new(params()).lenient();
    let mut mutant = GhostMutant { alive: Vec::new() };
    simulate_observed(&inst, &mut mutant, &naive_cfg(), &mut checker).expect("runs");
    assert!(
        !checker.violations().is_empty(),
        "allocating a never-admitted job must be flagged"
    );
}

/// Work-conservation mutant: the engine's accounting cannot be corrupted
/// from a scheduler, so feed the checker a hand-corrupted event stream —
/// over-capacity progress, then a completion short of the job's total work.
#[test]
fn work_checker_fires_on_corrupted_stream() {
    let mut checker = WorkConservationChecker::new().lenient();
    checker.on_start(2, Speed::ONE, Time(100));
    checker.on_job_arrival(
        Time(0),
        &JobInfo {
            id: JobId(0),
            arrival: Time(0),
            work: dagsched_core::Work(5),
            span: dagsched_core::Work(5),
            profit: StepProfitFn::deadline(Time(50), 1),
        },
    );
    // 1 processor × 1 tick × 1 unit/tick = capacity 1, but claims 2 units.
    checker.on_window(
        Time(0),
        1,
        &[(JobId(0), 1)],
        &[(JobId(0), 1)],
        &[(JobId(0), 2)],
    );
    assert_eq!(
        checker.violations().len(),
        1,
        "over-capacity window must flag"
    );
    // Completes having processed 2 of 5 scaled units.
    checker.on_job_complete(Time(1), JobId(0), 1);
    assert_eq!(
        checker.violations().len(),
        2,
        "completion with unfinished work must flag"
    );
    assert!(checker.violations()[1]
        .to_string()
        .contains("completed with"));
}

/// Expiry-side mutant: a job that "expires" after finishing all its work.
#[test]
fn work_checker_fires_on_finished_expiry() {
    let mut checker = WorkConservationChecker::new().lenient();
    checker.on_start(1, Speed::ONE, Time(100));
    checker.on_job_arrival(
        Time(0),
        &JobInfo {
            id: JobId(0),
            arrival: Time(0),
            work: dagsched_core::Work(3),
            span: dagsched_core::Work(3),
            profit: StepProfitFn::deadline(Time(10), 1),
        },
    );
    for t in 0..3u64 {
        checker.on_window(
            Time(t),
            1,
            &[(JobId(0), 1)],
            &[(JobId(0), 1)],
            &[(JobId(0), 1)],
        );
    }
    checker.on_job_expired(Time(3), JobId(0));
    assert!(
        !checker.violations().is_empty(),
        "expiring a fully-processed job must flag"
    );
}

// ---------------------------------------------------------------------------
// Bounded-fuzz mutant kills: the coverage-guided loop, pointed at each
// seeded mutant with a fixed master seed and a small exec budget, must find
// a killing counterexample. This closes the loop the hand-written fixtures
// above cannot: the fuzzer *discovers* the violating workload instead of
// being handed one.
// ---------------------------------------------------------------------------

use dagsched_fuzz::{FuzzConfig, FuzzSession, InvariantProfile, OracleSet, Subject};

/// Single-head fuzz config: deterministic, bounded well under the
/// 10k-exec ceiling, stops at the first kill, skips minimization for speed.
fn kill_cfg(seed: u64, oracles: OracleSet) -> FuzzConfig {
    FuzzConfig {
        master_seed: seed,
        max_execs: 2000,
        max_failures: 1,
        oracles,
        minimize: false,
        ..FuzzConfig::default()
    }
}

/// Only the invariant head.
const INVARIANTS: OracleSet = OracleSet {
    invariants: true,
    ..OracleSet::NONE
};

fn assert_killed(subject: Subject, seed: u64, oracle: &str, detail_needle: &str) {
    assert_killed_by(subject, INVARIANTS, seed, oracle, detail_needle);
}

fn assert_killed_by(
    subject: Subject,
    oracles: OracleSet,
    seed: u64,
    oracle: &str,
    detail_needle: &str,
) {
    let name = subject.name().to_string();
    let report = FuzzSession::with_subject(kill_cfg(seed, oracles), subject).run();
    assert!(
        !report.failures.is_empty(),
        "{name}: not killed within {} execs",
        report.execs
    );
    let f = &report.failures[0];
    assert_eq!(
        f.oracle, oracle,
        "{name}: wrong oracle: [{}] {}",
        f.oracle, f.detail
    );
    assert!(
        f.detail.contains(detail_needle),
        "{name}: kill evidence lacks {detail_needle:?}: {}",
        f.detail
    );
    assert!(
        report.execs <= 10_000,
        "{name}: kill exceeded the 10k exec bound"
    );
}

/// The no-admission ablation is killed through the full suite — admitting
/// everything violates δ-goodness on the corpus's tight-deadline chains.
#[test]
fn fuzz_kills_no_admission_mutant() {
    let subject = Subject::new(
        "S-no-admission",
        InvariantProfile::SchedulerS { backfill: false },
        |m| Box::new(SNoAdmission::new(m, params())),
    );
    assert_killed(subject, 0xBEEF, "invariants", "");
}

/// The one-processor mutant is killed via the Lemma 1 allotment discipline:
/// the fuzzer tightens a deadline until the paper allotment exceeds one.
#[test]
fn fuzz_kills_one_proc_mutant() {
    let subject = Subject::new(
        "one-proc",
        InvariantProfile::SchedulerS { backfill: false },
        |_m| {
            Box::new(OneProcMutant {
                alive: Vec::new(),
                report: None,
            })
        },
    );
    assert_killed(subject, 0xBEEF, "invariants", "allotment");
}

/// The ghost mutant (allocates without ever admitting) is killed on the
/// very first corpus entry: any allocation to an unadmitted job flags.
#[test]
fn fuzz_kills_ghost_mutant() {
    let subject = Subject::new(
        "ghost",
        InvariantProfile::SchedulerS { backfill: false },
        |_m| Box::new(GhostMutant { alive: Vec::new() }),
    );
    assert_killed(subject, 0xBEEF, "invariants", "");
}

/// An over-allocating mutant: hands one job more processors than exist.
/// The engine itself rejects the allocation, surfacing as `sim-error`.
struct OverAllocMutant {
    m: u32,
    alive: Vec<JobId>,
}

impl OnlineScheduler for OverAllocMutant {
    fn name(&self) -> String {
        "over-alloc-mutant".into()
    }
    fn on_arrival(&mut self, info: &JobInfo, _now: Time) {
        self.alive.push(info.id);
    }
    fn on_completion(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn on_expiry(&mut self, id: JobId, _now: Time) {
        self.alive.retain(|&j| j != id);
    }
    fn allocate(&mut self, _view: &TickView<'_>) -> Allocation {
        self.alive
            .first()
            .map(|&id| vec![(id, self.m + 1)])
            .unwrap_or_default()
    }
}

#[test]
fn fuzz_kills_over_allocating_mutant() {
    let subject = Subject::new("over-alloc", InvariantProfile::Off, |m| {
        Box::new(OverAllocMutant {
            m,
            alive: Vec::new(),
        })
    });
    assert_killed(subject, 0xBEEF, "sim-error", "");
}

/// A now-reading mutant: a greedy arrival-order scheduler whose
/// `allocate_into` reverses its fill on odd ticks, yet declares
/// `allocation_stable_between_events`. The naive reference path asks it
/// every tick and so alternates; the production path trusts the
/// declaration and replays its last allocation until the view changes.
/// Every allocation it makes is valid, so only a naive-vs-fast comparison
/// can tell.
struct NowReadingMutant;

impl OnlineScheduler for NowReadingMutant {
    fn name(&self) -> String {
        "now-reading-mutant".into()
    }
    fn on_arrival(&mut self, _info: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut left = view.m;
        let mut out = Vec::new();
        let mut fill = |&(id, ready): &(JobId, u32)| {
            let k = ready.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        };
        if view.now.ticks() % 2 == 1 {
            view.jobs().iter().rev().for_each(&mut fill);
        } else {
            view.jobs().iter().for_each(&mut fill);
        }
        out
    }
    fn allocation_stable_between_events(&self) -> bool {
        true
    }
}

/// The now-reading mutant violates no invariant the suite can see on its
/// own run, so with the invariant head off the naive-vs-fast head must
/// kill it.
#[test]
fn fuzz_kills_now_reading_mutant_via_naive_vs_fast() {
    let subject = Subject::new("now-reading", InvariantProfile::Off, |_m| {
        Box::new(NowReadingMutant)
    });
    let naive_diff = OracleSet {
        naive_diff: true,
        ..OracleSet::NONE
    };
    assert_killed_by(subject, naive_diff, 0xBEEF, "naive-vs-fast", "");
}

/// The engine's replay alone freezes the mutant: a random pick policy
/// turns bulk windows off, so the production path runs one tick per step
/// like the naive path, and still the two schedules differ.
#[test]
fn engine_replay_freezes_the_now_reading_mutant() {
    // Two chains on one processor: asked every tick, the mutant alternates
    // between them; replayed, it runs the first to completion.
    let jobs: Vec<JobSpec> = (0..2)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::chain(4, 3).into_shared(),
                StepProfitFn::deadline(Time(100), 1),
            )
        })
        .collect();
    let inst = Instance::new(1, jobs).expect("valid instance");
    let run = |fast_forward| {
        let cfg = SimConfig {
            pick: NodePick::Random(3),
            fast_forward,
            ..SimConfig::default()
        };
        simulate(&inst, &mut NowReadingMutant, &cfg).expect("runs")
    };
    let (fast, naive) = (run(true), run(false));
    assert_eq!(
        fast.steps_executed, fast.ticks_simulated,
        "no bulk window was taken"
    );
    assert!(
        !fast.same_outcome(&naive),
        "production replay must freeze the mutant's odd-tick reversal"
    );
}
