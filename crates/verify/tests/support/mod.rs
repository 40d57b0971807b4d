//! The differential suites' shared harness: the roster of production
//! schedulers, each beside its paper transcription where the paper defines
//! one, the config matrix, the shared instances, one logged run and one
//! comparison.
//!
//! Every comparison goes through [`assert_same_run`]: the outcome, the
//! JSONL event log, and the step relation the two runs promise. On a
//! mismatch both logs are dumped to `target/tmp/event-logs/`, where CI
//! picks them up, and the panic names the first differing line.

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use dagsched_core::{AlgoParams, JobId, Rng64, Speed, Time};
use dagsched_engine::{
    parallel_map, simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver,
    SimResult,
};
use dagsched_sched::{
    Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, PaperS, PaperSProfit, RandomOrder, SNoAdmission,
    SchedulerS, SchedulerSProfit,
};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};
use std::path::{Path, PathBuf};

/// Builds a fresh scheduler on `m` processors with the given constants.
pub type Make = fn(u32, AlgoParams) -> Box<dyn OnlineScheduler>;

/// A run's result and its event log.
pub type Run = (SimResult, EventLog);

/// How a run's `steps_executed` must relate to its reference's.
#[derive(Debug, Clone, Copy)]
pub enum Steps {
    Equal,
    AtMost,
    Ignored,
}

/// A production scheduler, and the paper transcription it must match with
/// the step relation between the two.
pub struct Entry {
    pub name: &'static str,
    pub make: Make,
    pub paper: Option<(Make, Steps)>,
}

/// Every production scheduler. S and S-wc run `with_invariant_checks()`,
/// so each completion scan also replays the full walk and re-probes every
/// job it passed over.
pub static ROSTER: [Entry; 10] = [
    Entry {
        name: "S",
        make: |m, p| Box::new(SchedulerS::new(m, p).with_invariant_checks()),
        paper: Some((|m, p| Box::new(PaperS::new(m, p)), Steps::Equal)),
    },
    Entry {
        name: "S-wc",
        make: |m, p| {
            Box::new(
                SchedulerS::new(m, p)
                    .work_conserving()
                    .with_invariant_checks(),
            )
        },
        paper: Some((
            |m, p| Box::new(PaperS::new(m, p).work_conserving()),
            Steps::Equal,
        )),
    },
    alone("S-noadmit", |m, p| Box::new(SNoAdmission::new(m, p))),
    alone("FIFO", |m, _| Box::new(Fifo::new(m))),
    alone("EDF", |m, _| Box::new(Edf::new(m))),
    alone("HDF", |m, _| Box::new(GreedyDensity::new(m))),
    alone("LLF", |m, _| Box::new(LeastLaxity::new(m))),
    alone("EDF-AC", |m, _| Box::new(EdfAc::new(m))),
    // Single-tick stability: the production path asks it every step, on
    // the maintained view.
    alone("RANDOM", |m, _| Box::new(RandomOrder::new(m, 42))),
    // The transcription claims no stability, so the engine asks it every
    // tick and its step count says nothing.
    Entry {
        name: "S-profit",
        make: |m, p| Box::new(SchedulerSProfit::new(m, p)),
        paper: Some((|m, p| Box::new(PaperSProfit::new(m, p)), Steps::Ignored)),
    },
];

const fn alone(name: &'static str, make: Make) -> Entry {
    Entry {
        name,
        make,
        paper: None,
    }
}

/// The roster entry named `name`.
pub fn entry(name: &str) -> &'static Entry {
    ROSTER
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not on the roster"))
}

/// The recommended constants for `ε = 1`.
pub fn eps1() -> AlgoParams {
    AlgoParams::from_epsilon(1.0).expect("valid epsilon")
}

/// Every speed `num/den` × pick × engine path (`fast_forward`) ×
/// carry-over, nested in that order; golden digests depend on the order.
pub fn matrix(
    speeds: &[(u32, u32)],
    picks: &[NodePick],
    paths: &[bool],
    carryover: &[bool],
) -> Vec<SimConfig> {
    let mut out = Vec::new();
    for &(num, den) in speeds {
        for pick in picks {
            for &fast_forward in paths {
                for &carryover in carryover {
                    out.push(SimConfig {
                        speed: Speed::new(num, den).expect("positive speed"),
                        pick: pick.clone(),
                        fast_forward,
                        carryover,
                        ..SimConfig::default()
                    });
                }
            }
        }
    }
    out
}

/// `cfg` on the naive per-tick reference path.
pub fn naive(cfg: &SimConfig) -> SimConfig {
    SimConfig {
        fast_forward: false,
        ..cfg.clone()
    }
}

/// The matrix axes of `cfg`, for a failure label.
pub fn describe(cfg: &SimConfig) -> String {
    format!(
        "speed {} pick {:?} ff {} carryover {}",
        cfg.speed, cfg.pick, cfg.fast_forward, cfg.carryover
    )
}

/// The standard workloads: 30 jobs of the default generator at seeds 7,
/// 191 and 2024, on `4 + seed % 5` processors.
pub fn standard_instances() -> Vec<(String, Instance)> {
    [7u64, 191, 2024]
        .into_iter()
        .map(|seed| {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 30, seed)
                .generate()
                .expect("valid workload");
            (format!("standard seed {seed}"), inst)
        })
        .collect()
}

/// Tight deadlines and a hot arrival process: admission churn, expiries
/// and window boundaries on every few ticks. The shared instance is
/// `overload(6, 50)`.
pub fn overload(m: u32, n: usize) -> Instance {
    WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, n, 99)
    }
    .generate()
    .expect("valid workload")
}

/// 40 long background jobs (work 5,000) at `t = 0` behind a wave of 20
/// short chains, one every other tick, on 4 processors. Most background
/// jobs sit alive but idle, so the production path replays or bulk-skips
/// almost every step while the naive path re-allocates every tick.
pub fn parked_majority(background: StepProfitFn, wave: StepProfitFn) -> Instance {
    use dagsched_dag::gen;
    let mut jobs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..20u32 {
        jobs.push(JobSpec::new(
            JobId(40 + i),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

/// The fuzzer's collision family through its own generator, so the suites
/// and the fuzzer's oracle heads sample the same distribution.
pub fn collision_corpus() -> Vec<Instance> {
    dagsched_fuzz::collision_instances(0xDE17A, 16)
}

/// One run with an [`EventLog`] attached.
pub fn run_logged(inst: &Instance, sched: &mut dyn OnlineScheduler, cfg: &SimConfig) -> Run {
    let mut log = EventLog::new();
    let r = simulate_observed(inst, sched, cfg, &mut log).expect("simulation runs");
    (r, log)
}

/// One run with an [`EventLog`] attached, driven `step()` by `step()` when
/// `pauses` is `None`, else paused by `run_until` at each of `pauses` in
/// turn (a past horizon is a no-op), then finished.
pub fn run_paced(
    inst: &Instance,
    sched: &mut dyn OnlineScheduler,
    cfg: &SimConfig,
    pauses: Option<&[Time]>,
) -> Run {
    let mut log = EventLog::new();
    let mut driver = SimDriver::with_observer(inst, sched, cfg, &mut log as &mut dyn SimObserver);
    match pauses {
        None => while driver.step().expect("step runs") {},
        Some(pauses) => {
            for &p in pauses {
                driver.run_until(p).expect("run_until runs");
            }
        }
    }
    let r = driver.finish().expect("finish runs");
    (r, log)
}

/// `n` random pause instants in `[0, span)`, in draw order.
pub fn random_pauses(seed: u64, n: usize, span: u64) -> Vec<Time> {
    let mut rng = Rng64::seed_from(seed);
    (0..n).map(|_| Time(rng.gen_range(span.max(1)))).collect()
}

/// What a corpus run is held to.
#[derive(Debug, Clone, Copy)]
pub enum Against {
    /// The same scheduler on the naive path; the run under test takes no
    /// more steps.
    Naive,
    /// The same scheduler and config run in one shot, while the run under
    /// test is driven `step()` by `step()`: equal steps.
    OneShot,
    /// The paper transcription, under the entry's step relation, for the
    /// named roster entries.
    Paper(&'static [&'static str]),
}

/// Hold every roster entry `against` its reference on `inst` under every
/// config in `cfgs`. The runs go to two worker threads: the parked inputs
/// step the naive path and the transcriptions through 50,000 ticks per run.
pub fn check_corpus(
    inst: &Instance,
    params: AlgoParams,
    cfgs: &[SimConfig],
    against: Against,
    label: &str,
) {
    check_corpora(&[(label, inst)], params, cfgs, against, 2);
}

/// [`check_corpus`] over every labelled instance of `insts` at once, with
/// the runs of all of them interleaved on `threads` worker threads.
pub fn check_corpora(
    insts: &[(&str, &Instance)],
    params: AlgoParams,
    cfgs: &[SimConfig],
    against: Against,
    threads: usize,
) {
    let runs: Vec<(&str, &Instance, &Entry, &SimConfig)> = insts
        .iter()
        .flat_map(|&(label, inst)| {
            cfgs.iter().flat_map(move |cfg| {
                let on = ROSTER.iter().filter(move |e| match against {
                    Against::Paper(names) => names.contains(&e.name),
                    _ => true,
                });
                on.map(move |e| (label, inst, e, cfg))
            })
        })
        .collect();
    parallel_map(runs, threads, |&(label, inst, e, cfg)| {
        let build = |make: Make| make(inst.m(), params);
        let run = |make, cfg: &SimConfig| run_logged(inst, build(make).as_mut(), cfg);
        let (got, want, steps, reference) = match against {
            Against::Naive => (
                run(e.make, cfg),
                run(e.make, &naive(cfg)),
                Steps::AtMost,
                "naive",
            ),
            Against::OneShot => {
                let got = run_paced(inst, build(e.make).as_mut(), cfg, None);
                (got, run(e.make, cfg), Steps::Equal, "one-shot")
            }
            Against::Paper(_) => {
                let (paper, steps) = e.paper.expect("a paper transcription");
                (run(e.make, cfg), run(paper, cfg), steps, "paper")
            }
        };
        let tag = format!("{label}: {} {} vs {reference}", e.name, describe(cfg));
        assert_same_run(&tag, &got, &want, steps);
    });
}

/// Every standard instance at the default config against its reference,
/// with the runs of all three interleaved on four worker threads: results
/// hold at four concurrent runs as at two, so no path and no scheduler has
/// hidden shared state.
pub fn check_standard_across_threads(against: Against) {
    let insts = standard_instances();
    let insts: Vec<(&str, &Instance)> = insts.iter().map(|(l, i)| (l.as_str(), i)).collect();
    check_corpora(&insts, eps1(), &[SimConfig::default()], against, 4);
}

/// Hold `got` to `want`: the same outcome (every [`SimResult`] field but
/// `steps_executed`), the same event log, and `steps` between the step
/// counts.
pub fn assert_same_run(label: &str, got: &Run, want: &Run, steps: Steps) {
    let ((g, got_log), (w, want_log)) = (got, want);
    let steps_hold = match steps {
        Steps::Equal => g.steps_executed == w.steps_executed,
        Steps::AtMost => g.steps_executed <= w.steps_executed,
        Steps::Ignored => true,
    };
    if g.same_outcome(w) && got_log == want_log && steps_hold {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("event-logs");
    if dump(&dir, label, got_log, want_log).is_ok() {
        eprintln!("{label}: both JSONL logs dumped to {}", dir.display());
    }
    assert!(
        got_log == want_log,
        "{label}: got != want: {}",
        got_log.first_diff(want_log)
    );
    assert!(
        g.same_outcome(w),
        "{label}: outcome diverges\n\
         got : profit {} ticks {} end {:?}\nwant: profit {} ticks {} end {:?}",
        g.total_profit,
        g.ticks_simulated,
        g.end_time,
        w.total_profit,
        w.ticks_simulated,
        w.end_time,
    );
    panic!(
        "{label}: {} steps against {} break {steps:?}",
        g.steps_executed, w.steps_executed
    );
}

/// Write both logs, rendered as JSONL, to `dir` as `<label>.got.jsonl` and
/// `<label>.want.jsonl` (non-alphanumerics in `label` become `-`).
pub fn dump(
    dir: &Path,
    label: &str,
    got: &EventLog,
    want: &EventLog,
) -> std::io::Result<[PathBuf; 2]> {
    std::fs::create_dir_all(dir)?;
    let slug: String = label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    let paths = [
        dir.join(format!("{slug}.got.jsonl")),
        dir.join(format!("{slug}.want.jsonl")),
    ];
    std::fs::write(&paths[0], got.to_jsonl())?;
    std::fs::write(&paths[1], want.to_jsonl())?;
    Ok(paths)
}
