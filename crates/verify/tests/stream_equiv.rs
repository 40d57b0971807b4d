//! Stream-level equivalence oracle: the naive reference and production
//! engine paths must emit **byte-identical** JSONL event logs.
//!
//! `crates/sched/tests/fastforward_equiv.rs` compares the two paths at the
//! outcome level (profit, end time, completion sets). This file raises the
//! bar to the whole event stream: every arrival, admission decision,
//! coalesced execution window, node completion, completion and expiry must
//! serialize to the same bytes regardless of which path produced it. An
//! outcome-equal run with a transiently different schedule cannot pass.
//!
//! The naive path shares no event or handoff code with the production
//! path: it scans for expiries where production pops the event kernel, and
//! rebuilds the view and asks for an allocation every tick where
//! production maintains the view and replays the last allocation until the
//! view changes or its stability window ends. So one comparison checks the
//! kernel's windows and expiry batches, the engine's replay and every
//! scheduler's stability declaration at once. Beyond the standard and
//! overload corpus, the inputs aim at both: a hand-built triple tie
//! (arrival, expiry and completion on one tick, on a window edge) and
//! pauses exactly on tie instants, collision-dense proptest instances, a
//! parked majority where replay carries the run, and the corpus again
//! under a multi-thread harness. Step counts differ
//! between the paths by design; the golden digests in
//! `tests/golden_outputs.rs` pin the production path's.

use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_engine::{
    parallel_map, simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver,
    SimResult,
};
use dagsched_sched::{
    Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, RandomOrder, SNoAdmission, SchedulerS,
};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};
use std::path::{Path, PathBuf};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler> + Sync>;

fn factories(m: u32) -> Vec<(&'static str, SchedFactory)> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0)) as _),
        ),
        (
            "S-wc",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving()) as _),
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params)) as _),
        ),
        ("FIFO", Box::new(move || Box::new(Fifo::new(m)) as _)),
        ("EDF", Box::new(move || Box::new(Edf::new(m)) as _)),
        (
            "GREEDY-DENSITY",
            Box::new(move || Box::new(GreedyDensity::new(m)) as _),
        ),
        ("LLF", Box::new(move || Box::new(LeastLaxity::new(m)) as _)),
        ("EDF-AC", Box::new(move || Box::new(EdfAc::new(m)) as _)),
        (
            // Single-tick stability: the production path asks it every
            // step, on the maintained view.
            "RANDOM",
            Box::new(move || Box::new(RandomOrder::new(m, 42)) as _),
        ),
    ]
}

/// Run both paths with an `EventLog` attached; return the two logs.
fn log_pair(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
) -> (EventLog, EventLog) {
    let mut fast_log = EventLog::new();
    let fast = simulate_observed(inst, mk().as_mut(), cfg, &mut fast_log).expect("fast path runs");
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..cfg.clone()
    };
    let mut naive_log = EventLog::new();
    let naive = simulate_observed(inst, mk().as_mut(), &naive_cfg, &mut naive_log)
        .expect("naive path runs");
    assert!(
        fast.same_outcome(&naive),
        "outcome diverged before stream check"
    );
    (fast_log, naive_log)
}

/// Write both logs, rendered as JSONL, to `dir` as `<label>.fast.jsonl`
/// and `<label>.naive.jsonl` (non-alphanumerics in `label` become `-`).
fn dump_pair(
    dir: &Path,
    label: &str,
    fast: &EventLog,
    naive: &EventLog,
) -> std::io::Result<[PathBuf; 2]> {
    std::fs::create_dir_all(dir)?;
    let slug: String = label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    let paths = [
        dir.join(format!("{slug}.fast.jsonl")),
        dir.join(format!("{slug}.naive.jsonl")),
    ];
    std::fs::write(&paths[0], fast.to_jsonl())?;
    std::fs::write(&paths[1], naive.to_jsonl())?;
    Ok(paths)
}

/// Compare the logs by value. On a mismatch, dump both rendered logs to
/// `target/tmp/event-logs/` so CI can upload them as artifacts, and point
/// at the first differing line so the failure is debuggable.
fn assert_identical(fast: &EventLog, naive: &EventLog, label: &str) {
    if fast == naive {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("event-logs");
    if dump_pair(&dir, label, fast, naive).is_ok() {
        eprintln!("{label}: diverging JSONL logs dumped to {}", dir.display());
    }
    let (fast, naive) = (fast.to_jsonl(), naive.to_jsonl());
    for (i, (f, n)) in fast.lines().zip(naive.lines()).enumerate() {
        assert_eq!(f, n, "{label}: streams diverge at line {i}");
    }
    panic!(
        "{label}: streams are a prefix of each other ({} vs {} lines)",
        fast.lines().count(),
        naive.lines().count()
    );
}

#[test]
fn dump_helper_writes_rendered_jsonl() {
    let inst = triple_tie_instance();
    let (fast, naive) = log_pair(
        &inst,
        &|| Box::new(SchedulerS::with_epsilon(2, 1.0)),
        &SimConfig::default(),
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dump-pair-selftest");
    let [f, n] = dump_pair(&dir, "triple tie: S", &fast, &naive).expect("dump writes");
    assert!(f.ends_with("triple-tie--S.fast.jsonl"), "{}", f.display());
    let (f, n) = (
        std::fs::read_to_string(f).expect("fast dump"),
        std::fs::read_to_string(n).expect("naive dump"),
    );
    assert_eq!(f, fast.to_jsonl());
    assert_eq!(n, naive.to_jsonl());
    assert!(
        f.starts_with(r#"{"ev":"start""#) && f.ends_with("}\n"),
        "{f}"
    );
}

/// Log equality is rendered-text equality: over the corpus on both paths,
/// and across schedulers and speeds (where most pairs differ), two logs
/// compare equal exactly when their JSONL does.
#[test]
fn log_equality_is_rendered_equality_on_the_corpus() {
    let mut logs = Vec::new();
    let groups: dagsched_core::MachineGroups = "2x1,2x3/2".parse().expect("valid groups");
    for seed in [7u64, 2024] {
        let inst = WorkloadGen::standard(4, 12, seed)
            .generate()
            .expect("valid");
        for cfg in [
            SimConfig::default(),
            SimConfig {
                speed: Speed::new(3, 2).expect("positive"),
                ..SimConfig::default()
            },
            SimConfig {
                groups: Some(groups.clone()),
                ..SimConfig::default()
            },
        ] {
            for (_, mk) in &factories(4) {
                let (fast, naive) = log_pair(&inst, mk, &cfg);
                logs.push(fast);
                logs.push(naive);
            }
        }
    }
    let text: Vec<String> = logs.iter().map(EventLog::to_jsonl).collect();
    let (mut equal, mut unequal) = (0, 0);
    for (a, ta) in logs.iter().zip(&text) {
        for (b, tb) in logs.iter().zip(&text) {
            assert_eq!(a == b, ta == tb);
            if a == b {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
    }
    assert!(
        equal > logs.len() && unequal > logs.len(),
        "{equal} / {unequal}"
    );
}

/// `log_pair` plus the stream comparison.
fn check_pair(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    label: &str,
) {
    let (fast, naive) = log_pair(inst, mk, cfg);
    assert_identical(&fast, &naive, label);
}

fn check_all(inst: &Instance, m: u32, label: &str) {
    let mks = factories(m);
    // The fast path hands the reference round its claimed nodes while the
    // naive path picks its own batch, so every deterministic pick runs
    // here; speed 5/4 leaves carryover budget that refills a batch.
    for speed in [
        Speed::ONE,
        Speed::new(5, 4).expect("positive"),
        Speed::new(3, 2).expect("positive"),
        Speed::integer(2).expect("positive"),
    ] {
        for pick in [
            NodePick::Fifo,
            NodePick::Lifo,
            NodePick::CriticalPathFirst,
            NodePick::AdversarialLowHeight,
        ] {
            let cfg = SimConfig {
                speed,
                pick: pick.clone(),
                ..SimConfig::default()
            };
            for (name, mk) in &mks {
                check_pair(
                    inst,
                    mk,
                    &cfg,
                    &format!("{label}: {name} at speed {speed:?} pick {pick:?}"),
                );
            }
        }
    }
}

#[test]
fn event_streams_identical_on_standard_workloads() {
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        check_all(&inst, m, &format!("standard seed {seed}"));
    }
}

#[test]
fn event_streams_identical_under_overload() {
    // Tight deadlines and a hot arrival process maximize admission churn,
    // expiries and window boundaries — the hardest stream to coalesce.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    check_all(&inst, m, "overload");
}

/// The logged stream is self-consistent: exactly one start and one end line,
/// every completion/expiry preceded by that job's arrival line.
#[test]
fn logged_stream_is_well_formed() {
    let m = 5;
    let inst = WorkloadGen::standard(m, 25, 13).generate().expect("valid");
    let mut log = EventLog::new();
    let mut s = SchedulerS::with_epsilon(m, 1.0);
    simulate_observed(&inst, &mut s, &SimConfig::default(), &mut log).expect("runs");
    let text = log.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.first().expect("nonempty").contains(r#""ev":"start""#));
    assert!(lines.last().expect("nonempty").contains(r#""ev":"end""#));
    let count = |kind: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!(r#""ev":"{kind}""#)))
            .count()
    };
    assert_eq!(count("start"), 1);
    assert_eq!(count("end"), 1);
    assert_eq!(count("arrive"), inst.len());
    for l in lines {
        assert!(
            l.starts_with('{') && l.ends_with('}'),
            "not a JSON object: {l}"
        );
    }
}

/// Hand-built tie nest: on one machine of 2 processors, tick 10 carries a
/// completion frontier (job 0's 11-unit node claimed from t = 0), an expiry
/// boundary (job 1, deadline exactly 10 with an unstartable workload), and
/// an arrival (job 2) — all three event kinds due on the same tick, which
/// is also exactly the preceding window's edge.
fn triple_tie_instance() -> Instance {
    use dagsched_dag::gen;
    let jobs = vec![
        JobSpec::new(
            JobId(0),
            Time(0),
            gen::single(11).into_shared(),
            StepProfitFn::deadline(Time(100), 7),
        ),
        JobSpec::new(
            JobId(1),
            Time(0),
            gen::chain(4, 25).into_shared(),
            StepProfitFn::deadline(Time(10), 5),
        ),
        JobSpec::new(
            JobId(2),
            Time(10),
            gen::single(3).into_shared(),
            StepProfitFn::deadline(Time(20), 3),
        ),
    ];
    Instance::new(2, jobs).expect("valid tie instance")
}

#[test]
fn simultaneous_arrival_expiry_completion_tie() {
    check_all(&triple_tie_instance(), 2, "triple tie at t=10");
}

/// A parked majority: most jobs sit alive-but-idle for the whole run, so
/// almost every production step sees an unchanged view (or a handful of
/// ready patches) and the engine's replay carries the run, while the naive
/// path rebuilds and re-allocates every tick.
#[test]
fn event_streams_identical_with_a_parked_majority() {
    use dagsched_dag::gen;
    let mut jobs: Vec<JobSpec> = (0..40u32)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                gen::single(5_000).into_shared(),
                StepProfitFn::deadline(Time(50_000), 1),
            )
        })
        .collect();
    // Foreground churn: short chains arriving over time.
    for i in 0..20u32 {
        jobs.push(JobSpec::new(
            JobId(40 + i),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            StepProfitFn::deadline(Time(40), 3),
        ));
    }
    let inst = Instance::new(4, jobs).expect("valid parked instance");
    for (name, mk) in &factories(4) {
        check_pair(
            &inst,
            mk,
            &SimConfig::default(),
            &format!("parked majority: {name}"),
        );
    }
}

/// The standard corpus again, driven through the multi-thread harness:
/// each (instance, scheduler) pair runs both paths on a worker thread.
/// Byte-identity must hold at N threads exactly as at 1 — neither path has
/// hidden shared state.
#[test]
fn event_streams_identical_across_threads() {
    let insts: Vec<(u64, Instance)> = [7u64, 191, 2024]
        .iter()
        .map(|&seed| {
            let m = 4 + (seed % 5) as u32;
            (
                seed,
                WorkloadGen::standard(m, 30, seed)
                    .generate()
                    .expect("valid workload"),
            )
        })
        .collect();
    let tasks: Vec<(usize, usize)> = (0..insts.len())
        .flat_map(|i| (0..factories(1).len()).map(move |s| (i, s)))
        .collect();
    let results = parallel_map(tasks, 4, |&(i, s)| {
        let (seed, inst) = &insts[i];
        let mks = factories(inst.m());
        let (name, mk) = &mks[s];
        let (fast, naive) = log_pair(inst, mk, &SimConfig::default());
        (format!("threaded seed {seed} {name}"), fast, naive)
    });
    for (label, fast, naive) in results {
        assert_identical(&fast, &naive, &label);
    }
}

/// The fuzzer's collision family, via its shared generator: keeps this
/// suite and the fuzzer's naive-vs-fast oracle head sampling the same
/// distribution.
#[test]
fn event_streams_identical_on_the_fuzz_collision_corpus() {
    let corpus = dagsched_fuzz::collision_instances(0xDE17A, 16);
    for (ci, inst) in corpus.iter().enumerate() {
        for (name, mk) in &factories(inst.m()) {
            check_pair(
                inst,
                mk,
                &SimConfig::default(),
                &format!("fuzz collision #{ci} {name}"),
            );
        }
    }
}

/// A run under `cfg`, paused by `run_until` at each of `pauses` in turn.
fn run_paused(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    pauses: &[Time],
) -> (SimResult, EventLog) {
    let mut log = EventLog::new();
    let mut sched = mk();
    let mut driver =
        SimDriver::with_observer(inst, sched.as_mut(), cfg, &mut log as &mut dyn SimObserver);
    for &p in pauses {
        driver.run_until(p).expect("run_until runs");
    }
    let r = driver.finish().expect("finish runs");
    (r, log)
}

/// A paused run on either path must match the one-shot naive run's outcome
/// and stream.
fn check_paused(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    pauses: &[Time],
    label: &str,
) {
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    let mut log = EventLog::new();
    let naive = simulate_observed(inst, mk().as_mut(), &naive_cfg, &mut log).expect("naive runs");
    let naive_log = log;
    for cfg in [SimConfig::default(), naive_cfg.clone()] {
        let (r, paused_log) = run_paused(inst, mk, &cfg, pauses);
        let label = format!("{label} ff {}", cfg.fast_forward);
        assert!(r.same_outcome(&naive), "{label}: outcome diverged");
        assert_identical(&paused_log, &naive_log, &label);
    }
}

/// Pausing `run_until` *exactly* on a tie instant — the tick where a
/// completion, an arrival, and an expiry all fire — must be invisible on
/// both paths. A pause boundary landing on the tie is the sharpest pacing
/// test there is: the driver must stop on the instant without reordering
/// any of the three coincident events.
mod paused_at_ties {
    use super::*;
    use std::collections::BTreeMap;

    /// Per-tick bitmask of job-level event kinds: 1 = arrival,
    /// 2 = completion, 4 = expiry.
    #[derive(Default)]
    struct TieFinder {
        ticks: BTreeMap<u64, u8>,
    }

    impl SimObserver for TieFinder {
        fn on_job_arrival(&mut self, now: Time, _info: &dagsched_engine::JobInfo) {
            *self.ticks.entry(now.0).or_default() |= 1;
        }
        fn on_job_complete(&mut self, at: Time, _job: JobId, _profit: u64) {
            *self.ticks.entry(at.0).or_default() |= 2;
        }
        fn on_job_expired(&mut self, at: Time, _job: JobId) {
            *self.ticks.entry(at.0).or_default() |= 4;
        }
    }

    /// The hand-built triple tie at t = 10: pause exactly on the tie, one
    /// tick before, one tick after, and repeatedly on the same instant —
    /// for every scheduler, on both paths, against the one-shot naive run.
    #[test]
    fn pausing_exactly_on_the_triple_tie_is_invisible() {
        let inst = triple_tie_instance();
        let tie = Time(10);
        let schedules: [&[Time]; 4] = [
            &[tie],
            &[Time(9), tie, Time(11)],
            &[tie, tie, Time(11)],
            &[Time(9), Time(9), tie],
        ];
        for (name, mk) in &factories(2) {
            for (i, pauses) in schedules.iter().enumerate() {
                check_paused(&inst, mk, pauses, &format!("triple-tie pause #{i} {name}"));
            }
        }
    }

    /// The fuzzer's collision family: discover every tie instant (ticks
    /// where at least two event kinds coincide) with an observer pass, then
    /// pause exactly on each of them on both paths. At least one *triple*
    /// tie must exist across the corpus, or the family has lost its teeth.
    #[test]
    fn pausing_on_discovered_tie_instants_is_invisible() {
        // This seed yields a triple tie (completion = arrival = expiry)
        // within 24 instances.
        let corpus = dagsched_fuzz::collision_instances(0xC0111DF, 24);
        let mut saw_triple = false;
        for (ci, inst) in corpus.iter().enumerate() {
            let mks = factories(inst.m());
            let (name, mk) = &mks[0]; // scheduler S
            let mut finder = TieFinder::default();
            simulate_observed(inst, mk().as_mut(), &SimConfig::default(), &mut finder)
                .expect("finder run");
            saw_triple |= finder.ticks.values().any(|&mask| mask == 7);
            for (&t, _) in finder.ticks.iter().filter(|&(_, &m)| m.count_ones() >= 2) {
                check_paused(
                    inst,
                    mk,
                    &[Time(t)],
                    &format!("collision #{ci} pause at {t} {name}"),
                );
            }
        }
        assert!(
            saw_triple,
            "no completion = arrival = expiry instant in the collision corpus"
        );
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Collision-dense random instances: arrivals, works, and deadlines all
    /// drawn from single-digit ranges so simultaneous events, same-step
    /// admit+expire, multi-removal batches and window-edge coincidences are
    /// the norm, not the exception. With `wide`, jobs are blocks and
    /// diamonds instead of singles and chains, so many nodes turn ready or
    /// finish on one tick and each step changes many ready counts.
    fn collision_instance(seed: u64, n: usize, m: u32, wide: bool) -> Instance {
        use dagsched_dag::gen;
        let mut rng = dagsched_core::Rng64::seed_from(seed);
        let mut arrivals: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        arrivals.sort_unstable();
        let jobs: Vec<JobSpec> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let work = 1 + rng.gen_range(6);
                let width = 2 + rng.gen_range(4) as u32;
                let dag = match (wide, rng.gen_range(2)) {
                    (false, 0) => gen::single(work),
                    (false, _) => gen::chain(2, work),
                    (true, 0) => gen::block(width, work),
                    (true, _) => gen::diamond(width, work),
                }
                .into_shared();
                let deadline = 1 + rng.gen_range(9);
                JobSpec::new(
                    JobId(i as u32),
                    Time(a),
                    dag,
                    StepProfitFn::deadline(Time(deadline), 1 + rng.gen_range(5)),
                )
            })
            .collect();
        Instance::new(m, jobs).expect("valid collision instance")
    }

    /// `n_pauses` sorted random pause instants in `[0, span)`.
    fn random_pauses(hseed: u64, n_pauses: usize, span: u64) -> Vec<Time> {
        let mut rng = dagsched_core::Rng64::seed_from(hseed);
        let mut pauses: Vec<Time> = (0..n_pauses)
            .map(|_| Time(rng.gen_range(span.max(1))))
            .collect();
        pauses.sort_unstable();
        pauses
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Naive == fast on collision-dense instances for every production
        /// scheduler.
        #[test]
        fn event_streams_identical_under_adversarial_ties(
            seed in 0u64..2000,
            n in 3usize..14,
            m in 1u32..4,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, false);
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            check_pair(
                &inst,
                mk,
                &SimConfig::default(),
                &format!("ties seed {seed} n {n} m {m} {name}"),
            );
        }

        /// Naive == fast on collision-dense instances of wide jobs: the
        /// maintained view must take many ready and finished nodes per
        /// step.
        #[test]
        fn event_streams_identical_under_adversarial_ready_churn(
            seed in 0u64..2000,
            n in 3usize..14,
            m in 1u32..6,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, true);
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            check_pair(
                &inst,
                mk,
                &SimConfig::default(),
                &format!("churn seed {seed} n {n} m {m} {name}"),
            );
        }

        /// Pausing a driver at arbitrary horizons on either path matches
        /// the one-shot naive run: path and pacing are jointly invisible.
        #[test]
        fn paused_runs_match_one_shot_naive(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            sched_idx in 0usize..9,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            let pauses = random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 8);
            check_paused(&inst, mk, &pauses, &format!("paused seed {seed} {name}"));
        }

        /// Pausing on collision-dense instances of wide jobs, where pause
        /// instants often land on ties: a view change made just before a
        /// `run_until` boundary is not lost to a replay after it.
        #[test]
        fn paused_collision_runs_match_one_shot_naive(
            seed in 0u64..2000,
            hseed in 0u64..500,
            n in 3usize..14,
            m in 1u32..6,
            n_pauses in 1usize..8,
            sched_idx in 0usize..9,
        ) {
            let inst = collision_instance(seed, n, m, true);
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            let pauses = random_pauses(hseed, n_pauses, inst.stats().horizon.ticks() + 4);
            check_paused(
                &inst,
                mk,
                &pauses,
                &format!("paused collision seed {seed} n {n} m {m} {name}"),
            );
        }
    }
}
