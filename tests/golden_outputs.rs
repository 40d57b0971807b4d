//! Golden digests of user-facing CLI outputs.
//!
//! Each test runs a `dagsched` subcommand through its library entry point
//! and compares the length and FNV-1a digest of the exact text the binary
//! prints on stdout against recorded values. Engine refactors must keep
//! these outputs byte-identical. The sweep CSV carries the `ticks` and
//! `steps` columns, so it also pins `steps_executed` — the one `SimResult`
//! field the fast-vs-naive differential checks cannot; the
//! stream-equivalence corpus and promoted-fixture digests pin it for every
//! shipped scheduler, one-shot and paused. The `EventLog` JSONL
//! digests pin the event serializer itself. The F1 and E9 table texts and
//! the pick matrix pin which nodes the engine hands out under every pick
//! policy, speed and carryover setting.
//!
//! A digest mismatch means the output changed. Reproduce with, e.g.,
//! `dagsched sweep --grid b1` and diff against a build of the previous
//! commit.

use dagsched_fuzz::ir::fnv1a;

/// A `SimResult`'s `Debug` text in the layout its digests below were
/// recorded in: the derived `Debug` of the result type when it still had a
/// last field `trace`, which was `None` on every run digested here. Tracing
/// moved to the `Trace` observer; the digests stay as recorded.
fn result_text(r: &dagsched_engine::SimResult) -> String {
    let text = format!("{r:?}");
    let body = text
        .strip_suffix(" }")
        .expect("a derived Debug ends with a brace");
    format!("{body}, trace: None }}")
}

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

fn sweep(args: &[&str]) -> String {
    let cmd = dagsched_experiments::sweep::parse(&argv(args)).expect("valid sweep args");
    dagsched_experiments::sweep::execute(&cmd).expect("sweep runs")
}

#[test]
fn sweep_b1_uniform_csv_is_golden() {
    let out = sweep(&["--grid", "b1", "--threads", "2"]);
    assert_eq!(out.len(), 9734);
    assert_eq!(fnv1a(out.as_bytes()), 0x39e1_4e69_e29f_d394);
}

#[test]
fn sweep_b1_grouped_csv_is_golden() {
    let out = sweep(&["--grid", "b1", "--threads", "2", "--groups", "4x1,2x2;3x1"]);
    assert_eq!(out.len(), 20279);
    assert_eq!(fnv1a(out.as_bytes()), 0x1aa1_1084_8195_2514);
}

#[test]
fn fuzz_json_report_is_golden() {
    let args = argv(&["--seed", "0xDA65EED", "--execs", "2000", "--json"]);
    let cmd = dagsched_fuzz::cli::parse(&args).expect("valid fuzz args");
    let out = dagsched_fuzz::cli::execute(&cmd).expect("campaign finds no failures");
    assert_eq!(out.len(), 158);
    assert_eq!(fnv1a(out.as_bytes()), 0xa664_265a_9953_8849);
}

/// The `EventLog` JSONL of one run.
fn jsonl(
    inst: &dagsched_workload::Instance,
    sched: &mut dyn dagsched_engine::OnlineScheduler,
    cfg: &dagsched_engine::SimConfig,
) -> String {
    let mut log = dagsched_verify::EventLog::new();
    dagsched_engine::simulate_observed(inst, sched, cfg, &mut log).expect("run succeeds");
    log.to_jsonl()
}

/// Every seed-corpus entry under its own configuration axis and subject, as
/// the fuzz loop judges it. Pins the serializer itself: the differential
/// heads only compare one log with another, so a bug hitting both sides
/// equally would pass them.
#[test]
fn seed_corpus_event_logs_are_golden() {
    let mut all = String::new();
    for fi in dagsched_fuzz::seed_corpus() {
        let inst = fi.to_instance().expect("seed entries are valid");
        let subject = if fi.sprofit_subject {
            dagsched_fuzz::Subject::scheduler_s_profit()
        } else {
            dagsched_fuzz::Subject::scheduler_s()
        };
        let mut sched = subject.instantiate(inst.m());
        all.push_str(&jsonl(&inst, sched.as_mut(), &fi.base_config()));
    }
    assert_eq!(all.len(), 22109);
    assert_eq!(fnv1a(all.as_bytes()), 0xa01f_9a79_39ec_4b71);
}

/// A standard workload under S, S-wc, S-profit and EDF, on the uniform
/// platform and on `4x1,2x2` (which adds the `platform` line).
#[test]
fn standard_workload_event_logs_are_golden() {
    use dagsched_sched::{Edf, SchedulerS, SchedulerSProfit};
    let inst = dagsched_workload::WorkloadGen::standard(6, 40, 7)
        .generate()
        .expect("standard workload generates");
    let uniform = dagsched_engine::SimConfig::default();
    let grouped = dagsched_engine::SimConfig {
        groups: Some("4x1,2x2".parse().expect("valid shape")),
        ..dagsched_engine::SimConfig::default()
    };
    let mut all = String::new();
    for cfg in [&uniform, &grouped] {
        all.push_str(&jsonl(&inst, &mut SchedulerS::with_epsilon(6, 1.0), cfg));
        all.push_str(&jsonl(
            &inst,
            &mut SchedulerS::with_epsilon(6, 1.0).work_conserving(),
            cfg,
        ));
        all.push_str(&jsonl(
            &inst,
            &mut SchedulerSProfit::with_epsilon(6, 1.0),
            cfg,
        ));
        all.push_str(&jsonl(&inst, &mut Edf::new(6), cfg));
    }
    assert!(all.contains(r#""ev":"platform""#));
    assert_eq!(all.len(), 458228);
    assert_eq!(fnv1a(all.as_bytes()), 0xf91f_52eb_bacf_5df6);
}

/// Every table `fig1::run(false)` renders: the Figure 1 makespan gap at
/// m up to 64 and the speed sweep, both under the clairvoyant picks.
#[test]
fn fig1_tables_are_golden() {
    let mut all = String::new();
    for t in dagsched_experiments::fig1::run(false) {
        all.push_str(&t.render());
    }
    assert_eq!(all.len(), 1108);
    assert_eq!(fnv1a(all.as_bytes()), 0x16c7_4aeb_331c_7fa5);
}

/// The E9 node-pick table, which alone runs `NodePick::Random`.
#[test]
fn node_pick_table_is_golden() {
    let mut all = String::new();
    for t in dagsched_experiments::node_pick::run(true) {
        all.push_str(&t.render());
    }
    assert_eq!(all.len(), 497);
    assert_eq!(fnv1a(all.as_bytes()), 0x46fd_7a6d_4a5b_f90c);
}

/// Every deterministic pick policy × speeds {1, 5/4, 15/8} × carryover ×
/// fast-forward, on a single Figure 1 job (as `dagsched_opt` runs it) and
/// on a standard workload under EDF and S. Speeds above 1 with carryover
/// let one processor finish a node and take another within a tick, so a
/// tick can hand out more than `k` nodes to one allocation entry.
#[test]
fn pick_matrix_runs_are_golden() {
    use dagsched_core::{JobId, Speed, Time};
    use dagsched_engine::{NodePick, SimConfig};
    use dagsched_sched::{Edf, Fifo, SchedulerS};
    use dagsched_workload::{Instance, JobSpec, StepProfitFn};

    let dag = dagsched_dag::gen::fig1(8, 40, 1).into_shared();
    let standard = dagsched_workload::WorkloadGen::standard(6, 40, 7)
        .generate()
        .expect("standard workload generates");
    let mut all = String::new();
    let mut run =
        |inst: &Instance, sched: &mut dyn dagsched_engine::OnlineScheduler, cfg: &SimConfig| {
            let mut log = dagsched_verify::EventLog::new();
            let r = dagsched_engine::simulate_observed(inst, sched, cfg, &mut log)
                .expect("run succeeds");
            all.push_str(&format!(
                "{:?} {} {}\n",
                r.outcomes, r.ticks_simulated, r.steps_executed
            ));
            all.push_str(&log.to_jsonl());
        };
    for pick in [
        NodePick::Fifo,
        NodePick::Lifo,
        NodePick::CriticalPathFirst,
        NodePick::AdversarialLowHeight,
    ] {
        for (num, den) in [(1u32, 1u32), (5, 4), (15, 8)] {
            let speed = Speed::new(num, den).expect("positive");
            for carryover in [true, false] {
                for fast_forward in [true, false] {
                    let cfg = SimConfig {
                        speed,
                        pick: pick.clone(),
                        carryover,
                        fast_forward,
                        ..SimConfig::default()
                    };
                    // The single-job instance `dagsched_opt` builds.
                    let horizon = dag.total_work().as_ticks() * speed.work_scale().max(1) + 2;
                    let single = Instance::new(
                        8,
                        vec![JobSpec::new(
                            JobId(0),
                            Time::ZERO,
                            dag.clone(),
                            StepProfitFn::deadline(Time(horizon), 1),
                        )],
                    )
                    .expect("valid instance");
                    run(&single, &mut Fifo::new(8), &cfg);
                    run(&standard, &mut Edf::new(6), &cfg);
                    run(&standard, &mut SchedulerS::with_epsilon(6, 1.0), &cfg);
                }
            }
        }
    }
    assert_eq!(all.len(), 6704544);
    assert_eq!(fnv1a(all.as_bytes()), 0x1183_3802_fe34_0d5f);
}

/// A large-alive instance, after the `parked-dense` benchmark's builder:
/// `n` background jobs (work 9,500–10,500, drawn from `seed`) arrive at
/// `t = 0` with one far deadline, while `n` tiny tight-deadline foreground
/// jobs saturate the `m = 4` machine, so every baseline holds about `n`
/// parked jobs alive while events arrive every tick. The background then
/// runs in long windows until the survivors expire in one wave at `far`.
/// `chains` picks the foreground shape: two single-node jobs of work 2 per
/// tick, or one 2-node chain of work 4 per tick.
fn parked_instance(n: usize, chains: bool, seed: u64, far: u64) -> dagsched_workload::Instance {
    use dagsched_core::{JobId, Rng64, Time};
    use dagsched_dag::gen;
    use dagsched_workload::{Instance, JobSpec, StepProfitFn};

    let mut rng = Rng64::seed_from(seed).child(chains as u64);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(9_500 + rng.gen_range(1_001)).into_shared(),
                StepProfitFn::deadline(Time(far), 1),
            )
        })
        .collect();
    let per_tick = if chains { 1 } else { 2 };
    for i in 0..n {
        let dag = if chains {
            gen::chain(2, 2).into_shared()
        } else {
            gen::single(2).into_shared()
        };
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time((i / per_tick) as u64),
            dag,
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

/// Every baseline that keeps an ordered alive set — FIFO, EDF, HDF, LLF,
/// RANDOM, S-noadmit, MOLD-LIST and EQUI — on 1,000 parked background jobs
/// in both foreground shapes. Each run contributes its outcomes, profit,
/// tick and step counts, and (except RANDOM, which re-asks every tick and
/// would log one window per tick) the digest of its JSONL event log.
#[test]
fn parked_baseline_runs_are_golden() {
    use dagsched_core::AlgoParams;
    use dagsched_engine::{OnlineScheduler, SimConfig};
    use dagsched_sched::{
        Edf, EquiPartition, Fifo, GreedyDensity, LeastLaxity, MoldableList, RandomOrder,
        SNoAdmission,
    };

    let cfg = SimConfig::default();
    let mut all = String::new();
    for chains in [false, true] {
        let inst = parked_instance(1_000, chains, 3, 20_000);
        let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
        let scheds: Vec<Box<dyn OnlineScheduler>> = vec![
            Box::new(Fifo::new(4)),
            Box::new(Edf::new(4)),
            Box::new(GreedyDensity::new(4)),
            Box::new(LeastLaxity::new(4)),
            Box::new(RandomOrder::new(4, 11)),
            Box::new(SNoAdmission::new(4, params)),
            Box::new(MoldableList::new(4)),
            Box::new(EquiPartition::new(4)),
        ];
        for mut sched in scheds {
            let logged = sched.name() != "RANDOM";
            let mut log = dagsched_verify::EventLog::new();
            let r = if logged {
                dagsched_engine::simulate_observed(&inst, sched.as_mut(), &cfg, &mut log)
            } else {
                dagsched_engine::simulate(&inst, sched.as_mut(), &cfg)
            }
            .expect("run succeeds");
            all.push_str(&format!(
                "{} {:?} {} {} {} {:#x}\n",
                r.scheduler,
                r.outcomes,
                r.total_profit,
                r.ticks_simulated,
                r.steps_executed,
                // An unlogged run's digest covers the empty string.
                fnv1a(
                    if logged {
                        log.to_jsonl()
                    } else {
                        String::new()
                    }
                    .as_bytes()
                ),
            ));
        }
    }
    assert_eq!(all.len(), 1000417);
    assert_eq!(fnv1a(all.as_bytes()), 0x346f_c7b6_d9e3_ef3a);
}

/// A deadline-wave workload for related machines: every 15 ticks, two hard
/// single-node jobs (work 20, deadline 12 ticks out, profit 3) and two easy
/// ones (work 5, deadline 30 ticks out, profit 1) arrive. A double-speed
/// processor finishes a hard job in 10 ticks; a unit-speed one needs 20 and
/// misses the deadline. So the hard jobs pay only on the fast group, and
/// each wave is worth 8 to fastest-first placement and 2 to slow-first.
fn related_instance(waves: usize) -> dagsched_workload::Instance {
    use dagsched_core::{JobId, Time};
    use dagsched_workload::{Instance, JobSpec, StepProfitFn};

    let jobs = (0..waves * 4)
        .map(|k| {
            let (work, slack, profit) = if k % 4 < 2 { (20, 12, 3) } else { (5, 30, 1) };
            JobSpec::new(
                JobId(k as u32),
                Time((k / 4) as u64 * 15),
                dagsched_dag::gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(slack), profit),
            )
        })
        .collect();
    Instance::new(6, jobs).expect("valid related-machines instance")
}

/// Group-aware placement against its control arm. `4x1,2x2` declares four
/// unit-speed processors before two double-speed ones, so `AggregateBlind`,
/// which places in declaration order, fills the slow half first. EDF earns
/// four times the blind profit: the 4.0 gain recorded in `BENCH_pr10.json`.
#[test]
fn related_machines_profit_is_golden() {
    use dagsched_engine::{simulate, SimConfig};
    use dagsched_sched::{AggregateBlind, Edf};

    let cfg = SimConfig::on_groups("4x1,2x2".parse().expect("valid platform spec"));
    for (waves, aware, blind) in [(40, 320, 80), (120, 960, 240)] {
        let inst = related_instance(waves);
        let aware_run = simulate(&inst, &mut Edf::new(6), &cfg).expect("runs");
        let blind_run = simulate(&inst, &mut AggregateBlind(Edf::new(6)), &cfg).expect("runs");
        assert_eq!(
            (aware_run.total_profit, blind_run.total_profit),
            (aware, blind),
            "{waves} waves"
        );
    }
}

/// The instances of the stream-equivalence corpus
/// (`crates/verify/tests/stream_equiv.rs`): three standard workloads and
/// one overloaded one.
fn stream_equiv_corpus() -> Vec<dagsched_workload::Instance> {
    use dagsched_workload::{ArrivalProcess, DeadlinePolicy, WorkloadGen};
    let mut out: Vec<_> = [7u64, 191, 2024]
        .iter()
        .map(|&seed| {
            WorkloadGen::standard(4 + (seed % 5) as u32, 30, seed)
                .generate()
                .expect("standard workload generates")
        })
        .collect();
    let m = 6;
    out.push(
        WorkloadGen {
            arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
            deadlines: DeadlinePolicy::SlackFactor(1.2),
            ..WorkloadGen::standard(m, 50, 99)
        }
        .generate()
        .expect("overload workload generates"),
    );
    out
}

/// The stream-equivalence corpus under every shipped scheduler on the
/// production engine path, on the uniform platform and (for the 6-machine
/// instances) on `4x1,2x2`, run one-shot and paused by `run_until` at
/// strides of 13 ticks. Each run contributes the digest of its `SimResult`
/// (with `ticks_simulated` and `steps_executed`) and of its JSONL event
/// log; a paused run must match its one-shot run exactly. These digests
/// pin the fast path's step counts, which no naive-vs-fast comparison can.
#[test]
fn stream_equiv_corpus_runs_are_golden() {
    use dagsched_core::Time;
    use dagsched_engine::{SimConfig, SimDriver, SimObserver};
    use dagsched_experiments::SchedKind;

    let kinds = [
        SchedKind::S { epsilon: 1.0 },
        SchedKind::SWc { epsilon: 1.0 },
        SchedKind::SProfit { epsilon: 1.0 },
        SchedKind::SNoAdmit { epsilon: 1.0 },
        SchedKind::SCustom {
            epsilon: 1.0,
            delta: 0.25,
            c: 40.0,
        },
        SchedKind::Edf,
        SchedKind::EdfAc,
        SchedKind::Fifo,
        SchedKind::Hdf,
        SchedKind::Llf,
        SchedKind::Random { seed: 7 },
        SchedKind::MoldList,
        SchedKind::Equi,
    ];
    let grouped = SimConfig {
        groups: Some("4x1,2x2".parse().expect("valid shape")),
        ..SimConfig::default()
    };
    let mut all = String::new();
    for (i, inst) in stream_equiv_corpus().iter().enumerate() {
        let mut cfgs = vec![SimConfig::default()];
        if inst.m() == 6 {
            cfgs.push(grouped.clone());
        }
        for cfg in &cfgs {
            for kind in &kinds {
                let mut log = dagsched_verify::EventLog::new();
                let mut sched = kind.build(inst.m());
                let one_shot =
                    dagsched_engine::simulate_observed(inst, sched.as_mut(), cfg, &mut log)
                        .expect("run succeeds");
                let one_shot = (result_text(&one_shot), log.to_jsonl());

                let mut log = dagsched_verify::EventLog::new();
                let mut sched = kind.build(inst.m());
                let mut drv = SimDriver::with_observer(
                    inst,
                    sched.as_mut(),
                    cfg,
                    &mut log as &mut dyn SimObserver,
                );
                let mut target = Time(1);
                while drv.run_until(target).expect("paused run succeeds") {
                    target = target.after(13);
                }
                let paused = drv.finish().expect("paused run finishes");
                let paused = (result_text(&paused), log.to_jsonl());
                assert_eq!(
                    paused,
                    one_shot,
                    "instance {i} {}: paused != one-shot",
                    kind.label()
                );

                for (mode, (result, jsonl)) in [("one-shot", &one_shot), ("paused", &paused)] {
                    all.push_str(&format!(
                        "{i} {} {} {mode} {:#x} {:#x}\n",
                        kind.label(),
                        cfg.groups.is_some(),
                        fnv1a(result.as_bytes()),
                        fnv1a(jsonl.as_bytes()),
                    ));
                }
            }
        }
    }
    assert_eq!(all.len(), 9594);
    assert_eq!(fnv1a(all.as_bytes()), 0x24af_1077_f266_5c8d);
}

/// Every promoted fuzz fixture (`crates/verify/tests/fixtures/`) under
/// scheduler S and S-profit on the production path: the digest of each
/// run's `SimResult` and JSONL event log.
#[test]
fn promoted_fixture_runs_are_golden() {
    use dagsched_engine::SimConfig;
    use dagsched_experiments::SchedKind;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/verify/tests/fixtures");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.ends_with(".txt"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 8);
    let mut all = String::new();
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name)).expect("fixture reads");
        let inst = dagsched_workload::codec::decode(&text).expect("fixture decodes");
        for kind in [
            SchedKind::S { epsilon: 1.0 },
            SchedKind::SProfit { epsilon: 1.0 },
        ] {
            let mut sched = kind.build(inst.m());
            let mut log = dagsched_verify::EventLog::new();
            let r = dagsched_engine::simulate_observed(
                &inst,
                sched.as_mut(),
                &SimConfig::default(),
                &mut log,
            )
            .expect("run succeeds");
            all.push_str(&format!(
                "{name} {} {:#x} {:#x}\n",
                kind.label(),
                fnv1a(result_text(&r).as_bytes()),
                fnv1a(log.to_jsonl().as_bytes()),
            ));
        }
    }
    assert_eq!(all.len(), 1027);
    assert_eq!(fnv1a(all.as_bytes()), 0x794d_e612_cddb_c6e7);
}

/// Every traced run of `tests/trace_cluster.rs`, `tests/trace_recount.rs`
/// and `examples/cluster_day.rs`: each run's `TraceStats` fields (the mean
/// utilisation to ten decimals) and the length and digest of its full
/// per-tick `render`. Recorded with the engine's earlier per-tick trace
/// recorder, which stepped every tick; the `Trace` observer must reproduce
/// every value from its run-length windows. The utilisation is rounded
/// because it is now one division instead of a per-tick float sum.
#[test]
fn trace_runs_are_golden() {
    use dagsched_engine::{simulate_observed, OnlineScheduler, SimConfig, Trace};
    use dagsched_sched::{Edf, GreedyDensity, LeastLaxity, SchedulerS, SchedulerSProfit};
    use dagsched_workload::{
        ArrivalProcess, ClusterTraceGen, DeadlinePolicy, Instance, WorkloadGen,
    };

    type Build = fn(u32) -> Box<dyn OnlineScheduler>;
    let s: Build = |m| Box::new(SchedulerS::with_epsilon(m, 1.0));
    let swc: Build = |m| Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving());
    let sprofit: Build = |m| Box::new(SchedulerSProfit::with_epsilon(m, 1.0));
    let greedy: Build = |m| Box::new(GreedyDensity::new(m));
    let llf: Build = |m| Box::new(LeastLaxity::new(m));
    let edf: Build = |m| Box::new(Edf::new(m));

    let mut all = String::new();
    let mut pin = |label: &str, inst: Instance, cfg: &SimConfig, builds: &[Build]| {
        for build in builds {
            let mut trace = Trace::new();
            let r = simulate_observed(&inst, build(inst.m()).as_mut(), cfg, &mut trace)
                .expect("run succeeds");
            let (st, text) = (trace.stats(), trace.render(usize::MAX));
            all.push_str(&format!(
                "{label} {} busy={} pt={} util={:.10} pre={} resize={} jobs={} render={} {:#x}\n",
                r.scheduler,
                st.busy_ticks,
                st.processor_ticks,
                st.mean_utilization,
                st.preemptions,
                st.resize_events,
                st.jobs_run,
                text.len(),
                fnv1a(text.as_bytes()),
            ));
        }
    };
    let uniform = SimConfig::default();
    let standard = |m, n, seed| WorkloadGen::standard(m, n, seed).generate().unwrap();
    let cluster = |m, n, seed| ClusterTraceGen::new(m, n, seed).generate().unwrap();
    pin("standard-8-60-11", standard(8, 60, 11), &uniform, &[greedy]);
    let batch = WorkloadGen {
        arrivals: ArrivalProcess::AllAtOnce,
        ..WorkloadGen::standard(8, 40, 5)
    };
    pin("batch-8-40-5", batch.generate().unwrap(), &uniform, &[s]);
    for seed in [1u64, 2, 3] {
        let label = format!("cluster-16-150-{seed}");
        pin(&label, cluster(16, 150, seed), &uniform, &[s, swc]);
    }
    pin("cluster-8-80-4", cluster(8, 80, 4), &uniform, &[swc]);
    for seed in [3u64, 58, 477, 901] {
        let m = 3 + (seed % 6) as u32;
        let label = format!("standard-{m}-30-{seed}");
        pin(
            &label,
            standard(m, 30, seed),
            &uniform,
            &[s, swc, greedy, llf, sprofit],
        );
    }
    let overload = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(5.0, 40.0, 4),
        deadlines: DeadlinePolicy::SlackFactor(1.1),
        ..WorkloadGen::standard(4, 60, 31)
    };
    let overload = overload.generate().unwrap();
    pin(
        "overload-4-60-31",
        overload,
        &uniform,
        &[llf, edf, s, sprofit],
    );
    let grouped = SimConfig::on_groups("2x1,2x3/2".parse().expect("valid shape"));
    let builds = [s, swc, sprofit, greedy, llf];
    pin(
        "standard-4-30-17-2x1,2x3/2",
        standard(4, 30, 17),
        &grouped,
        &builds,
    );
    pin(
        "cluster-day-16-250-2024",
        cluster(16, 250, 2024),
        &uniform,
        &[s, swc, greedy],
    );
    assert_eq!(all.len(), 4875);
    assert_eq!(fnv1a(all.as_bytes()), 0x1c76_52af_2716_65ca);
}

/// Every table `charging::run(false)` renders: E5's measured `‖C‖/‖R‖`
/// next to Lemma 5's margin.
#[test]
fn charging_tables_are_golden() {
    let mut all = String::new();
    for t in dagsched_experiments::charging::run(false) {
        all.push_str(&t.render());
    }
    assert_eq!(all.len(), 1042);
    assert_eq!(fnv1a(all.as_bytes()), 0xd79e_cef6_27eb_05c8);
}

/// The E8 ablation table, whose variants share each seed's instance.
#[test]
fn ablation_table_is_golden() {
    let mut all = String::new();
    for t in dagsched_experiments::ablation::run(true) {
        all.push_str(&t.render());
    }
    assert_eq!(all.len(), 1014);
    assert_eq!(fnv1a(all.as_bytes()), 0x471d_4417_a280_99c1);
}

/// One DAG's derived structure: its topological order and every node's
/// height, in id order.
fn dag_text(dag: &dagsched_dag::DagJobSpec) -> String {
    use dagsched_core::NodeId;
    let topo: Vec<String> = dag.topo_order().iter().map(|v| v.0.to_string()).collect();
    let heights: Vec<String> = (0..dag.num_nodes() as u32)
        .map(|v| dag.height(NodeId(v)).units().to_string())
        .collect();
    format!("topo {}\nheights {}\n", topo.join(" "), heights.join(" "))
}

/// What the instance generators build: the codec text of standard
/// workloads, of E9's Fig. 1 / fork-join / layered mix and of cluster
/// traces, each job's topological order and heights, and the DAG and HPC
/// task-graph generators called directly.
#[test]
fn generated_instances_are_golden() {
    use dagsched_core::Rng64;
    use dagsched_dag::{gen, hpc};
    use dagsched_workload::{codec, ClusterTraceGen, Instance, WorkloadGen};

    let mut all = String::new();
    let mut pin = |inst: Instance| {
        all.push_str(&codec::encode(&inst));
        for job in inst.jobs() {
            all.push_str(&dag_text(&job.dag));
        }
    };
    for seed in [1u64, 7, 2024] {
        pin(WorkloadGen::standard(8, 120, seed).generate().unwrap());
        pin(dagsched_experiments::node_pick::instance(8, 60, seed));
        pin(ClusterTraceGen::new(16, 80, seed).generate().unwrap());
    }
    let mut rng = Rng64::seed_from(0x6E4);
    for dag in [
        gen::single(3),
        gen::chain(5, 2),
        gen::block(4, 3),
        gen::diamond(5, 2),
        gen::fig1(4, 6, 2),
        gen::fig2(3, 5, 1),
        gen::fork_join(3, 4, 2),
        gen::layered_random(&mut rng, 5, (1, 6), (1, 9), 0.35),
        gen::series_parallel(&mut rng, 30, (1, 5)),
        gen::random_dag(&mut rng, 25, 0.2, (1, 7)),
        hpc::cholesky(4, hpc::KernelCosts::default()),
        hpc::lu(4, hpc::KernelCosts::default()),
        hpc::stencil(5, 4, 2),
        hpc::wavefront(4, 5, 1),
    ] {
        all.push_str(&dag_text(&dag));
    }
    assert_eq!(all.len(), 355888);
    assert_eq!(fnv1a(all.as_bytes()), 0x8642_3321_c506_1644);
}
