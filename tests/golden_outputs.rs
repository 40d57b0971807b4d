//! Golden digests of user-facing CLI outputs.
//!
//! Each test runs a `dagsched` subcommand through its library entry point
//! and compares the length and FNV-1a digest of the exact text the binary
//! prints on stdout against recorded values. Engine refactors must keep
//! these outputs byte-identical. The sweep CSV carries the `ticks` and
//! `steps` columns, so it also pins `steps_executed` — the one `SimResult`
//! field the fast-vs-naive differential checks cannot. The `EventLog` JSONL
//! digests pin the event serializer itself.
//!
//! A digest mismatch means the output changed. Reproduce with, e.g.,
//! `dagsched sweep --grid b1` and diff against a build of the previous
//! commit.

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    assert_eq!(fnv1a(out.as_bytes()), 0xbffb_b16f_3842_0643);
}

#[test]
fn sweep_b1_grouped_csv_is_golden() {
    let out = sweep(&["--grid", "b1", "--threads", "2", "--groups", "4x1,2x2;3x1"]);
    assert_eq!(out.len(), 20279);
    assert_eq!(fnv1a(out.as_bytes()), 0xf2f5_4030_a1d3_af79);
}

#[test]
fn fuzz_json_report_is_golden() {
    let args = argv(&["--seed", "0xDA65EED", "--execs", "2000", "--json"]);
    let cmd = dagsched_fuzz::cli::parse(&args).expect("valid fuzz args");
    let out = dagsched_fuzz::cli::execute(&cmd).expect("campaign finds no failures");
    assert_eq!(out.len(), 158);
    assert_eq!(fnv1a(out.as_bytes()), 0xa06d_664d_2832_5778);
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
    assert_eq!(all.len(), 21775);
    assert_eq!(fnv1a(all.as_bytes()), 0x346f_2024_0204_cc03);
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
