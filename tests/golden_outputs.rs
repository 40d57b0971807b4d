//! Golden digests of user-facing CLI outputs.
//!
//! Each test runs a `dagsched` subcommand through its library entry point
//! and compares the length and FNV-1a digest of the exact text the binary
//! prints on stdout against recorded values. Engine refactors must keep
//! these outputs byte-identical. The sweep CSV carries the `ticks` and
//! `steps` columns, so it also pins `steps_executed` — the one `SimResult`
//! field the fast-vs-naive differential checks cannot.
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
