//! The coverage-guided fuzz loop.
//!
//! One *exec* = pick a corpus entry, apply a few weighted mutators, repair
//! into an [`Instance`](dagsched_workload::Instance), and judge it with the
//! oracle heads. Candidates that light up new coverage features join the
//! corpus; failing candidates are minimized and recorded. Everything —
//! corpus selection, mutator choice, pause schedules — draws from one
//! master [`Rng64`], so a fixed master seed reproduces the exact corpus
//! trajectory, exec count and failure list, byte for byte. The
//! [`FuzzReport::trajectory`] digest folds the per-exec coverage deltas
//! into one u64 precisely so "byte-identical trajectory" is one comparison.

use crate::corpus::seed_corpus;
use crate::coverage::CoverageMap;
use crate::ir::{fnv1a, FuzzInstance};
use crate::minimize::minimize;
use crate::mutate::mutate;
use crate::oracle::{run_exec_in, ExecLogs, OracleSet, Subject};
use dagsched_core::Rng64;
use dagsched_engine::SimConfig;
use dagsched_workload::codec;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fuzz loop configuration. `Default` is the `dagsched fuzz` default:
/// master seed `0xDA65EED`, 1000 execs, full oracle set, minimization on.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The master seed; the whole trajectory is a pure function of it.
    pub master_seed: u64,
    /// Exec budget (attempted candidates, valid or not).
    pub max_execs: u64,
    /// Stop after this many failures.
    pub max_failures: usize,
    /// Which oracle heads run.
    pub oracles: OracleSet,
    /// Delta-debug failing instances before reporting.
    pub minimize: bool,
    /// Oracle-call budget per minimization.
    pub minimize_budget: u32,
    /// Corpus size cap (retention stops when full).
    pub max_corpus: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            master_seed: 0x0DA6_5EED,
            max_execs: 1000,
            max_failures: 3,
            oracles: OracleSet::default(),
            minimize: true,
            minimize_budget: 400,
            max_corpus: 256,
        }
    }
}

/// One recorded failure: the judging head, the evidence, and both the
/// original and minimized instances in the replay text format.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The failing oracle head.
    pub oracle: String,
    /// Evidence string from the oracle.
    pub detail: String,
    /// Exec index at which the failure surfaced.
    pub exec_index: u64,
    /// The failing instance, `dagsched-instance v1` encoded.
    pub instance: String,
    /// The minimized instance (equals `instance` when minimization is off).
    pub minimized: String,
}

/// The outcome of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed the run used.
    pub master_seed: u64,
    /// Execs attempted (always reaches the budget unless failures stop it).
    pub execs: u64,
    /// Candidates that could not be repaired into a valid instance.
    pub invalid: u64,
    /// Final corpus size (seeds + retained mutants).
    pub corpus_len: usize,
    /// Distinct coverage features discovered.
    pub features: usize,
    /// FNV-1a digest of the per-exec (index, new-features, corpus-size,
    /// failed) sequence: equal digests ⇔ identical corpus trajectories.
    pub trajectory: u64,
    /// Failures found, in discovery order.
    pub failures: Vec<FailureReport>,
    /// Wall-clock duration of the loop (excluded from [`to_json`](Self::to_json)
    /// determinism).
    pub elapsed: Duration,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl FuzzReport {
    /// Fuzz-loop throughput.
    pub fn execs_per_sec(&self) -> f64 {
        self.execs as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Deterministic JSON: every field is a pure function of the config, so
    /// two runs with the same seed diff clean (timing is reported
    /// separately — see [`FuzzReport::timing_line`]).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"master_seed\": {},\n  \"execs\": {},\n  \"invalid\": {},\n  \
             \"corpus_len\": {},\n  \"features\": {},\n  \"trajectory\": \"{:#018x}\",\n  \
             \"failures\": [",
            self.master_seed,
            self.execs,
            self.invalid,
            self.corpus_len,
            self.features,
            self.trajectory
        );
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"oracle\": \"{}\", \"exec\": {}, \"detail\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                json_escape(&f.oracle),
                f.exec_index,
                json_escape(&f.detail)
            );
        }
        if !self.failures.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// One human-readable line with the (non-deterministic) timing.
    pub fn timing_line(&self) -> String {
        format!(
            "fuzz: {} execs in {:.3}s ({:.0} execs/sec), {} features, corpus {}, {} failure(s)",
            self.execs,
            self.elapsed.as_secs_f64(),
            self.execs_per_sec(),
            self.features,
            self.corpus_len,
            self.failures.len()
        )
    }
}

/// A configured fuzzing session: config + subject scheduler(s).
pub struct FuzzSession {
    cfg: FuzzConfig,
    subject: Subject,
    /// The alternate subject candidates flagged `sprofit_subject` are
    /// judged against; `None` (custom-subject sessions) makes the flag
    /// inert so mutant-kill tests always judge their mutant.
    sprofit: Option<Subject>,
}

impl FuzzSession {
    /// A session against the default subjects: scheduler S (full suite),
    /// with candidates on the S-profit configuration axis judged against
    /// the general-profit scheduler instead.
    pub fn new(cfg: FuzzConfig) -> FuzzSession {
        FuzzSession {
            cfg,
            subject: Subject::scheduler_s(),
            sprofit: Some(Subject::scheduler_s_profit()),
        }
    }

    /// A session against a custom subject (the mutant-kill tests).
    pub fn with_subject(cfg: FuzzConfig, subject: Subject) -> FuzzSession {
        FuzzSession {
            cfg,
            subject,
            sprofit: None,
        }
    }

    /// The subject a candidate selects via its configuration axis.
    fn subject_for(&self, fi: &FuzzInstance) -> &Subject {
        match &self.sprofit {
            Some(alt) if fi.sprofit_subject => alt,
            _ => &self.subject,
        }
    }

    /// Run the loop to its exec or failure budget.
    pub fn run(&self) -> FuzzReport {
        let start = Instant::now();
        let cfg = &self.cfg;
        let mut rng = Rng64::seed_from(cfg.master_seed);
        let mut coverage = CoverageMap::new();
        let mut corpus: Vec<FuzzInstance> = seed_corpus();
        let mut failures: Vec<FailureReport> = Vec::new();
        let mut trajectory: u64 = fnv1a(&cfg.master_seed.to_le_bytes());
        let mut execs: u64 = 0;
        let mut invalid: u64 = 0;
        let mut logs = ExecLogs::default();

        let mut judge = |inst: &dagsched_workload::Instance,
                         subject: &Subject,
                         base: &SimConfig,
                         exec_index: u64,
                         pause_salt: u64,
                         coverage: &mut CoverageMap,
                         failures: &mut Vec<FailureReport>|
         -> usize {
            let outcome = run_exec_in(
                &mut logs,
                inst,
                subject,
                &cfg.oracles,
                pause_salt,
                Some(cfg.master_seed),
                base,
            );
            let new = coverage.merge(&outcome.features);
            if let Some(f) = outcome.failure {
                let text = codec::encode(inst);
                let minimized = if cfg.minimize {
                    codec::encode(&minimize(
                        inst,
                        subject,
                        &cfg.oracles,
                        pause_salt,
                        cfg.minimize_budget,
                        base,
                    ))
                } else {
                    text.clone()
                };
                failures.push(FailureReport {
                    oracle: f.oracle.to_string(),
                    detail: f.detail,
                    exec_index,
                    instance: text,
                    minimized,
                });
            }
            new
        };

        // Establish baseline coverage from the seed corpus (each counts as
        // one exec).
        for i in 0..corpus.len() {
            if execs >= cfg.max_execs || failures.len() >= cfg.max_failures {
                break;
            }
            let pause_salt = rng.next_u64();
            let inst = corpus[i].to_instance().expect("seed corpus is valid");
            let base = corpus[i].base_config();
            let new = judge(
                &inst,
                self.subject_for(&corpus[i]),
                &base,
                execs,
                pause_salt,
                &mut coverage,
                &mut failures,
            );
            let failed = !failures.is_empty() && failures.last().unwrap().exec_index == execs;
            trajectory = step_digest(trajectory, execs, new, corpus.len(), failed);
            execs += 1;
        }

        // The mutation loop.
        while execs < cfg.max_execs && failures.len() < cfg.max_failures {
            let pick = rng.gen_range(corpus.len() as u64) as usize;
            let mut cand = corpus[pick].clone();
            let n_mut = 1 + rng.gen_range(3);
            for _ in 0..n_mut {
                mutate(&mut rng, &mut cand);
            }
            let pause_salt = rng.next_u64();
            let exec_index = execs;
            execs += 1;
            let (new, failed) = match cand.to_instance() {
                Ok(inst) => {
                    let base = cand.base_config();
                    let new = judge(
                        &inst,
                        self.subject_for(&cand),
                        &base,
                        exec_index,
                        pause_salt,
                        &mut coverage,
                        &mut failures,
                    );
                    let failed = failures.last().is_some_and(|f| f.exec_index == exec_index);
                    if new > 0 && corpus.len() < cfg.max_corpus {
                        corpus.push(cand);
                    }
                    (new, failed)
                }
                Err(_) => {
                    invalid += 1;
                    (0, false)
                }
            };
            trajectory = step_digest(trajectory, exec_index, new, corpus.len(), failed);
        }

        FuzzReport {
            master_seed: cfg.master_seed,
            execs,
            invalid,
            corpus_len: corpus.len(),
            features: coverage.len(),
            trajectory,
            failures,
            elapsed: start.elapsed(),
        }
    }
}

fn step_digest(acc: u64, exec: u64, new: usize, corpus_len: usize, failed: bool) -> u64 {
    let mut bytes = [0u8; 25];
    bytes[..8].copy_from_slice(&exec.to_le_bytes());
    bytes[8..16].copy_from_slice(&(new as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&(corpus_len as u64).to_le_bytes());
    bytes[24] = failed as u8;
    fnv1a(&bytes) ^ acc.rotate_left(13)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> FuzzConfig {
        FuzzConfig {
            master_seed: seed,
            max_execs: 40,
            ..FuzzConfig::default()
        }
    }

    /// The acceptance bar: same seed ⇒ same exec count, corpus trajectory
    /// and feature set, byte for byte.
    #[test]
    fn fixed_seed_is_byte_deterministic() {
        let a = FuzzSession::new(quick_cfg(77)).run();
        let b = FuzzSession::new(quick_cfg(77)).run();
        assert_eq!(a.execs, b.execs);
        assert_eq!(a.invalid, b.invalid);
        assert_eq!(a.corpus_len, b.corpus_len);
        assert_eq!(a.features, b.features);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.to_json(), b.to_json());
    }

    /// Different seeds take different trajectories (the digest isn't
    /// constant).
    #[test]
    fn different_seeds_diverge() {
        let a = FuzzSession::new(quick_cfg(1)).run();
        let b = FuzzSession::new(quick_cfg(2)).run();
        assert_ne!(a.trajectory, b.trajectory);
    }

    /// Scheduler S survives a healthy bounded run: no failures, and the
    /// loop discovers features beyond the seed corpus baseline.
    #[test]
    fn scheduler_s_survives_a_bounded_run() {
        let report = FuzzSession::new(FuzzConfig {
            master_seed: 0x0DA6_5EED,
            max_execs: 120,
            ..FuzzConfig::default()
        })
        .run();
        assert_eq!(report.execs, 120);
        assert!(
            report.failures.is_empty(),
            "unexpected failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (&f.oracle, &f.detail))
                .collect::<Vec<_>>()
        );
        assert!(report.features > 10, "coverage signal is alive");
        assert!(
            report.corpus_len > seed_corpus().len(),
            "retention keeps feature-discovering mutants"
        );
    }

    /// The general-profit scheduler survives a bounded run as the sole
    /// subject — every candidate (including general-profit mutants grown by
    /// the profit mutators) is judged against S-profit's slot-plan fast
    /// path under all three heads.
    #[test]
    fn general_profit_subject_survives_a_bounded_run() {
        let report = FuzzSession::with_subject(
            FuzzConfig {
                master_seed: 0x5E65,
                max_execs: 80,
                ..FuzzConfig::default()
            },
            crate::oracle::Subject::scheduler_s_profit(),
        )
        .run();
        assert_eq!(report.execs, 80);
        assert!(
            report.failures.is_empty(),
            "unexpected failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (&f.oracle, &f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let r = FuzzSession::new(quick_cfg(5)).run();
        let j = r.to_json();
        assert!(j.contains("\"master_seed\": 5"));
        assert!(j.contains("\"trajectory\": \"0x"));
        assert!(!r.timing_line().is_empty());
    }
}
