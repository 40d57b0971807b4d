//! The four workloads. Each is a closed loop with one client: the next op
//! starts when the previous one returns. See `README.md` for why each was
//! chosen and which layers it stresses.

use crate::instances::{parked_instance, profit_instance};
use dagsched_core::{Rng64, Speed};
use dagsched_engine::{simulate, SimConfig, SimResult};
use dagsched_experiments::{CellResult, SchedKind, SweepGrid};
use dagsched_fuzz::ir::fnv1a;
use dagsched_fuzz::{FuzzConfig, FuzzSession};
use dagsched_metrics::Table;
use dagsched_workload::{Instance, WorkloadGen};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    SweepSteady::NAME,
    ParkedDense::NAME,
    FuzzCampaign::NAME,
    TablesFull::NAME,
];

/// What the harness keeps of one op's output, computed outside the timed
/// region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSummary {
    /// Units of work the op completed (simulated jobs, fuzz execs, tables).
    pub items: u64,
    /// Digest of the op's full output.
    pub digest: u64,
}

/// The outcome of the once-per-run correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// One line for the report.
    pub note: String,
    /// `(fast-forward time, naive per-tick time)` over the checked runs,
    /// for workloads whose check compares the two engine paths.
    pub fast_naive: Option<(Duration, Duration)>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;
    /// True when every op runs the same inputs, so every op must reproduce
    /// the warm-up op's digest.
    const FIXED_INPUTS: bool;
    /// One op's output.
    type Out;
    /// Build the inputs the ops share. Deterministic in `seed`.
    fn setup(seed: u64) -> Self;
    /// One op: the timed unit of work. `op_seed` selects the op's own
    /// inputs where the workload has any.
    fn op(&self, op_seed: u64) -> Result<Self::Out, String>;
    /// Items and digest of an op's output; `Err` fails the op.
    fn summarize(&self, out: &Self::Out) -> Result<OpSummary, String>;
    /// The untimed correctness check, run once per run against the first
    /// measured op (`op_seed`, `digest`).
    fn check(&self, op_seed: u64, digest: u64) -> Result<Check, String>;
}

/// The seed of the measured op `index` of a run.
pub fn op_seed(run_seed: u64, index: u64) -> u64 {
    Rng64::seed_from(run_seed).child(index).next_u64()
}

/// The op seed of the warm-up op: fixed, so set-up does the same work on
/// every run seed.
pub const WARMUP_OP_SEED: u64 = 0x5EED;

fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

// ---------------------------------------------------------------- sweep

/// `sweep-steady`: one op is the B1 sweep grid (9 schedulers × speeds
/// {1, 3/2} × m {8, 16}) on one workload seed with 400 jobs per instance,
/// on one worker thread. Instances are regenerated inside every op, as a
/// `dagsched sweep` user pays for them.
pub struct SweepSteady;

/// Jobs per generated sweep instance.
const SWEEP_JOBS: usize = 400;

/// The grid one sweep op runs.
pub fn sweep_grid(op_seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::b1();
    grid.seeds = vec![op_seed];
    grid.n_jobs = SWEEP_JOBS;
    grid
}

/// The instance the sweep runs for machine size `m`: the grid's workload
/// seed is derived from its base seed, the axis seed and `m`, exactly as
/// `SweepGrid::run` derives it.
pub fn sweep_instance(grid: &SweepGrid, m: u32) -> Result<Instance, String> {
    let wseed = Rng64::seed_from(grid.base_seed)
        .child(grid.seeds[0])
        .child(m as u64)
        .next_u64();
    WorkloadGen::standard(m, grid.n_jobs, wseed)
        .generate()
        .map_err(|e| format!("generate m={m}: {e}"))
}

/// One cell's row, as `SweepGrid::run` reports it for a uniform platform.
pub(crate) fn cell_result(
    grid: &SweepGrid,
    kind: &SchedKind,
    speed: Speed,
    m: u32,
    r: &SimResult,
) -> CellResult {
    CellResult {
        sched: kind.label(),
        platform: "-".into(),
        m,
        speed,
        seed: grid.seeds[0],
        profit: r.total_profit,
        completed: r.completed(),
        expired: r.expired(),
        unfinished: r.unfinished(),
        ticks: r.ticks_simulated,
        steps: r.steps_executed,
    }
}

impl Workload for SweepSteady {
    const NAME: &'static str = "sweep-steady";
    const FIXED_INPUTS: bool = false;
    type Out = Vec<CellResult>;

    fn setup(_seed: u64) -> SweepSteady {
        SweepSteady
    }

    fn op(&self, op_seed: u64) -> Result<Vec<CellResult>, String> {
        Ok(sweep_grid(op_seed).run(1).cells)
    }

    fn summarize(&self, cells: &Vec<CellResult>) -> Result<OpSummary, String> {
        Ok(OpSummary {
            items: (cells.len() * SWEEP_JOBS) as u64,
            digest: digest_debug(cells),
        })
    }

    /// Replays every cell of the op on a fresh scheduler on both engine
    /// paths: the fast-forward and the naive per-tick results must agree,
    /// and the fast results must reproduce the op's rows.
    fn check(&self, op_seed: u64, digest: u64) -> Result<Check, String> {
        let grid = sweep_grid(op_seed);
        let instances = grid
            .ms
            .iter()
            .map(|&m| sweep_instance(&grid, m))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cells = Vec::new();
        let (mut fast_t, mut naive_t) = (Duration::ZERO, Duration::ZERO);
        for kind in &grid.scheds {
            for &speed in &grid.speeds {
                for (inst, &m) in instances.iter().zip(&grid.ms) {
                    let (fast, naive) = both_paths(
                        inst,
                        kind,
                        &SimConfig::at_speed(speed),
                        &mut fast_t,
                        &mut naive_t,
                    )?;
                    if !fast.same_outcome(&naive) {
                        return Err(format!(
                            "{} m={m} speed={speed:?}: fast-forward and naive paths differ",
                            kind.label()
                        ));
                    }
                    cells.push(cell_result(&grid, kind, speed, m, &fast));
                }
            }
        }
        if digest_debug(&cells) != digest {
            return Err(
                "the sweep's rows differ from a per-cell replay on fresh schedulers".into(),
            );
        }
        Ok(Check {
            note: format!(
                "{} cells: fast-forward == naive, sweep rows == replay",
                cells.len()
            ),
            fast_naive: Some((fast_t, naive_t)),
        })
    }
}

/// Run `kind` on `inst` on the fast-forward path and on the naive per-tick
/// path, adding each run's wall time to the matching total.
fn both_paths(
    inst: &Instance,
    kind: &SchedKind,
    cfg: &SimConfig,
    fast_t: &mut Duration,
    naive_t: &mut Duration,
) -> Result<(SimResult, SimResult), String> {
    let naive_cfg = SimConfig {
        fast_forward: false,
        ..cfg.clone()
    };
    let run = |cfg: &SimConfig, total: &mut Duration| {
        let mut sched = kind.build(inst.m());
        let t = Instant::now();
        let r = simulate(inst, sched.as_mut(), cfg);
        *total += t.elapsed();
        r.map_err(|e| format!("{}: {e}", kind.label()))
    };
    Ok((run(cfg, fast_t)?, run(&naive_cfg, naive_t)?))
}

// --------------------------------------------------------------- parked

/// `parked-dense`: one op is four full engine runs on instances built at
/// set-up: EDF on the parked single-node and parked-chain instances
/// (1,500 background jobs each), scheduler S on the parked single-node
/// instance, and S-profit on the slot-plan instance.
pub struct ParkedDense {
    /// `(scheduler, instance)` per simulation, in op order.
    pub sims: Vec<(SchedKind, Instance)>,
    seed: u64,
}

/// The four simulations of a parked op, on instances of the given sizes.
fn parked_sims(
    seed: u64,
    background: usize,
    profit_jobs: usize,
    profit_horizon: u64,
) -> Vec<(SchedKind, Instance)> {
    let single = parked_instance(background, false, seed);
    let chains = parked_instance(background, true, seed);
    vec![
        (SchedKind::Edf, single.clone()),
        (SchedKind::Edf, chains),
        (SchedKind::S { epsilon: 1.0 }, single),
        (
            SchedKind::SProfit { epsilon: 1.0 },
            profit_instance(profit_jobs, profit_horizon),
        ),
    ]
}

impl Workload for ParkedDense {
    const NAME: &'static str = "parked-dense";
    const FIXED_INPUTS: bool = true;
    type Out = Vec<SimResult>;

    fn setup(seed: u64) -> ParkedDense {
        ParkedDense {
            sims: parked_sims(seed, 1_500, 160, 50_000),
            seed,
        }
    }

    fn op(&self, _op_seed: u64) -> Result<Vec<SimResult>, String> {
        self.sims
            .iter()
            .map(|(kind, inst)| {
                let mut sched = kind.build(inst.m());
                simulate(inst, sched.as_mut(), &SimConfig::default())
                    .map_err(|e| format!("{}: {e}", kind.label()))
            })
            .collect()
    }

    fn summarize(&self, results: &Vec<SimResult>) -> Result<OpSummary, String> {
        Ok(OpSummary {
            items: results.iter().map(|r| r.outcomes.len() as u64).sum(),
            digest: digest_debug(results),
        })
    }

    /// The naive per-tick path is far too slow on the full instances, so
    /// the same four simulations are checked on down-sized ones (50
    /// background jobs; 16 slot-plan jobs over 5,000 ticks).
    fn check(&self, _op_seed: u64, _digest: u64) -> Result<Check, String> {
        let (mut fast_t, mut naive_t) = (Duration::ZERO, Duration::ZERO);
        let sims = parked_sims(self.seed, 50, 16, 5_000);
        for (kind, inst) in &sims {
            let (fast, naive) =
                both_paths(inst, kind, &SimConfig::default(), &mut fast_t, &mut naive_t)?;
            if !fast.same_outcome(&naive) {
                return Err(format!(
                    "{}: fast-forward and naive paths differ on the down-sized instance",
                    kind.label()
                ));
            }
        }
        Ok(Check {
            note: format!("{} down-sized runs: fast-forward == naive; every op reproduced the warm-up's results", sims.len()),
            fast_naive: Some((fast_t, naive_t)),
        })
    }
}

// ----------------------------------------------------------------- fuzz

/// `fuzz-campaign`: one op is one 250-exec `FuzzSession` with the default
/// oracle set, its master seed drawn from the run seed and the op index.
pub struct FuzzCampaign;

/// Execs per fuzz op.
const FUZZ_EXECS: u64 = 250;

/// The session configuration of one fuzz op.
pub fn fuzz_config(master_seed: u64) -> FuzzConfig {
    FuzzConfig {
        master_seed,
        max_execs: FUZZ_EXECS,
        ..FuzzConfig::default()
    }
}

/// The deterministic part of one fuzz session's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Execs attempted.
    pub execs: u64,
    /// Candidates that could not be repaired into a valid instance.
    pub invalid: u64,
    /// Final corpus size.
    pub corpus_len: usize,
    /// Distinct coverage features.
    pub features: usize,
    /// `oracle: detail` of each failure found.
    pub failures: Vec<String>,
}

impl Workload for FuzzCampaign {
    const NAME: &'static str = "fuzz-campaign";
    const FIXED_INPUTS: bool = false;
    type Out = FuzzOutcome;

    fn setup(_seed: u64) -> FuzzCampaign {
        FuzzCampaign
    }

    fn op(&self, op_seed: u64) -> Result<FuzzOutcome, String> {
        let r = FuzzSession::new(fuzz_config(op_seed)).run();
        Ok(FuzzOutcome {
            execs: r.execs,
            invalid: r.invalid,
            corpus_len: r.corpus_len,
            features: r.features,
            failures: r
                .failures
                .iter()
                .map(|f| format!("{}: {}", f.oracle, f.detail))
                .collect(),
        })
    }

    /// An oracle failure fails the op. Invalid candidates are repair
    /// rejections by design and do not.
    fn summarize(&self, out: &FuzzOutcome) -> Result<OpSummary, String> {
        if let Some(first) = out.failures.first() {
            return Err(format!(
                "{} oracle failure(s); first: {first}",
                out.failures.len()
            ));
        }
        Ok(OpSummary {
            items: out.execs,
            digest: digest_debug(out),
        })
    }

    /// Re-runs the first op's session: same seed, same report.
    fn check(&self, op_seed: u64, digest: u64) -> Result<Check, String> {
        let again = self.summarize(&self.op(op_seed)?)?;
        if again.digest != digest {
            return Err(
                "re-running a fuzz session with the same master seed changed its report".into(),
            );
        }
        Ok(Check {
            note: "re-ran the first session: identical report, no oracle failures".into(),
            fast_naive: None,
        })
    }
}

// --------------------------------------------------------------- tables

/// `tables-full`: one op is one `run_all(false)` pass, the configuration
/// EXPERIMENTS.md records. Its seeds are fixed inside `run_all`, so the
/// run seed is ignored.
pub struct TablesFull;

/// Digest of rendered tables.
pub fn tables_digest(tables: &[Table]) -> u64 {
    let text: String = tables.iter().map(Table::render).collect();
    fnv1a(text.as_bytes())
}

impl Workload for TablesFull {
    const NAME: &'static str = "tables-full";
    const FIXED_INPUTS: bool = true;
    type Out = Vec<Table>;

    fn setup(_seed: u64) -> TablesFull {
        TablesFull
    }

    fn op(&self, _op_seed: u64) -> Result<Vec<Table>, String> {
        Ok(dagsched_experiments::run_all(false))
    }

    fn summarize(&self, tables: &Vec<Table>) -> Result<OpSummary, String> {
        Ok(OpSummary {
            items: tables.len() as u64,
            digest: tables_digest(tables),
        })
    }

    fn check(&self, _op_seed: u64, digest: u64) -> Result<Check, String> {
        Ok(Check {
            note: format!("every pass rendered the same tables, digest {digest:016x}"),
            fast_naive: None,
        })
    }
}
