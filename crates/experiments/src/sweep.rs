//! The sharded parallel sweep runtime.
//!
//! A [`SweepGrid`] is the cross product *workload seed × scheduler × speed ×
//! platform*. The platform axis is the uniform machine sizes in
//! [`SweepGrid::ms`] followed by the heterogeneous [`MachineGroups`] shapes
//! in [`SweepGrid::groups`] (e.g. `4x1,2x2`); a shaped cell runs the engine
//! on that related-machines platform with the speed axis applied as a
//! whole-platform augmentation factor ([`MachineGroups::scaled`]), while
//! uniform cells keep the legacy scalar-speed configuration byte-for-byte.
//! Workload seeds are keyed on the platform's **total processor count**, so
//! a shape is paired — identical generated instances — with any uniform
//! entry or other shape of the same total.
//! [`SweepGrid::run`] shards the cells over `threads` workers
//! (scoped threads pulling cells from an atomic cursor) and merges the
//! per-cell results back **in grid order**, so the output is byte-identical
//! regardless of thread count or OS scheduling:
//!
//! * every cell is self-seeding — its workload seed is derived from the
//!   grid's base seed and the cell coordinates via [`Rng64::child`] chains,
//!   never from which worker ran it or in what order;
//! * the engine is deterministic per (instance, scheduler, config);
//! * workers return `(cell index, result)` pairs and the merge step writes
//!   them into a dense grid-ordered vector; summary statistics fold
//!   [`RunningStats`] partials in that same fixed order.
//!
//! Generated instances live in a **grid-owned slab** of
//! `OnceLock<Arc<Instance>>` cells shared by all workers — `get_or_init`
//! runs its closure exactly once per `(seed, m)` no matter how many workers
//! race to the same cell, so every workload is generated once per run
//! regardless of thread count (the workload axis is shared across schedulers
//! and speeds, so comparisons are paired). Each worker additionally keeps
//! one scheduler value per `(scheduler, m)` in a dense index-keyed slab,
//! reused across cells when [`OnlineScheduler::reset`] reports the scheduler
//! restored itself — otherwise a fresh one is built, so reuse is purely an
//! allocation saving, never a semantic one. Neither cache does any string
//! formatting or hashing on the per-cell path.
//!
//! The module also carries the `dagsched sweep` CLI (parse + execute,
//! unit-tested here; `src/main.rs` at the workspace root is a thin wrapper).

use crate::common::SchedKind;
use dagsched_core::{MachineGroups, Rng64, SchedError, Speed};
use dagsched_engine::{simulate, OnlineScheduler, SimConfig};
use dagsched_metrics::RunningStats;
use dagsched_workload::{Instance, WorkloadGen};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A sweep over workload seeds × schedulers × speeds × platforms.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid name (reported in the output header).
    pub name: String,
    /// Workload-seed axis (one generated instance per `(seed, total)`).
    pub seeds: Vec<u64>,
    /// Scheduler axis.
    pub scheds: Vec<SchedKind>,
    /// Engine-speed axis. Applied as the scalar speed on uniform platforms
    /// and as a whole-platform augmentation factor on shaped ones.
    pub speeds: Vec<Speed>,
    /// Uniform machine sizes: the leading entries of the platform axis.
    pub ms: Vec<u32>,
    /// Heterogeneous platform shapes appended after [`ms`](SweepGrid::ms)
    /// on the platform axis. A shape with the same total processor count as
    /// a uniform entry shares its generated workloads (paired comparison).
    pub groups: Vec<MachineGroups>,
    /// Jobs per generated instance.
    pub n_jobs: usize,
    /// Base seed the per-cell workload seeds are derived from.
    pub base_seed: u64,
}

/// One entry of the combined platform axis.
#[derive(Debug, Clone)]
enum PlatformEntry {
    /// `m` processors at the cell's axis speed (the legacy scalar path).
    Uniform(u32),
    /// A related-machines shape; the cell's axis speed scales every group.
    Shaped(MachineGroups),
}

impl PlatformEntry {
    fn total(&self) -> u32 {
        match self {
            PlatformEntry::Uniform(m) => *m,
            PlatformEntry::Shaped(g) => g.total(),
        }
    }

    /// The CSV label: `-` for uniform entries (the `m` column already says
    /// everything), the shape spec with the CSV-friendly `+` separator
    /// otherwise.
    fn label(&self) -> String {
        match self {
            PlatformEntry::Uniform(_) => "-".into(),
            PlatformEntry::Shaped(g) => g.to_string().replace(',', "+"),
        }
    }
}

/// One cell's coordinates: axis values plus the dense axis indices the
/// instance slab and scheduler cache are keyed by.
#[derive(Debug, Clone, Copy)]
struct Cell {
    seed: u64,
    seed_idx: usize,
    sched_idx: usize,
    speed: Speed,
    m: u32,
    /// Index into the combined platform axis (`ms` then `groups`).
    platform_idx: usize,
    /// Index into the deduplicated totals list — the workload-slab and
    /// scheduler-cache key, shared by equal-total platforms.
    total_idx: usize,
}

/// The outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scheduler label ([`SchedKind::label`]).
    pub sched: String,
    /// Platform label: `-` for uniform cells, the shape spec (with `+`
    /// separating groups, e.g. `4x1+2x2`) for shaped ones.
    pub platform: String,
    /// Total processor count.
    pub m: u32,
    /// Engine speed.
    pub speed: Speed,
    /// Workload-axis seed.
    pub seed: u64,
    /// Total profit earned.
    pub profit: u64,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs expired.
    pub expired: usize,
    /// Jobs unfinished at the horizon.
    pub unfinished: usize,
    /// Ticks of simulated time.
    pub ticks: u64,
    /// Engine steps executed (events on the fast-forward path).
    pub steps: u64,
}

/// A completed sweep: the grid's cells in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The grid's name.
    pub grid: String,
    /// Per-cell results, in grid order (seed-major, then scheduler, speed,
    /// machine size) — identical for every thread count.
    pub cells: Vec<CellResult>,
    /// How many workload instances were generated during the run. The
    /// shared `OnceLock` slab guarantees exactly one generation per
    /// distinct `(seed, total processor count)` pair, so this equals
    /// `seeds.len() ×` the number of distinct platform totals at every
    /// thread count — a deterministic field, safe for the
    /// cross-thread-count equality checks. Equal-total platform shapes
    /// share instances by construction (paired comparison).
    pub instances_generated: usize,
}

/// Derive the workload seed of one `(axis seed, total)` pair. Independent
/// of the scheduler, speed, and platform-*shape* axes so those comparisons
/// are paired, and independent of sharding by construction. Keying on the
/// total (not the shape) is what makes a `4x1,2x2` cell directly
/// comparable to a uniform `m = 6` cell: both run the same instances.
fn workload_seed(base: u64, axis_seed: u64, m: u32) -> u64 {
    Rng64::seed_from(base)
        .child(axis_seed)
        .child(m as u64)
        .next_u64()
}

impl SweepGrid {
    /// The tiny grid the CI smoke job diffs across thread counts.
    pub fn smoke() -> SweepGrid {
        SweepGrid {
            name: "smoke".into(),
            seeds: vec![1, 2],
            scheds: vec![
                SchedKind::S { epsilon: 1.0 },
                SchedKind::Edf,
                SchedKind::Fifo,
            ],
            speeds: vec![Speed::ONE],
            ms: vec![4],
            groups: vec![],
            n_jobs: 16,
            base_seed: 0xDA65_C4ED,
        }
    }

    /// The benchmark grid (B1): the production schedulers over two machine
    /// sizes and two speeds, six seeds each.
    pub fn b1() -> SweepGrid {
        SweepGrid {
            name: "b1".into(),
            seeds: (1..=6).collect(),
            scheds: vec![
                SchedKind::S { epsilon: 1.0 },
                SchedKind::SWc { epsilon: 1.0 },
                SchedKind::Edf,
                SchedKind::EdfAc,
                SchedKind::Fifo,
                SchedKind::Hdf,
                SchedKind::Llf,
                SchedKind::MoldList,
                SchedKind::Equi,
            ],
            speeds: vec![Speed::ONE, Speed::new(3, 2).expect("positive")],
            ms: vec![8, 16],
            groups: vec![],
            n_jobs: 60,
            base_seed: 0xDA65_C4ED,
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.seeds.len()
            * self.scheds.len()
            * self.speeds.len()
            * (self.ms.len() + self.groups.len())
    }

    /// True iff any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The combined platform axis: uniform `ms` entries first, then the
    /// heterogeneous shapes, each in declaration order.
    fn platform_axis(&self) -> Vec<PlatformEntry> {
        self.ms
            .iter()
            .map(|&m| PlatformEntry::Uniform(m))
            .chain(self.groups.iter().cloned().map(PlatformEntry::Shaped))
            .collect()
    }

    /// Map each platform-axis entry to an index into the deduplicated list
    /// of processor totals. Equal-total platforms map to the same index and
    /// therefore share a workload-slab cell — that sharing *is* the paired
    /// comparison between a shape and its uniform twin.
    fn total_index(platforms: &[PlatformEntry]) -> (usize, Vec<usize>) {
        let mut totals: Vec<u32> = Vec::new();
        let map = platforms
            .iter()
            .map(|p| {
                let t = p.total();
                totals.iter().position(|&x| x == t).unwrap_or_else(|| {
                    totals.push(t);
                    totals.len() - 1
                })
            })
            .collect();
        (totals.len(), map)
    }

    /// The cell list in grid order.
    fn cells(&self, platforms: &[PlatformEntry], total_of: &[usize]) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.len());
        for (seed_idx, &seed) in self.seeds.iter().enumerate() {
            for sched_idx in 0..self.scheds.len() {
                for &speed in &self.speeds {
                    for (platform_idx, p) in platforms.iter().enumerate() {
                        out.push(Cell {
                            seed,
                            seed_idx,
                            sched_idx,
                            speed,
                            m: p.total(),
                            platform_idx,
                            total_idx: total_of[platform_idx],
                        });
                    }
                }
            }
        }
        out
    }

    /// Run one cell against the shared instance slab and the worker's
    /// scheduler cache. No string formatting or hashing happens on the slab
    /// path: the instance is a dense `(seed_idx, total_idx)` lookup and the
    /// scheduler a dense `(sched_idx, total_idx)` one (equal-total
    /// platforms deliberately share both — same workload, and schedulers
    /// only depend on `m`).
    fn run_cell(
        &self,
        cell: &Cell,
        platforms: &[PlatformEntry],
        n_totals: usize,
        instances: &[OnceLock<Arc<Instance>>],
        generated: &AtomicUsize,
        scheds: &mut [Option<Box<dyn OnlineScheduler>>],
    ) -> CellResult {
        let inst = instances[cell.seed_idx * n_totals + cell.total_idx].get_or_init(|| {
            // `get_or_init` runs this closure exactly once per cell even
            // when workers race, so the counter is exact, not a sample.
            generated.fetch_add(1, Ordering::Relaxed);
            let wseed = workload_seed(self.base_seed, cell.seed, cell.m);
            Arc::new(
                WorkloadGen::standard(cell.m, self.n_jobs, wseed)
                    .generate()
                    .expect("standard workloads generate"),
            )
        });
        let kind = &self.scheds[cell.sched_idx];
        let entry = &mut scheds[cell.sched_idx * n_totals + cell.total_idx];
        let reusable = entry.as_mut().is_some_and(|s| s.reset());
        if !reusable {
            *entry = Some(kind.build(cell.m));
        }
        let sched = entry.as_mut().expect("present by construction");
        let platform = &platforms[cell.platform_idx];
        let cfg = match platform {
            PlatformEntry::Uniform(_) => SimConfig::at_speed(cell.speed),
            PlatformEntry::Shaped(g) => SimConfig::on_groups(
                g.scaled(cell.speed)
                    .expect("grid speeds keep platform speeds in range"),
            ),
        };
        let r = simulate(inst, sched.as_mut(), &cfg)
            .expect("production schedulers emit valid allocations");
        CellResult {
            sched: kind.label(),
            platform: platform.label(),
            m: cell.m,
            speed: cell.speed,
            seed: cell.seed,
            profit: r.total_profit,
            completed: r.completed(),
            expired: r.expired(),
            unfinished: r.unfinished(),
            ticks: r.ticks_simulated,
            steps: r.steps_executed,
        }
    }

    /// Run the whole grid on `threads` workers (0 is treated as 1).
    ///
    /// Workers pull cell indices from a shared cursor and return
    /// `(index, result)` pairs; the merge writes them into a grid-ordered
    /// vector, so the returned [`SweepResult`] is byte-identical for every
    /// thread count. One worker runs on the calling thread, as
    /// [`parallel_map`](dagsched_engine::parallel_map) does.
    pub fn run(&self, threads: usize) -> SweepResult {
        let platforms = self.platform_axis();
        let (n_totals, total_of) = SweepGrid::total_index(&platforms);
        let cells = self.cells(&platforms, &total_of);
        let workers = threads.max(1).min(cells.len().max(1));
        let cursor = AtomicUsize::new(0);
        // The instance slab is grid-owned and shared by every worker: one
        // `OnceLock` cell per distinct (seed, total), so each workload is
        // generated exactly once per run regardless of thread count — and
        // equal-total platform shapes run the very same instances.
        let instances: Vec<OnceLock<Arc<Instance>>> = (0..self.seeds.len() * n_totals)
            .map(|_| OnceLock::new())
            .collect();
        let generated = AtomicUsize::new(0);
        let work = || {
            let mut scheds: Vec<Option<Box<dyn OnlineScheduler>>> =
                (0..self.scheds.len() * n_totals).map(|_| None).collect();
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                local.push((
                    i,
                    self.run_cell(
                        cell,
                        &platforms,
                        n_totals,
                        &instances,
                        &generated,
                        &mut scheds,
                    ),
                ));
            }
            local
        };
        let mut merged: Vec<Option<CellResult>> = vec![None; cells.len()];
        let mut merge = |local: Vec<(usize, CellResult)>| {
            for (i, r) in local {
                merged[i] = Some(r);
            }
        };
        if workers == 1 {
            merge(work());
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                for h in handles {
                    merge(h.join().expect("sweep worker panicked"));
                }
            });
        }
        SweepResult {
            grid: self.name.clone(),
            cells: merged
                .into_iter()
                .map(|c| c.expect("every cell index was claimed exactly once"))
                .collect(),
            instances_generated: generated.load(Ordering::Relaxed),
        }
    }
}

impl SweepResult {
    /// Render the sweep as CSV: one row per cell in grid order, then a
    /// `# summary` section aggregating profit over the seed axis with
    /// [`RunningStats`] folded in grid order. The string is identical for
    /// every thread count.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# sweep grid: {}", self.grid);
        let _ = writeln!(
            out,
            "sched,platform,m,speed,seed,profit,completed,expired,unfinished,ticks,steps"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{},{},{},{}/{},{},{},{},{},{},{},{}",
                c.sched,
                c.platform,
                c.m,
                c.speed.num(),
                c.speed.den(),
                c.seed,
                c.profit,
                c.completed,
                c.expired,
                c.unfinished,
                c.ticks,
                c.steps
            );
        }
        let _ = writeln!(out, "# instances generated: {}", self.instances_generated);
        let _ = writeln!(out, "# summary (profit over seeds)");
        let _ = writeln!(out, "sched,platform,m,speed,n,mean,min,max");
        // Fold per (sched, platform, speed, m) group in grid order: the
        // cell list is seed-major, so walking it once in order feeds each
        // group's RunningStats its seeds in ascending-axis order.
        let mut order: Vec<(String, String, u32, Speed)> = Vec::new();
        let mut groups: HashMap<(String, String, u32, Speed), RunningStats> = HashMap::new();
        for c in &self.cells {
            let key = (c.sched.clone(), c.platform.clone(), c.m, c.speed);
            groups
                .entry(key.clone())
                .or_insert_with(|| {
                    order.push(key);
                    RunningStats::new()
                })
                .push(c.profit as f64);
        }
        for key in order {
            let s = &groups[&key];
            let _ = writeln!(
                out,
                "{},{},{},{}/{},{},{:.3},{:.3},{:.3}",
                key.0,
                key.1,
                key.2,
                key.3.num(),
                key.3.den(),
                s.count(),
                s.mean().unwrap_or(0.0),
                s.min().unwrap_or(0.0),
                s.max().unwrap_or(0.0)
            );
        }
        out
    }
}

/// A parsed `sweep` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepCommand {
    /// Run a named grid.
    Run {
        /// Which grid (`smoke` or `b1`).
        grid: String,
        /// Worker-thread count.
        threads: usize,
        /// Heterogeneous platform shapes appended to the grid's platform
        /// axis (`--groups`).
        groups: Vec<MachineGroups>,
    },
    /// Print usage.
    Help,
}

/// The `sweep` usage text.
pub const USAGE: &str = "\
usage: dagsched sweep [options]

options:
  --grid smoke|b1   which grid to run      (default smoke)
  --threads N       worker threads         (default: available parallelism)
  --groups SPEC     append related-machines platform shapes to the grid's
                    platform axis; a shape is <count>x<speed> groups joined
                    by commas (e.g. 4x1,2x2 = four unit-speed plus two
                    double-speed processors), multiple shapes joined by ';'.
                    Shapes with the same processor total as a uniform entry
                    run the exact same workloads (paired comparison).

The output (CSV rows in grid order plus a summary section) is byte-identical
for every --threads value.
";

fn take_val<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse `sweep` arguments (without the `sweep` word itself).
pub fn parse(args: &[String]) -> Result<SweepCommand, SchedError> {
    if args
        .first()
        .is_some_and(|a| a == "help" || a == "--help" || a == "-h")
    {
        return Ok(SweepCommand::Help);
    }
    let grid = take_val(args, "--grid").unwrap_or("smoke");
    if grid != "smoke" && grid != "b1" {
        return Err(SchedError::Unsupported(format!("unknown --grid {grid:?}")));
    }
    let threads = match take_val(args, "--threads") {
        Some(t) => t.parse::<usize>().ok().filter(|&t| t >= 1).ok_or_else(|| {
            SchedError::Unsupported("--threads expects a positive integer".into())
        })?,
        None => dagsched_engine::runner::default_threads(),
    };
    let groups = match take_val(args, "--groups") {
        Some(spec) => spec
            .split(';')
            .map(|s| s.parse::<MachineGroups>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| SchedError::Unsupported(format!("--groups: {e}")))?,
        None => Vec::new(),
    };
    Ok(SweepCommand::Run {
        grid: grid.to_string(),
        threads,
        groups,
    })
}

/// Execute a parsed `sweep` command, returning the report.
pub fn execute(cmd: &SweepCommand) -> Result<String, SchedError> {
    match cmd {
        SweepCommand::Help => Ok(USAGE.to_string()),
        SweepCommand::Run {
            grid,
            threads,
            groups,
        } => {
            let mut grid = match grid.as_str() {
                "smoke" => SweepGrid::smoke(),
                "b1" => SweepGrid::b1(),
                other => return Err(SchedError::Unsupported(format!("unknown grid {other:?}"))),
            };
            grid.groups.extend(groups.iter().cloned());
            Ok(grid.run(*threads).to_csv())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_variants() {
        assert_eq!(parse(&argv("help")).unwrap(), SweepCommand::Help);
        assert_eq!(
            parse(&argv("--grid b1 --threads 4")).unwrap(),
            SweepCommand::Run {
                grid: "b1".into(),
                threads: 4,
                groups: vec![]
            }
        );
        match parse(&[]).unwrap() {
            SweepCommand::Run {
                grid,
                threads,
                groups,
            } => {
                assert_eq!(grid, "smoke");
                assert!(threads >= 1);
                assert!(groups.is_empty());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("--grid nope")).is_err());
        assert!(parse(&argv("--threads 0")).is_err());
        assert!(parse(&argv("--threads x")).is_err());
    }

    #[test]
    fn parse_groups_axis() {
        match parse(&argv("--grid b1 --groups 4x1,2x2 --threads 2")).unwrap() {
            SweepCommand::Run { grid, groups, .. } => {
                assert_eq!(grid, "b1");
                assert_eq!(groups, vec!["4x1,2x2".parse().unwrap()]);
            }
            other => panic!("{other:?}"),
        }
        // Multiple shapes are ';'-separated (',' separates groups inside
        // one shape).
        match parse(&argv("--groups 4x1,2x2;6x1")).unwrap() {
            SweepCommand::Run { groups, .. } => {
                assert_eq!(groups.len(), 2);
                assert_eq!(groups[1], MachineGroups::uniform(6, Speed::ONE).unwrap());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("--groups 4xfast")).is_err());
        assert!(parse(&argv("--groups 0x1")).is_err());
        assert!(parse(&argv("--groups 4294967295x1")).is_err());
    }

    #[test]
    fn smoke_grid_runs_and_reports_every_cell() {
        let grid = SweepGrid::smoke();
        let r = grid.run(1);
        assert_eq!(r.cells.len(), grid.len());
        let csv = r.to_csv();
        assert!(csv.starts_with("# sweep grid: smoke"));
        assert!(csv.contains("# summary"));
        // One row per cell plus headers and summary rows.
        let rows = csv.lines().filter(|l| l.contains(",1/1,")).count();
        assert!(rows >= grid.len());
    }

    #[test]
    fn workload_axis_is_shared_across_schedulers() {
        // Same (seed, m): every scheduler must see the same instance, which
        // shows as identical tick counts being *possible*; assert directly
        // on the derivation.
        assert_eq!(workload_seed(7, 1, 4), workload_seed(7, 1, 4));
        assert_ne!(workload_seed(7, 1, 4), workload_seed(7, 2, 4));
        assert_ne!(workload_seed(7, 1, 4), workload_seed(7, 1, 8));
        assert_ne!(workload_seed(7, 1, 4), workload_seed(8, 1, 4));
    }

    #[test]
    fn thread_counts_do_not_change_the_output() {
        let grid = SweepGrid::smoke();
        let one = grid.run(1).to_csv();
        let three = grid.run(3).to_csv();
        assert_eq!(one, three, "sharding leaked into the results");
    }

    #[test]
    fn every_workload_is_generated_exactly_once_per_run() {
        let grid = SweepGrid::smoke();
        let distinct = grid.seeds.len() * grid.ms.len();
        for threads in [1, 8] {
            let r = grid.run(threads);
            assert_eq!(
                r.instances_generated, distinct,
                "expected one generation per (seed, m) at {threads} threads"
            );
            assert!(r
                .to_csv()
                .contains(&format!("# instances generated: {distinct}")));
        }
    }

    #[test]
    fn execute_help_and_run() {
        assert!(execute(&SweepCommand::Help).unwrap().contains("--grid"));
        let out = execute(&SweepCommand::Run {
            grid: "smoke".into(),
            threads: 2,
            groups: vec![],
        })
        .unwrap();
        assert!(out.contains("sched,platform,m,speed,seed"));
    }

    /// A shape whose total equals a uniform entry runs the exact same
    /// workloads and — when the shape is itself uniform at speed 1 — must
    /// reproduce the uniform cells' results number for number, at every
    /// point of the speed axis (the axis scales the whole shape).
    #[test]
    fn single_speed_shape_is_paired_with_its_uniform_twin() {
        let mut grid = SweepGrid::smoke();
        grid.ms = vec![6];
        grid.groups = vec![MachineGroups::uniform(6, Speed::ONE).unwrap()];
        grid.speeds = vec![Speed::ONE, Speed::new(3, 2).unwrap()];
        let r = grid.run(2);
        assert_eq!(r.cells.len(), grid.len());
        // One generation per (seed, total): the shape shares the slab.
        assert_eq!(r.instances_generated, grid.seeds.len());
        for pair in r.cells.chunks(2) {
            let (uni, shaped) = (&pair[0], &pair[1]);
            assert_eq!(uni.platform, "-");
            assert_eq!(shaped.platform, "6x1");
            assert_eq!(
                (uni.profit, uni.completed, uni.expired, uni.ticks, uni.steps),
                (
                    shaped.profit,
                    shaped.completed,
                    shaped.expired,
                    shaped.ticks,
                    shaped.steps
                ),
                "shaped cell diverged from its uniform twin: {uni:?} vs {shaped:?}"
            );
        }
    }

    /// A genuinely heterogeneous shape sweeps cleanly, shows up in the CSV
    /// under its `+`-separated label, and stays thread-count invariant.
    #[test]
    fn heterogeneous_shape_sweeps_and_is_thread_invariant() {
        let mut grid = SweepGrid::smoke();
        grid.groups = vec!["3x1,1x2".parse().unwrap()];
        let one = grid.run(1);
        assert_eq!(one, grid.run(3), "sharding leaked into shaped cells");
        let csv = one.to_csv();
        assert!(csv.contains(",3x1+1x2,4,"), "shape label missing:\n{csv}");
        // Shape total 4 equals the uniform m=4 entry: one instance per seed.
        assert_eq!(one.instances_generated, grid.seeds.len());
    }
}
