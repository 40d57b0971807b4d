//! The traced run: spans around every layer call the benchmark makes,
//! scheduler hooks timed by a forwarding wrapper, and exact counts.
//!
//! Tracing lives only here, outside the end-to-end binary's build. The
//! traced ops replace `simulate` with `SimDriver::new` + a `step()` loop +
//! `finish()`, wrap every scheduler in a [`TimedSched`], and rebuild the
//! sweep and fuzz loops from their public parts, so each layer call is
//! timed from the benchmark's own code. Spans (name, start, end, parent)
//! are kept in memory for ops and for layer calls down to `simulate`,
//! `generate`, `judge` and the table stages; per-step and per-hook costs
//! go into counters and a histogram so memory stays bounded. Everything
//! is written as JSONL under `out/` when the run ends.
//!
//! Layers that live inside the engine (clock, events, lifecycle, handoff,
//! pick) cannot be timed from outside it; they show up together as
//! `engine.self`, the engine's time minus the scheduler's.

use crate::measure::{catch, judge_op, Metric, OpLog};
use crate::workloads::{
    cell_result, fuzz_config, op_seed, sweep_grid, sweep_instance, FuzzCampaign, FuzzOutcome,
    OpSummary, ParkedDense, SweepSteady, TablesFull, Workload,
};
use dagsched_core::{JobId, Rng64, Time};
use dagsched_engine::{
    AdmissionEvent, Allocation, JobInfo, OnlineScheduler, SimConfig, SimDriver, SimResult,
    TickView, ViewDelta,
};
use dagsched_experiments::{
    ablation, baselines_cmp, charging, constants, eps_sweep, fig1, fig2, hpc_bench, node_pick,
    profit_general, speed_sweep, sporadic_rt, CellResult,
};
use dagsched_fuzz::{
    mutate, run_exec_with, seed_corpus, CoverageMap, FuzzConfig, InvariantProfile, Subject,
};
use dagsched_metrics::Table;
use dagsched_sched::{SchedulerS, SchedulerSProfit};
use dagsched_workload::Instance;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

// ------------------------------------------------------------ scheduler

/// The scheduler hooks [`TimedSched`] tells apart.
#[derive(Debug, Clone, Copy)]
enum Hook {
    /// `on_arrival`.
    Arrival,
    /// `on_completion`.
    Completion,
    /// `on_expiry`.
    Expiry,
    /// `allocate` and `allocate_into`.
    Allocate,
    /// `allocate_delta`.
    Delta,
    /// `stable_until`.
    StableUntil,
    /// Every other method: names, capability queries, admission reporting,
    /// `reset`.
    Other,
}

/// Metric names of the hooks, indexed by [`Hook`].
const HOOK_NAMES: [&str; 7] = [
    "arrival",
    "completion",
    "expiry",
    "allocate",
    "delta",
    "stable_until",
    "other",
];

/// Calls and time per hook, shared by every [`TimedSched`] of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls per hook.
    pub calls: [u64; 7],
    /// Nanoseconds per hook.
    pub ns: [u64; 7],
    /// `allocate_delta` calls that patched or replayed the allocation.
    pub delta_hits: u64,
    /// Schedulers wrapped, which is one per simulation where schedulers
    /// are not reused.
    pub built: u64,
}

impl SchedStats {
    /// Time in every hook.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// A scheduler wrapper that forwards every [`OnlineScheduler`] method to
/// the wrapped scheduler and times each call.
pub struct TimedSched {
    inner: Box<dyn OnlineScheduler>,
    stats: Rc<RefCell<SchedStats>>,
}

impl TimedSched {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn OnlineScheduler>, stats: Rc<RefCell<SchedStats>>) -> TimedSched {
        stats.borrow_mut().built += 1;
        TimedSched { inner, stats }
    }

    #[inline]
    fn record(&self, hook: Hook, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        s.calls[hook as usize] += 1;
        s.ns[hook as usize] += ns;
    }
}

impl OnlineScheduler for TimedSched {
    fn name(&self) -> String {
        let t = Instant::now();
        let r = self.inner.name();
        self.record(Hook::Other, t);
        r
    }

    fn on_arrival(&mut self, job: &JobInfo, now: Time) {
        let t = Instant::now();
        self.inner.on_arrival(job, now);
        self.record(Hook::Arrival, t);
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        let t = Instant::now();
        self.inner.on_completion(id, now);
        self.record(Hook::Completion, t);
    }

    fn on_expiry(&mut self, id: JobId, now: Time) {
        let t = Instant::now();
        self.inner.on_expiry(id, now);
        self.record(Hook::Expiry, t);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let t = Instant::now();
        let r = self.inner.allocate(view);
        self.record(Hook::Allocate, t);
        r
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        let t = Instant::now();
        self.inner.allocate_into(view, out);
        self.record(Hook::Allocate, t);
    }

    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        let t = Instant::now();
        let hit = self.inner.allocate_delta(delta, view, out);
        self.record(Hook::Delta, t);
        if hit {
            self.stats.borrow_mut().delta_hits += 1;
        }
        hit
    }

    fn allocation_stable_between_events(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.allocation_stable_between_events();
        self.record(Hook::Other, t);
        r
    }

    fn completion_keys_stable(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.completion_keys_stable();
        self.record(Hook::Other, t);
        r
    }

    fn bounded_stability(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.bounded_stability();
        self.record(Hook::Other, t);
        r
    }

    fn stable_until(&self, now: Time) -> Option<Time> {
        let t = Instant::now();
        let r = self.inner.stable_until(now);
        self.record(Hook::StableUntil, t);
        r
    }

    fn enable_admission_reporting(&mut self) {
        let t = Instant::now();
        self.inner.enable_admission_reporting();
        self.record(Hook::Other, t);
    }

    fn drain_admission_events(&mut self, out: &mut Vec<AdmissionEvent>) {
        let t = Instant::now();
        self.inner.drain_admission_events(out);
        self.record(Hook::Other, t);
    }

    fn group_aware(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.group_aware();
        self.record(Hook::Other, t);
        r
    }

    fn reset(&mut self) -> bool {
        let t = Instant::now();
        let r = self.inner.reset();
        self.record(Hook::Other, t);
        r
    }
}

// --------------------------------------------------------------- tracer

/// A log-linear histogram of nanosecond durations: exact below 16, then
/// eight buckets per power of two (at most 12.5% relative error).
#[derive(Debug, Clone, Default)]
struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < 16 {
            v as usize
        } else {
            let b = 63 - v.leading_zeros() as usize;
            (b - 2) * 8 + ((v >> (b - 3)) & 7) as usize
        }
    }

    fn midpoint(idx: usize) -> f64 {
        if idx < 16 {
            idx as f64
        } else {
            let (b, sub) = (idx / 8 + 2, (idx % 8) as u64);
            let width = 1u64 << (b - 3);
            ((8 + sub) * width) as f64 + width as f64 / 2.0
        }
    }

    /// Record one duration.
    fn record(&mut self, d: Duration) {
        let i = Histogram::bucket(d.as_nanos() as u64);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Durations recorded.
    fn count(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile in nanoseconds (0 when empty).
    fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::midpoint(i);
            }
        }
        0.0
    }
}

/// One kept span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the op the span belongs to.
    pub op: u64,
    /// The span's index in [`Tracer::spans`].
    pub id: u32,
    /// The enclosing kept span.
    pub parent: Option<u32>,
    /// Layer call, e.g. `engine.simulate`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// Exact counts, frozen after the run's first ops so that two runs at the
/// same seed report the same numbers whatever their op counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Named counts.
    pub named: BTreeMap<&'static str, u64>,
    /// Scheduler hook calls; the hook times are left at zero.
    pub sched: SchedStats,
}

impl Counts {
    fn get(&self, name: &str) -> f64 {
        self.named.get(name).copied().unwrap_or(0) as f64
    }
}

/// Spans, counters and busy times of one traced run.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    /// Kept spans, in start order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    depth: usize,
    counts: BTreeMap<&'static str, u64>,
    /// Busy nanoseconds per layer call name.
    busy_ns: BTreeMap<&'static str, u64>,
    /// Engine step durations.
    step_ns: Histogram,
    sched: Rc<RefCell<SchedStats>>,
    frozen: Option<Counts>,
    /// Traced op time.
    op_ns: u64,
    /// Untraced op time of the same ops.
    untraced_ns: u64,
    /// Time in layer calls made directly by an op.
    attributed_ns: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            depth: 0,
            counts: BTreeMap::new(),
            busy_ns: BTreeMap::new(),
            step_ns: Histogram::default(),
            sched: Rc::default(),
            frozen: None,
            op_ns: 0,
            untraced_ns: 0,
            attributed_ns: 0,
        }
    }

    /// The scheduler statistics every [`TimedSched`] of this run shares.
    pub fn sched_stats(&self) -> Rc<RefCell<SchedStats>> {
        Rc::clone(&self.sched)
    }

    /// Add `n` to a named count.
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Add busy time to a layer name without a span.
    fn add_busy(&mut self, name: &'static str, d: Duration) {
        *self.busy_ns.entry(name).or_default() += d.as_nanos() as u64;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn region<R>(&mut self, name: &'static str, keep: bool, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let top = self.depth == 1;
        let id = keep.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                op: self.op,
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        let d = start.elapsed();
        if let Some(id) = id {
            self.stack.pop();
            self.spans[id as usize].end_ns = self.now_ns();
        }
        self.add_busy(name, d);
        if top {
            self.attributed_ns += d.as_nanos() as u64;
        }
        r
    }

    /// Run `f` as a kept span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.region(name, true, f)
    }

    /// Run `f`, adding its time to `name` without keeping a span: for
    /// calls made thousands of times per op.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.region(name, false, f)
    }

    /// Run op `index` as the root span and return its wall time.
    fn op<R>(&mut self, index: u64, f: impl FnOnce(&mut Tracer) -> R) -> (Duration, R) {
        // A panic caught inside an earlier op may have left regions open.
        self.stack.clear();
        self.depth = 0;
        self.op = index;
        let t = Instant::now();
        let r = self.span("op", f);
        let d = t.elapsed();
        self.op_ns += d.as_nanos() as u64;
        (d, r)
    }

    fn counts_now(&self) -> Counts {
        let mut sched = self.sched.borrow().clone();
        sched.ns = [0; 7];
        Counts {
            named: self.counts.clone(),
            sched,
        }
    }

    /// Freeze the exact counts as they stand.
    fn freeze_counts(&mut self) {
        self.frozen = Some(self.counts_now());
    }

    /// The frozen counts, or the current ones if none were frozen.
    pub fn counts(&self) -> Counts {
        self.frozen.clone().unwrap_or_else(|| self.counts_now())
    }

    fn share(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / self.op_ns.max(1) as f64
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Counts come from
    /// the frozen counts; shares are busy time over traced op time.
    pub fn layer_metrics(&self, fast_naive: Option<(Duration, Duration)>) -> Vec<Metric> {
        let c = self.counts();
        let sched = self.sched.borrow();
        let op = self.op_ns.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut m = Vec::new();
        let mut put = |name: String, value: f64, unit: &'static str| {
            m.push(Metric { name, value, unit });
        };
        put("engine.runs".into(), c.get("engine.runs"), "count");
        put("engine.steps".into(), c.get("engine.steps"), "count");
        put("engine.ticks".into(), c.get("engine.ticks"), "count");
        let ticks_per_step = ratio(c.get("engine.ticks"), c.get("engine.steps"));
        put("engine.ticks_per_step".into(), ticks_per_step, "x");
        put(
            "engine.self_share".into(),
            self.share("engine.self"),
            "frac",
        );
        put(
            "engine.construct_share".into(),
            self.share("engine.construct"),
            "frac",
        );
        let fast_vs_naive =
            fast_naive.map_or(0.0, |(f, n)| ratio(n.as_secs_f64(), f.as_secs_f64()));
        put("engine.fast_vs_naive".into(), fast_vs_naive, "x");
        for (i, hook) in HOOK_NAMES.iter().enumerate().take(6) {
            put(
                format!("sched.{hook}_calls"),
                c.sched.calls[i] as f64,
                "count",
            );
        }
        let delta_calls = c.sched.calls[Hook::Delta as usize] as f64;
        put(
            "sched.delta_hit_frac".into(),
            ratio(c.sched.delta_hits as f64, delta_calls),
            "frac",
        );
        put("sched.share".into(), sched.total_ns() as f64 / op, "frac");
        for (i, hook) in HOOK_NAMES.iter().enumerate().take(5) {
            put(
                format!("sched.{hook}_share"),
                sched.ns[i] as f64 / op,
                "frac",
            );
        }
        put(
            "sched.build_share".into(),
            self.share("sched.build"),
            "frac",
        );
        put(
            "workload.generate_calls".into(),
            c.get("workload.generate_calls"),
            "count",
        );
        put(
            "workload.generate_share".into(),
            self.share("workload.generate"),
            "frac",
        );
        for phase in ["mutate", "repair", "judge", "coverage"] {
            put(
                format!("fuzz.{phase}_share"),
                self.share(&format!("fuzz.{phase}")),
                "frac",
            );
        }
        put(
            "fuzz.sims_per_exec".into(),
            ratio(c.get("engine.runs"), c.get("fuzz.judged")),
            "x",
        );
        put(
            "fuzz.invalid_frac".into(),
            ratio(c.get("fuzz.invalid"), c.get("fuzz.execs")),
            "frac",
        );
        let valid_mutants = c.get("fuzz.mutants") - c.get("fuzz.invalid");
        put(
            "fuzz.retain_frac".into(),
            ratio(c.get("fuzz.retained"), valid_mutants),
            "frac",
        );
        put("fuzz.features".into(), c.get("fuzz.features"), "count");
        for (stage, _) in STAGES {
            let module = stage.trim_start_matches("tables.");
            put(
                format!("tables.stage_share.{module}"),
                self.share(stage),
                "frac",
            );
        }
        let overhead = ratio(self.op_ns as f64, self.untraced_ns as f64) - 1.0;
        put("trace.overhead_frac".into(), overhead, "frac");
        put(
            "trace.attributed_frac".into(),
            self.attributed_ns as f64 / op,
            "frac",
        );
        m
    }

    /// Write spans, counts, busy times, the step histogram and the metrics
    /// as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, metrics: &[Metric]) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            writeln!(
                w,
                "{{\"kind\": \"span\", \"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        let c = self.counts();
        for (name, v) in &c.named {
            writeln!(
                w,
                "{{\"kind\": \"count\", \"name\": \"{name}\", \"value\": {v}}}"
            )?;
        }
        let sched = self.sched.borrow();
        for (i, hook) in HOOK_NAMES.iter().enumerate() {
            writeln!(
                w,
                "{{\"kind\": \"hook\", \"name\": \"sched.{hook}\", \"calls\": {}, \"ns\": {}}}",
                sched.calls[i], sched.ns[i]
            )?;
        }
        for (name, ns) in &self.busy_ns {
            writeln!(
                w,
                "{{\"kind\": \"busy\", \"name\": \"{name}\", \"ns\": {ns}}}"
            )?;
        }
        writeln!(
            w,
            "{{\"kind\": \"hist\", \"name\": \"engine.step_ns\", \"count\": {}, \"p50\": {}, \"p99\": {}}}",
            self.step_ns.count(),
            self.step_ns.quantile_ns(0.5),
            self.step_ns.quantile_ns(0.99)
        )?;
        for m in metrics {
            writeln!(
                w,
                "{{\"kind\": \"metric\", \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )?;
        }
        w.flush()
    }

    /// Absolute busy times and step percentiles, for the report.
    pub fn busy_report(&self) -> String {
        let mut out = String::new();
        for (name, ns) in &self.busy_ns {
            let _ = writeln!(out, "  {name:<32} {:>12.3} ms", *ns as f64 / 1e6);
        }
        let sched = self.sched.borrow();
        for (i, hook) in HOOK_NAMES.iter().enumerate() {
            let _ = writeln!(
                out,
                "  sched.{hook:<26} {:>12.3} ms",
                sched.ns[i] as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  engine.step_ns p50 {:.0}, p99 {:.0} over {} steps",
            self.step_ns.quantile_ns(0.5),
            self.step_ns.quantile_ns(0.99),
            self.step_ns.count()
        );
        out
    }
}

// --------------------------------------------------------------- engine

/// `simulate`, as a `SimDriver` construction, a `step()` loop and
/// `finish()`, recording construction, step and scheduler time and the
/// exact step and tick counts. Returns the same `SimResult` as `simulate`.
pub fn traced_simulate(
    tr: &mut Tracer,
    inst: &Instance,
    sched: &mut TimedSched,
    cfg: &SimConfig,
) -> Result<SimResult, String> {
    let sched_before = tr.sched.borrow().total_ns();
    let t = Instant::now();
    cfg.resolve_groups(inst.m()).map_err(|e| e.to_string())?;
    let mut drv = SimDriver::new(inst, sched, cfg);
    let construct = t.elapsed();
    let mut steps = Duration::ZERO;
    loop {
        let t = Instant::now();
        let live = drv.step();
        let d = t.elapsed();
        tr.step_ns.record(d);
        steps += d;
        if !live.map_err(|e| e.to_string())? {
            break;
        }
    }
    let t = Instant::now();
    let r = drv.finish().map_err(|e| e.to_string())?;
    let finish = t.elapsed();
    let in_sched = Duration::from_nanos(tr.sched.borrow().total_ns() - sched_before);
    tr.add_busy("engine.construct", construct);
    tr.add_busy("engine.step", steps);
    tr.add_busy(
        "engine.self",
        (construct + steps + finish).saturating_sub(in_sched),
    );
    tr.count("engine.runs", 1);
    tr.count("engine.steps", r.steps_executed);
    tr.count("engine.ticks", r.ticks_simulated);
    Ok(r)
}

// ------------------------------------------------------------ workloads

/// A workload with a traced op. The traced op must return exactly what
/// the untraced op returns; the traced run checks it on every op.
pub trait Traced: Workload {
    /// Op `op_seed`, with every layer call traced.
    fn traced_op(&self, op_seed: u64, tr: &mut Tracer) -> Result<Self::Out, String>;
}

impl Traced for SweepSteady {
    /// `SweepGrid::run(1)` rebuilt cell by cell: instances generated once
    /// per machine size, one scheduler per (scheduler, m) reused through
    /// `reset`, cells in grid order.
    fn traced_op(&self, op_seed: u64, tr: &mut Tracer) -> Result<Vec<CellResult>, String> {
        let grid = sweep_grid(op_seed);
        let instances = grid
            .ms
            .iter()
            .map(|&m| {
                tr.span("workload.generate", |tr| {
                    tr.count("workload.generate_calls", 1);
                    sweep_instance(&grid, m)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n_m = grid.ms.len();
        let mut slab: Vec<Option<TimedSched>> =
            (0..grid.scheds.len() * n_m).map(|_| None).collect();
        let mut cells = Vec::with_capacity(grid.len());
        for (si, kind) in grid.scheds.iter().enumerate() {
            for &speed in &grid.speeds {
                for (mi, &m) in grid.ms.iter().enumerate() {
                    let entry = &mut slab[si * n_m + mi];
                    tr.timed("sched.build", |tr| {
                        if !entry.as_mut().is_some_and(|s| s.reset()) {
                            *entry = Some(TimedSched::new(kind.build(m), tr.sched_stats()));
                        }
                    });
                    let sched = entry.as_mut().expect("built above");
                    let cfg = SimConfig::at_speed(speed);
                    let r = tr.span("engine.simulate", |tr| {
                        traced_simulate(tr, &instances[mi], sched, &cfg)
                    })?;
                    cells.push(cell_result(&grid, kind, speed, m, &r));
                }
            }
        }
        Ok(cells)
    }
}

impl Traced for ParkedDense {
    fn traced_op(&self, _op_seed: u64, tr: &mut Tracer) -> Result<Vec<SimResult>, String> {
        let mut results = Vec::with_capacity(self.sims.len());
        for (kind, inst) in &self.sims {
            let mut sched = tr.timed("sched.build", |tr| {
                TimedSched::new(kind.build(inst.m()), tr.sched_stats())
            });
            let r = tr.span("engine.simulate", |tr| {
                traced_simulate(tr, inst, &mut sched, &SimConfig::default())
            });
            results.push(r.map_err(|e| format!("{}: {e}", kind.label()))?);
        }
        Ok(results)
    }
}

impl Traced for FuzzCampaign {
    fn traced_op(&self, op_seed: u64, tr: &mut Tracer) -> Result<FuzzOutcome, String> {
        traced_fuzz(tr, &fuzz_config(op_seed))
    }
}

/// A fuzz subject whose schedulers are wrapped in [`TimedSched`].
fn timed_subject(
    tr: &Tracer,
    name: &str,
    profile: InvariantProfile,
    make: fn(u32) -> Box<dyn OnlineScheduler>,
) -> Subject {
    let stats = tr.sched_stats();
    Subject::new(name, profile, move |m| {
        Box::new(TimedSched::new(make(m), Rc::clone(&stats)))
    })
}

/// Judge one candidate: the oracle heads, then the coverage merge.
/// Returns the number of new coverage features.
#[allow(clippy::too_many_arguments)]
fn judge(
    tr: &mut Tracer,
    cfg: &FuzzConfig,
    inst: &Instance,
    subject: &Subject,
    base: &SimConfig,
    pause_salt: u64,
    coverage: &mut CoverageMap,
    failures: &mut Vec<String>,
) -> usize {
    let built = tr.sched.borrow().built;
    let outcome = tr.span("fuzz.judge", |_| {
        run_exec_with(
            inst,
            subject,
            &cfg.oracles,
            pause_salt,
            Some(cfg.master_seed),
            base,
        )
    });
    // The subjects wrap one scheduler per simulation.
    let sims = tr.sched.borrow().built - built;
    tr.count("engine.runs", sims);
    tr.count("fuzz.judged", 1);
    let new = tr.timed("fuzz.coverage", |_| coverage.merge(&outcome.features));
    if let Some(f) = outcome.failure {
        failures.push(format!("{}: {}", f.oracle, f.detail));
    }
    new
}

/// `FuzzSession::run` rebuilt from its public parts, for the default
/// subjects (scheduler S; S-profit for candidates flagged for it). Failing
/// candidates are recorded but not minimized.
pub fn traced_fuzz(tr: &mut Tracer, cfg: &FuzzConfig) -> Result<FuzzOutcome, String> {
    let s = timed_subject(
        tr,
        "S",
        InvariantProfile::SchedulerS { backfill: false },
        |m| Box::new(SchedulerS::with_epsilon(m, 1.0)),
    );
    let sprofit = timed_subject(tr, "S-profit", InvariantProfile::WorkOnly, |m| {
        Box::new(SchedulerSProfit::with_epsilon(m, 1.0))
    });
    let mut rng = Rng64::seed_from(cfg.master_seed);
    let mut coverage = CoverageMap::new();
    let mut corpus = tr.timed("fuzz.corpus", |_| seed_corpus());
    let mut failures = Vec::new();
    let (mut execs, mut invalid) = (0u64, 0u64);

    for (i, seed) in corpus.iter().enumerate() {
        if execs >= cfg.max_execs || failures.len() >= cfg.max_failures {
            break;
        }
        let pause_salt = rng.next_u64();
        let (inst, base) = tr.timed("fuzz.repair", |_| (seed.to_instance(), seed.base_config()));
        let inst = inst.map_err(|e| format!("seed corpus entry {i}: {e}"))?;
        let subject = if seed.sprofit_subject { &sprofit } else { &s };
        judge(
            tr,
            cfg,
            &inst,
            subject,
            &base,
            pause_salt,
            &mut coverage,
            &mut failures,
        );
        execs += 1;
    }

    while execs < cfg.max_execs && failures.len() < cfg.max_failures {
        let cand = tr.timed("fuzz.mutate", |_| {
            let pick = rng.gen_range(corpus.len() as u64) as usize;
            let mut cand = corpus[pick].clone();
            for _ in 0..1 + rng.gen_range(3) {
                mutate(&mut rng, &mut cand);
            }
            cand
        });
        let pause_salt = rng.next_u64();
        execs += 1;
        tr.count("fuzz.mutants", 1);
        match tr.timed("fuzz.repair", |_| {
            cand.to_instance().map(|inst| (inst, cand.base_config()))
        }) {
            Ok((inst, base)) => {
                let subject = if cand.sprofit_subject { &sprofit } else { &s };
                let new = judge(
                    tr,
                    cfg,
                    &inst,
                    subject,
                    &base,
                    pause_salt,
                    &mut coverage,
                    &mut failures,
                );
                if new > 0 && corpus.len() < cfg.max_corpus {
                    corpus.push(cand);
                    tr.count("fuzz.retained", 1);
                }
            }
            Err(_) => {
                invalid += 1;
                tr.count("fuzz.invalid", 1);
            }
        }
    }
    tr.count("fuzz.execs", execs);
    tr.count("fuzz.features", coverage.len() as u64);
    Ok(FuzzOutcome {
        execs,
        invalid,
        corpus_len: corpus.len(),
        features: coverage.len(),
        failures,
    })
}

/// A `run_all` stage: its span name and its `run(quick)`.
type Stage = (&'static str, fn(bool) -> Vec<Table>);

/// The stages of `run_all`, in its order.
const STAGES: [Stage; 12] = [
    ("tables.constants", constants::run),
    ("tables.fig1", fig1::run),
    ("tables.fig2", fig2::run),
    ("tables.eps_sweep", eps_sweep::run),
    ("tables.speed_sweep", speed_sweep::run),
    ("tables.charging", charging::run),
    ("tables.profit_general", profit_general::run),
    ("tables.baselines_cmp", baselines_cmp::run),
    ("tables.ablation", ablation::run),
    ("tables.node_pick", node_pick::run),
    ("tables.hpc_bench", hpc_bench::run),
    ("tables.sporadic_rt", sporadic_rt::run),
];

/// `run_all(quick)` stage by stage, one span per stage.
pub fn staged_tables(tr: &mut Tracer, quick: bool) -> Vec<Table> {
    let mut out = Vec::new();
    for (name, run) in STAGES {
        out.extend(tr.span(name, |_| run(quick)));
    }
    out
}

impl Traced for TablesFull {
    fn traced_op(&self, _op_seed: u64, tr: &mut Tracer) -> Result<Vec<Table>, String> {
        Ok(staged_tables(tr, false))
    }
}

// ------------------------------------------------------------------ run

/// The traced closed loop. Op `index` runs untraced, then traced on the
/// same inputs; the two outputs must agree, and their times give
/// `trace.overhead_frac`. Counts are frozen after the first `min_ops` ops.
pub fn traced_loop<W: Traced>(
    w: &W,
    seed: u64,
    seconds: Duration,
    min_ops: u64,
    warm: Option<u64>,
) -> (OpLog, Tracer) {
    let mut tr = Tracer::new();
    let log = crate::measure::closed_loop(seconds, min_ops, |i| {
        let s = op_seed(seed, i);
        let t = Instant::now();
        let plain = catch(|| w.op(s));
        tr.untraced_ns += t.elapsed().as_nanos() as u64;
        let (d, traced) = tr.op(i, |tr| catch(|| w.traced_op(s, tr)));
        if i + 1 == min_ops {
            tr.freeze_counts();
        }
        let outcome = judge_op(w, plain, warm).and_then(|p| {
            let q: OpSummary = judge_op(w, traced, warm)?;
            if p.digest == q.digest {
                Ok(q)
            } else {
                Err("the traced op's output differs from the untraced op's".into())
            }
        });
        (d, outcome)
    });
    (log, tr)
}

/// Where the traced run writes its JSONL.
pub fn out_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}-{seed}.jsonl"))
}
