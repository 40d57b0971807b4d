//! Heap allocations per arrival: one for a cold arrival, zero once the
//! lifecycle pool is warm.
//!
//! This binary installs a counting global allocator (test-only — each
//! integration test file is its own binary, so the counter never leaks into
//! other suites) and drives the real `SimDriver`. A job's whole runtime
//! state is one `UnfoldState` whose single cell vector holds every per-node
//! field, the engine's claim bits included, so a cold arrival costs that
//! one vector. After a warm-up prefix lets the pool reach its high-water
//! mark, the remaining hundreds of arrivals, completions, and ticks must
//! not touch the allocator at all: states come from the pool, `reset_from`
//! refills the cell vector in place, the `JobInfo` profit clone is an `Arc`
//! bump, and the scheduler's `allocate_into` writes into the hoisted
//! buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dagsched_core::{JobId, Time};
use dagsched_dag::gen;
use dagsched_engine::{Allocation, JobInfo, OnlineScheduler, SimConfig, SimDriver, TickView};
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

/// Counts every allocator entry (alloc and realloc) on top of [`System`],
/// per thread. The count must be thread-local rather than a process-wide
/// atomic: libtest runs its own harness threads concurrently with the test
/// thread, and a stray harness allocation landing inside the measurement
/// window would flake an otherwise deterministic run. The whole simulation
/// executes on the test thread, so its counter alone is the proof.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` instead of `with`: the allocator can be entered during
    // thread teardown after the TLS slot is destroyed; those allocations
    // belong to no measurement window anyway.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Work-conserving FIFO scheduler whose steady-state event path is
/// allocation-free: `allocate_into` fills the engine's hoisted buffer and
/// the hooks do nothing.
struct LeanGreedy;

impl OnlineScheduler for LeanGreedy {
    fn name(&self) -> String {
        "lean-greedy".into()
    }
    fn on_arrival(&mut self, _job: &JobInfo, _now: Time) {}
    fn on_completion(&mut self, _id: JobId, _now: Time) {}
    fn on_expiry(&mut self, _id: JobId, _now: Time) {}
    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let mut out = Vec::new();
        self.allocate_into(view, &mut out);
        out
    }
    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        out.clear();
        let mut left = view.m;
        for &(id, ready) in view.jobs() {
            if left == 0 {
                break;
            }
            let k = ready.min(left);
            if k > 0 {
                out.push((id, k));
                left -= k;
            }
        }
    }
    fn allocation_stable_between_events(&self) -> bool {
        true
    }
}

/// An arrival storm: `n` identical 3-node chain jobs, one arriving per tick,
/// generous deadlines so nothing expires. A chain job occupies one processor
/// for 6 ticks, so `m = 8` keeps the service rate (8/6 jobs per tick) above
/// the arrival rate (1 per tick): the alive set — and with it the pool's
/// high-water mark — stays bounded while arrivals keep churning slots. (An
/// overloaded platform would grow the alive set forever and the pool would
/// never see a completion.)
fn storm_instance(n: u32) -> Instance {
    let dag = gen::chain(3, 2).into_shared();
    let jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(u64::from(i)),
                dag.clone(),
                StepProfitFn::deadline(Time(1_000_000), 1),
            )
        })
        .collect();
    Instance::new(8, jobs).expect("valid storm instance")
}

#[test]
fn warm_pool_arrivals_do_not_allocate() {
    let inst = storm_instance(600);
    let cfg = SimConfig::default();
    let mut sched = LeanGreedy;
    let mut driver = SimDriver::new(&inst, &mut sched, &cfg);

    // Warm-up: run through the first 200 arrivals. This reaches the pool's
    // high-water mark and lets every hoisted buffer hit final capacity.
    driver.run_until(Time(200)).expect("warm-up runs");
    let before = allocations();

    // Steady state: 399 more arrivals (plus their completions and every
    // tick in between) with the allocator untouched. The window ends at the
    // last arrival — once arrivals stop, the alive set drains and every
    // slot lands in the pool at once, which may legitimately grow the pool
    // vector past its steady-state high-water mark.
    driver.run_until(Time(599)).expect("steady state runs");
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across ~400 warm-pool arrivals, got {delta}"
    );

    // The run must still be a *real* run: finish it and check every job
    // completed with its profit.
    let result = driver.finish().expect("finish runs");
    assert_eq!(result.total_profit, 600);
}

/// Upper bound on the allocations of the arrival step that are not per
/// job: amortized doubling of the alive list and the maintained view
/// (about log2(n) each), and the first growth of the step's scratch
/// buffers. Expiries allocate nothing: the event kernel walks the
/// instance's presorted expiry order. 1,000 cold arrivals take 22.
const STEP_SLACK: u64 = 32;

#[test]
fn cold_arrivals_allocate_once_each() {
    // `n` single-node jobs, all arriving at t = 0 with nothing pooled. Each
    // node runs 50 ticks, so the first step is the arrival step: admit
    // every job, allocate, claim and open a bulk window.
    const N: u32 = 1_000;
    let dag = gen::chain(1, 50).into_shared();
    let jobs: Vec<JobSpec> = (0..N)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                Time(0),
                dag.clone(),
                StepProfitFn::deadline(Time(1_000_000), 1),
            )
        })
        .collect();
    let inst = Instance::new(4, jobs).expect("valid instance");
    let cfg = SimConfig::default();
    let mut sched = LeanGreedy;
    let mut driver = SimDriver::new(&inst, &mut sched, &cfg);

    let before = allocations();
    assert!(driver.step().expect("arrival step runs"));
    let delta = allocations() - before;
    assert_eq!(driver.lifecycle().alive().len(), N as usize);
    assert!(
        delta <= u64::from(N) + STEP_SLACK,
        "expected at most one allocation per cold arrival ({N} + {STEP_SLACK}), got {delta}"
    );
}
