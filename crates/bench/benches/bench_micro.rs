//! Microbenchmarks for the hot paths of the simulator and the paper's
//! scheduler: engine tick throughput, the density-band admission structure,
//! DAG generation + unfolding, and the PRNG.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dagsched_bench::hotpath::profit_instance;
use dagsched_core::{AlgoParams, JobId, Rng64, Speed, Time, Work};
use dagsched_dag::{gen, UnfoldState};
use dagsched_engine::{simulate, Allocation, JobInfo, OnlineScheduler, SimConfig, TickView};
use dagsched_sched::oracle::OracleSProfit;
use dagsched_sched::{bands::DensityBands, GreedyDensity, SchedulerS, SchedulerSProfit};
use dagsched_workload::{DagFamily, StepProfitFn, WorkloadGen};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    let inst = WorkloadGen::standard(16, 200, 7).generate().unwrap();
    let work: u64 = inst.jobs().iter().map(|j| j.work().units()).sum();
    g.throughput(Throughput::Elements(work));
    g.bench_function("simulate/greedy/200jobs", |b| {
        b.iter(|| {
            let mut s = GreedyDensity::new(16);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        })
    });
    g.bench_function("simulate/schedS/200jobs", |b| {
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(16, 1.0);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        })
    });
    g.bench_function("simulate/schedS/speed3-2", |b| {
        let cfg = SimConfig::at_speed(Speed::new(3, 2).unwrap());
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(16, 1.0);
            simulate(&inst, &mut s, &cfg).unwrap().total_profit
        })
    });
    g.finish();
}

/// The tentpole comparison: an HPC-style instance whose nodes carry heavy
/// work (≥ 1000 units each), simulated tick-by-tick vs event-driven. The
/// fast-forward path must collapse each long node into O(1) engine steps;
/// the printed `steps` line quantifies the reduction alongside the timings.
fn bench_fast_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast-forward");
    g.sample_size(10);
    // 16 processors, fork-join jobs at HPC node granularity: every node is
    // 1000–2000 units of work, so the naive path grinds through
    // ~O(total work / m) ticks while the event path sees O(#nodes) events.
    let inst = WorkloadGen {
        family: DagFamily::ForkJoin {
            segments: (2, 4),
            width: (2, 8),
            node_work: (1_000, 2_000),
        },
        ..WorkloadGen::standard(16, 40, 11)
    }
    .generate()
    .unwrap();
    let ticks = {
        let mut s = GreedyDensity::new(16);
        let naive = simulate(
            &inst,
            &mut s,
            &SimConfig {
                fast_forward: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut s = GreedyDensity::new(16);
        let fast = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert!(fast.same_outcome(&naive), "paths must agree before timing");
        println!(
            "bench fast-forward: steps {} (event) vs {} (naive), {:.0}x fewer",
            fast.steps_executed,
            naive.steps_executed,
            naive.steps_executed as f64 / fast.steps_executed as f64
        );
        naive.ticks_simulated
    };
    g.throughput(Throughput::Elements(ticks));
    g.bench_function("naive/hpc-1000u-nodes", |b| {
        let cfg = SimConfig {
            fast_forward: false,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut s = GreedyDensity::new(16);
            simulate(&inst, &mut s, &cfg).unwrap().total_profit
        })
    });
    g.bench_function("event/hpc-1000u-nodes", |b| {
        b.iter(|| {
            let mut s = GreedyDensity::new(16);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        })
    });
    g.finish();
}

fn bench_bands(c: &mut Criterion) {
    let mut g = c.benchmark_group("bands");
    let params = AlgoParams::from_epsilon(1.0).unwrap();
    // A realistically full structure: ~64 jobs across 4 decades of density.
    let mut bands = DensityBands::new(params.c(), 0.9 * 512.0);
    let mut rng = Rng64::seed_from(3);
    for i in 0..64u32 {
        let d = 10f64.powf(rng.gen_f64_range(-2.0, 2.0));
        bands.insert(JobId(i), d, 1 + rng.gen_range(8) as u32);
    }
    g.bench_function("fits/64jobs", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bands.fits(0.5 + (i % 100) as f64 / 25.0, 4)
        })
    });
    g.bench_function("insert+remove/64jobs", |b| {
        b.iter_batched(
            || bands.clone(),
            |mut bd| {
                bd.insert(JobId(999), 1.5, 3);
                bd.remove(JobId(999))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The overload admission storm against the incremental band index: offer
/// ρ× more jobs than the bands can hold (multi-band log-uniform densities
/// over four decades), `fits` → greedy `insert`. The steady state is the
/// interesting one: Q is full, so almost every offer is a rejected `fits`
/// probe — O(log |Q|) on the treap, O(|Q|) on the legacy sweep it
/// replaced (`dagsched-bench` measures that ratio; this group tracks the
/// absolute cost of the new path, up to |P| = 10⁴).
fn bench_admission(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission");
    g.sample_size(15);
    let params = AlgoParams::from_epsilon(1.0).unwrap();
    // ~400 jobs of mean allotment 4.5 saturate 4 decades at 0.9·512.
    let hold = 400usize;
    for (rho, extra) in [(2usize, 0usize), (8, 0), (8, 10_000 - 8 * hold)] {
        let n = rho * hold + extra;
        let mut rng = Rng64::seed_from(0x5EED ^ n as u64);
        let stream: Vec<(f64, u32)> = (0..n)
            .map(|_| {
                let d = 10f64.powf(rng.gen_f64_range(-2.0, 2.0));
                (d, 1 + rng.gen_range(8) as u32)
            })
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("storm/rho{rho}/p{n}"), |b| {
            b.iter(|| {
                let mut bands = DensityBands::new(params.c(), 0.9 * 512.0);
                let mut admitted = 0u64;
                for (i, &(d, a)) in stream.iter().enumerate() {
                    if bands.fits(d, a) {
                        bands.insert(JobId(i as u32), d, a);
                        admitted += 1;
                    }
                }
                admitted
            })
        });
    }
    g.finish();
}

/// The work-conserving allocate of scheduler S on a hot state: hundreds of
/// admitted (Q) and parked (P) jobs, all with spare ready nodes, so the
/// backfill pass exercises the dense ready/slot scratch maps and the O(1)
/// grant merge on every call.
fn bench_backfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("backfill");
    g.sample_size(15);
    let m = 512u32;
    for n in [500usize, 2_000] {
        let mut sched = SchedulerS::with_epsilon(m, 1.0).work_conserving();
        let mut rng = Rng64::seed_from(0xBACF11);
        let mut view_jobs = Vec::with_capacity(n);
        for i in 0..n {
            let info = JobInfo {
                id: JobId(i as u32),
                arrival: Time(0),
                work: Work(40),
                span: Work(8),
                profit: StepProfitFn::deadline(
                    Time(600 + rng.gen_range(200)),
                    1 + rng.gen_range(1000),
                ),
            };
            sched.on_arrival(&info, Time(0));
            view_jobs.push((JobId(i as u32), 8u32));
        }
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("wc-allocate/q{n}"), |b| {
            let mut buf: Allocation = Vec::new();
            b.iter(|| {
                sched.allocate_into(&TickView::new(m, Time(1), &view_jobs), &mut buf);
                buf.len()
            })
        });
    }
    g.finish();
}

fn bench_dag(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag");
    g.bench_function("gen/fig1/m64", |b| b.iter(|| gen::fig1(64, 100, 1)));
    g.bench_function("gen/layered", |b| {
        let mut rng = Rng64::seed_from(9);
        b.iter(|| gen::layered_random(&mut rng, 8, (4, 16), (1, 9), 0.3))
    });
    let spec = gen::fig1(16, 200, 1).into_shared();
    g.throughput(Throughput::Elements(spec.total_work().units()));
    g.bench_function("unfold/fig1-drain", |b| {
        let mut nodes = Vec::new();
        b.iter_batched(
            || UnfoldState::new(spec.clone(), 1),
            |mut st| {
                while !st.is_complete() {
                    st.ready_prefix_into(16, &mut nodes);
                    for &n in &nodes {
                        st.advance(n, u64::MAX);
                    }
                }
                st.completed_nodes()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The PR10 slot-assignment comparison: the rewritten general-profit
/// scheduler (incremental segment plan + bounded-stability fast-forward)
/// vs its frozen per-tick twin on a parked-majority two-step-profit
/// instance. The twin makes no stability claim, so the engine steps it
/// through every tick of the long plan gap the rewrite crosses in O(1)
/// windows; the printed `steps` line quantifies the reduction.
fn bench_slot_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("slot-assignment");
    g.sample_size(10);
    let inst = profit_instance(200, 10_000);
    {
        let mut s = SchedulerSProfit::with_epsilon(inst.m(), 1.0);
        let fast = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        let mut s = OracleSProfit::with_epsilon(inst.m(), 1.0);
        let frozen = simulate(&inst, &mut s, &SimConfig::default()).unwrap();
        assert!(fast.same_outcome(&frozen), "paths must agree before timing");
        println!(
            "bench slot-assignment: steps {} (plan) vs {} (frozen), {:.0}x fewer",
            fast.steps_executed,
            frozen.steps_executed,
            frozen.steps_executed as f64 / fast.steps_executed as f64
        );
    }
    g.bench_function("frozen/parked-j200", |b| {
        b.iter(|| {
            let mut s = OracleSProfit::with_epsilon(inst.m(), 1.0);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        })
    });
    g.bench_function("plan/parked-j200", |b| {
        b.iter(|| {
            let mut s = SchedulerSProfit::with_epsilon(inst.m(), 1.0);
            simulate(&inst, &mut s, &SimConfig::default())
                .unwrap()
                .total_profit
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    let mut rng = Rng64::seed_from(1);
    g.bench_function("next_u64", |b| b.iter(|| rng.next_u64()));
    g.bench_function("poisson_30", |b| b.iter(|| rng.poisson(30.0)));
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_fast_forward,
    bench_bands,
    bench_admission,
    bench_backfill,
    bench_dag,
    bench_slot_assignment,
    bench_rng
);
criterion_main!(benches);
