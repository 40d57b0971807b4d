//! **E10** — HPC kernel task graphs: the workloads the paper's introduction
//! motivates (Cilk/TBB/OpenMP programs) realized as tiled Cholesky/LU
//! factorizations, stencils and wavefronts.
//!
//! A stream of such jobs (mixed shapes/sizes, Poisson arrivals, moderate
//! deadline slack) runs under S, its work-conserving extension and the
//! baselines. These DAGs have *structured* parallelism profiles — narrow
//! wavefront ramps, wide update phases — so they exercise the allotment
//! machinery differently from the synthetic mixes: `n_i` dedicated
//! processors is a poor fit for a job whose parallelism varies 1→T²
//! over its lifetime.

use crate::common::{over_seeds, run_on_cfg, seeds, SchedKind};
use dagsched_core::{JobId, Rng64, Speed, Time};
use dagsched_dag::hpc::{self, KernelCosts};
use dagsched_engine::SimConfig;
use dagsched_metrics::{table::f, Table};
use dagsched_opt::fractional_ub;
use dagsched_workload::{Instance, JobSpec, StepProfitFn};

/// Build one HPC job stream: `n_jobs` kernels sampled uniformly from the
/// four families, arrivals Poisson at the given load, deadline slack 2.0,
/// profit proportional to work.
pub fn instance(m: u32, n_jobs: usize, load: f64, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed);
    let mean_work = 150.0; // rough; load control is approximate
    let rate = load * m as f64 / mean_work;
    let mut t = 0.0f64;
    let mut jobs = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        t += rng.exponential(rate);
        let dag = match rng.gen_range(4) {
            0 => hpc::cholesky(rng.gen_range_inclusive(3, 7) as u32, KernelCosts::default()),
            1 => hpc::lu(rng.gen_range_inclusive(2, 5) as u32, KernelCosts::default()),
            2 => hpc::stencil(
                rng.gen_range_inclusive(4, 12) as u32,
                rng.gen_range_inclusive(3, 8) as u32,
                2,
            ),
            _ => hpc::wavefront(
                rng.gen_range_inclusive(3, 8) as u32,
                rng.gen_range_inclusive(3, 8) as u32,
                2,
            ),
        }
        .into_shared();
        let w = dag.total_work().as_f64();
        let l = dag.span().as_f64();
        let brent = (w - l) / m as f64 + l;
        let d = Time((2.0 * brent).ceil() as u64);
        // Density varies per job so profit-aware and arrival-order policies
        // genuinely differ.
        let p = (rng.gen_f64_range(1.0, 4.0) * w).ceil() as u64;
        jobs.push(JobSpec::new(
            JobId(i as u32),
            Time(t as u64),
            dag,
            StepProfitFn::deadline(d, p),
        ));
    }
    Instance::new(m, jobs).expect("valid instance")
}

/// Build the E10 table.
pub fn run(quick: bool) -> Vec<Table> {
    let m = 16u32;
    let n_jobs = if quick { 40 } else { 100 };
    let load = 2.0;
    let seed_list = seeds(quick);

    let mut t = Table::new(
        "E10: HPC kernel task graphs (cholesky/lu/stencil/wavefront, m=16, load 2)",
        &[
            "scheduler",
            "profit (mean)",
            "frac of UB",
            "completed",
            "expired",
        ],
    );
    let kinds = [
        SchedKind::S { epsilon: 1.0 },
        SchedKind::SWc { epsilon: 1.0 },
        SchedKind::Hdf,
        SchedKind::Edf,
        SchedKind::Fifo,
    ];
    // Seeds outermost: each seed's instance and bound are computed once, on
    // a worker, and every scheduler runs on it. A row sums over seeds in
    // seed order.
    let per_seed = over_seeds(&seed_list, |seed| {
        let inst = instance(m, n_jobs, load, seed);
        let ub = fractional_ub(&inst, Speed::ONE);
        kinds
            .iter()
            .map(|kind| {
                let r = run_on_cfg(&inst, kind, &SimConfig::default());
                (r.total_profit, ub, r.completed(), r.expired())
            })
            .collect::<Vec<_>>()
    });
    for (k, kind) in kinds.iter().enumerate() {
        let rows: Vec<_> = per_seed.iter().map(|runs| runs[k]).collect();
        let n = rows.len() as f64;
        t.row(vec![
            kind.label(),
            f(rows.iter().map(|r| r.0 as f64).sum::<f64>() / n, 1),
            f(
                rows.iter()
                    .filter(|r| r.1 > 0)
                    .map(|r| r.0 as f64 / r.1 as f64)
                    .sum::<f64>()
                    / n,
                3,
            ),
            f(rows.iter().map(|r| r.2 as f64).sum::<f64>() / n, 1),
            f(rows.iter().map(|r| r.3 as f64).sum::<f64>() / n, 1),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpc_stream_is_valid_and_diverse() {
        let inst = instance(16, 60, 2.0, 3);
        assert_eq!(inst.len(), 60);
        // Parallelism diversity: some nearly-sequential (small wavefronts)
        // and some wide jobs.
        let ps: Vec<f64> = inst.jobs().iter().map(|j| j.dag.parallelism()).collect();
        let max = ps.iter().cloned().fold(f64::MIN, f64::max);
        let min = ps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 3.0, "no wide jobs (max parallelism {max})");
        assert!(min < 2.5, "no narrow jobs (min parallelism {min})");
    }

    #[test]
    fn all_schedulers_earn_on_hpc_streams() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.len(), 5);
        for i in 0..t.len() {
            let frac: f64 = t.cell(i, 2).parse().unwrap();
            assert!(frac > 0.0 && frac <= 1.0, "{}: frac {frac}", t.cell(i, 0));
        }
        // The work-conserving extension dominates plain S here too.
        let s: f64 = t.cell(0, 1).parse().unwrap();
        let swc: f64 = t.cell(1, 1).parse().unwrap();
        assert!(swc >= s, "S-wc {swc} < S {s}");
    }
}
