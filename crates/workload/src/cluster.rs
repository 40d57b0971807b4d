//! A cluster-trace-like workload: the closest synthetic equivalent to the
//! production traces a systems evaluation of this scheduler would use
//! (per DESIGN.md's substitution policy — no proprietary traces are
//! available, so we model their published *shape*):
//!
//! * **diurnal arrivals** — a Poisson process whose rate follows a
//!   sinusoidal day/night cycle (implemented by thinning);
//! * **heavy-tailed job sizes** — log-normal work multipliers, so a few
//!   jobs dominate total work;
//! * **job classes** — a mix of *interactive* (small fork-join DAGs, tight
//!   deadlines, high value density), *pipeline* (medium series-parallel,
//!   medium slack) and *batch* (large layered DAGs, loose deadlines, low
//!   density).
//!
//! All knobs have defaults chosen so `ClusterTraceGen::new(m, n, seed)`
//! produces something recognizably trace-shaped out of the box.

use crate::gen::check_job_count;
use crate::instance::Instance;
use crate::job::JobSpec;
use crate::profit::StepProfitFn;
use dagsched_core::{JobId, Result, Rng64, SchedError, Time};
use dagsched_dag::gen as dgen;

/// Per-class shape knobs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSpec {
    /// Probability weight of the class in the mix.
    pub weight: f64,
    /// Deadline slack factor over `(W−L)/m + L`.
    pub slack: f64,
    /// Profit per unit of work.
    pub density: f64,
}

/// A seeded cluster-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTraceGen {
    /// Machine size deadlines are calibrated against.
    pub m: u32,
    /// Number of jobs to emit.
    pub n_jobs: usize,
    /// Master seed.
    pub seed: u64,
    /// Ticks per simulated day (the diurnal period).
    pub day_ticks: u64,
    /// Peak arrival rate (jobs/tick) at the top of the cycle.
    pub peak_rate: f64,
    /// Night-to-peak rate ratio in (0, 1].
    pub trough_ratio: f64,
    /// σ of the log-normal work multiplier (tail heaviness).
    pub size_sigma: f64,
    /// The interactive class (small fork-join, tight deadlines, high value).
    pub interactive: ClassSpec,
    /// The pipeline class (medium series-parallel, medium slack).
    pub pipeline: ClassSpec,
    /// The batch class (large layered DAGs, loose deadlines, low value).
    pub batch: ClassSpec,
}

impl ClusterTraceGen {
    /// Trace-shaped defaults for a machine of `m` processors.
    pub fn new(m: u32, n_jobs: usize, seed: u64) -> ClusterTraceGen {
        ClusterTraceGen {
            m,
            n_jobs,
            seed,
            day_ticks: 2_000,
            peak_rate: 0.08 * m as f64 / 8.0,
            trough_ratio: 0.25,
            size_sigma: 1.0,
            interactive: ClassSpec {
                weight: 0.5,
                slack: 1.6,
                density: 8.0,
            },
            pipeline: ClassSpec {
                weight: 0.3,
                slack: 2.5,
                density: 3.0,
            },
            batch: ClassSpec {
                weight: 0.2,
                slack: 4.0,
                density: 1.0,
            },
        }
    }

    /// Instantaneous arrival rate at tick `t` (sinusoidal diurnal cycle).
    pub fn rate_at(&self, t: u64) -> f64 {
        let phase = (t % self.day_ticks) as f64 / self.day_ticks as f64;
        let wave = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos()); // 0..1
        let floor = self.trough_ratio * self.peak_rate;
        floor + (self.peak_rate - floor) * wave
    }

    /// Generate the instance.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidInstance`] if `m` is zero, `n_jobs` exceeds
    /// the [`JobId`] range, the peak rate is not positive and finite, or
    /// the trough ratio is outside `(0, 1]`.
    pub fn generate(&self) -> Result<Instance> {
        let invalid = |msg: String| Err(SchedError::InvalidInstance(msg));
        if self.m == 0 {
            return invalid("m must be positive".into());
        }
        check_job_count(self.n_jobs)?;
        if !(self.peak_rate.is_finite() && self.peak_rate > 0.0) {
            return invalid(format!(
                "peak arrival rate must be positive and finite, got {}",
                self.peak_rate
            ));
        }
        if !(self.trough_ratio > 0.0 && self.trough_ratio <= 1.0) {
            return invalid(format!(
                "trough ratio must be in (0, 1], got {}",
                self.trough_ratio
            ));
        }
        let mut rng = Rng64::seed_from(self.seed);
        let mut jobs = Vec::with_capacity(self.n_jobs);
        // Thinning: candidate events at the peak rate, accepted with
        // probability rate(t)/peak.
        let mut t = 0.0f64;
        let mut emitted = 0usize;
        while emitted < self.n_jobs {
            t += rng.exponential(self.peak_rate);
            let tick = t as u64;
            if !rng.gen_bool(self.rate_at(tick) / self.peak_rate) {
                continue;
            }
            let (class, dag) = self.sample_job(&mut rng);
            let w = dag.total_work().as_f64();
            let l = dag.span().as_f64();
            let brent = (w - l) / self.m as f64 + l;
            let d = Time(((class.slack * brent).ceil() as u64).max(1));
            let p = ((class.density * w).ceil() as u64).max(1);
            jobs.push(JobSpec::new(
                JobId(emitted as u32),
                Time(tick),
                dag.into_shared(),
                StepProfitFn::deadline(d, p),
            ));
            emitted += 1;
        }
        Instance::new(self.m, jobs)
    }

    /// Sample one job: pick a class, then a DAG with a heavy-tailed size
    /// multiplier applied to its node count.
    fn sample_job(&self, rng: &mut Rng64) -> (ClassSpec, dagsched_dag::DagJobSpec) {
        let weights = [
            self.interactive.weight,
            self.pipeline.weight,
            self.batch.weight,
        ];
        let class_idx = rng.weighted_index(weights);
        // Log-normal size multiplier, clamped to keep instances laptop-scale.
        let mult = rng.log_normal(0.0, self.size_sigma).clamp(0.2, 20.0);
        let scale = |base: u32| ((base as f64 * mult).round() as u32).max(1);
        match class_idx {
            0 => {
                let dag = dgen::fork_join(
                    rng.gen_range_inclusive(1, 2) as u32,
                    scale(4).min(64),
                    rng.gen_range_inclusive(1, 3),
                );
                (self.interactive, dag)
            }
            1 => {
                let dag = dgen::series_parallel(rng, scale(10).min(200), (1, 5));
                (self.pipeline, dag)
            }
            _ => {
                let layers = rng.gen_range_inclusive(3, 6) as u32;
                let dag =
                    dgen::layered_random(rng, layers, (2, scale(6).clamp(2, 40)), (2, 8), 0.3);
                (self.batch, dag)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g = ClusterTraceGen::new(16, 80, 7);
        let a = g.generate().unwrap();
        let b = g.generate().unwrap();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.work(), y.work());
            assert_eq!(x.profit, y.profit);
        }
        let c = ClusterTraceGen { seed: 8, ..g }.generate().unwrap();
        assert!(a
            .jobs()
            .iter()
            .zip(c.jobs())
            .any(|(x, y)| x.arrival != y.arrival || x.work() != y.work()));
    }

    #[test]
    fn diurnal_rate_shape() {
        let g = ClusterTraceGen::new(8, 10, 1);
        let peak = g.rate_at(g.day_ticks / 2);
        let trough = g.rate_at(0);
        assert!((peak - g.peak_rate).abs() < 1e-9, "mid-cycle is the peak");
        assert!(
            (trough - g.trough_ratio * g.peak_rate).abs() < 1e-9,
            "cycle start is the trough"
        );
        assert!(g.rate_at(g.day_ticks / 4) > trough);
        assert!(g.rate_at(g.day_ticks / 4) < peak);
        // Periodicity.
        assert_eq!(g.rate_at(17), g.rate_at(17 + g.day_ticks));
    }

    #[test]
    fn arrivals_cluster_around_the_peak() {
        let g = ClusterTraceGen::new(8, 400, 3);
        let inst = g.generate().unwrap();
        // Bucket arrivals by day phase halves: the half around the peak
        // (2nd and 3rd quarters) must clearly dominate.
        let mut peak_half = 0u32;
        let mut trough_half = 0u32;
        for j in inst.jobs() {
            let phase = j.arrival.ticks() % g.day_ticks;
            if (g.day_ticks / 4..3 * g.day_ticks / 4).contains(&phase) {
                peak_half += 1;
            } else {
                trough_half += 1;
            }
        }
        assert!(
            peak_half as f64 > 1.3 * trough_half as f64,
            "peak {peak_half} vs trough {trough_half}"
        );
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let inst = ClusterTraceGen::new(8, 300, 11).generate().unwrap();
        let mut works: Vec<u64> = inst.jobs().iter().map(|j| j.work().units()).collect();
        works.sort_unstable();
        let median = works[works.len() / 2];
        let max = *works.last().unwrap();
        assert!(
            max as f64 > 8.0 * median as f64,
            "max {max} vs median {median}: tail too light"
        );
    }

    #[test]
    fn all_classes_appear_and_deadlines_scale_with_class() {
        let inst = ClusterTraceGen::new(8, 300, 13).generate().unwrap();
        // Interactive jobs (density 8) and batch jobs (density 1) both exist:
        // detect via profit/work ratio.
        let mut high = 0;
        let mut low = 0;
        for j in inst.jobs() {
            let dens = j.max_profit() as f64 / j.work().as_f64();
            if dens > 6.0 {
                high += 1;
            }
            if dens < 1.5 {
                low += 1;
            }
        }
        assert!(high > 10, "interactive class missing ({high})");
        assert!(low > 10, "batch class missing ({low})");
    }

    #[test]
    fn generated_instance_is_simulatable() {
        use dagsched_core::Speed;
        let inst = ClusterTraceGen::new(8, 100, 17).generate().unwrap();
        let stats = inst.stats();
        assert_eq!(stats.n_jobs, 100);
        assert!(stats.load_factor > 0.0);
        let _ = Speed::ONE; // engine-side integration lives in root tests
    }

    #[test]
    fn job_counts_beyond_the_job_id_range_are_errors() {
        for n in [u32::MAX as usize + 1, usize::MAX] {
            let gen = ClusterTraceGen::new(1, n, 1);
            assert!(
                matches!(gen.generate(), Err(SchedError::InvalidInstance(ref e)) if e.contains("job id")),
                "n = {n}"
            );
        }
    }

    #[test]
    fn out_of_range_knobs_are_errors() {
        let base = ClusterTraceGen::new(8, 10, 1);
        for gen in [
            ClusterTraceGen::new(0, 10, 1),
            ClusterTraceGen {
                peak_rate: f64::INFINITY,
                ..base.clone()
            },
            ClusterTraceGen {
                trough_ratio: 0.0,
                ..base.clone()
            },
            ClusterTraceGen {
                trough_ratio: 1.5,
                ..base
            },
        ] {
            assert!(
                matches!(gen.generate(), Err(SchedError::InvalidInstance(_))),
                "{gen:?}"
            );
        }
    }
}
