//! Randomized instance generation.
//!
//! Instances are built from four orthogonal knobs, each an enum so that
//! experiment configurations are plain data:
//!
//! * [`ArrivalProcess`] — when jobs arrive;
//! * [`DagFamily`] — what the job DAGs look like;
//! * [`DeadlinePolicy`] — how much slack deadlines get relative to the
//!   paper's per-job benchmark `(W−L)/m + L` (Theorem 2's condition is
//!   "slack factor ≥ 1+ε");
//! * [`ProfitPolicy`] + [`ProfitShape`] — how much finishing pays, and
//!   whether the payoff is a single deadline step or a decaying staircase
//!   (the Section 5 general-profit setting).
//!
//! All randomness flows from a single seed through [`Rng64`], so a
//! `WorkloadGen` value *is* the experiment input.

use crate::instance::Instance;
use crate::job::JobSpec;
use crate::profit::StepProfitFn;
use dagsched_core::{JobId, Result, Rng64, SchedError, Time};
use dagsched_dag::{gen as dgen, DagJobSpec};

/// When jobs arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Every job arrives at time 0 (a one-shot batch).
    AllAtOnce,
    /// Poisson process: exponential inter-arrival gaps with the given rate
    /// (jobs per tick), rounded to the tick grid.
    Poisson {
        /// Jobs per tick.
        rate: f64,
    },
    /// Fixed period with uniform jitter in `[0, jitter]`.
    Periodic {
        /// Base inter-arrival gap.
        period: u64,
        /// Maximum uniform release delay added per job.
        jitter: u64,
    },
    /// Bursts of `burst_size` simultaneous jobs separated by `gap` ticks.
    Bursty {
        /// Jobs per burst.
        burst_size: u32,
        /// Ticks between bursts.
        gap: u64,
    },
}

impl ArrivalProcess {
    /// Generate `n` non-decreasing arrival times.
    fn arrivals(&self, n: usize, rng: &mut Rng64) -> Vec<Time> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::AllAtOnce => out.resize(n, Time::ZERO),
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "poisson rate must be positive");
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += rng.exponential(rate);
                    out.push(Time(t as u64));
                }
            }
            ArrivalProcess::Periodic { period, jitter } => {
                for i in 0..n {
                    let j = if jitter > 0 {
                        rng.gen_range_inclusive(0, jitter)
                    } else {
                        0
                    };
                    out.push(Time(i as u64 * period + j));
                }
                out.sort_unstable();
            }
            ArrivalProcess::Bursty { burst_size, gap } => {
                assert!(burst_size >= 1);
                for i in 0..n {
                    let burst = i as u64 / burst_size as u64;
                    out.push(Time(burst * gap));
                }
            }
        }
        out
    }

    /// The Poisson rate that makes the *offered load* `λ·E[W]/m` equal to
    /// `rho` (load > 1 means overload).
    pub fn poisson_for_load(rho: f64, mean_work: f64, m: u32) -> ArrivalProcess {
        assert!(rho > 0.0 && mean_work > 0.0);
        ArrivalProcess::Poisson {
            rate: rho * m as f64 / mean_work,
        }
    }
}

/// What one job's DAG looks like. Ranges are sampled uniformly (inclusive).
#[derive(Debug, Clone, PartialEq)]
pub enum DagFamily {
    /// One sequential node.
    Single {
        /// Work range of the node.
        work: (u64, u64),
    },
    /// A chain (fully sequential: `W = L`).
    Chain {
        /// Chain length range (nodes).
        len: (u32, u32),
        /// Per-node work range.
        node_work: (u64, u64),
    },
    /// An independent block (embarrassingly parallel).
    Block {
        /// Block width range (nodes).
        width: (u32, u32),
        /// Per-node work range.
        node_work: (u64, u64),
    },
    /// Repeated fork-join segments (structured parallelism).
    ForkJoin {
        /// Segment count range.
        segments: (u32, u32),
        /// Fan-out range per segment.
        width: (u32, u32),
        /// Per-node work range.
        node_work: (u64, u64),
    },
    /// Random layered level-graphs.
    Layered {
        /// Layer count range.
        layers: (u32, u32),
        /// Per-layer width range.
        width: (u32, u32),
        /// Per-node work range.
        node_work: (u64, u64),
        /// Probability of each extra cross-layer edge.
        p_edge: f64,
    },
    /// Recursive series-parallel DAGs (Cilk-like).
    SeriesParallel {
        /// Approximate node-count range.
        nodes: (u32, u32),
        /// Per-node work range.
        node_work: (u64, u64),
    },
    /// Erdős–Rényi DAGs over a topological order.
    Random {
        /// Node-count range.
        n: (u32, u32),
        /// Forward-edge probability.
        p: f64,
        /// Per-node work range.
        node_work: (u64, u64),
    },
    /// The paper's Figure 1 adversarial job for machine size `m`.
    Fig1 {
        /// Machine size the construction targets.
        m: u32,
        /// Chain length range (nodes).
        chain_len: (u32, u32),
        /// Work per node.
        grain: u64,
    },
    /// Weighted mixture of families.
    Mixed(Vec<(f64, DagFamily)>),
}

impl DagFamily {
    /// Sample one DAG.
    pub fn sample(&self, rng: &mut Rng64) -> DagJobSpec {
        fn r32(rng: &mut Rng64, (lo, hi): (u32, u32)) -> u32 {
            rng.gen_range_inclusive(lo as u64, hi as u64) as u32
        }
        fn r64(rng: &mut Rng64, (lo, hi): (u64, u64)) -> u64 {
            rng.gen_range_inclusive(lo, hi)
        }
        match self {
            DagFamily::Single { work } => dgen::single(r64(rng, *work)),
            DagFamily::Chain { len, node_work } => {
                let len = r32(rng, *len);
                dgen::chain(len, r64(rng, *node_work))
            }
            DagFamily::Block { width, node_work } => {
                let width = r32(rng, *width);
                dgen::block(width, r64(rng, *node_work))
            }
            DagFamily::ForkJoin {
                segments,
                width,
                node_work,
            } => {
                let s = r32(rng, *segments);
                let w = r32(rng, *width);
                dgen::fork_join(s, w, r64(rng, *node_work))
            }
            DagFamily::Layered {
                layers,
                width,
                node_work,
                p_edge,
            } => {
                let layers = r32(rng, *layers);
                dgen::layered_random(rng, layers, *width, *node_work, *p_edge)
            }
            DagFamily::SeriesParallel { nodes, node_work } => {
                let n = r32(rng, *nodes);
                dgen::series_parallel(rng, n, *node_work)
            }
            DagFamily::Random { n, p, node_work } => {
                let n = r32(rng, *n);
                dgen::random_dag(rng, n, *p, *node_work)
            }
            DagFamily::Fig1 {
                m,
                chain_len,
                grain,
            } => dgen::fig1(*m, r32(rng, *chain_len), *grain),
            DagFamily::Mixed(parts) => {
                assert!(!parts.is_empty(), "mixture needs at least one family");
                let idx = rng.weighted_index(parts.iter().map(|(w, _)| *w));
                parts[idx].1.sample(rng)
            }
        }
    }

    /// A representative mixed workload: chains, blocks, fork-joins and
    /// layered DAGs in equal proportion — used as the default by the
    /// experiments.
    pub fn standard_mix(node_work: (u64, u64)) -> DagFamily {
        DagFamily::Mixed(vec![
            (
                1.0,
                DagFamily::Chain {
                    len: (3, 12),
                    node_work,
                },
            ),
            (
                1.0,
                DagFamily::Block {
                    width: (4, 32),
                    node_work,
                },
            ),
            (
                1.0,
                DagFamily::ForkJoin {
                    segments: (1, 4),
                    width: (2, 8),
                    node_work,
                },
            ),
            (
                1.0,
                DagFamily::Layered {
                    layers: (2, 5),
                    width: (1, 6),
                    node_work,
                    p_edge: 0.35,
                },
            ),
        ])
    }
}

/// How the relative deadline is set, as a multiple of the per-job benchmark
/// `brent = (W−L)/m + L` (the completion time `m` dedicated processors
/// guarantee greedily).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// `D = ceil(factor · brent)`. Theorem 2 requires `factor ≥ 1 + ε`.
    SlackFactor(f64),
    /// Per-job uniform slack factor in `[lo, hi)`.
    UniformSlack {
        /// Smallest slack factor.
        lo: f64,
        /// Largest slack factor (exclusive).
        hi: f64,
    },
    /// A fixed relative deadline for every job (can violate Theorem 2's
    /// condition — used by the lower-bound experiments).
    FixedRelative(u64),
}

impl DeadlinePolicy {
    fn rel_deadline(&self, brent: f64, rng: &mut Rng64) -> Time {
        let d = match *self {
            DeadlinePolicy::SlackFactor(f) => (f * brent).ceil(),
            DeadlinePolicy::UniformSlack { lo, hi } => (rng.gen_f64_range(lo, hi) * brent).ceil(),
            DeadlinePolicy::FixedRelative(d) => d as f64,
        };
        Time((d as u64).max(1))
    }
}

/// How much finishing a job pays (its maximum profit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfitPolicy {
    /// Every job pays the same.
    Uniform(u64),
    /// `p = ceil(density · W)`: constant profit *per unit of work*.
    ProportionalToWork {
        /// Profit per work unit.
        density: f64,
    },
    /// Per-job density uniform in `[lo, hi)`, `p = ceil(density · W)`.
    /// `hi/lo` is the paper's `δ`-style max/min density ratio.
    UniformDensity {
        /// Smallest density.
        lo: f64,
        /// Largest density (exclusive).
        hi: f64,
    },
    /// Density `base · k^{-s}`-ish via a Zipf draw over `classes` classes:
    /// a few very valuable jobs, many cheap ones.
    ZipfDensity {
        /// Number of Zipf classes.
        classes: u64,
        /// Zipf exponent.
        s: f64,
        /// Density scale.
        base: f64,
    },
    /// Per-job density log-uniform over `[lo, hi)`: spreads densities over
    /// many orders of magnitude, so scheduler S's running queue spans
    /// several `[v, c·v)` bands (the regime where its band capacity — not
    /// the machine size — is the binding constraint).
    LogUniformDensity {
        /// Smallest density.
        lo: f64,
        /// Largest density (exclusive).
        hi: f64,
    },
}

impl ProfitPolicy {
    fn profit(&self, work: f64, rng: &mut Rng64) -> u64 {
        let p = match *self {
            ProfitPolicy::Uniform(p) => return p.max(1),
            ProfitPolicy::ProportionalToWork { density } => density * work,
            ProfitPolicy::UniformDensity { lo, hi } => rng.gen_f64_range(lo, hi) * work,
            ProfitPolicy::ZipfDensity { classes, s, base } => {
                let k = rng.zipf(classes, s);
                base * k as f64 * work / classes as f64
            }
            ProfitPolicy::LogUniformDensity { lo, hi } => {
                assert!(lo > 0.0 && lo < hi);
                (rng.gen_f64_range(lo.ln(), hi.ln())).exp() * work
            }
        };
        (p.ceil() as u64).max(1)
    }
}

/// The shape of the profit function around the sampled deadline/profit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfitShape {
    /// A single step: full profit by the deadline, zero after (throughput).
    Deadline,
    /// Section 5 style staircase: full profit up to the deadline, then
    /// `extra_steps` further steps at times `D·time_factor^k` with values
    /// decaying by `value_factor` each step, then zero.
    SteppedDecay {
        /// Steps after the initial deadline.
        extra_steps: u32,
        /// Each step's bound is the previous times this (> 1).
        time_factor: f64,
        /// Each step's value is the previous times this (in (0, 1)).
        value_factor: f64,
    },
}

impl ProfitShape {
    fn build(&self, rel_deadline: Time, profit: u64) -> StepProfitFn {
        match *self {
            ProfitShape::Deadline => StepProfitFn::deadline(rel_deadline, profit),
            ProfitShape::SteppedDecay {
                extra_steps,
                time_factor,
                value_factor,
            } => {
                assert!(time_factor > 1.0 && value_factor < 1.0 && value_factor > 0.0);
                let mut segs = vec![(rel_deadline, profit)];
                let mut t = rel_deadline.as_f64();
                let mut v = profit as f64;
                for _ in 0..extra_steps {
                    t *= time_factor;
                    v *= value_factor;
                    let tv = Time((t.ceil() as u64).max(segs.last().unwrap().0.ticks() + 1));
                    let vv = (v.floor() as u64).min(segs.last().unwrap().1.saturating_sub(1));
                    if vv == 0 {
                        break;
                    }
                    segs.push((tv, vv));
                }
                StepProfitFn::steps(segs, 0).expect("constructed staircase is valid")
            }
        }
    }
}

/// A complete, seeded instance generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGen {
    /// Machine size the deadlines are calibrated against (and the instance
    /// records).
    pub m: u32,
    /// Number of jobs.
    pub n_jobs: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// DAG family.
    pub family: DagFamily,
    /// Deadline slack policy.
    pub deadlines: DeadlinePolicy,
    /// Profit magnitude policy.
    pub profits: ProfitPolicy,
    /// Profit function shape.
    pub shape: ProfitShape,
}

impl WorkloadGen {
    /// A reasonable default configuration to tweak from: `n` mixed-shape
    /// jobs, Poisson arrivals at load 1.0, Theorem-2 slack `1+ε = 2`,
    /// work-proportional profits, deadline-shaped payoff.
    pub fn standard(m: u32, n_jobs: usize, seed: u64) -> WorkloadGen {
        let family = DagFamily::standard_mix((1, 8));
        WorkloadGen {
            m,
            n_jobs,
            seed,
            arrivals: ArrivalProcess::Poisson { rate: 0.05 },
            family,
            deadlines: DeadlinePolicy::SlackFactor(2.0),
            profits: ProfitPolicy::ProportionalToWork { density: 1.0 },
            shape: ProfitShape::Deadline,
        }
    }

    /// Generate the instance.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidInstance`] if `n_jobs` exceeds the [`JobId`]
    /// range, or if [`Instance::new`] rejects the result.
    pub fn generate(&self) -> Result<Instance> {
        check_job_count(self.n_jobs)?;
        let mut rng = Rng64::seed_from(self.seed);
        let arrivals = self.arrivals.arrivals(self.n_jobs, &mut rng);
        let mut jobs = Vec::with_capacity(self.n_jobs);
        for (i, arrival) in arrivals.into_iter().enumerate() {
            let dag = self.family.sample(&mut rng).into_shared();
            let brent = {
                let w = dag.total_work().as_f64();
                let l = dag.span().as_f64();
                (w - l) / self.m as f64 + l
            };
            let d = self.deadlines.rel_deadline(brent, &mut rng);
            let p = self.profits.profit(dag.total_work().as_f64(), &mut rng);
            let profit = self.shape.build(d, p);
            jobs.push(JobSpec::new(JobId(i as u32), arrival, dag, profit));
        }
        Instance::new(self.m, jobs)
    }
}

/// A generator numbers its jobs `0..n`: refuse an `n` whose ids would not
/// fit a [`JobId`].
pub(crate) fn check_job_count(n: usize) -> Result<()> {
    if u32::try_from(n).is_err() {
        return Err(SchedError::InvalidInstance(format!(
            "{n} jobs exceed the job id range (at most {})",
            u32::MAX
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_counts_beyond_the_job_id_range_are_errors() {
        for n in [u32::MAX as usize + 1, usize::MAX] {
            let gen = WorkloadGen::standard(8, n, 1);
            assert!(
                matches!(gen.generate(), Err(SchedError::InvalidInstance(ref e)) if e.contains("job id")),
                "n = {n}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = WorkloadGen::standard(8, 50, 1234);
        let a = g.generate().unwrap();
        let b = g.generate().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.work(), y.work());
            assert_eq!(x.span(), y.span());
            assert_eq!(x.profit, y.profit);
        }
        let c = WorkloadGen { seed: 99, ..g }.generate().unwrap();
        let differs = a
            .jobs()
            .iter()
            .zip(c.jobs())
            .any(|(x, y)| x.work() != y.work() || x.arrival != y.arrival);
        assert!(differs, "different seeds give different instances");
    }

    #[test]
    fn arrival_processes_are_sorted_and_shaped() {
        let mut rng = Rng64::seed_from(5);
        for p in [
            ArrivalProcess::AllAtOnce,
            ArrivalProcess::Poisson { rate: 0.3 },
            ArrivalProcess::Periodic {
                period: 10,
                jitter: 3,
            },
            ArrivalProcess::Bursty {
                burst_size: 4,
                gap: 20,
            },
        ] {
            let ts = p.arrivals(40, &mut rng);
            assert_eq!(ts.len(), 40);
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{p:?} unsorted");
        }
        // Bursts: first 4 at 0, next 4 at 20.
        let ts = ArrivalProcess::Bursty {
            burst_size: 4,
            gap: 20,
        }
        .arrivals(8, &mut rng);
        assert_eq!(ts[3], Time(0));
        assert_eq!(ts[4], Time(20));
        // AllAtOnce: everything at zero.
        let ts = ArrivalProcess::AllAtOnce.arrivals(3, &mut rng);
        assert!(ts.iter().all(|t| *t == Time::ZERO));
    }

    #[test]
    fn poisson_for_load_hits_target_rate() {
        let p = ArrivalProcess::poisson_for_load(2.0, 50.0, 10);
        match p {
            ArrivalProcess::Poisson { rate } => assert!((rate - 0.4).abs() < 1e-12),
            _ => unreachable!(),
        }
    }

    #[test]
    fn deadline_policies_scale_brent() {
        let mut rng = Rng64::seed_from(6);
        let brent = 40.0;
        assert_eq!(
            DeadlinePolicy::SlackFactor(1.5).rel_deadline(brent, &mut rng),
            Time(60)
        );
        assert_eq!(
            DeadlinePolicy::FixedRelative(7).rel_deadline(brent, &mut rng),
            Time(7)
        );
        for _ in 0..100 {
            let d = DeadlinePolicy::UniformSlack { lo: 1.0, hi: 2.0 }.rel_deadline(brent, &mut rng);
            assert!(d >= Time(40) && d <= Time(80));
        }
    }

    #[test]
    fn profit_policies_respect_shape() {
        let mut rng = Rng64::seed_from(7);
        assert_eq!(ProfitPolicy::Uniform(9).profit(123.0, &mut rng), 9);
        assert_eq!(
            ProfitPolicy::ProportionalToWork { density: 2.0 }.profit(10.0, &mut rng),
            20
        );
        for _ in 0..50 {
            let p = ProfitPolicy::UniformDensity { lo: 1.0, hi: 3.0 }.profit(10.0, &mut rng);
            assert!((10..=30).contains(&p));
        }
        // Zipf: all positive.
        for _ in 0..50 {
            assert!(
                ProfitPolicy::ZipfDensity {
                    classes: 8,
                    s: 1.1,
                    base: 4.0
                }
                .profit(10.0, &mut rng)
                    >= 1
            );
        }
        // Log-uniform: within bounds and spanning decades.
        let pol = ProfitPolicy::LogUniformDensity {
            lo: 1.0,
            hi: 10_000.0,
        };
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            let p = pol.profit(10.0, &mut rng);
            assert!((10..=100_000).contains(&p));
            if p < 100 {
                lo_seen = true;
            }
            if p > 10_000 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen, "log-uniform must span the range");
    }

    #[test]
    fn stepped_decay_builds_valid_staircases() {
        let shape = ProfitShape::SteppedDecay {
            extra_steps: 3,
            time_factor: 1.5,
            value_factor: 0.5,
        };
        let f = shape.build(Time(10), 100);
        assert_eq!(f.max_profit(), 100);
        assert_eq!(f.flat_until(), Time(10));
        assert!(f.segments().len() >= 2);
        // strictly increasing bounds, strictly decreasing values (validated
        // by the StepProfitFn constructor; spot-check evaluation).
        assert!(f.eval(Time(11)) < 100);
        assert_eq!(f.eval(Time(10_000)), 0);
        // Tiny profits collapse gracefully to fewer steps.
        let f = shape.build(Time(3), 1);
        assert_eq!(f.segments().len(), 1);
    }

    #[test]
    fn generate_respects_theorem2_condition_when_asked() {
        let g = WorkloadGen {
            deadlines: DeadlinePolicy::SlackFactor(1.75),
            ..WorkloadGen::standard(8, 60, 42)
        };
        let inst = g.generate().unwrap();
        for j in inst.jobs() {
            let brent = j.brent_bound(8);
            let d = j.rel_deadline().unwrap().as_f64();
            assert!(
                d >= 1.75 * brent - 1.0,
                "deadline {d} below (1+eps)*brent = {}",
                1.75 * brent
            );
        }
    }

    #[test]
    fn mixed_family_samples_every_member() {
        let fam = DagFamily::Mixed(vec![
            (
                1.0,
                DagFamily::Chain {
                    len: (5, 5),
                    node_work: (1, 1),
                },
            ),
            (
                1.0,
                DagFamily::Block {
                    width: (5, 5),
                    node_work: (1, 1),
                },
            ),
        ]);
        let mut rng = Rng64::seed_from(8);
        let mut saw_chain = false;
        let mut saw_block = false;
        for _ in 0..60 {
            let d = fam.sample(&mut rng);
            if d.span().units() == 5 {
                saw_chain = true;
            } else if d.span().units() == 1 {
                saw_block = true;
            }
        }
        assert!(saw_chain && saw_block);
    }
}
