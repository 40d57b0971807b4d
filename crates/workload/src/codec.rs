//! Line-oriented text (de)serialization of instances.
//!
//! Experiments persist their generated instances so any run can be replayed
//! or inspected without the generator. The format is deliberately trivial —
//! whitespace-separated tokens, one concept per line — so diffs are readable
//! and no serialization dependency is needed:
//!
//! ```text
//! dagsched-instance v1
//! m 4
//! jobs 1
//! job 0
//! arrival 17
//! profit 2 0          # segment-count tail
//! seg 10 100          # bound value
//! seg 20 40
//! nodes 3
//! work 2 3 1
//! edges 2
//! edge 0 1
//! edge 1 2
//! end
//! ```

use crate::instance::Instance;
use crate::job::JobSpec;
use crate::profit::StepProfitFn;
use dagsched_core::{JobId, NodeId, Result, SchedError, Time, Work};
use dagsched_dag::DagBuilder;
use std::fmt::Write as _;

/// Serialize an instance to the v1 text format.
pub fn encode(inst: &Instance) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "dagsched-instance v1");
    let _ = writeln!(s, "m {}", inst.m());
    let _ = writeln!(s, "jobs {}", inst.len());
    for job in inst.jobs() {
        let _ = writeln!(s, "job {}", job.id.0);
        let _ = writeln!(s, "arrival {}", job.arrival);
        let segs = job.profit.segments();
        let _ = writeln!(s, "profit {} {}", segs.len(), job.profit.tail_value());
        for (b, v) in segs {
            let _ = writeln!(s, "seg {b} {v}");
        }
        let _ = writeln!(s, "nodes {}", job.dag.num_nodes());
        let works: Vec<String> = job
            .dag
            .node_works()
            .iter()
            .map(|w| w.units().to_string())
            .collect();
        let _ = writeln!(s, "work {}", works.join(" "));
        let _ = writeln!(s, "edges {}", job.dag.num_edges());
        for u in 0..job.dag.num_nodes() as u32 {
            for v in job.dag.successors(NodeId(u)) {
                let _ = writeln!(s, "edge {u} {}", v.0);
            }
        }
        let _ = writeln!(s, "end");
    }
    s
}

/// The fewest lines one job takes: `job`, `arrival`, `profit`, `nodes`,
/// `work`, `edges` and `end`.
const MIN_JOB_LINES: usize = 7;

/// A token cursor with line tracking for error messages.
struct Lines<'a> {
    inner: std::str::Lines<'a>,
    line_no: usize,
    total: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Lines<'a> {
        Lines {
            inner: text.lines(),
            line_no: 0,
            total: text.lines().count(),
        }
    }

    /// Check a count read from the input against the lines left to hold
    /// its items, `per_item` lines each, before anything is allocated for
    /// them: a header cannot ask for more items than the text contains.
    fn check_count(&self, what: &str, n: usize, per_item: usize) -> Result<()> {
        let remaining = self.total - self.line_no;
        if n.saturating_mul(per_item) > remaining {
            return Err(SchedError::InvalidInstance(format!(
                "line {}: {what} count {n} exceeds the {remaining} remaining line(s)",
                self.line_no
            )));
        }
        Ok(())
    }

    /// Next non-empty line, split into tokens (comments after `#` dropped).
    fn next_tokens(&mut self) -> Result<Vec<&'a str>> {
        loop {
            let line = self.inner.next().ok_or_else(|| {
                SchedError::Codec(format!(
                    "unexpected end of input after line {}",
                    self.line_no
                ))
            })?;
            self.line_no += 1;
            let body = line.split('#').next().unwrap_or("").trim();
            if !body.is_empty() {
                return Ok(body.split_whitespace().collect());
            }
        }
    }

    fn expect(&mut self, keyword: &str, arity: usize) -> Result<Vec<&'a str>> {
        let toks = self.next_tokens()?;
        if toks[0] != keyword || toks.len() != arity + 1 {
            return Err(SchedError::Codec(format!(
                "line {}: expected `{keyword}` with {arity} argument(s), got {:?}",
                self.line_no, toks
            )));
        }
        Ok(toks[1..].to_vec())
    }

    fn err(&self, msg: impl Into<String>) -> SchedError {
        SchedError::Codec(format!("line {}: {}", self.line_no, msg.into()))
    }
}

fn parse<T: std::str::FromStr>(tok: &str, lines: &Lines<'_>, what: &str) -> Result<T> {
    tok.parse()
        .map_err(|_| lines.err(format!("cannot parse {what} from {tok:?}")))
}

/// Parse the v1 text format.
pub fn decode(text: &str) -> Result<Instance> {
    let mut lines = Lines::new(text);
    let header = lines.next_tokens()?;
    if header != ["dagsched-instance", "v1"] {
        return Err(lines.err("missing `dagsched-instance v1` header"));
    }
    let m: u32 = parse(lines.expect("m", 1)?[0], &lines, "machine count")?;
    let n_jobs: usize = parse(lines.expect("jobs", 1)?[0], &lines, "job count")?;
    lines.check_count("job", n_jobs, MIN_JOB_LINES)?;
    let mut jobs = Vec::with_capacity(n_jobs);
    for expect_id in 0..n_jobs {
        let id: u32 = parse(lines.expect("job", 1)?[0], &lines, "job id")?;
        if id as usize != expect_id {
            return Err(lines.err(format!("job id {id}, expected {expect_id}")));
        }
        let arrival: u64 = parse(lines.expect("arrival", 1)?[0], &lines, "arrival")?;
        let p = lines.expect("profit", 2)?;
        let n_segs: usize = parse(p[0], &lines, "segment count")?;
        let tail: u64 = parse(p[1], &lines, "tail value")?;
        lines.check_count("segment", n_segs, 1)?;
        let mut segs = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            let s = lines.expect("seg", 2)?;
            segs.push((
                Time(parse(s[0], &lines, "segment bound")?),
                parse(s[1], &lines, "segment value")?,
            ));
        }
        let profit = StepProfitFn::steps(segs, tail)?;
        let n_nodes: usize = parse(lines.expect("nodes", 1)?[0], &lines, "node count")?;
        let w = lines.next_tokens()?;
        if w[0] != "work" || w.len() - 1 != n_nodes {
            return Err(lines.err(format!("expected `work` with {n_nodes} values")));
        }
        let mut builder = DagBuilder::with_capacity(n_nodes, 0);
        for tok in &w[1..] {
            builder.add_node(Work(parse(tok, &lines, "node work")?));
        }
        let n_edges: usize = parse(lines.expect("edges", 1)?[0], &lines, "edge count")?;
        for _ in 0..n_edges {
            let e = lines.expect("edge", 2)?;
            let from: u32 = parse(e[0], &lines, "edge source")?;
            let to: u32 = parse(e[1], &lines, "edge target")?;
            builder.add_edge(NodeId(from), NodeId(to))?;
        }
        lines.expect("end", 0)?;
        jobs.push(JobSpec::new(
            JobId(id),
            Time(arrival),
            builder.build()?.into_shared(),
            profit,
        ));
    }
    Instance::new(m, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ProfitShape, WorkloadGen};

    fn assert_instances_equal(a: &Instance, b: &Instance) {
        assert_eq!(a.m(), b.m());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.profit, y.profit);
            assert_eq!(*x.dag, *y.dag);
        }
    }

    #[test]
    fn round_trip_standard_workload() {
        let inst = WorkloadGen::standard(8, 30, 77).generate().unwrap();
        let text = encode(&inst);
        let back = decode(&text).unwrap();
        assert_instances_equal(&inst, &back);
        // And encoding is stable.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn round_trip_general_profit_workload() {
        let gen = WorkloadGen {
            shape: ProfitShape::SteppedDecay {
                extra_steps: 3,
                time_factor: 1.6,
                value_factor: 0.4,
            },
            ..WorkloadGen::standard(4, 20, 5)
        };
        let inst = gen.generate().unwrap();
        let back = decode(&encode(&inst)).unwrap();
        assert_instances_equal(&inst, &back);
    }

    #[test]
    fn decode_accepts_comments_and_blank_lines() {
        let text = "\
# a hand-written instance
dagsched-instance v1

m 2
jobs 1
job 0
arrival 3   # early
profit 1 0
seg 10 5
nodes 2
work 4 4
edges 1
edge 0 1
end
";
        let inst = decode(text).unwrap();
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.jobs()[0].work(), Work(8));
        assert_eq!(inst.jobs()[0].span(), Work(8));
        assert_eq!(inst.jobs()[0].rel_deadline(), Some(Time(10)));
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        assert!(decode("").is_err(), "empty");
        assert!(decode("not-a-header v1\n").is_err(), "bad header");
        let ok = "\
dagsched-instance v1
m 2
jobs 1
job 0
arrival 0
profit 1 0
seg 10 5
nodes 1
work 3
edges 0
end
";
        assert!(decode(ok).is_ok());
        for (broken, why) in [
            (ok.replace("m 2", "m x"), "non-numeric m"),
            (ok.replace("job 0", "job 1"), "wrong job id"),
            (ok.replace("seg 10 5", "seg 0 5"), "invalid profit bound"),
            (ok.replace("work 3", "work 3 4"), "work arity mismatch"),
            (ok.replace("edges 0", "edges 1"), "missing edge line"),
            (ok.replace("\nend\n", "\n"), "missing end"),
        ] {
            assert!(decode(&broken).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn decode_validates_dag_through_builder() {
        // An edge out of range must surface as an error, not a panic.
        let text = "\
dagsched-instance v1
m 1
jobs 1
job 0
arrival 0
profit 1 0
seg 5 1
nodes 1
work 2
edges 1
edge 0 7
end
";
        assert!(decode(text).is_err());
    }

    #[test]
    fn header_counts_beyond_the_input_are_rejected_before_allocating() {
        // The jobs and segment counts once went straight into
        // `Vec::with_capacity`, which aborts the process on a terabyte-sized
        // request.
        let huge_profit = "\
dagsched-instance v1
m 4
jobs 1
job 0
arrival 0
profit 99999999999 0
";
        let huge_jobs = "\
dagsched-instance v1
m 4
jobs 99999999999
job 0
arrival 0
profit 0 1
";
        // The node count is compared with the `work` line's length, never
        // incremented: `usize::MAX + 1` overflows.
        let max_nodes = "\
dagsched-instance v1
m 4
jobs 1
job 0
arrival 0
profit 1 0
seg 10 1
nodes 18446744073709551615
work 1
edges 0
end
";
        // The edge count only bounds the `edge` lines read; nothing is
        // reserved for it, so it runs out of input.
        let huge_edges = "\
dagsched-instance v1
m 4
jobs 1
job 0
arrival 0
profit 1 0
seg 10 1
nodes 2
work 1 1
edges 99999999999
edge 0 1
end
";
        for text in [huge_profit, huge_jobs] {
            assert!(
                matches!(decode(text), Err(SchedError::InvalidInstance(_))),
                "{text}"
            );
        }
        assert!(matches!(decode(max_nodes), Err(SchedError::Codec(_))));
        assert!(matches!(decode(huge_edges), Err(SchedError::Codec(_))));
    }

    /// Work totals that overflow `u64` across jobs are an error on decode
    /// (each job alone is valid); one unit less round-trips.
    #[test]
    fn work_totals_overflowing_u64_are_rejected() {
        let text = |second: u64| {
            format!(
                "\
dagsched-instance v1
m 1
jobs 2
job 0
arrival 0
profit 1 0
seg 10 1
nodes 1
work 9223372036854775808
edges 0
end
job 1
arrival 0
profit 1 0
seg 10 1
nodes 1
work {second}
edges 0
end
"
            )
        };
        let over = decode(&text(1 << 63));
        assert!(
            matches!(over, Err(SchedError::InvalidInstance(_))),
            "{over:?}"
        );
        let fits = text((1 << 63) - 1);
        let inst = decode(&fits).unwrap();
        assert_eq!(inst.total_work(), Work(u64::MAX));
        assert_eq!(encode(&inst), fits);
    }

    #[test]
    fn machine_counts_above_the_bound_are_rejected() {
        // The engine lays out one entry per processor, so an unbounded `m`
        // is an unbounded allocation.
        let text = |m: &str| {
            format!(
                "\
dagsched-instance v1
m {m}
jobs 1
job 0
arrival 0
profit 1 0
seg 10 1
nodes 1
work 1
edges 0
end
"
            )
        };
        assert!(decode(&text("65536")).is_ok());
        for m in ["65537", "4294967295"] {
            assert!(
                matches!(decode(&text(m)), Err(SchedError::InvalidInstance(_))),
                "m {m}"
            );
        }
    }
}
