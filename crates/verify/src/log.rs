//! JSONL event log: a replayable, diffable serialization of the stream.
//!
//! ## Cross-path byte-identity
//!
//! The reference path reports each tick as a width-1 window while the
//! fast-forward path reports whole stable stretches, so the raw streams
//! differ in granularity (and in nothing else — see the engine's
//! `observe` module docs). `EventLog` therefore **coalesces** adjacent
//! windows that are provably the same stable stretch — contiguous in time,
//! identical job view, identical allocation — by summing their widths and
//! per-job progress. After coalescing, the two paths serialize to
//! byte-identical JSONL, which the stream-equivalence tests assert over the
//! differential corpus.
//!
//! The format is deliberately dependency-free (hand-rolled JSON of integers
//! and fixed token strings — nothing needs escaping). The whole stream is
//! appended to one `String`: integers go through a small decimal writer and
//! fixed tokens through `push_str`, and the pending window's vectors are
//! reused across flushes, so logging a run allocates only while they grow.

use dagsched_core::{JobId, MachineGroups, NodeId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};
use std::fmt::Write as _;

/// The not-yet-flushed window, pending possible coalescing with its
/// successor. Its vectors keep their capacity from one window to the next.
#[derive(Debug, Default)]
struct PendingWindow {
    open: bool,
    at: Time,
    ticks: u64,
    jobs: Vec<(JobId, u32)>,
    alloc: Vec<(JobId, u32)>,
    progress: Vec<(JobId, u64)>,
}

/// Observer serializing the full event stream to JSON lines.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Every flushed line, each terminated by `'\n'`.
    out: String,
    window: PendingWindow,
}

/// Append `v` in decimal, exactly as `format!("{v}")` writes it.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append a fixed token followed by a decimal integer.
fn field(out: &mut String, token: &str, v: u64) {
    out.push_str(token);
    push_u64(out, v);
}

fn pairs<T: Copy + Into<u64>>(out: &mut String, items: &[(JobId, T)]) {
    out.push('[');
    for (i, &(id, v)) in items.iter().enumerate() {
        field(out, if i > 0 { ",[" } else { "[" }, id.0.into());
        field(out, ",", v.into());
        out.push(']');
    }
    out.push(']');
}

impl EventLog {
    /// Create an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The serialized lines, without their newlines. Complete only after
    /// `on_end` (which flushes the last pending window).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.out.lines()
    }

    /// The serialized stream so far, every line newline-terminated (empty
    /// before the first event).
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The whole log as one JSONL string (trailing newline included; a log
    /// with no lines is `"\n"`).
    pub fn to_jsonl(&self) -> String {
        if self.out.is_empty() {
            "\n".to_owned()
        } else {
            self.out.clone()
        }
    }

    /// [`to_jsonl`](EventLog::to_jsonl), moving the buffer out instead of
    /// copying it.
    pub fn into_jsonl(self) -> String {
        if self.out.is_empty() {
            "\n".to_owned()
        } else {
            self.out
        }
    }

    fn flush_window(&mut self) {
        let EventLog { out, window: w } = self;
        if !w.open {
            return;
        }
        w.open = false;
        field(out, r#"{"ev":"window","t":"#, w.at.ticks());
        field(out, r#","ticks":"#, w.ticks);
        out.push_str(r#","jobs":"#);
        pairs(out, &w.jobs);
        out.push_str(r#","alloc":"#);
        pairs(out, &w.alloc);
        out.push_str(r#","progress":"#);
        pairs(out, &w.progress);
        out.push_str("}\n");
    }
}

impl SimObserver for EventLog {
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        let out = &mut self.out;
        field(out, r#"{"ev":"start","m":"#, m.into());
        field(out, r#","speed":["#, speed.units_per_tick());
        field(out, ",", speed.work_scale());
        field(out, r#"],"horizon":"#, horizon.ticks());
        out.push_str("}\n");
    }

    fn on_platform(&mut self, groups: &MachineGroups) {
        // Fires only on non-uniform platforms, so uniform streams keep the
        // pre-group bytes.
        let out = &mut self.out;
        let _ = write!(out, r#"{{"ev":"platform","groups":"{groups}""#);
        field(out, r#","scale":"#, groups.work_scale());
        out.push_str(r#","units":["#);
        for (i, &u) in groups.units_per_group().iter().enumerate() {
            field(out, if i > 0 { "," } else { "" }, u);
        }
        out.push_str("]}\n");
    }

    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        self.flush_window();
        let out = &mut self.out;
        field(out, r#"{"ev":"arrive","t":"#, now.ticks());
        field(out, r#","job":"#, info.id.0.into());
        field(out, r#","w":"#, info.work.units());
        field(out, r#","l":"#, info.span.units());
        out.push_str(r#","profit":["#);
        for (i, &(t, p)) in info.profit.segments().iter().enumerate() {
            field(out, if i > 0 { ",[" } else { "[" }, t.ticks());
            field(out, ",", p);
            out.push(']');
        }
        field(out, r#"],"tail":"#, info.profit.tail_value());
        out.push_str("}\n");
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        self.flush_window();
        let (verdict, reason) = match event.decision {
            AdmissionDecision::Admitted => ("admitted", None),
            AdmissionDecision::Deferred(r) => ("deferred", Some(r)),
            AdmissionDecision::Rejected(r) => ("rejected", Some(r)),
        };
        let out = &mut self.out;
        field(out, r#"{"ev":"admission","t":"#, now.ticks());
        field(out, r#","job":"#, event.job.0.into());
        out.push_str(r#","decision":""#);
        out.push_str(verdict);
        out.push('"');
        if let Some(r) = reason {
            out.push_str(r#","reason":""#);
            out.push_str(r.token());
            out.push('"');
        }
        out.push_str("}\n");
    }

    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        let w = &mut self.window;
        // Same stable stretch: contiguous, same view, same allocation.
        if w.open && at == w.at.after(w.ticks) && w.jobs == jobs && w.alloc == alloc {
            w.ticks += ticks;
            for (acc, &(id, delta)) in w.progress.iter_mut().zip(progress) {
                debug_assert_eq!(acc.0, id);
                acc.1 += delta;
            }
            return;
        }
        self.flush_window();
        let w = &mut self.window;
        w.open = true;
        w.at = at;
        w.ticks = ticks;
        w.jobs.clear();
        w.jobs.extend_from_slice(jobs);
        w.alloc.clear();
        w.alloc.extend_from_slice(alloc);
        w.progress.clear();
        w.progress.extend_from_slice(progress);
    }

    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        self.flush_window();
        let out = &mut self.out;
        field(out, r#"{"ev":"node","t":"#, at.ticks());
        field(out, r#","job":"#, job.0.into());
        field(out, r#","node":"#, node.0.into());
        out.push_str("}\n");
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        self.flush_window();
        let out = &mut self.out;
        field(out, r#"{"ev":"complete","t":"#, at.ticks());
        field(out, r#","job":"#, job.0.into());
        field(out, r#","profit":"#, profit);
        out.push_str("}\n");
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        self.flush_window();
        let out = &mut self.out;
        field(out, r#"{"ev":"expire","t":"#, at.ticks());
        field(out, r#","job":"#, job.0.into());
        out.push_str("}\n");
    }

    fn on_end(&mut self, at: Time) {
        self.flush_window();
        field(&mut self.out, r#"{"ev":"end","t":"#, at.ticks());
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_identical_windows_coalesce() {
        let mut log = EventLog::new();
        log.on_start(2, Speed::ONE, Time(100));
        let jobs = [(JobId(0), 3u32)];
        let alloc = [(JobId(0), 2u32)];
        // Three width-1 windows of the same stable stretch...
        for t in 0..3u64 {
            log.on_window(Time(t), 1, &jobs, &alloc, &[(JobId(0), 2)]);
        }
        // ...then the allocation changes.
        log.on_window(Time(3), 1, &jobs, &[(JobId(0), 1)], &[(JobId(0), 1)]);
        log.on_end(Time(4));
        let windows: Vec<&str> = log
            .lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .collect();
        assert_eq!(windows.len(), 2, "3 + 1 ticks must fold into 2 windows");
        assert!(windows[0].contains(r#""ticks":3"#), "{}", windows[0]);
        assert!(
            windows[0].contains("[[0,6]]"),
            "summed progress: {}",
            windows[0]
        );
        assert!(windows[1].contains(r#""ticks":1"#));
    }

    #[test]
    fn non_contiguous_windows_do_not_coalesce() {
        let mut log = EventLog::new();
        let jobs = [(JobId(0), 1u32)];
        let alloc = [(JobId(0), 1u32)];
        log.on_window(Time(0), 1, &jobs, &alloc, &[(JobId(0), 1)]);
        // Gap at t=1 (idle skip): same alloc but not contiguous.
        log.on_window(Time(5), 1, &jobs, &alloc, &[(JobId(0), 1)]);
        log.on_end(Time(6));
        let windows = log
            .lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .count();
        assert_eq!(windows, 2);
    }

    #[test]
    fn every_event_kind_serializes_one_line() {
        use dagsched_core::Work;
        use dagsched_workload::StepProfitFn;
        let mut log = EventLog::new();
        log.on_start(4, Speed::new(3, 2).unwrap(), Time(50));
        log.on_job_arrival(
            Time(0),
            &JobInfo {
                id: JobId(1),
                arrival: Time(0),
                work: Work(10),
                span: Work(2),
                profit: StepProfitFn::deadline(Time(9), 4),
            },
        );
        log.on_admission(
            Time(0),
            AdmissionEvent {
                job: JobId(1),
                decision: AdmissionDecision::Admitted,
            },
        );
        log.on_window(
            Time(0),
            2,
            &[(JobId(1), 1)],
            &[(JobId(1), 1)],
            &[(JobId(1), 6)],
        );
        log.on_node_complete(Time(2), JobId(1), NodeId(0));
        log.on_job_complete(Time(3), JobId(1), 4);
        log.on_job_expired(Time(3), JobId(2));
        log.on_end(Time(3));
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains(r#""speed":[3,2]"#));
        assert!(lines[1].contains(r#""profit":[[9,4]]"#));
        assert!(lines[2].contains(r#""decision":"admitted""#));
        assert!(log.to_jsonl().ends_with("}\n"));
    }

    fn window_lines(log: &EventLog) -> Vec<&str> {
        log.lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .collect()
    }

    #[test]
    fn a_smaller_window_after_a_flush_leaves_no_stale_pairs() {
        let mut log = EventLog::new();
        let three = [(JobId(0), 1u32), (JobId(1), 1), (JobId(2), 1)];
        log.on_window(
            Time(0),
            1,
            &three,
            &three,
            &[(JobId(0), 1), (JobId(1), 1), (JobId(2), 1)],
        );
        log.on_node_complete(Time(1), JobId(1), NodeId(0));
        log.on_window(
            Time(1),
            2,
            &[(JobId(7), 2)],
            &[(JobId(7), 1)],
            &[(JobId(7), 2)],
        );
        log.on_end(Time(3));
        let windows = window_lines(&log);
        assert_eq!(
            windows[1],
            r#"{"ev":"window","t":1,"ticks":2,"jobs":[[7,2]],"alloc":[[7,1]],"progress":[[7,2]]}"#
        );
    }

    #[test]
    fn coalescing_after_a_flush_sums_only_the_new_window() {
        let mut log = EventLog::new();
        let jobs = [(JobId(0), 1u32)];
        let alloc = [(JobId(0), 1u32)];
        log.on_window(Time(0), 1, &jobs, &alloc, &[(JobId(0), 5)]);
        log.on_window(Time(1), 1, &jobs, &alloc, &[(JobId(0), 5)]);
        log.on_job_expired(Time(2), JobId(9));
        // A new stretch with the same view and allocation: it must start
        // from its own progress, not the flushed window's 10.
        log.on_window(Time(2), 1, &jobs, &alloc, &[(JobId(0), 3)]);
        log.on_window(Time(3), 1, &jobs, &alloc, &[(JobId(0), 4)]);
        log.on_end(Time(4));
        let windows = window_lines(&log);
        assert_eq!(windows.len(), 2);
        assert!(windows[0].contains(r#""ticks":2"#) && windows[0].contains("[[0,10]]"));
        assert!(windows[1].contains(r#""t":2,"ticks":2"#), "{}", windows[1]);
        assert!(
            windows[1].ends_with(r#""progress":[[0,7]]}"#),
            "{}",
            windows[1]
        );
    }

    #[test]
    fn an_empty_log_is_one_newline() {
        let log = EventLog::new();
        assert_eq!(log.as_str(), "");
        assert_eq!(log.lines().count(), 0);
        assert_eq!(log.to_jsonl(), "\n");
        assert_eq!(log.into_jsonl(), "\n");
    }

    #[test]
    fn decimal_writer_agrees_with_format() {
        for v in [0, 9, 10, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn jsonl_forms_agree() {
        let mut log = EventLog::new();
        log.on_start(1, Speed::ONE, Time(5));
        log.on_end(Time(5));
        let text = log.to_jsonl();
        assert_eq!(
            text,
            r#"{"ev":"start","m":1,"speed":[1,1],"horizon":5}
{"ev":"end","t":5}
"#
        );
        assert_eq!(log.as_str(), text);
        assert_eq!(log.into_jsonl(), text);
    }
}
