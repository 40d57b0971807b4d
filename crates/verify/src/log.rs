//! Event log: a replayable, diffable record of the stream, rendered as
//! JSONL on demand.
//!
//! ## Cross-path byte-identity
//!
//! The reference path reports each tick as a width-1 window while the
//! fast-forward path reports whole stable stretches, so the raw streams
//! differ in granularity (and in nothing else — see the engine's
//! `observe` module docs). `EventLog` therefore **coalesces** adjacent
//! windows that are provably the same stable stretch — contiguous in time,
//! identical job view, identical allocation — by summing their widths and
//! per-job progress. After coalescing, the two paths record equal logs and
//! serialize to byte-identical JSONL, which the stream-equivalence tests
//! assert over the differential corpus.
//!
//! ## Tokens, not text
//!
//! The log records the coalesced stream as `u64` tokens: each event is a
//! tag followed by its fields, and every variable-length part — a window's
//! pair lists, a profit function's segments, the platform's units and its
//! group string (packed eight bytes to a token) — is preceded by its
//! length. Records are therefore self-delimiting and the token stream is
//! an injective encoding of the JSONL text: two logs compare equal (`==`)
//! exactly when they render the same text. Comparing two runs costs one
//! slice comparison; the text is written only when asked for
//! ([`EventLog::to_jsonl`]), in the dependency-free hand-rolled JSON of
//! integers and fixed token strings (nothing needs escaping). The pending
//! window's vectors are reused across flushes, so logging a run allocates
//! only while those vectors and the token vector grow.

use dagsched_core::{JobId, MachineGroups, NodeId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, AdmissionReason, JobInfo, SimObserver};

/// Record tags, one per event kind.
const START: u64 = 0;
const PLATFORM: u64 = 1;
const ARRIVE: u64 = 2;
const ADMISSION: u64 = 3;
const WINDOW: u64 = 4;
const NODE: u64 = 5;
const COMPLETE: u64 = 6;
const EXPIRE: u64 = 7;
const END: u64 = 8;

/// Admission verdicts by token value.
const VERDICTS: [&str; 3] = ["admitted", "deferred", "rejected"];

/// Admission reasons by token value (the inverse of [`reason_code`]).
const REASONS: [AdmissionReason; 7] = [
    AdmissionReason::BandCapacity,
    AdmissionReason::NotDeltaGood,
    AdmissionReason::Infeasible,
    AdmissionReason::DemandBound,
    AdmissionReason::SpanInfeasible,
    AdmissionReason::DeadlinePassed,
    AdmissionReason::Unconditional,
];

fn reason_code(r: AdmissionReason) -> u64 {
    match r {
        AdmissionReason::BandCapacity => 0,
        AdmissionReason::NotDeltaGood => 1,
        AdmissionReason::Infeasible => 2,
        AdmissionReason::DemandBound => 3,
        AdmissionReason::SpanInfeasible => 4,
        AdmissionReason::DeadlinePassed => 5,
        AdmissionReason::Unconditional => 6,
    }
}

/// The not-yet-flushed window, pending possible coalescing with its
/// successor. Its vectors keep their capacity from one window to the next;
/// a flush resets every field, so a closed window always compares equal to
/// the default one.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PendingWindow {
    open: bool,
    at: Time,
    ticks: u64,
    jobs: Vec<(JobId, u32)>,
    alloc: Vec<(JobId, u32)>,
    progress: Vec<(JobId, u64)>,
}

/// Observer recording the full event stream, rendered as JSON lines by
/// [`to_jsonl`](EventLog::to_jsonl).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// Every flushed record, as tag-first tokens.
    tokens: Vec<u64>,
    window: PendingWindow,
}

fn push_pairs<T: Copy + Into<u64>>(tokens: &mut Vec<u64>, items: &[(JobId, T)]) {
    tokens.push(items.len() as u64);
    for &(id, v) in items {
        tokens.extend_from_slice(&[id.0.into(), v.into()]);
    }
}

/// Append `w` as a window record and reset it to the closed default.
fn flush_into(tokens: &mut Vec<u64>, w: &mut PendingWindow) {
    tokens.extend_from_slice(&[WINDOW, w.at.ticks(), w.ticks]);
    push_pairs(tokens, &w.jobs);
    push_pairs(tokens, &w.alloc);
    push_pairs(tokens, &w.progress);
    w.open = false;
    w.at = Time::default();
    w.ticks = 0;
    w.jobs.clear();
    w.alloc.clear();
    w.progress.clear();
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

/// A cursor over complete records.
struct Reader<'a>(std::slice::Iter<'a, u64>);

impl Reader<'_> {
    fn next(&mut self) -> u64 {
        *self.0.next().expect("records are complete")
    }

    /// Render a length-prefixed pair list: `[[id,v],…]`.
    fn pairs(&mut self, out: &mut String) {
        out.push('[');
        for i in 0..self.next() {
            field(out, if i > 0 { ",[" } else { "[" }, self.next());
            field(out, ",", self.next());
            out.push(']');
        }
        out.push(']');
    }
}

/// Render every record in `tokens`, one newline-terminated line each.
fn render(tokens: &[u64], out: &mut String) {
    let mut r = Reader(tokens.iter());
    while let Some(&tag) = r.0.next() {
        match tag {
            START => {
                field(out, r#"{"ev":"start","m":"#, r.next());
                field(out, r#","speed":["#, r.next());
                field(out, ",", r.next());
                field(out, r#"],"horizon":"#, r.next());
            }
            PLATFORM => {
                out.push_str(r#"{"ev":"platform","groups":""#);
                let len = r.next() as usize;
                let mut bytes = Vec::with_capacity(len.next_multiple_of(8));
                for _ in 0..len.div_ceil(8) {
                    bytes.extend_from_slice(&r.next().to_le_bytes());
                }
                bytes.truncate(len);
                out.push_str(std::str::from_utf8(&bytes).expect("group spec is UTF-8"));
                field(out, r#"","scale":"#, r.next());
                out.push_str(r#","units":["#);
                for i in 0..r.next() {
                    field(out, if i > 0 { "," } else { "" }, r.next());
                }
                out.push(']');
            }
            ARRIVE => {
                field(out, r#"{"ev":"arrive","t":"#, r.next());
                field(out, r#","job":"#, r.next());
                field(out, r#","w":"#, r.next());
                field(out, r#","l":"#, r.next());
                out.push_str(r#","profit":"#);
                r.pairs(out);
                field(out, r#","tail":"#, r.next());
            }
            ADMISSION => {
                field(out, r#"{"ev":"admission","t":"#, r.next());
                field(out, r#","job":"#, r.next());
                let verdict = r.next() as usize;
                let reason = r.next() as usize;
                out.push_str(r#","decision":""#);
                out.push_str(VERDICTS[verdict]);
                out.push('"');
                if verdict > 0 {
                    out.push_str(r#","reason":""#);
                    out.push_str(REASONS[reason].token());
                    out.push('"');
                }
            }
            WINDOW => {
                field(out, r#"{"ev":"window","t":"#, r.next());
                field(out, r#","ticks":"#, r.next());
                out.push_str(r#","jobs":"#);
                r.pairs(out);
                out.push_str(r#","alloc":"#);
                r.pairs(out);
                out.push_str(r#","progress":"#);
                r.pairs(out);
            }
            NODE => {
                field(out, r#"{"ev":"node","t":"#, r.next());
                field(out, r#","job":"#, r.next());
                field(out, r#","node":"#, r.next());
            }
            COMPLETE => {
                field(out, r#"{"ev":"complete","t":"#, r.next());
                field(out, r#","job":"#, r.next());
                field(out, r#","profit":"#, r.next());
            }
            EXPIRE => {
                field(out, r#"{"ev":"expire","t":"#, r.next());
                field(out, r#","job":"#, r.next());
            }
            END => field(out, r#"{"ev":"end","t":"#, r.next()),
            _ => unreachable!("unknown record tag {tag}"),
        }
        out.push_str("}\n");
    }
}

impl EventLog {
    /// Create an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The stream so far as JSONL, one newline-terminated line per event; a
    /// window still open for coalescing renders as it stands. A log with no
    /// events is `"\n"`. Complete after `on_end`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        render(&self.tokens, &mut out);
        if self.window.open {
            let mut tail = Vec::new();
            flush_into(&mut tail, &mut self.window.clone());
            render(&tail, &mut out);
        }
        if out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// [`to_jsonl`](EventLog::to_jsonl), consuming the log.
    pub fn into_jsonl(self) -> String {
        self.to_jsonl()
    }

    /// Describe where this log's JSONL first differs from `other`'s: the
    /// line index and both lines (each cut at 120 characters), or, when one
    /// rendering is a prefix of the other, both line counts. Renders both
    /// logs: it is meant for failure reports.
    pub fn first_diff(&self, other: &EventLog) -> String {
        let (a, b) = (self.to_jsonl(), other.to_jsonl());
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            if la != lb {
                return format!("line {i}: {la:.120} != {lb:.120}");
            }
        }
        format!(
            "streams are a prefix of each other ({} vs {} lines)",
            a.lines().count(),
            b.lines().count()
        )
    }

    fn flush_window(&mut self) {
        if self.window.open {
            flush_into(&mut self.tokens, &mut self.window);
        }
    }

    /// Flush the pending window and append one fixed-size record.
    fn record(&mut self, fields: &[u64]) {
        self.flush_window();
        self.tokens.extend_from_slice(fields);
    }
}

impl SimObserver for EventLog {
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        self.record(&[
            START,
            m.into(),
            speed.units_per_tick(),
            speed.work_scale(),
            horizon.ticks(),
        ]);
    }

    fn on_platform(&mut self, groups: &MachineGroups) {
        // Fires only on non-uniform platforms, so uniform streams keep the
        // pre-group bytes.
        let spec = groups.to_string();
        self.record(&[PLATFORM, spec.len() as u64]);
        let t = &mut self.tokens;
        for chunk in spec.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            t.push(u64::from_le_bytes(word));
        }
        let units = groups.units_per_group();
        t.extend_from_slice(&[groups.work_scale(), units.len() as u64]);
        t.extend_from_slice(units);
    }

    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        self.record(&[
            ARRIVE,
            now.ticks(),
            info.id.0.into(),
            info.work.units(),
            info.span.units(),
        ]);
        let segments = info.profit.segments();
        let t = &mut self.tokens;
        t.push(segments.len() as u64);
        for &(at, p) in segments {
            t.extend_from_slice(&[at.ticks(), p]);
        }
        t.push(info.profit.tail_value());
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        let (verdict, reason) = match event.decision {
            AdmissionDecision::Admitted => (0, 0),
            AdmissionDecision::Deferred(r) => (1, reason_code(r)),
            AdmissionDecision::Rejected(r) => (2, reason_code(r)),
        };
        self.record(&[ADMISSION, now.ticks(), event.job.0.into(), verdict, reason]);
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
        w.jobs.extend_from_slice(jobs);
        w.alloc.extend_from_slice(alloc);
        w.progress.extend_from_slice(progress);
    }

    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        self.record(&[NODE, at.ticks(), job.0.into(), node.0.into()]);
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        self.record(&[COMPLETE, at.ticks(), job.0.into(), profit]);
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        self.record(&[EXPIRE, at.ticks(), job.0.into()]);
    }

    fn on_end(&mut self, at: Time) {
        self.record(&[END, at.ticks()]);
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
        let windows = window_lines(&log);
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
        assert_eq!(window_lines(&log).len(), 2);
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
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains(r#""speed":[3,2]"#));
        assert!(lines[1].contains(r#""profit":[[9,4]]"#));
        assert!(lines[2].contains(r#""decision":"admitted""#));
        assert!(log.to_jsonl().ends_with("}\n"));
    }

    fn window_lines(log: &EventLog) -> Vec<String> {
        log.to_jsonl()
            .lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .map(str::to_owned)
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
        assert_eq!(log, EventLog::default());
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
        assert_eq!(log.into_jsonl(), text);
    }

    /// One run of every event kind, with each field a test can vary.
    #[derive(Clone)]
    struct Script {
        groups: &'static str,
        work: u64,
        segments: Vec<(u64, u64)>,
        tail: u64,
        decision: AdmissionDecision,
        /// Progress of two windows of one stable stretch, which coalesce.
        progress: [u64; 2],
        node: u32,
        profit: u64,
        expired: u32,
        end: u64,
    }

    impl Script {
        fn base() -> Script {
            Script {
                groups: "2x1,1x3/2",
                work: 10,
                segments: vec![(4, 9), (9, 4)],
                tail: 1,
                decision: AdmissionDecision::Deferred(AdmissionReason::BandCapacity),
                progress: [2, 3],
                node: 0,
                profit: 4,
                expired: 2,
                end: 12,
            }
        }

        fn play(&self) -> EventLog {
            use dagsched_core::Work;
            use dagsched_workload::StepProfitFn;
            let mut log = EventLog::new();
            log.on_start(3, Speed::new(3, 2).unwrap(), Time(50));
            log.on_platform(&self.groups.parse().unwrap());
            let segments = self.segments.iter().map(|&(t, p)| (Time(t), p)).collect();
            log.on_job_arrival(
                Time(0),
                &JobInfo {
                    id: JobId(1),
                    arrival: Time(0),
                    work: Work(self.work),
                    span: Work(2),
                    profit: StepProfitFn::steps(segments, self.tail).unwrap(),
                },
            );
            log.on_admission(
                Time(0),
                AdmissionEvent {
                    job: JobId(1),
                    decision: self.decision,
                },
            );
            let view = [(JobId(1), 1u32)];
            for (t, p) in self.progress.into_iter().enumerate() {
                log.on_window(Time(t as u64), 1, &view, &view, &[(JobId(1), p)]);
            }
            log.on_node_complete(Time(2), JobId(1), NodeId(self.node));
            log.on_job_complete(Time(3), JobId(1), self.profit);
            log.on_job_expired(Time(3), JobId(self.expired));
            log.on_end(Time(self.end));
            log
        }
    }

    /// The bytes every event kind renders to; the same text the earlier
    /// string-writing log produced.
    #[test]
    fn every_event_kind_renders_its_recorded_bytes() {
        let mut log = Script::base().play();
        log.on_admission(
            Time(3),
            AdmissionEvent {
                job: JobId(4),
                decision: AdmissionDecision::Rejected(AdmissionReason::DeadlinePassed),
            },
        );
        assert_eq!(
            log.to_jsonl(),
            r#"{"ev":"start","m":3,"speed":[3,2],"horizon":50}
{"ev":"platform","groups":"2x1,1x3/2","scale":2,"units":[2,3]}
{"ev":"arrive","t":0,"job":1,"w":10,"l":2,"profit":[[4,9],[9,4]],"tail":1}
{"ev":"admission","t":0,"job":1,"decision":"deferred","reason":"band-capacity"}
{"ev":"window","t":0,"ticks":2,"jobs":[[1,1]],"alloc":[[1,1]],"progress":[[1,5]]}
{"ev":"node","t":2,"job":1,"node":0}
{"ev":"complete","t":3,"job":1,"profit":4}
{"ev":"expire","t":3,"job":2}
{"ev":"end","t":12}
{"ev":"admission","t":3,"job":4,"decision":"rejected","reason":"deadline-passed"}
"#
        );
    }

    /// Logs one field apart compare unequal and render differently; logs
    /// that render alike compare equal.
    #[test]
    fn logs_one_field_apart_compare_unequal() {
        let base = Script::base();
        let variants: Vec<(&str, Script)> = vec![
            (
                "platform groups",
                Script {
                    groups: "1x1,2x3/2",
                    ..base.clone()
                },
            ),
            (
                "arrival work",
                Script {
                    work: 11,
                    ..base.clone()
                },
            ),
            (
                "profit segment",
                Script {
                    segments: vec![(4, 9), (9, 5)],
                    ..base.clone()
                },
            ),
            (
                "profit segment count",
                Script {
                    segments: vec![(4, 9)],
                    ..base.clone()
                },
            ),
            (
                "profit tail",
                Script {
                    tail: 0,
                    ..base.clone()
                },
            ),
            (
                "admission reason",
                Script {
                    decision: AdmissionDecision::Deferred(AdmissionReason::NotDeltaGood),
                    ..base.clone()
                },
            ),
            (
                "admission verdict",
                Script {
                    decision: AdmissionDecision::Rejected(AdmissionReason::BandCapacity),
                    ..base.clone()
                },
            ),
            (
                "admitted",
                Script {
                    decision: AdmissionDecision::Admitted,
                    ..base.clone()
                },
            ),
            (
                "window progress",
                Script {
                    progress: [2, 4],
                    ..base.clone()
                },
            ),
            (
                "node",
                Script {
                    node: 1,
                    ..base.clone()
                },
            ),
            (
                "completion profit",
                Script {
                    profit: 5,
                    ..base.clone()
                },
            ),
            (
                "expired job",
                Script {
                    expired: 3,
                    ..base.clone()
                },
            ),
            (
                "end time",
                Script {
                    end: 13,
                    ..base.clone()
                },
            ),
        ];
        let log = base.play();
        assert_eq!(log, base.play());
        // Coalesced windows sum their progress: 3 + 2 records what 2 + 3 does.
        let swapped = Script {
            progress: [3, 2],
            ..base.clone()
        }
        .play();
        assert_eq!(log, swapped);
        assert_eq!(log.to_jsonl(), swapped.to_jsonl());
        for (what, v) in variants {
            let other = v.play();
            assert_ne!(log, other, "{what}");
            assert_ne!(log.to_jsonl(), other.to_jsonl(), "{what}");
        }
    }

    #[test]
    fn an_open_window_renders_and_compares() {
        let view = [(JobId(0), 1u32)];
        let mut a = EventLog::new();
        a.on_window(Time(0), 1, &view, &view, &[(JobId(0), 1)]);
        let mut b = a.clone();
        b.on_window(Time(1), 1, &view, &view, &[(JobId(0), 1)]);
        assert_eq!(
            b.to_jsonl(),
            r#"{"ev":"window","t":0,"ticks":2,"jobs":[[0,1]],"alloc":[[0,1]],"progress":[[0,2]]}
"#
        );
        assert_ne!(a, b);
        assert_ne!(a.to_jsonl(), b.to_jsonl());
        // Closing the window leaves nothing of it pending.
        b.on_end(Time(2));
        assert_eq!(b.window, PendingWindow::default());
    }

    #[test]
    fn first_diff_names_the_line_or_the_line_counts() {
        let mut a = EventLog::new();
        a.on_start(2, Speed::ONE, Time(10));
        let mut b = a.clone();
        a.on_end(Time(3));
        b.on_end(Time(4));
        assert_eq!(
            a.first_diff(&b),
            r#"line 1: {"ev":"end","t":3} != {"ev":"end","t":4}"#
        );
        let mut prefix = EventLog::new();
        prefix.on_start(2, Speed::ONE, Time(10));
        assert_eq!(
            prefix.first_diff(&a),
            "streams are a prefix of each other (1 vs 2 lines)"
        );
    }

    #[test]
    fn reason_codes_round_trip() {
        for (i, &r) in REASONS.iter().enumerate() {
            assert_eq!(reason_code(r), i as u64);
        }
    }
}
