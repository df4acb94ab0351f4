//! Benchmark-side spans for the traced run.
//!
//! Every op of a traced run gets a root span and one child span per
//! layer call the benchmark makes (protocol encode, the `Db`/`Client`
//! call, protocol decode, the oracle check). Spans carry the op's id,
//! which is also the trace id handed to the engine, so the engine's own
//! stage spans for that op line up with the benchmark's in one viewer.
//!
//! Aggregates (self time per span name, child-within-parent checks)
//! cover every op; full spans are kept in memory only for the first
//! [`KEEP_OPS`] ops and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use pm_blade::RequestTrace;

/// Ops whose spans are kept for the trace file.
pub const KEEP_OPS: u64 = 2_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    /// Index of the parent within the same op's spans (`None` = root).
    pub parent: Option<usize>,
    /// Wall nanoseconds since the log's origin.
    pub start: u64,
    pub end: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    kept: Vec<Span>,
    current: Vec<Span>,
    ops: u64,
    pub by_name: BTreeMap<&'static str, NameAgg>,
    /// Ops whose child spans summed to more than their root span.
    pub violations: u64,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            kept: Vec::new(),
            current: Vec::new(),
            ops: 0,
            by_name: BTreeMap::new(),
            violations: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of op `op`.
    pub fn begin(&mut self, op: u64, name: &'static str) {
        debug_assert!(self.current.is_empty(), "previous op not ended");
        let start = self.now();
        self.current.push(Span {
            op,
            name,
            parent: None,
            start,
            end: start,
        });
    }

    /// Run `f` inside a child span of the current op's root.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let op = self.current[0].op;
        self.current.push(Span {
            op,
            name,
            parent: Some(0),
            start,
            end,
        });
        out
    }

    /// Close the current op: compute self times and check that the
    /// children fit inside the root.
    pub fn end(&mut self) {
        let end = self.now();
        self.current[0].end = end;
        let (root, children) = self.current.split_first().expect("an op is open");
        let root_dur = root.end - root.start;
        let child_sum: u64 = children.iter().map(|s| s.end - s.start).sum();
        let outside = children
            .iter()
            .any(|s| s.start < root.start || s.end > root.end);
        if child_sum > root_dur || outside {
            self.violations += 1;
        }
        let mut totals = vec![(
            root.name,
            root_dur,
            root_dur.saturating_sub(covered(children)),
        )];
        // Children have no children of their own: all of a child is self time.
        totals.extend(
            children
                .iter()
                .map(|s| (s.name, s.end - s.start, s.end - s.start)),
        );
        for (name, total, own) in totals {
            let agg = self.by_name.entry(name).or_default();
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += own;
        }
        if self.ops < KEEP_OPS {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
        self.ops += 1;
    }

    pub fn merge(&mut self, other: SpanLog) {
        for (name, agg) in other.by_name {
            let mine = self.by_name.entry(name).or_default();
            mine.count += agg.count;
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
        }
        self.violations += other.violations;
        self.ops += other.ops;
        self.kept.extend(other.kept);
    }

    /// Benchmark spans plus the engine's stage spans as Chrome
    /// trace-event JSON, in the same layout as `Db::chrome_trace()`.
    /// Benchmark spans (wall clock) go under pid 1, engine request
    /// traces (virtual clock) under pid 2; both carry the op id.
    pub fn chrome_trace(&self, engine: &[RequestTrace]) -> String {
        fn micros(nanos: u64) -> String {
            format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
        }
        let mut out = String::with_capacity(64 + self.kept.len() * 160);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        out.push_str(
            "\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"benchmark (wall clock)\"}},\
             \n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \
             \"args\": {\"name\": \"engine stages (virtual clock)\"}}",
        );
        for s in &self.kept {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"trace_id\": {}}}}}",
                s.name,
                if s.parent.is_none() { "op" } else { "layer" },
                micros(s.start),
                micros(s.end - s.start),
                lane(s.op),
                s.op,
            );
        }
        for t in engine {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 2, \"tid\": {}, \"args\": {{\"trace_id\": {}, \
                 \"stage_nanos\": {}}}}}",
                t.op.as_str(),
                micros(t.start_nanos),
                micros(t.total_nanos),
                t.partition,
                t.trace_id,
                t.stage_nanos()
            );
            for s in &t.stages {
                let _ = write!(
                    out,
                    ",\n{{\"name\": \"{}\", \"cat\": \"stage\", \"ph\": \"X\", \"ts\": {}, \
                     \"dur\": {}, \"pid\": 2, \"tid\": {}, \"args\": {{\"trace_id\": {}}}}}",
                    s.kind.as_str(),
                    micros(s.start_nanos),
                    micros(s.end_nanos.saturating_sub(s.start_nanos)),
                    t.partition,
                    t.trace_id
                );
            }
        }
        out.push_str("]}\n");
        out
    }
}

/// Op ids: `OP_ID_BASE | lane << LANE_SHIFT | sequence`. The base keeps
/// them clear of the ids the engine assigns to requests it samples itself.
pub const OP_ID_BASE: u64 = 1 << 48;
pub const LANE_SHIFT: u32 = 40;

pub fn op_id(lane: u64, seq: u64) -> u64 {
    OP_ID_BASE | lane << LANE_SHIFT | seq
}

fn lane(op: u64) -> u64 {
    (op & !OP_ID_BASE) >> LANE_SHIFT
}

/// Nanoseconds of the union of `spans`' intervals.
fn covered(spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            op: 1,
            name: "x",
            parent: Some(0),
            start,
            end,
        }
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(&[span(0, 10), span(5, 15), span(20, 25)]), 20);
        assert_eq!(covered(&[]), 0);
    }

    #[test]
    fn self_time_is_root_minus_children() {
        let mut log = SpanLog::new(Instant::now());
        log.begin(7, "op.get");
        log.child("db.get", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.end();
        let root = log.by_name["op.get"];
        let call = log.by_name["db.get"];
        assert_eq!(log.violations, 0);
        assert!(call.total_ns >= 2_000_000);
        assert_eq!(root.total_ns, root.self_ns + call.total_ns);
        let json = log.chrome_trace(&[]);
        assert!(json.contains("\"name\": \"db.get\"") && json.contains("\"trace_id\": 7"));
    }
}
