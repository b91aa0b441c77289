//! In-memory span recording for the traced pass.
//!
//! The harness measures every layer **from outside**: a span brackets each
//! call it makes into the product (name, start, end, the span that caused
//! it, the op it belongs to). Spans are kept in a preallocated buffer and
//! written out as JSON lines only after measuring ends, so the traced pass
//! pays two clock reads and one `Vec::push` per span and nothing else.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. One epoch for every
/// thread, so spans of different lanes share a time axis.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept per lane before further ones are counted as dropped: bounds
/// the traced pass's memory on the fastest workload (~170 k ops per slice).
const SPAN_CAP: usize = 1 << 18;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same lane, or [`NO_PARENT`].
    pub parent: u32,
    pub op: u64,
}

/// One lane's span buffer.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }
    }

    /// Records one finished span and returns its index (for children).
    pub fn record(&mut self, span: Span) -> u32 {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        }
    }

    pub fn set_end(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-name totals over a set of lanes: how often, how long, and how long
/// *excluding* the part covered by child spans (the self time).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(lanes: &[&Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for t in lanes {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, covered) in t.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*covered);
        }
    }
    out
}

/// Writes every lane's spans as JSON lines: a header line, then one span
/// per line. Parent indices are per lane.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    lanes: &[&Tracer],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let header = Json::obj([
        ("workload", Json::str(workload)),
        ("lanes", Json::num(lanes.len() as f64)),
        (
            "spans",
            Json::num(lanes.iter().map(|t| t.spans.len()).sum::<usize>() as f64),
        ),
        (
            "dropped",
            Json::num(lanes.iter().map(|t| t.dropped).sum::<u64>() as f64),
        ),
    ]);
    writeln!(w, "{}", header.compact())?;
    for (lane, t) in lanes.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"lane\":{lane},\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.record(Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: NO_PARENT,
            op: 0,
        });
        let call = t.record(Span {
            name: "call",
            start_ns: 10,
            end_ns: 90,
            parent: root,
            op: 0,
        });
        t.record(Span {
            name: "inner",
            start_ns: 20,
            end_ns: 50,
            parent: call,
            op: 0,
        });
        let s = summarize(&[&t]);
        assert_eq!(s["op"].self_ns, 20);
        assert_eq!(s["call"].self_ns, 50);
        assert_eq!(s["inner"].self_ns, 30);
        assert_eq!(s["call"].total_ns, 80);
    }
}
