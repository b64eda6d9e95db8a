//! The benchmark's own span recorder: spans around every public call the
//! benchmark makes into the program, kept in a preallocated buffer and
//! written once at exit as a Chrome `trace_event` file (opens in Perfetto).
//! Nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" / "not recorded".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// A fixed-capacity span buffer. When disabled every call is a no-op.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled: false,
            dropped: 0,
        }
    }

    /// A recording tracer holding at most `capacity` spans.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(64),
            enabled: true,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`, parented on the
    /// innermost open span. Returns its handle for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `idx` returned by [`Tracer::begin`].
    pub fn end(&mut self, idx: u32) {
        if idx == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[idx as usize].end_ns = end_ns;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Records a completed span after the fact (e.g. an open-loop request
    /// measured from its due time), parented on the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span name: (count, total µs, total self µs). Self time is the
    /// span's duration minus the union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let ch = &mut children[i];
            ch.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in ch.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 / 1e3;
            e.2 += dur.saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Writes every span as Chrome `trace_event` JSON to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 120 + 64);
        s.push_str("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == NONE {
                -1
            } else {
                i64::from(sp.parent)
            };
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
                sp.op
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_buffer_is_bounded() {
        let mut t = Tracer::on(2);
        let a = t.begin("outer", 1);
        let b = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(a);
        assert_eq!(t.begin("third", 2), NONE);
        assert_eq!(t.dropped(), 1);
        let st = t.self_times();
        let (_, outer_total, outer_self) = st["outer"];
        let (_, inner_total, _) = st["inner"];
        assert!(outer_total >= inner_total);
        assert!((outer_self - (outer_total - inner_total)).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", 0);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
