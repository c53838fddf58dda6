//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! layer (load, prepare, run, verify; one span per service request), kept
//! in a `Vec`, and written once at exit. A span's *self time* is its
//! duration minus the part of its interval covered by its children.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span (an index into the span list).
pub type SpanId = usize;

struct Span {
    parent: Option<SpanId>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(String, f64)>,
}

/// Span recorder. While disabled every call is a no-op, so the untraced
/// passes of a traced run measure the same code with tracing off.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off. Spans already open stay open, and
    /// spans begun while off are never recorded.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            attrs: Vec::new(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the innermost open span (which must be `id`).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans closed out of order");
        self.spans[id].end_ns = end;
    }

    /// Record an already finished span under the innermost open span,
    /// even while recording is off: a traced run keeps one bare span per
    /// untraced pass, and threads report their own intervals this way.
    /// A no-op when no span is open.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> Option<SpanId> {
        let parent = *self.stack.last()?;
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            parent: Some(parent),
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Attach a numeric attribute to a span.
    pub fn attr(&mut self, id: Option<SpanId>, key: &str, value: f64) {
        if let Some(id) = id {
            self.spans[id].attrs.push((key.to_string(), value));
        }
    }

    /// Self time of every span in nanoseconds: duration minus the union
    /// of its children's intervals, clipped to the parent.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total self milliseconds), sorted by name.
    pub fn self_time_summary(&self) -> Vec<(String, usize, f64)> {
        let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (n, ns))| (name.to_string(), n, ns as f64 / 1e6))
            .collect()
    }

    /// Every span as JSON: id, parent, name, start/end/self in
    /// microseconds since the recorder started, and its attributes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"attrs\":{{",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{k}\":{}", json_num(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A finite JSON number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let kid = t.begin("kid");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(kid);
        t.end(root);
        let st = t.self_times();
        let dur = |i: usize| t.spans[i].end_ns - t.spans[i].start_ns;
        assert_eq!(st[1], dur(1));
        assert_eq!(st[0], dur(0) - dur(1));
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.attr(s, "k", 1.0);
        t.end(s);
        assert!(t.self_time_summary().is_empty());
    }
}
