//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a root span per op and a child span around each
//! call it makes into a layer's public functions. Spans stay in memory,
//! keyed by op id, until the run ends. A span's self time is its duration
//! minus the durations of its direct children (children never overlap:
//! the traced code is single-threaded at the layer boundaries).
//! Aggregated times are divided by the run's host-speed factor
//! ([`crate::speed`]) like every other time the benchmark reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op id shared by every span of one op.
    pub op: u64,
    /// Layer name, e.g. `core.se.step`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Index of the op's root span.
    pub root: usize,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

/// Where an op's layer calls report their spans: a [`Tracer`] in the
/// traced run, [`Off`] in the untraced one, so both run the same code.
pub trait Spans {
    /// Opens a span; with no span open it is the root of a new op.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Closes the innermost open span, which must be `idx`.
    fn end(&mut self, idx: usize);
    /// Records an already-closed child of the innermost open span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant);

    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }
}

/// Records nothing.
pub struct Off;

impl Spans for Off {
    fn begin(&mut self, _: &'static str) -> usize {
        0
    }
    fn end(&mut self, _: usize) {}
    fn record(&mut self, _: &'static str, _: Instant, _: Instant) {}
}

/// Records spans against one origin instant.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

/// Per-layer self times of every op whose root has a given name.
#[derive(Debug, Default)]
pub struct Layers {
    /// Ops (root spans) aggregated.
    pub ops: usize,
    /// Summed root durations, ns.
    pub op_ns: f64,
    /// Summed root self time — time inside an op that no layer span
    /// covers, ns.
    pub unattributed_ns: f64,
    /// Summed self time per layer name, ns.
    pub self_ns: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// The same times divided by a host-speed factor.
    pub fn scaled(mut self, factor: f64) -> Layers {
        self.op_ns /= factor;
        self.unattributed_ns /= factor;
        for ns in self.self_ns.values_mut() {
            *ns /= factor;
        }
        self
    }

    /// Mean self time of `layer` per op, ms (0 when the layer never ran).
    pub fn per_op_ms(&self, layer: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0.0) / self.ops as f64 / 1e6
    }

    /// Share of the summed op time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.op_ns == 0.0 {
            0.0
        } else {
            self.unattributed_ns / self.op_ns
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant) -> usize {
        let parent = self.open.last().copied();
        let (op, root) = match parent {
            Some(p) => (self.spans[p].op, self.spans[p].root),
            None => {
                self.next_op += 1;
                (self.next_op - 1, self.spans.len())
            }
        };
        self.spans.push(Span {
            op,
            name,
            parent,
            root,
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Duration of span `idx`, ns.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Self times of every op whose root span is named `root`.
    pub fn layers(&self, root: &str) -> Layers {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        let mut out = Layers::default();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[s.root].name != root {
                continue;
            }
            let dur = self.duration_ns(i);
            let own = dur.saturating_sub(child_ns[i]) as f64;
            if s.parent.is_none() {
                out.ops += 1;
                out.op_ns += dur as f64;
                out.unattributed_ns += own;
            } else {
                *out.self_ns.entry(s.name).or_insert(0.0) += own;
            }
        }
        out
    }

    /// Appends one JSON line per span, tagged with `source`.
    pub fn write_jsonl(&self, source: &str, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"source\":\"{source}\",\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

impl Spans for Tracer {
    fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.push(name, Instant::now());
        self.open.push(idx);
        idx
    }

    fn end(&mut self, idx: usize) {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let idx = self.push(name, start);
        self.spans[idx].end_ns = self.ns(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_op() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            let root = t.begin("op");
            t.time("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let b = t.begin("b");
            t.time("c", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.end(b);
            t.end(root);
        }
        let layers = t.layers("op");
        assert_eq!(layers.ops, 2);
        let covered: f64 = layers.self_ns.values().sum::<f64>() + layers.unattributed_ns;
        assert!((covered - layers.op_ns).abs() < 1.0);
        assert!(layers.per_op_ms("a") >= 2.0);
        assert!(layers.unattributed_share() < 0.5);
        assert_eq!(t.layers("other").ops, 0);
    }
}
