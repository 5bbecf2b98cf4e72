//! In-memory spans around calls into the product, written out as JSONL
//! when the traced run ends.
//!
//! The benchmark times the product from outside: a span brackets one
//! call of a public product function, its `layer` is the crate that
//! function belongs to. Spans inside the product are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// The crate the callee belongs to (`bench` for the harness itself).
    pub layer: &'static str,
    /// Start, host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer costs one branch per call site, so
/// workloads run the same code traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so recording
    /// does not reallocate inside a timed region.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the span [`Tracer::enter`] returned.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Records `f` as one leaf span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Ends recording.
    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "unclosed span at end of trace");
        Trace { spans: self.spans }
    }
}

/// A finished trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Spans in start order; `spans[i].id == i + 1`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Durations, in nanoseconds, of every span called `name` or
    /// `name.<anything>`: dotted suffixes split one call site by input.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Median duration of the spans called `name`, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name)) / 1e6
    }

    /// Every span's self time, in id order: its duration minus the part
    /// of it that its direct children cover. Children of one parent never
    /// overlap here (one caller, spans close innermost first), so cover
    /// is a sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            own[s.parent as usize - 1] -= s.duration_ns();
        }
        own
    }

    /// Busy seconds per layer: the self time of every span, summed by
    /// layer, so nested spans are not counted twice.
    pub fn busy_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut ns: Vec<(&'static str, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match ns.iter_mut().find(|(layer, _)| *layer == s.layer) {
                Some(slot) => slot.1 += own,
                None => ns.push((s.layer, own)),
            }
        }
        ns.into_iter().map(|(l, n)| (l, n as f64 / 1e9)).collect()
    }

    /// One JSON object per line:
    /// `{"id":..,"parent":..,"name":..,"layer":..,"start_ns":..,"end_ns":..}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            // Names and layers are identifiers from this crate's source:
            // nothing in them needs escaping.
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let trace = Trace {
            spans: vec![
                span(1, 0, "bench", 0, 100),
                span(2, 1, "tools", 10, 40),
                span(3, 2, "netsim", 15, 25),
                span(4, 1, "tools", 50, 90),
            ],
        };
        // Root: 100 long, children cover 30 + 40; the grandchild is its
        // parent's business, not the root's.
        assert_eq!(trace.self_ns(), [30, 20, 10, 40]);
        let busy = trace.busy_by_layer();
        assert_eq!(busy[0], ("bench", 30e-9));
        assert_eq!(busy[1], ("tools", 60e-9));
        assert_eq!(busy[2], ("netsim", 10e-9));
        let total: f64 = busy.iter().map(|b| b.1).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut tr = Tracer::on(4);
        let root = tr.enter("bench", "root");
        let v = tr.span("geo", "leaf", || 7);
        tr.exit(root);
        assert_eq!(v, 7);
        let trace = tr.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!((trace.spans[1].parent, trace.spans[1].layer), (1, "geo"));
        assert!(trace.spans[0].end_ns >= trace.spans[1].end_ns);
        assert_eq!(trace.to_jsonl().lines().count(), 2);

        let mut off = Tracer::off();
        let root = off.enter("bench", "root");
        assert_eq!(off.span("geo", "leaf", || 7), 7);
        off.exit(root);
        assert!(off.finish().spans.is_empty());
    }
}
