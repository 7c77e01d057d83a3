//! In-memory spans recorded by the benchmark around its calls into the
//! workspace's public functions.
//!
//! A span has a name (`<layer>.<what>`), a start and end relative to a
//! shared origin, a parent, the id of the verdict it serves, and the
//! client thread that recorded it. Names are assigned when a span ends,
//! because some calls only reveal which layer did the work afterwards
//! (a memo hit versus a fresh SEQ refinement). Spans are kept in memory
//! and written out once the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

use seqwm_json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The verdict (program, case or request) the span serves.
    pub verdict: u64,
    /// The recording client thread.
    pub thread: u32,
}

impl Span {
    /// The layer half of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for client thread `thread`, timing from `origin`.
    pub fn new(origin: Instant, thread: u32, enabled: bool) -> Tracer {
        Tracer {
            origin,
            thread,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), 0, false)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span for `verdict`, nested in the innermost open span.
    pub fn begin(&mut self, verdict: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: "",
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            verdict,
            thread: self.thread,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span under `name`.
    pub fn end(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].name = name;
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, verdict: u64, f: impl FnOnce() -> T) -> T {
        self.begin(verdict);
        let v = f();
        self.end(name);
        v
    }

    /// Moves `other`'s spans into this tracer (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Durations of spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the time its direct children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Every span as JSON, for the spans file written after the run.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::num(s.start_ns)),
                        ("end_ns", Json::num(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                        ),
                        ("verdict", Json::num(s.verdict)),
                        ("thread", Json::num(u64::from(s.thread))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        t.begin(1);
        t.span("core.refine", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end("opt.program");
        let by = t.self_ms_by_layer();
        assert!(by["core"] >= 20.0);
        assert!(by["opt"] < by["core"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("core.refine", 0, || ());
        assert!(t.spans().is_empty());
    }
}
