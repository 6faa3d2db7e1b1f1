//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into
//! the program — never inside the program — and kept in memory until the
//! run ends. A span's name is `<layer>.<what>`; its layer is the part
//! before the first dot. Spans named `bench.*` (and the root) are the
//! benchmark's own glue: their self time is reported as unattributed.
//!
//! Self time is attributed by sweeping the timeline: every instant inside
//! the root belongs to the innermost spans open at that instant, split
//! evenly when several run concurrently (client threads). Per-layer self
//! times plus the unattributed share therefore add up to the root's
//! duration exactly, with or without concurrency; without concurrency
//! each span's share is its duration minus its children's.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::Report;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Request or statement id (0 for phase spans).
    pub id: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    /// `u64::MAX` while the span is open.
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let sid = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name: name.to_string(),
                id,
                parent,
                start_ns: self.now_ns(),
                end_ns: u64::MAX,
            });
            spans.len() - 1
        };
        let out = f(Some(sid));
        let end = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[sid].end_ns = end;
        out
    }

    /// Every recorded span (all must be closed).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }
}

/// Per-layer self time under `root`: `(layer → seconds, unattributed
/// seconds, root duration)`. The first two add up to the third.
pub fn attribute(spans: &[Span], root: SpanId) -> (BTreeMap<String, f64>, f64, f64) {
    // Spans that descend from `root` (including it).
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            inside[i] = inside[p];
        }
    }
    let mut events: Vec<(u64, bool, SpanId)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
        assert!(s.end_ns != u64::MAX, "span {} left open", s.name);
        events.push((s.start_ns, true, i));
        events.push((s.end_ns, false, i));
    }
    // Closes sort before opens at the same instant.
    events.sort_by_key(|&(t, open, i)| (t, open, i));

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    let mut active: Vec<SpanId> = Vec::new();
    let mut last = spans[root].start_ns;
    for (t, open, i) in events {
        if t > last && !active.is_empty() {
            let leaves: Vec<SpanId> = active
                .iter()
                .copied()
                .filter(|&a| !active.iter().any(|&b| spans[b].parent == Some(a)))
                .collect();
            let share = (t - last) as f64 / 1e9 / leaves.len() as f64;
            for l in leaves {
                match spans[l].layer() {
                    _ if l == root => unattributed += share,
                    "bench" => unattributed += share,
                    layer => *layers.entry(layer.to_string()).or_default() += share,
                }
            }
        }
        last = last.max(t);
        if open {
            active.push(i);
        } else {
            active.retain(|&a| a != i);
        }
    }
    (layers, unattributed, spans[root].dur_s())
}

/// Put the traced pass's per-layer self times (`self_s.<layer>`), the
/// unattributed rest, the traced wall and the tracing overhead (traced
/// wall minus the untraced pass's wall) into `report`.
pub fn put_attribution(report: &mut Report, tracer: &Tracer, untraced_wall: f64) {
    let (layers, unattributed, wall) = attribute(&tracer.spans(), 0);
    for (layer, s) in layers {
        report.put(format!("self_s.{layer}"), s, "s");
    }
    report.put("unattributed_s", unattributed, "s");
    report.put("traced_wall_s", wall, "s");
    report.put("trace_overhead_s", wall - untraced_wall, "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: name.to_string(),
            id: 0,
            parent,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
        }
    }

    #[test]
    fn nested_self_times_add_up() {
        let spans = vec![
            span("bench.root", None, 0, 10),
            span("engine.submit", Some(0), 1, 5),
            span("sql.parse", Some(1), 2, 3),
            span("model.train", Some(0), 6, 9),
        ];
        let (layers, un, wall) = attribute(&spans, 0);
        assert_eq!(layers["engine"], 3.0);
        assert_eq!(layers["sql"], 1.0);
        assert_eq!(layers["model"], 3.0);
        assert_eq!(un, 3.0);
        assert_eq!(wall, 10.0);
    }

    #[test]
    fn concurrent_spans_split_time() {
        let spans = vec![
            span("bench.root", None, 0, 4),
            span("net.post", Some(0), 0, 2),
            span("net.post", Some(0), 1, 3),
        ];
        let (layers, un, wall) = attribute(&spans, 0);
        let total: f64 = layers.values().sum::<f64>() + un;
        assert!((total - wall).abs() < 1e-9);
        assert_eq!(layers["net"], 3.0);
        assert_eq!(un, 1.0);
    }
}
