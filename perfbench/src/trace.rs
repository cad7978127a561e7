//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name (`layer.what`), a start and an end relative to the
//! run's epoch, a parent, and the id of the unit of work it belongs to.
//! Spans stay in memory and are written out as JSONL when the run ends.
//! An *aggregate* span stands for many short intervals inside its parent
//! (the per-call time of a scheduler wrapper): its duration is their sum
//! and it is laid out from the parent's start.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover; children never overlap, because spans are recorded on one
//! thread and closed in stack order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: Option<u64>,
    /// Intervals summed into this span (1 for an ordinary span).
    pub calls: u64,
    pub aggregate: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A disabled tracer records nothing and costs one branch
/// per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, unit: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
            calls: 1,
            aggregate: false,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `dur_ns` spent in `calls` short intervals inside the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, unit: Option<u64>, dur_ns: u64, calls: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("an aggregate needs an open parent");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            unit,
            calls,
            aggregate: true,
        });
    }

    /// Index of the next span to be recorded: pass it to
    /// [`Tracer::self_ns_since`] to look at one iteration's spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded since `mark`.
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[mark..];
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                covered[p - mark] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration per span name since `mark`.
    pub fn total_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark..] {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Calls per span name since `mark`.
    pub fn calls_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark..] {
            *out.entry(s.name).or_insert(0) += s.calls;
        }
        out
    }

    /// All spans as JSONL, one object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{},\"calls\":{},\"aggregate\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.unit),
                s.calls,
                s.aggregate
            );
            out.push('\n');
        }
        out
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

/// Whether a span name belongs to a program layer, as opposed to the
/// benchmark's own bookkeeping (`bench.*`).
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

/// The tracing accounting of one traced iteration: `1 − Σ layer self
/// time ÷ the iteration's wall time`.
pub fn gap_frac(self_ns: &BTreeMap<&'static str, u64>, wall_ns: u64) -> f64 {
    let layers: u64 = self_ns
        .iter()
        .filter(|(name, _)| is_layer(name))
        .map(|(_, ns)| ns)
        .sum();
    1.0 - layers as f64 / wall_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::new(true);
        let m = t.mark();
        let outer = t.enter("qsim.trace", Some(1));
        t.aggregate("sched.wtp", Some(1), 0, 3);
        let inner = t.enter("stats.accum", Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let own = t.self_ns_since(m);
        let total = t.total_ns_since(m);
        assert_eq!(
            own["qsim.trace"] + own["stats.accum"] + own["sched.wtp"],
            total["qsim.trace"]
        );
        assert!(own["stats.accum"] >= 2_000_000);
        assert_eq!(t.calls_since(m)["sched.wtp"], 3);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("qsim.trace", None);
        t.aggregate("sched.wtp", None, 5, 1);
        t.exit(s);
        assert!(t.to_jsonl().is_empty());
    }
}
