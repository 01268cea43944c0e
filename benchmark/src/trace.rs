//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Kept in memory, written out when the run ends; a layer's self
//! time is its spans' duration minus what their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Spans a tracer keeps; later ones are timed but not stored, so a long run
/// cannot grow the trace without bound.
const MAX_SPANS: usize = 60_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one batch (or tick, or update) share this.
    pub batch_id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span name: total duration, duration covered by children, and
    /// count. Accumulated for every span, stored or not.
    totals: BTreeMap<&'static str, Totals>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    total_ns: u64,
    child_ns: u64,
    count: u64,
}

/// The span that caused another: its name, for the self-time totals, and
/// where it is stored, if it is.
#[derive(Debug, Clone, Copy)]
pub struct Parent {
    name: &'static str,
    slot: Option<usize>,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    parent: Option<Parent>,
    batch_id: u64,
    slot: Option<usize>,
}

impl Open {
    /// Handle to pass as the parent of a child span.
    pub fn as_parent(&self) -> Option<Parent> {
        Some(Parent {
            name: self.name,
            slot: self.slot,
        })
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<Parent>, batch_id: u64) -> Open {
        let slot = (self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: parent.and_then(|p| p.slot),
                batch_id,
            });
            self.spans.len() - 1
        });
        Open {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            parent,
            batch_id,
            slot,
        }
    }

    /// Close a span; returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let dur = end_ns - open.start_ns;
        if let Some(slot) = open.slot {
            let s = &mut self.spans[slot];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
            debug_assert_eq!(s.batch_id, open.batch_id);
        }
        let t = self.totals.entry(open.name).or_default();
        t.total_ns += dur;
        t.count += 1;
        if let Some(parent) = open.parent {
            self.totals.entry(parent.name).or_default().child_ns += dur;
        }
        dur
    }

    /// Take over the spans of a tracer that ran on another thread.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
            mine.count += t.count;
        }
    }

    /// Self time of the spans of one name, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals
            .get(name)
            .map_or(0, |t| t.total_ns.saturating_sub(t.child_ns))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.count)
    }

    pub fn to_json(&self) -> Json {
        let layers = self.totals.iter().map(|(name, t)| {
            (
                *name,
                Json::obj([
                    ("spans", Json::Int(t.count as i64)),
                    ("total_ns", Json::Int(t.total_ns as i64)),
                    (
                        "self_ns",
                        Json::Int(t.total_ns.saturating_sub(t.child_ns) as i64),
                    ),
                ]),
            )
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("batch_id", Json::Int(s.batch_id as i64)),
            ])
        });
        Json::obj([
            ("layers", Json::obj(layers)),
            ("stored_spans", Json::Int(self.spans.len() as i64)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let batch = t.begin("batch", None, 7);
        let child = t.begin("encode", batch.as_parent(), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.end(child);
        let batch_ns = t.end(batch);
        assert!(child_ns >= 2_000_000);
        assert_eq!(t.self_ns("encode"), child_ns);
        assert_eq!(t.self_ns("batch"), batch_ns - child_ns);
        assert_eq!(t.count("batch"), 1);
        let doc = t.to_json();
        let spans = doc.get("spans").unwrap().as_array();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("batch_id").unwrap().as_f64(), Some(7.0));
    }
}
