//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions.
//!
//! Spans are recorded only from this benchmark's code; nothing inside the
//! program is instrumented. Every span carries the id of the unit of work
//! it belongs to — a session, an instance or a stream — and its parent,
//! so a layer's *self time* is its duration minus what its children
//! cover. Spans stay in memory until the run ends and are then written
//! out as JSON lines.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use fl_telemetry::json;

/// The benchmark's own rows of one traced pass, neither folded into a
/// layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRows {
    /// Traced minus untraced end-to-end time, % of untraced.
    pub overhead_pct: f64,
    /// Traced end-to-end time minus the layers' self times, % of traced.
    pub unattributed_pct: f64,
    /// Sessions, instances or streams behind the rows.
    pub units: usize,
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The session, instance or stream this span belongs to.
    pub unit: u64,
    /// Layer call, e.g. `client.bid` or `winner.solve`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's base instant.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's base instant.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer owned by one thread. Buffers of several threads merge
/// into one; their id ranges are disjoint by construction.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start above `id_base` (use a distinct base per
    /// thread, e.g. `thread_index << 40`).
    pub fn new(base: Instant, id_base: u64) -> Tracer {
        Tracer {
            base,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Reserves the id of a span whose children close before it does.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a closed span under a reserved id.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        unit: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            unit,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as a leaf span and returns its result with the duration
    /// in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.reserve();
        self.close(id, name, unit, parent, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Moves every span of `other` into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// durations of its direct children.
    pub fn self_ns(&self) -> HashMap<u64, u64> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_insert(0) += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let kids = covered.get(&s.id).copied().unwrap_or(0);
                (s.id, s.dur_ns().saturating_sub(kids))
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = json::object(&[
                ("id".into(), s.id.to_string()),
                ("parent".into(), s.parent.to_string()),
                ("unit".into(), s.unit.to_string()),
                ("name".into(), json::string(s.name)),
                ("start_ns".into(), s.start_ns.to_string()),
                ("end_ns".into(), s.end_ns.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let mut t = Tracer::new(base, 0);
        let root = t.reserve();
        let mid = t.reserve();
        let leaf = t.reserve();
        t.close(leaf, "leaf", 1, mid, at(2), at(3));
        t.close(mid, "mid", 1, root, at(1), at(5));
        t.close(root, "root", 1, 0, at(0), at(10));
        let own = t.self_ns();
        assert_eq!(own[&root], 6_000_000);
        assert_eq!(own[&mid], 3_000_000);
        assert_eq!(own[&leaf], 1_000_000);
        assert_eq!(own.values().sum::<u64>(), 10_000_000);
    }

    #[test]
    fn merged_buffers_keep_ids_disjoint() {
        let base = Instant::now();
        let mut a = Tracer::new(base, 0);
        let mut b = Tracer::new(base, 1 << 40);
        a.time("x", 1, 0, || ());
        b.time("x", 2, 0, || ());
        a.absorb(b);
        let ids: Vec<u64> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, (1 << 40) + 1]);
    }
}
