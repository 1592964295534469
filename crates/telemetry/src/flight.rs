//! Flight recorder: fixed-capacity ring buffers of recent service events.
//!
//! When a daemon sheds load or crashes, the interesting evidence is the
//! last few seconds of activity — exactly what a bounded, always-on,
//! overwrite-oldest recorder preserves. The design mirrors
//! [`LiveMetrics`](crate::LiveMetrics):
//!
//! * The recorder holds one **ring** of [`FlightEvent`]s per lock stripe
//!   ([`STRIPES`] of them). A thread records into the ring of the stripe
//!   it was dealt on first use; event strings are built before the lock
//!   is taken and an evicted event is dropped after it is released.
//! * Every event takes a **process-global sequence number** at record
//!   time, so draining all rings and sorting by `seq` yields one causally
//!   ordered dump: if event A happened-before event B on any thread (or
//!   via a message between threads recorded after receipt), A's `seq` is
//!   smaller. Per-trace order is a projection of that total order.
//! * Rings **overwrite their oldest entry** once full — recording can
//!   never fail, block on capacity, or panic, no matter how long the
//!   service runs, how many threads record, or where a wrap lands
//!   relative to an open span.
//!
//! Events are wall-clock stamped: `at_ms` is milliseconds since the
//! recorder's construction, and the dump header carries the construction
//! time as Unix milliseconds, so offline readers can reconstruct absolute
//! times without every event paying for a `SystemTime` call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{self, Json};
use crate::STRIPES;

/// Default ring capacity: events retained per stripe.
pub const DEFAULT_RING_CAP: usize = 1024;

/// Process-global event sequence: the causal total order of the dump.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Process-global sequence number (total causal order).
    pub seq: u64,
    /// Milliseconds since the recorder was constructed.
    pub at_ms: f64,
    /// The trace id of the request this event belongs to (empty for
    /// events outside any request, e.g. recovery).
    pub trace: String,
    /// Short machine-readable kind, e.g. `req`, `resp`, `err`, `shed`.
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

/// One stripe's ring.
#[derive(Default)]
struct Ring {
    buf: Vec<FlightEvent>,
    /// Overwrite cursor once `buf` reaches capacity.
    next: usize,
}

/// A bounded, always-on recorder of recent events (see the
/// [module docs](self)). Cheaply shareable via `Arc`; all methods take
/// `&self`.
pub struct FlightRecorder {
    cap: usize,
    rings: [Mutex<Ring>; STRIPES],
    epoch: Instant,
    base_unix_ms: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_RING_CAP)
    }
}

impl FlightRecorder {
    /// Creates a recorder with [`DEFAULT_RING_CAP`]-event rings.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Creates a recorder retaining up to `cap` events per stripe, so at
    /// most `cap × STRIPES` in all (`cap` is clamped to at least 1).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            rings: Default::default(),
            epoch: Instant::now(),
            base_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    /// Records one event on the calling thread's ring. Never fails: a
    /// full ring overwrites its oldest entry.
    pub fn record(&self, trace: &str, kind: &str, detail: &str) {
        let mut event = FlightEvent {
            seq: 0,
            at_ms: self.epoch.elapsed().as_secs_f64() * 1e3,
            trace: trace.to_string(),
            kind: kind.to_string(),
            detail: detail.to_string(),
        };
        // An evicted event leaves the block and is dropped after the lock
        // is released.
        let _evicted = {
            let mut ring = crate::lock(&self.rings[crate::stripe()]);
            // Numbered under the lock, so each ring is in `seq` order and
            // a wrap always evicts the ring's lowest `seq`.
            event.seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
            if ring.buf.len() < self.cap {
                ring.buf.push(event);
                None
            } else {
                let next = ring.next;
                ring.next = (next + 1) % self.cap;
                Some(std::mem::replace(&mut ring.buf[next], event))
            }
        };
    }

    /// Drains a copy of every ring into one dump sorted by sequence
    /// number — the global causal order (and therefore causally ordered
    /// within each trace id). Rings keep their contents; a dump is a
    /// read-only snapshot.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = Vec::new();
        for ring in &self.rings {
            events.extend(crate::lock(ring).buf.iter().cloned());
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Encodes [`dump`](Self::dump) as one JSON document:
    /// `{"base_unix_ms":…,"events":[{seq,at_ms,trace,kind,detail},…]}`,
    /// written straight into one buffer: a full dump holds
    /// `cap × STRIPES` events.
    pub fn dump_json(&self) -> String {
        let mut out = format!("{{\"base_unix_ms\":{},\"events\":[", self.base_unix_ms);
        for (i, e) in self.dump().iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"seq\":{},\"at_ms\":{},\"trace\":{},\"kind\":{},\"detail\":{}}}",
                if i == 0 { "" } else { "," },
                e.seq,
                json::number(e.at_ms),
                json::string(&e.trace),
                json::string(&e.kind),
                json::string(&e.detail),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Parses a [`FlightRecorder::dump_json`] document (or the `flight` wire
/// response embedding one) back into events. The inverse used by tests,
/// `flpd-top`, and the chaos driver's dump validation.
///
/// # Errors
///
/// Returns a description of the first malformed byte or missing member.
pub fn events_from_json(doc: &Json) -> Result<Vec<FlightEvent>, String> {
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("missing events array")?;
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let field = |k: &str| e.get(k).ok_or_else(|| format!("event {i}: missing {k}"));
            let bad = |k: &str| format!("event {i}: bad {k}");
            let text = |k: &str| field(k)?.as_str().map(str::to_string).ok_or_else(|| bad(k));
            Ok(FlightEvent {
                seq: field("seq")?.as_u64().ok_or_else(|| bad("seq"))?,
                at_ms: field("at_ms")?.as_f64().ok_or_else(|| bad("at_ms"))?,
                trace: text("trace")?,
                kind: text("kind")?,
                detail: text("detail")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn dump_is_causally_ordered_across_threads() {
        let rec = Arc::new(FlightRecorder::new());
        rec.record("t1", "req", "open");
        let r2 = rec.clone();
        thread::spawn(move || r2.record("t1", "resp", "ok"))
            .join()
            .unwrap();
        rec.record("t2", "req", "close");
        let dump = rec.dump();
        let kinds: Vec<&str> = dump.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["req", "resp", "req"]);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-trace projection preserves order.
        let t1: Vec<&str> = dump
            .iter()
            .filter(|e| e.trace == "t1")
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(t1, vec!["req", "resp"]);
    }

    #[test]
    fn ring_wraps_by_overwriting_oldest() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.record("t", "tick", &i.to_string());
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        let details: Vec<&str> = dump.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["6", "7", "8", "9"]);
    }

    #[test]
    fn wrap_mid_burst_keeps_dump_sorted() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                thread::spawn(move || {
                    for i in 0..50 {
                        rec.record(&format!("t{t}"), "spin", &i.to_string());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let dump = rec.dump();
        // Four threads fill between one and four rings of capacity 8.
        assert!((8..=32).contains(&dump.len()), "{} events", dump.len());
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// However many threads have recorded, the dump holds at most one
    /// full ring per stripe, still in `seq` order.
    #[test]
    fn dump_is_bounded_by_the_stripe_count() {
        let rec = Arc::new(FlightRecorder::with_capacity(4));
        for t in 0..2 * STRIPES {
            let rec = rec.clone();
            thread::spawn(move || {
                for i in 0..4 {
                    rec.record(&format!("t{t}"), "tick", &i.to_string());
                }
            })
            .join()
            .unwrap();
        }
        let dump = rec.dump();
        assert!(
            (4..=4 * STRIPES).contains(&dump.len()),
            "{} events",
            dump.len()
        );
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
        // The last thread's events are the newest of all: never evicted.
        let last = format!("t{}", 2 * STRIPES - 1);
        assert_eq!(dump.iter().filter(|e| e.trace == last).count(), 4);
    }

    #[test]
    fn dead_thread_events_survive() {
        let rec = Arc::new(FlightRecorder::new());
        let r2 = rec.clone();
        thread::spawn(move || r2.record("t", "req", "from the beyond"))
            .join()
            .unwrap();
        assert_eq!(rec.dump().len(), 1);
    }

    #[test]
    fn json_round_trips() {
        let rec = FlightRecorder::new();
        rec.record("trace-1", "req", "open k=5");
        rec.record("", "recover", "replayed 3 \"records\"\n");
        let text = rec.dump_json();
        json::validate(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("base_unix_ms").unwrap().as_u64().is_some());
        let events = events_from_json(&doc).unwrap();
        assert_eq!(events, rec.dump());
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        for bad in [
            r#"{"base_unix_ms":1}"#,
            r#"{"events":[{"seq":1}]}"#,
            r#"{"events":[{"seq":"x","at_ms":0,"trace":"","kind":"","detail":""}]}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(events_from_json(&doc).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn two_recorders_on_one_thread_do_not_cross_talk() {
        let a = FlightRecorder::new();
        let b = FlightRecorder::new();
        a.record("t", "a", "");
        b.record("t", "b", "");
        assert_eq!(a.dump().len(), 1);
        assert_eq!(a.dump()[0].kind, "a");
        assert_eq!(b.dump()[0].kind, "b");
    }
}
