//! Live metrics: bounded, concurrent recording for long-lived services.
//!
//! The [`Recorder`](crate::Recorder) sink is built for deterministic
//! after-the-fact profiling — every event funnels through one thread's
//! dispatch path, which is exactly wrong for a daemon where dozens of
//! connection threads record concurrently for hours. [`LiveMetrics`] is the
//! service-side counterpart:
//!
//! * State lives in a fixed array of [`STRIPES`] lock stripes. Each thread
//!   records into the stripe it was dealt on first use (round-robin across
//!   the process), so concurrent threads mostly take different locks, and
//!   a thread that has exited leaves its metrics in every later merge.
//! * Counters are monotone sums, and histograms keep a **bounded window**
//!   of recent samples per stripe (plus a lifetime count), so a daemon's
//!   memory grows neither with uptime nor with connections served.
//! * [`merge`](LiveMetrics::merge) concatenates the stripe windows and
//!   summarises with the same nearest-rank quantile machinery
//!   ([`HistSummary::of`]) the deterministic recorder uses, so p50/p90/p99
//!   mean the same thing in `stats` output as in bench records.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::json;
use crate::HistSummary;
use crate::STRIPES;

/// Samples retained per histogram *per stripe*. Old samples are
/// overwritten ring-style; quantiles in a merged snapshot therefore
/// describe at most the `WINDOW_CAP × STRIPES` most recent observations,
/// while `n` keeps the exact lifetime count.
pub const WINDOW_CAP: usize = 4096;

/// One histogram inside a stripe: a bounded ring of recent samples plus
/// the exact lifetime observation count.
#[derive(Default)]
struct HistWindow {
    total: u64,
    window: Vec<f64>,
    /// Overwrite cursor once `window` reaches [`WINDOW_CAP`].
    next: usize,
}

impl HistWindow {
    fn push(&mut self, value: f64) {
        self.total += 1;
        if self.window.len() < WINDOW_CAP {
            self.window.push(value);
        } else {
            self.window[self.next] = value;
            self.next = (self.next + 1) % WINDOW_CAP;
        }
    }
}

/// One stripe of the aggregate.
#[derive(Default)]
struct Stripe {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistWindow>,
}

/// A lock-striped counters/histograms aggregator for concurrent
/// recording (see the module docs above).
///
/// Cheaply shareable via `Arc`; all recording methods take `&self`.
#[derive(Default)]
pub struct LiveMetrics {
    stripes: [Mutex<Stripe>; STRIPES],
}

impl LiveMetrics {
    /// Creates an empty aggregator.
    pub fn new() -> LiveMetrics {
        LiveMetrics::default()
    }

    fn mine(&self) -> MutexGuard<'_, Stripe> {
        crate::lock(&self.stripes[crate::stripe()])
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter(&self, name: &str, delta: u64) {
        *self.mine().counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one observation of the named histogram. NaN observations
    /// are dropped (they would poison every quantile downstream).
    pub fn sample(&self, name: &str, value: f64) {
        if value.is_nan() {
            return;
        }
        self.mine()
            .hists
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Merges every stripe into one snapshot: counters summed, histogram
    /// windows concatenated and summarised with nearest-rank quantiles.
    pub fn merge(&self) -> LiveSnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut pools: BTreeMap<String, (u64, Vec<f64>)> = BTreeMap::new();
        for stripe in &self.stripes {
            let data = crate::lock(stripe);
            for (name, v) in &data.counters {
                *counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, hist) in &data.hists {
                let pool = pools.entry(name.clone()).or_insert((0, Vec::new()));
                pool.0 += hist.total;
                pool.1.extend_from_slice(&hist.window);
            }
        }
        let hists = pools
            .into_iter()
            .filter_map(|(name, (total, samples))| {
                HistSummary::of(&samples).map(|summary| (name, LiveHist { total, summary }))
            })
            .collect();
        LiveSnapshot { counters, hists }
    }
}

/// One merged histogram: lifetime count plus a summary of the retained
/// sample window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveHist {
    /// Exact lifetime observation count (may exceed `summary.n` once the
    /// per-stripe windows wrap).
    pub total: u64,
    /// Nearest-rank summary over the retained window.
    pub summary: HistSummary,
}

/// A point-in-time merge of a [`LiveMetrics`] aggregator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LiveSnapshot {
    /// Summed monotone counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Merged histograms, sorted by name.
    pub hists: BTreeMap<String, LiveHist>,
}

impl LiveSnapshot {
    /// Encodes the snapshot as canonical JSON: sorted keys, fixed member
    /// order, no whitespace — `encode → parse → encode` is byte-stable.
    pub fn to_json(&self) -> String {
        let counters: Vec<(String, String)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        let hists: Vec<(String, String)> = self
            .hists
            .iter()
            .map(|(k, h)| {
                let s = &h.summary;
                (
                    k.clone(),
                    json::object(&[
                        ("n".into(), h.total.to_string()),
                        ("window".into(), s.n.to_string()),
                        ("min".into(), json::number(s.min)),
                        ("max".into(), json::number(s.max)),
                        ("mean".into(), json::number(s.mean)),
                        ("p50".into(), json::number(s.p50)),
                        ("p90".into(), json::number(s.p90)),
                        ("p99".into(), json::number(s.p99)),
                    ]),
                )
            })
            .collect();
        json::object(&[
            ("counters".into(), json::object(&counters)),
            ("hists".into(), json::object(&hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn counters_sum_across_threads() {
        let live = Arc::new(LiveMetrics::new());
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let live = live.clone();
                let barrier = barrier.clone();
                thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..100 {
                        live.counter("hits", 1);
                    }
                    live.counter("per_thread", i + 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = live.merge();
        assert_eq!(snap.counters["hits"], 400);
        assert_eq!(snap.counters["per_thread"], 1 + 2 + 3 + 4);
    }

    #[test]
    fn dead_thread_metrics_survive_in_the_merge() {
        let live = Arc::new(LiveMetrics::new());
        let l2 = live.clone();
        thread::spawn(move || l2.counter("ephemeral", 7))
            .join()
            .unwrap();
        assert_eq!(live.merge().counters["ephemeral"], 7);
    }

    /// Merging what k threads recorded, then summarising, equals the
    /// quantiles of the concatenated samples — pinned over randomised
    /// splits across threads.
    #[test]
    fn thread_merge_matches_concatenated_quantiles() {
        // Deterministic split-mix style generator (no rand dep here).
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for case in 0..50u32 {
            let k = 1 + (next() % 6) as usize; // 1..=6 threads
            let mut per_thread: Vec<Vec<f64>> = vec![Vec::new(); k];
            let total = (next() % 200) as usize;
            let mut all = Vec::new();
            for _ in 0..total {
                let v = (next() % 1000) as f64 / 7.0;
                per_thread[(next() as usize) % k].push(v);
                all.push(v);
            }
            let live = Arc::new(LiveMetrics::new());
            let handles: Vec<_> = per_thread
                .into_iter()
                .map(|samples| {
                    let live = live.clone();
                    thread::spawn(move || {
                        // A thread that records only a counter adds nothing
                        // to the histogram — the "empty thread" edge case.
                        live.counter("touched", 1);
                        for v in samples {
                            live.sample("lat", v);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let merged = live.merge();
            match HistSummary::of(&all) {
                None => assert!(merged.hists.is_empty(), "case {case}: expected no hist"),
                Some(expect) => {
                    let got = merged.hists["lat"];
                    assert_eq!(got.total, all.len() as u64, "case {case}");
                    assert_eq!(got.summary.n, all.len(), "case {case}");
                    assert_eq!(got.summary.p50, expect.p50, "case {case}");
                    assert_eq!(got.summary.p90, expect.p90, "case {case}");
                    assert_eq!(got.summary.p99, expect.p99, "case {case}");
                    assert_eq!(got.summary.min, expect.min, "case {case}");
                    assert_eq!(got.summary.max, expect.max, "case {case}");
                    assert!((got.summary.mean - expect.mean).abs() < 1e-9, "case {case}");
                }
            }
        }
    }

    #[test]
    fn single_sample_and_all_equal_threads_merge_exactly() {
        // k single-sample threads.
        let live = Arc::new(LiveMetrics::new());
        for v in [3.0, 1.0, 2.0] {
            let live = live.clone();
            thread::spawn(move || live.sample("lat", v)).join().unwrap();
        }
        let got = live.merge().hists["lat"];
        assert_eq!(got.summary.p50, 2.0);
        assert_eq!(got.summary.p90, 3.0);
        assert_eq!((got.summary.min, got.summary.max), (1.0, 3.0));

        // All-equal values collapse every quantile.
        let live = Arc::new(LiveMetrics::new());
        for _ in 0..3 {
            let live = live.clone();
            thread::spawn(move || {
                for _ in 0..5 {
                    live.sample("flat", 2.25);
                }
            })
            .join()
            .unwrap();
        }
        let got = live.merge().hists["flat"];
        assert_eq!(got.total, 15);
        assert_eq!(
            (got.summary.p50, got.summary.p90, got.summary.p99),
            (2.25, 2.25, 2.25)
        );
    }

    #[test]
    fn histogram_window_is_bounded_but_count_is_exact() {
        let live = LiveMetrics::new();
        let n = WINDOW_CAP + 100;
        for i in 0..n {
            live.sample("lat", i as f64);
        }
        let got = live.merge().hists["lat"];
        assert_eq!(got.total, n as u64);
        assert_eq!(got.summary.n, WINDOW_CAP);
        // The window holds the most recent WINDOW_CAP samples.
        assert_eq!(got.summary.min, 100.0);
        assert_eq!(got.summary.max, (n - 1) as f64);
    }

    /// However many threads have recorded, the merged window holds at
    /// most one full window per stripe, while `n` stays exact.
    #[test]
    fn merged_window_is_bounded_by_the_stripe_count() {
        let live = Arc::new(LiveMetrics::new());
        let threads = 2 * STRIPES;
        for _ in 0..threads {
            let live = live.clone();
            thread::spawn(move || {
                for i in 0..=WINDOW_CAP {
                    live.sample("lat", i as f64);
                }
            })
            .join()
            .unwrap();
        }
        let got = live.merge().hists["lat"];
        assert_eq!(got.total, (threads * (WINDOW_CAP + 1)) as u64);
        assert!(
            (WINDOW_CAP..=STRIPES * WINDOW_CAP).contains(&got.summary.n),
            "merged window {} outside [{WINDOW_CAP}, {}]",
            got.summary.n,
            STRIPES * WINDOW_CAP
        );
    }

    #[test]
    fn nan_samples_are_dropped_not_poisoning() {
        let live = LiveMetrics::new();
        live.sample("lat", f64::NAN);
        live.sample("lat", 1.0);
        let got = live.merge().hists["lat"];
        assert_eq!(got.total, 1);
        assert_eq!(got.summary.p50, 1.0);
    }

    #[test]
    fn snapshot_json_is_byte_stable_and_parses() {
        let live = LiveMetrics::new();
        live.counter("b.count", 2);
        live.counter("a.count", 1);
        for v in [1.0, 2.0, 3.0] {
            live.sample("lat_ms", v);
        }
        let text = live.merge().to_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("a.count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("hists")
                .unwrap()
                .get("lat_ms")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        // Sorted keys + fixed member order ⇒ re-encoding a parse is the
        // original byte string.
        fn reencode(v: &json::Json) -> String {
            match v {
                json::Json::Null => "null".into(),
                json::Json::Bool(b) => b.to_string(),
                json::Json::Num(x) => json::number(*x),
                json::Json::Str(s) => json::string(s),
                json::Json::Arr(items) => {
                    json::array(&items.iter().map(reencode).collect::<Vec<_>>())
                }
                json::Json::Obj(members) => json::object(
                    &members
                        .iter()
                        .map(|(k, v)| (k.clone(), reencode(v)))
                        .collect::<Vec<_>>(),
                ),
            }
        }
        assert_eq!(reencode(&doc), text);
    }

    #[test]
    fn two_aggregators_on_one_thread_do_not_cross_talk() {
        let a = LiveMetrics::new();
        let b = LiveMetrics::new();
        a.counter("x", 1);
        b.counter("x", 10);
        assert_eq!(a.merge().counters["x"], 1);
        assert_eq!(b.merge().counters["x"], 10);
    }
}
