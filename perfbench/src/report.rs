//! Metric tables and the run's output.
//!
//! Every run prints a human-readable report (each figure by name, with its
//! unit and sample count) and then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The metric names here are
//! the ones `BENCHMARK.json` declares; a test holds the two lists equal.

use std::collections::BTreeMap;

use fl_telemetry::json;

/// A declared metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off. Every workload fills
/// every one of them; which operation a latency or rate refers to depends
/// on the workload (see the package README).
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("bids_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, which measures every layer on its
/// own workload's inputs whichever workload is selected.
pub const PER_LAYER: &[MetricDef] = &[
    ("client.calls", "count"),
    ("client.retries", "count"),
    ("client.ping_us.p50", "us"),
    ("wire.bytes_per_session", "bytes"),
    ("wire.parse_us.p50", "us"),
    ("wire.close_reply_bytes.p50", "bytes"),
    ("daemon.server_us.write.p50", "us"),
    ("daemon.server_us.write.p99", "us"),
    ("daemon.server_us.read.p99", "us"),
    ("daemon.queue_us.write.p50", "us"),
    ("daemon.shed", "count"),
    ("daemon.err.overloaded", "count"),
    ("session.handle_us.write.p50", "us"),
    ("session.handle_us.close.p50", "us"),
    ("session.handle_us.read.p50", "us"),
    ("session.lock_wait_us.read.p99", "us"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.wait_us.p99", "us"),
    ("journal.appends_per_session", "count"),
    ("journal.bytes_per_session", "bytes"),
    ("serial.outcome_us.p50", "us"),
    ("serial.outcome_bytes.p50", "bytes"),
    ("auction.horizons_solved", "count"),
    ("auction.horizons_pruned", "count"),
    ("auction.solved_ratio", "ratio"),
    ("auction.close_solve_us.p50", "us"),
    ("auction.unattributed_ms.p50", "ms"),
    ("preprocess.build_ms.p50", "ms"),
    ("preprocess.lower_bound_ms.p50", "ms"),
    ("preprocess.qualify_ms.p50", "ms"),
    ("preprocess.qualified_bids", "count"),
    ("wdp.feasibility_ms.p50", "ms"),
    ("preprocess.insert_us.p50", "us"),
    ("preprocess.insert_us.last_decile", "us"),
    ("preprocess.admission_us.p50", "us"),
    ("winner.greedy_ms.p50", "ms"),
    ("winner.certificate_ms.p50", "ms"),
    ("winner.certificate_share", "ratio"),
    ("winner.winners", "count"),
    ("winner.lazy_refreshes", "count"),
    ("online.submit_us.first_decile", "us"),
    ("online.submit_us.last_decile", "us"),
    ("online.growth_ratio", "ratio"),
    ("online.commit_ratio", "ratio"),
    ("online.duplicates", "count"),
    ("online.rejected.unqualified", "count"),
    ("online.rejected.no_capacity", "count"),
    ("online.rejected.price", "count"),
    ("online.rejected.budget", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// One measured figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// The value, in the metric's unit (`+∞` when a percentile landed on
    /// a failed operation).
    pub value: f64,
    /// Observations behind the value.
    pub samples: usize,
}

impl Figure {
    /// A figure from `value` over `samples` observations.
    pub fn new(value: f64, samples: usize) -> Figure {
        Figure { value, samples }
    }
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks that failed (empty when every output is correct).
    pub violations: Vec<String>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Declared metrics, by name.
    metrics: BTreeMap<&'static str, Figure>,
    /// Workload-specific figures printed by their own names (e.g.
    /// `session_p50_ms`), with unit.
    details: Vec<(String, &'static str, Figure)>,
    /// Free-form context lines (lateness, competitive ratio, disk).
    notes: Vec<String>,
}

impl Report {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table declares (a bug in this benchmark).
    pub fn set(&mut self, name: &'static str, figure: Figure) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not declared in the metric tables"
        );
        self.metrics.insert(name, figure);
    }

    /// The value of a declared metric set earlier in the run.
    pub fn get(&self, name: &str) -> Option<Figure> {
        self.metrics.get(name).copied()
    }

    /// Sets `ok_frac`, completed ÷ attempted operations, and prints its
    /// complement as `failed_frac`.
    pub fn set_ok_frac(&mut self) {
        let attempted = self.attempted.max(1);
        let ok = (attempted - self.failed.min(attempted)) as f64 / attempted as f64;
        let n = self.attempted as usize;
        self.detail("failed_frac", "ratio", Figure::new(1.0 - ok, n));
        self.set("ok_frac", Figure::new(ok, n));
    }

    /// Adds a workload-specific figure printed under its own name.
    pub fn detail(&mut self, name: impl Into<String>, unit: &'static str, figure: Figure) {
        self.details.push((name.into(), unit, figure));
    }

    /// Adds a context line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Metrics of `table` the run did not set.
    pub fn missing(&self, table: &[MetricDef]) -> Vec<&'static str> {
        table
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.metrics.contains_key(name))
            .collect()
    }

    /// Prints the report and, last, the JSON result line for the metrics
    /// of `table`.
    ///
    /// # Panics
    ///
    /// When a metric of `table` was not set (check [`Report::missing`]).
    pub fn print(&self, header: &str, table: &[MetricDef]) {
        println!("# {header}");
        for line in &self.notes {
            println!("note    {line}");
        }
        for (name, unit, f) in &self.details {
            println!(
                "detail  {name:<34} {:>16} {unit:<6} n={}",
                show(f.value),
                f.samples
            );
        }
        let mut members = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let f = self.get(name).expect("every metric of the table is set");
            println!(
                "metric  {name:<34} {:>16} {unit:<6} n={}",
                show(f.value),
                f.samples
            );
            members.push((
                name.to_string(),
                json::object(&[
                    ("value".into(), json_value(f.value)),
                    ("unit".into(), json::string(unit)),
                ]),
            ));
        }
        for v in &self.violations {
            println!("VIOLATION {v}");
        }
        println!(
            "{}",
            json::object(&[
                ("correct".into(), self.violations.is_empty().to_string()),
                ("attempted".into(), self.attempted.max(1).to_string()),
                ("failed".into(), self.failed.to_string()),
                ("metrics".into(), json::object(&members)),
            ])
        );
    }
}

/// The unit a metric is declared with, if either table declares it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

fn show(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.4}")
    } else {
        "inf (failed)".into()
    }
}

/// A JSON number with every digit; an infinite latency (a percentile
/// that landed on a failed operation) prints as the largest finite
/// double, since JSON has no infinity.
fn json_value(value: f64) -> String {
    if value.is_finite() {
        json::number(value)
    } else {
        json::number(f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_telemetry::json::Json;

    fn names_in(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let ours = |t: &[MetricDef]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), ours(PER_LAYER));
        for key in ["end_to_end", "per_layer"] {
            for m in doc.get(key).and_then(Json::as_array).expect("list") {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    unit_of(name),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn infinite_values_stay_valid_json_numbers() {
        let v = json_value(f64::INFINITY);
        assert!(json::parse(&v)
            .expect("number")
            .as_f64()
            .is_some_and(f64::is_finite));
        assert_eq!(json_value(0.25), "0.25");
    }
}
