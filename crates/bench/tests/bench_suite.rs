//! Acceptance tests for the benchmark observatory (ISSUE 4, criterion 3):
//! same-seed determinism of [`BenchRecord`]s, the compare gate tripping on
//! injected counter drift and out-of-margin timing regressions (and staying
//! silent within the margin), and byte-stable schema round-trips.

use fl_bench::compare::{compare_records, verdict, CompareOpts, Severity};
use fl_bench::schema::{append_history, main_summary, read_history, BenchRecord};
use fl_bench::suite::{run_scenario, Scale, Scenario, ScenarioKind};

/// A small but real auction scenario — large enough to exercise
/// qualification, greedy cover, payments, and the dual certificate.
fn scenario() -> Scenario {
    Scenario {
        name: "acceptance",
        summary: "integration-test auction",
        kind: ScenarioKind::Auction,
        full: Scale {
            clients: 30,
            bids_per_client: 3,
            rounds: 10,
            k: 3,
        },
        smoke: Scale {
            clients: 20,
            bids_per_client: 2,
            rounds: 8,
            k: 3,
        },
    }
}

fn record() -> BenchRecord {
    run_scenario(&scenario(), true, 2).expect("scenario runs")
}

#[test]
fn two_same_seed_runs_agree_on_every_non_timing_field() {
    let a = record();
    let b = record();
    assert_eq!(
        a.deterministic_view(),
        b.deterministic_view(),
        "same seed must give byte-identical deterministic projections"
    );
    // The record is substantive, not a husk.
    assert!(!a.phases.is_empty(), "per-phase profile must be populated");
    assert!(a.phases.iter().all(|(_, p)| p.calls > 0));
    assert!(!a.counters.is_empty(), "counters must be populated");
    assert!(a.economics.social_cost > 0.0);
    assert!(a.economics.total_payment >= a.economics.social_cost);
    assert!(a.economics.payment_overhead >= 1.0);
    assert!(a.economics.winners > 0);
    assert!(a.mechanism.greedy_iterations > 0);
    assert!(a.mechanism.qualify_examined > 0);
}

#[test]
fn compare_trips_on_injected_counter_drift_even_without_timing() {
    let base = record();
    let mut drifted = base.clone();
    let idx = drifted
        .counters
        .iter()
        .position(|(name, _)| name.contains("greedy"))
        .unwrap_or(0);
    drifted.counters[idx].1 += 1;
    let opts = CompareOpts {
        timing: false, // the CI configuration
        ..CompareOpts::default()
    };
    let findings = compare_records(&base, &drifted, opts);
    assert!(verdict(&findings), "counter drift must fail the gate");
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Drift && f.message.contains("drifted")));
}

#[test]
fn compare_trips_beyond_the_timing_margin_and_not_within_it() {
    let base = record();
    let opts = CompareOpts {
        timing: true,
        timing_margin: 0.25,
    };

    let mut regressed = base.clone();
    regressed.timing.min_ms = base.timing.min_ms * 1.30; // > 25% slower
    let findings = compare_records(&base, &regressed, opts);
    assert!(
        findings.iter().any(|f| f.severity == Severity::Regression),
        "30% slow-down must trip a 25% margin: {findings:?}"
    );
    assert!(verdict(&findings));

    let mut noisy = base.clone();
    noisy.timing.min_ms = base.timing.min_ms * 1.20; // within margin
    let findings = compare_records(&base, &noisy, opts);
    assert!(
        !verdict(&findings),
        "20% noise must stay silent under a 25% margin: {findings:?}"
    );
}

#[test]
fn schema_round_trip_is_byte_stable() {
    let r = record();
    let json = r.to_json();
    let parsed = BenchRecord::from_json(&json).expect("record parses back");
    assert_eq!(
        parsed.to_json(),
        json,
        "encode -> parse -> encode must be stable"
    );
    assert_eq!(parsed.deterministic_view(), r.deterministic_view());
}

#[test]
fn history_and_summary_files_round_trip_on_disk() {
    let dir = std::env::temp_dir().join(format!("bench_suite_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.jsonl");

    let a = record();
    let mut b = a.clone();
    b.env.build = "next".into();
    append_history(&path, &a).unwrap();
    append_history(&path, &b).unwrap();
    let read = read_history(&path).unwrap();
    assert_eq!(read.len(), 2);
    assert_eq!(read[0].to_json(), a.to_json());
    assert_eq!(read[1].to_json(), b.to_json());

    // The summary keeps only the latest record per key and stays valid JSON.
    let summary = main_summary(&read);
    fl_telemetry::json::validate(&summary).expect("summary is valid JSON");
    assert!(summary.contains("\"acceptance@smoke\""));
    assert!(summary.contains("\"next\""));

    std::fs::remove_dir_all(&dir).ok();
}
