//! Renders `results/REPORT_perf.md` — the performance trajectory dashboard
//! assembled from `results/BENCH_history.jsonl`.
//!
//! Per scenario: a sparkline of the min-of-N wall clock over history, the
//! run-by-run table (build, cores, timing, economic invariants), and the
//! per-phase profile of the latest record. Records from differing core
//! counts share one table but are explicitly labelled — the sparkline is
//! drawn only over the most recent records with a matching core count, so
//! a 1-core container run never masquerades as a regression or a speedup.

use std::fmt::Write as _;

use crate::output::Table;
use crate::overhead::OverheadReport;
use crate::schema::BenchRecord;

/// The block glyphs used for sparklines, shortest to tallest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maps values onto spark glyphs (min → shortest, max → tallest).
fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return '?';
            }
            let idx = if hi > lo {
                (((v - lo) / (hi - lo)) * (SPARKS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            SPARKS[idx.min(SPARKS.len() - 1)]
        })
        .collect()
}

fn fmt_ratio(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "n/a".into()
    }
}

/// The `scale_frontier_*` scenario keys, smallest to largest (full-scale
/// keys; the smoke variants carry an `@smoke` suffix and are excluded).
const FRONTIER_KEYS: [&str; 3] = [
    "scale_frontier_1k",
    "scale_frontier_10k",
    "scale_frontier_100k",
];

/// Renders the "Scale frontier" summary: the latest full-scale record of
/// each `scale_frontier_*` scenario as a bids-vs-throughput table, with a
/// bids/sec headline taken from the largest frontier present. Returns
/// `None` when the history holds no full-scale frontier records.
fn scale_frontier_section(history: &[BenchRecord]) -> Option<String> {
    let latest: Vec<&BenchRecord> = FRONTIER_KEYS
        .iter()
        .filter_map(|key| history.iter().rev().find(|r| r.key() == *key))
        .collect();
    if latest.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(out, "## Scale frontier");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "`A_winner` on the columnar bid store as the bid count climbs three \
         decades under one fixed shape (J=4, T=64, K=8). Throughput is \
         `bids / (min_ms / 1000)` of the latest full-scale record per \
         frontier; rows from differing core counts are **not** mutually \
         comparable, and 1-core records are flagged."
    );
    let _ = writeln!(out);
    let mut table = Table::new(["scenario", "bids", "cores", "min_ms", "bids/sec"]);
    let mut headline: Option<(u64, f64, u64)> = None;
    for r in &latest {
        let bids = r.env.scale.clients * r.env.scale.bids_per_client;
        let bids_per_sec = bids as f64 / (r.timing.min_ms / 1e3);
        let cores = if r.env.cores == 1 {
            "1 ⚠".to_string()
        } else {
            r.env.cores.to_string()
        };
        table.push_row(vec![
            format!("`{}`", r.scenario),
            bids.to_string(),
            cores,
            format!("{:.3}", r.timing.min_ms),
            format!("{bids_per_sec:.0}"),
        ]);
        if headline.is_none_or(|(b, _, _)| bids > b) {
            headline = Some((bids, bids_per_sec, r.env.cores));
        }
    }
    out.push_str(&table.to_markdown());
    let (bids, bids_per_sec, cores) = headline.expect("latest is non-empty");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "**Headline: {bids_per_sec:.0} bids/sec at the {bids}-bid frontier \
         ({cores} core(s){}).** Reproduce with \
         `cargo run --release -p fl-bench --bin bench_suite -- run \
         --scenario scale_frontier_1k --scenario scale_frontier_10k \
         --scenario scale_frontier_100k`.",
        if cores == 1 {
            " — 1-core record, machine-bounded"
        } else {
            ""
        }
    );
    let _ = writeln!(out);
    Some(out)
}

/// Renders the "Online ingest" summary: sustained streaming throughput of
/// the [`OnlineAuction`](fl_auction::OnlineAuction) driver, derived from
/// the latest `online_ingest` record's `online.arrived` counter over its
/// min-of-N wall clock, plus the on-arrival decision mix and the
/// competitive ratio against the offline `A_FL` solve of the same
/// instance. Full-scale records are preferred; with only smoke history
/// the section renders from `online_ingest@smoke` and says so. Returns
/// `None` when no `online_ingest` record exists yet.
fn online_ingest_section(history: &[BenchRecord]) -> Option<String> {
    let latest = history
        .iter()
        .rev()
        .find(|r| r.scenario == "online_ingest" && !r.env.smoke)
        .or_else(|| history.iter().rev().find(|r| r.scenario == "online_ingest"))?;
    let counter = |name: &str| {
        latest
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    let arrived = counter("online.arrived").unwrap_or(0);
    let bids_per_sec = arrived as f64 / (latest.timing.min_ms / 1e3);
    let mut out = String::new();
    let _ = writeln!(out, "## Online ingest");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Sustained streaming throughput of the `OnlineAuction` driver \
         (`{}` record, {} core(s)): every bid decided irrevocably on \
         arrival under the posted-price budget. Throughput is \
         `online.arrived / (min_ms / 1000)`.",
        latest.key(),
        latest.env.cores
    );
    let _ = writeln!(out);
    let mut table = Table::new(["metric", "value"]);
    table.push_row(vec!["bids arrived".into(), arrived.to_string()]);
    table.push_row(vec![
        "min_ms".into(),
        format!("{:.3}", latest.timing.min_ms),
    ]);
    table.push_row(vec!["bids/sec".into(), format!("{bids_per_sec:.0}")]);
    for (label, name) in [
        ("committed", "online.committed"),
        ("rejected", "online.rejected"),
        ("duplicates", "online.duplicates"),
        ("coverage %", "online.coverage_pct"),
    ] {
        if let Some(v) = counter(name) {
            table.push_row(vec![label.into(), v.to_string()]);
        }
    }
    match counter("online.competitive_ratio_milli") {
        Some(milli) => table.push_row(vec![
            "competitive ratio vs offline A_FL".into(),
            format!("{:.3}", milli as f64 / 1e3),
        ]),
        None => table.push_row(vec![
            "competitive ratio vs offline A_FL",
            "n/a (stream did not reach full coverage)",
        ]),
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "**Headline: {bids_per_sec:.0} bids/sec sustained on-arrival \
         ingest ({arrived} bids{}).** Reproduce with \
         `cargo run --release -p fl-bench --bin bench_suite -- run \
         --scenario online_ingest`.",
        if latest.env.smoke {
            ", smoke scale — run the full scenario for the comparable figure"
        } else {
            ""
        }
    );
    let _ = writeln!(out);
    Some(out)
}

/// Renders the "Telemetry overhead" section from a live measurement (see
/// [`crate::overhead::measure`]) — the standing "≤ 3 % with sinks
/// disabled" claim as a number, re-verified at report time.
pub fn telemetry_overhead_section(r: &OverheadReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Telemetry overhead (sinks disabled)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Measured at report time on the `A_winner` hot path ({} bids, the \
         `winner_fig3` shape): one solve dispatches **{}** telemetry \
         events; the disabled fast path costs **{:.1} ns** per entry \
         point; the solve itself takes **{:.3} ms** with no sink \
         installed ({:.3} ms with the full recorder listening). Disabled \
         instrumentation therefore occupies **{:.4} %** of the hot path — \
         the standing claim is **≤ 3 %**, pinned by the \
         `telemetry_overhead` integration test.",
        r.bids,
        r.events,
        r.per_op_ns,
        r.solve_ms,
        r.recorded_ms,
        r.share * 100.0
    );
    let _ = writeln!(out);
    out
}

/// Renders the full markdown dashboard from a history (oldest first).
pub fn render(history: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Performance trajectory");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Generated by `bench_suite report` from `results/BENCH_history.jsonl` \
         ({} record(s)). Timing is min-of-N wall clock; **timing is only \
         comparable between records with the same core count** — the \
         deterministic columns (cost, payment, ratio, winners) must be \
         identical for a fixed seed regardless of machine.",
        history.len()
    );
    let _ = writeln!(out);
    if let Some(frontier) = scale_frontier_section(history) {
        out.push_str(&frontier);
    }
    if let Some(online) = online_ingest_section(history) {
        out.push_str(&online);
    }

    let mut keys: Vec<String> = Vec::new();
    for r in history {
        let key = r.key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }

    for key in keys {
        let of_key: Vec<&BenchRecord> = history.iter().filter(|r| r.key() == key).collect();
        let latest = *of_key.last().expect("key came from history");
        let _ = writeln!(out, "## `{key}`");
        let _ = writeln!(out);
        let s = &latest.env.scale;
        let _ = writeln!(
            out,
            "kind `{}` · seed {} · I={} J={} T={} K={} · {} pinned thread(s)",
            latest.kind,
            latest.env.seed,
            s.clients,
            s.bids_per_client,
            s.rounds,
            s.k,
            latest.env.threads
        );
        let _ = writeln!(out);

        // Sparkline over the trailing run of records sharing the latest
        // record's core count.
        let comparable: Vec<&&BenchRecord> = of_key
            .iter()
            .rev()
            .take_while(|r| r.env.cores == latest.env.cores)
            .collect();
        let mut timings: Vec<f64> = comparable.iter().map(|r| r.timing.min_ms).collect();
        timings.reverse();
        let _ = writeln!(
            out,
            "min_ms trajectory ({} core(s), last {} run(s)): `{}` latest **{:.3} ms**",
            latest.env.cores,
            timings.len(),
            sparkline(&timings),
            latest.timing.min_ms
        );
        if of_key.iter().any(|r| r.env.cores != latest.env.cores) {
            let _ = writeln!(
                out,
                "(history also holds records from other core counts — listed below, \
                 excluded from the sparkline)"
            );
        }
        if of_key.iter().any(|r| r.env.cores == 1) {
            let _ = writeln!(
                out,
                "⚠ {} record(s) are from a 1-core machine: parallel scenarios are \
                 bounded by the machine there, not by the code.",
                of_key.iter().filter(|r| r.env.cores == 1).count()
            );
        }
        let _ = writeln!(out);

        let mut table = Table::new([
            "run",
            "build",
            "cores",
            "min_ms",
            "social_cost",
            "payment",
            "overhead",
            "approx_emp",
            "approx_bound",
            "winners",
            "standby",
        ]);
        for (i, r) in of_key.iter().enumerate() {
            let e = &r.economics;
            table.push_row(vec![
                (i + 1).to_string(),
                r.env.build.clone(),
                r.env.cores.to_string(),
                format!("{:.3}", r.timing.min_ms),
                format!("{:.4}", e.social_cost),
                format!("{:.4}", e.total_payment),
                fmt_ratio(e.payment_overhead),
                fmt_ratio(e.approx_ratio_empirical),
                fmt_ratio(e.approx_ratio_bound),
                e.winners.to_string(),
                e.standby_pool.to_string(),
            ]);
        }
        out.push_str(&table.to_markdown());
        let _ = writeln!(out);

        let _ = writeln!(out, "### Phase profile (latest record)");
        let _ = writeln!(out);
        let mut phases = Table::new(["phase", "calls", "total_ms", "p50_ms", "p90_ms", "p99_ms"]);
        for (name, p) in &latest.phases {
            phases.push_row(vec![
                format!("`{name}`"),
                p.calls.to_string(),
                format!("{:.3}", p.total_ms),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p90_ms),
                format!("{:.3}", p.p99_ms),
            ]);
        }
        out.push_str(&phases.to_markdown());
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_scenario, Scale, Scenario, ScenarioKind};

    #[test]
    fn sparkline_scales_to_the_range() {
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn report_renders_every_scenario_with_phases_and_economics() {
        let tiny = Scenario {
            name: "unit_report",
            summary: "tiny auction for report tests",
            kind: ScenarioKind::Auction,
            full: Scale {
                clients: 12,
                bids_per_client: 2,
                rounds: 6,
                k: 2,
            },
            smoke: Scale {
                clients: 10,
                bids_per_client: 2,
                rounds: 5,
                k: 2,
            },
        };
        let mut a = run_scenario(&tiny, true, 2).unwrap();
        a.env.cores = 4; // pin so the test does not depend on the machine
        let mut one_core = a.clone();
        one_core.env.cores = 1;
        let md = render(&[one_core, a.clone()]);
        assert!(md.contains("## `unit_report@smoke`"));
        assert!(md.contains("min_ms trajectory"));
        assert!(md.contains("1-core machine"));
        assert!(md.contains("`afl_run`"));
        assert!(md.contains("overhead"));
        // Mixed core counts: sparkline only covers the trailing same-core run.
        assert!(md.contains("other core counts"));
        // No full-scale frontier records → no frontier section.
        assert!(!md.contains("## Scale frontier"));
    }

    #[test]
    fn scale_frontier_section_reports_throughput_and_flags_one_core_records() {
        let tiny = Scenario {
            name: "scale_frontier_1k",
            summary: "frontier stand-in for report tests",
            kind: ScenarioKind::Wdp,
            full: Scale {
                clients: 20,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
            smoke: Scale {
                clients: 10,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
        };
        let mut r = run_scenario(&tiny, false, 2).unwrap();
        r.env.cores = 1;
        r.timing.min_ms = 8.0; // 40 bids / 8 ms = 5000 bids/sec
        let md = render(&[r]);
        assert!(md.contains("## Scale frontier"));
        assert!(md.contains("`scale_frontier_1k`"));
        assert!(md.contains("5000"), "throughput column missing:\n{md}");
        assert!(md.contains("1-core record, machine-bounded"));
        assert!(md.contains("--scenario scale_frontier_100k"));
    }

    #[test]
    fn online_ingest_section_reports_bids_per_sec_and_the_decision_mix() {
        let tiny = Scenario {
            name: "online_ingest",
            summary: "online stand-in for report tests",
            kind: ScenarioKind::OnlineIngest,
            full: Scale {
                clients: 20,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
            smoke: Scale {
                clients: 10,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
        };
        let mut r = run_scenario(&tiny, true, 2).unwrap();
        r.timing.min_ms = 4.0; // 20 arrivals / 4 ms = 5000 bids/sec
        let md = render(&[r]);
        assert!(md.contains("## Online ingest"));
        assert!(md.contains("bids/sec"));
        assert!(md.contains("5000"), "throughput headline missing:\n{md}");
        assert!(md.contains("competitive ratio vs offline A_FL"));
        assert!(md.contains("smoke scale"));
        assert!(md.contains("--scenario online_ingest"));
    }
}
