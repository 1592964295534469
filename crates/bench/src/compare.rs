//! The noise-aware regression gate: diffing two [`BenchRecord`]s (or the
//! last two history entries per scenario).
//!
//! Two classes of field, two policies:
//!
//! * **Deterministic fields** (seed, scale, counters, mechanism stats,
//!   economics, phase call counts) must be *bit-identical* for the same
//!   seed and same code — any drift is a [`Severity::Drift`] hard failure.
//!   This is the cross-platform correctness oracle: a perf PR that changes
//!   a greedy iteration count or a payment by one ULP trips it.
//! * **Timing fields** are wall-clock noise. The gate flags a regression
//!   only when `current.min_ms` exceeds `baseline.min_ms` by more than a
//!   configurable relative margin — and *never* compares timing across
//!   records from differing core counts (a 1-core container measuring a
//!   parallel sweep says nothing about a 4-core one).

use crate::schema::BenchRecord;

/// Comparison knobs.
#[derive(Debug, Clone, Copy)]
pub struct CompareOpts {
    /// Whether to check timing at all (`false` in CI, where machines vary).
    pub timing: bool,
    /// Relative slow-down margin before a timing regression is flagged
    /// (0.25 = 25% over the baseline's min-of-N).
    pub timing_margin: f64,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            timing: true,
            timing_margin: 0.25,
        }
    }
}

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Deterministic-field drift or incomparable records — always fails.
    Drift,
    /// Timing regression beyond the margin — fails unless timing checks
    /// are disabled.
    Regression,
    /// Informational (timing skipped, improvements, unpaired scenarios).
    Note,
}

/// One comparison finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which history key the finding concerns.
    pub key: String,
    /// Finding class.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn new(key: &str, severity: Severity, message: String) -> Finding {
        Finding {
            key: key.into(),
            severity,
            message,
        }
    }
}

/// Whether a finding set should fail the gate.
pub fn verdict(findings: &[Finding]) -> bool {
    findings
        .iter()
        .any(|f| matches!(f.severity, Severity::Drift | Severity::Regression))
}

/// Compares `current` against `baseline` (same scenario key expected).
pub fn compare_records(
    baseline: &BenchRecord,
    current: &BenchRecord,
    opts: CompareOpts,
) -> Vec<Finding> {
    let key = current.key();
    let mut findings = Vec::new();

    if baseline.key() != current.key() {
        findings.push(Finding::new(
            &key,
            Severity::Drift,
            format!(
                "records are for different scenarios ({} vs {})",
                baseline.key(),
                current.key()
            ),
        ));
        return findings;
    }
    if baseline.schema_version != current.schema_version {
        findings.push(Finding::new(
            &key,
            Severity::Drift,
            format!(
                "schema version changed ({} -> {}) — regenerate the baseline",
                baseline.schema_version, current.schema_version
            ),
        ));
        return findings;
    }
    if baseline.env.seed != current.env.seed || baseline.env.scale != current.env.scale {
        findings.push(Finding::new(
            &key,
            Severity::Drift,
            "seed or scale differ — records are not comparable".into(),
        ));
        return findings;
    }

    // Deterministic gate: byte-compare the canonical projections and cite
    // every differing line.
    let base_view = baseline.deterministic_view();
    let cur_view = current.deterministic_view();
    if base_view != cur_view {
        let diffs = diff_lines(&base_view, &cur_view);
        findings.push(Finding::new(
            &key,
            Severity::Drift,
            format!(
                "deterministic fields drifted (same seed, so this is a correctness change):\n{}",
                diffs.join("\n")
            ),
        ));
    }

    // Timing gate.
    if opts.timing {
        if baseline.env.cores != current.env.cores {
            findings.push(Finding::new(
                &key,
                Severity::Note,
                format!(
                    "timing skipped: baseline ran on {} core(s), current on {} — not comparable",
                    baseline.env.cores, current.env.cores
                ),
            ));
        } else if baseline.timing.min_ms > 0.0 {
            let ratio = current.timing.min_ms / baseline.timing.min_ms;
            if ratio > 1.0 + opts.timing_margin {
                findings.push(Finding::new(
                    &key,
                    Severity::Regression,
                    format!(
                        "timing regression: min-of-{} {:.3} ms -> {:.3} ms ({:+.1}% > margin {:.0}%)",
                        current.timing.runs,
                        baseline.timing.min_ms,
                        current.timing.min_ms,
                        (ratio - 1.0) * 100.0,
                        opts.timing_margin * 100.0
                    ),
                ));
            } else if ratio < 1.0 - opts.timing_margin {
                findings.push(Finding::new(
                    &key,
                    Severity::Note,
                    format!(
                        "timing improved: {:.3} ms -> {:.3} ms ({:+.1}%)",
                        baseline.timing.min_ms,
                        current.timing.min_ms,
                        (ratio - 1.0) * 100.0
                    ),
                ));
            }
        }
    }
    findings
}

/// Pairs the last two records per scenario key in `history` (older =
/// baseline, newer = current) and compares each pair. Keys with fewer than
/// two records yield a [`Severity::Note`].
pub fn compare_history(history: &[BenchRecord], opts: CompareOpts) -> Vec<Finding> {
    let mut keys: Vec<String> = Vec::new();
    for r in history {
        let key = r.key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut findings = Vec::new();
    for key in keys {
        let of_key: Vec<&BenchRecord> = history.iter().filter(|r| r.key() == key).collect();
        match of_key.as_slice() {
            [] => unreachable!("key came from history"),
            [_single] => findings.push(Finding::new(
                &key,
                Severity::Note,
                "only one record in history — nothing to compare against".into(),
            )),
            [.., baseline, current] => {
                findings.extend(compare_records(baseline, current, opts));
            }
        }
    }
    findings
}

/// Line-level diff of the two canonical views (every line present in only
/// one side, prefixed with its side).
fn diff_lines(base: &str, cur: &str) -> Vec<String> {
    let base_lines: Vec<&str> = base.lines().collect();
    let cur_lines: Vec<&str> = cur.lines().collect();
    let mut out = Vec::new();
    for l in &base_lines {
        if !cur_lines.contains(l) {
            out.push(format!("  baseline: {l}"));
        }
    }
    for l in &cur_lines {
        if !base_lines.contains(l) {
            out.push(format!("  current:  {l}"));
        }
    }
    if out.is_empty() {
        out.push("  (views differ only in line order?)".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_scenario, Scale, Scenario, ScenarioKind};

    fn tiny() -> Scenario {
        Scenario {
            name: "unit_tiny",
            summary: "tiny auction for compare unit tests",
            kind: ScenarioKind::Auction,
            full: Scale {
                clients: 14,
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
        }
    }

    fn record() -> BenchRecord {
        run_scenario(&tiny(), true, 2).expect("tiny scenario runs")
    }

    #[test]
    fn identical_records_compare_clean() {
        let r = record();
        let findings = compare_records(&r, &r.clone(), CompareOpts::default());
        assert!(!verdict(&findings), "{findings:?}");
    }

    #[test]
    fn counter_drift_is_a_hard_failure() {
        let base = record();
        let mut drifted = base.clone();
        drifted.counters[0].1 += 1;
        let findings = compare_records(&base, &drifted, CompareOpts::default());
        assert!(verdict(&findings));
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Drift
                && f.message.contains("deterministic fields drifted")));
        // Disabling timing does not disable the deterministic gate.
        let no_timing = CompareOpts {
            timing: false,
            ..CompareOpts::default()
        };
        assert!(verdict(&compare_records(&base, &drifted, no_timing)));
    }

    #[test]
    fn economic_drift_is_a_hard_failure() {
        let base = record();
        let mut drifted = base.clone();
        drifted.economics.social_cost += 1e-9; // one-ULP-scale drift trips
        let findings = compare_records(&base, &drifted, CompareOpts::default());
        assert!(verdict(&findings));
    }

    #[test]
    fn timing_gate_uses_the_relative_margin() {
        let base = record();
        let mut slower = base.clone();
        slower.timing.min_ms = base.timing.min_ms * 1.5;
        let findings = compare_records(&base, &slower, CompareOpts::default());
        assert!(findings.iter().any(|f| f.severity == Severity::Regression));

        let mut within = base.clone();
        within.timing.min_ms = base.timing.min_ms * 1.1;
        let findings = compare_records(&base, &within, CompareOpts::default());
        assert!(!verdict(&findings), "{findings:?}");
    }

    #[test]
    fn timing_never_compares_across_core_counts() {
        let base = record();
        let mut other_machine = base.clone();
        other_machine.env.cores = base.env.cores + 7;
        other_machine.timing.min_ms = base.timing.min_ms * 100.0;
        let findings = compare_records(&base, &other_machine, CompareOpts::default());
        assert!(!verdict(&findings), "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Note && f.message.contains("timing skipped")));
    }

    #[test]
    fn history_pairs_last_two_per_key() {
        let a = record();
        let mut b = a.clone();
        b.timing.min_ms *= 0.9;
        let mut c = b.clone();
        c.counters[0].1 += 5; // drift vs b — a must NOT be the baseline
        let findings = compare_history(&[a, b, c], CompareOpts::default());
        assert!(verdict(&findings));
        let singles = compare_history(&[record()], CompareOpts::default());
        assert!(!verdict(&singles));
        assert!(singles[0].message.contains("only one record"));
    }

    #[test]
    fn different_seeds_refuse_to_compare() {
        let base = record();
        let mut other = base.clone();
        other.env.seed += 1;
        let findings = compare_records(&base, &other, CompareOpts::default());
        assert!(verdict(&findings));
        assert!(findings[0].message.contains("not comparable"));
    }
}
