//! Replays every committed corpus counterexample through the full property
//! engine. Each file pinned a real mechanism edge case when it was added;
//! this test is the permanent regression net that keeps them green.

use fl_auction::{run_auction, SweepPrecomp};
use fl_certify::{check, check_replay, corpus_dir, load_dir};

#[test]
fn every_corpus_entry_replays_clean() {
    let entries = load_dir(&corpus_dir()).expect("corpus must load");
    assert!(
        !entries.is_empty(),
        "the committed corpus must not be empty"
    );
    for (name, ci) in &entries {
        let report = check(ci);
        assert!(
            report.ok(),
            "{name} regressed ({}): {:?}",
            ci.note,
            report.violations
        );
    }
}

/// Every corpus instance must also survive the service-layer journal
/// round trip: recovering an interrupted epoch from the flpd write-ahead
/// journal yields the same decision and bit-identical payments as a
/// fresh solve on the recorded bid set.
#[test]
fn every_corpus_entry_survives_journal_recovery() {
    let entries = load_dir(&corpus_dir()).expect("corpus must load");
    for (name, ci) in &entries {
        let violations = check_replay(ci);
        assert!(
            violations.is_empty(),
            "{name} breaks the journal-replay invariant: {violations:?}"
        );
    }
}

/// The corpus entries are only worth committing while they still exercise
/// the code path they were minimised for; these pins fail loudly if a
/// behaviour change makes one of them vacuous.
#[test]
fn corpus_entries_still_exercise_their_edge_cases() {
    let entries = load_dir(&corpus_dir()).expect("corpus must load");
    let stats_of = |name: &str| {
        let (_, ci) = entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from corpus"));
        check(ci).stats
    };

    // The stall entry must still stall the truthfulness probes (not merely
    // pass): that reclassification is the behaviour it pins.
    let stall = stats_of("stall-threshold-nonmonotone.json");
    assert!(
        stall.stalled_probes >= 1,
        "stall entry no longer stalls: {stall:?}"
    );

    // The dual entries must still reach a proven optimum so the weak
    // duality comparison actually runs.
    for name in ["dual-cert-unrecorded-cheap-bid.json", "dual-above-opt.json"] {
        let s = stats_of(name);
        assert!(s.exact_proven >= 1, "{name} lost its proven optimum: {s:?}");
    }

    // T_0 == T: the sweep must have collapsed to a single candidate.
    let single = stats_of("t0-eq-t-single-horizon.json");
    assert_eq!(single.horizons, 1, "t0_eq_t entry qualifies extra horizons");

    // Horizon 3's bound must still round above horizon 4's, so best-first
    // visits 4 first, and the two must still tie on cost at the smaller
    // horizon's pick.
    let (_, ci) = entries
        .iter()
        .find(|(n, _)| n == "prune-bound-rounded-above-tie.json")
        .expect("prune entry missing from corpus");
    let instance = ci.to_instance().expect("prune entry must build");
    let precomp = SweepPrecomp::new(&instance);
    let outcome = run_auction(&instance).expect("prune entry is feasible");
    assert!(
        precomp.cost_lower_bound(3) > outcome.social_cost()
            && precomp.cost_lower_bound(4) == outcome.social_cost(),
        "prune entry's bounds no longer straddle the tied cost"
    );
    assert_eq!(outcome.horizon(), 3);
}
