//! The journal-replay property: crash recovery must be outcome-preserving.
//!
//! `fl-flpd` promises that an epoch interrupted by `kill -9` recovers to
//! a decision *bit-identical* to the fault-free one: the write-ahead
//! journal records the exact bid set, and `A_FL` is deterministic on it.
//! This module certifies that promise per instance, without any TCP or
//! fault timing in the way:
//!
//! 1. synthesise the journal a daemon would have written for the
//!    instance up to and including `close_begin` — the worst crash
//!    point, where the close intent is durable but no decision is;
//! 2. recover a [`ServerCore`] from it, which re-solves the pending
//!    epoch, and compare the served outcome against a fresh in-process
//!    `run_auction` on the same instance — committed outcomes must match
//!    on their lossless serialisation, payments to the bit, and an
//!    infeasible reference must surface as an explicit abort;
//! 3. recover *again* from the now-extended journal (which gained a
//!    `close_commit`) and require the identical decision — the
//!    replay-from-commit path must agree with the re-solve path;
//! 4. require the final journal to scan clean: no torn frames.

use std::collections::HashMap;

use fl_auction::{
    run_auction, serial, AuctionError, AuctionOutcome, LocalIterationModel, QualifyMode,
};
use fl_flpd::journal::{encode_record, scan_bytes, Durability, Record};
use fl_flpd::session::{HandleResult, Limits, ServerCore};
use fl_flpd::wire::OpenParams;
use fl_telemetry::json::{self, Json};

use crate::gen::CertInstance;
use crate::props::{prop, Violation};

/// The session id used in the synthesised journal.
const SESSION: &str = "s-1";

/// Checks the journal-replay invariant for one instance. An instance
/// that fails its own validation is skipped (that is [`prop::INVALID`]'s
/// job, not this property's).
pub fn check_replay(ci: &CertInstance) -> Vec<Violation> {
    let mut v = Vec::new();
    let Ok(instance) = ci.to_instance() else {
        return v;
    };
    let reference = match run_auction(&instance) {
        Ok(outcome) => Some(outcome),
        Err(AuctionError::Infeasible) => None,
        Err(e) => {
            v.push(bad(format!("reference solve failed: {e}")));
            return v;
        }
    };

    let dir = fl_flpd::testutil::TempDir::new("certify-replay");
    let path = dir.path().join("wal.jsonl");
    if let Err(e) = std::fs::write(&path, journal_bytes(ci)) {
        v.push(bad(format!("writing synthetic journal: {e}")));
        return v;
    }

    // Pass 1: recovery must re-solve the pending close.
    match recover_outcome(&path) {
        Ok((outcome, report_replayed)) => {
            if report_replayed != 1 {
                v.push(bad(format!(
                    "expected exactly one re-solved close, recovery reported {report_replayed}"
                )));
            }
            compare(&reference, &outcome, "re-solve", &mut v);
            verify_payments(&path, &reference, ci, &mut v);
        }
        Err(e) => v.push(bad(format!("first recovery: {e}"))),
    }

    // Pass 2: the journal now carries the commit; replaying it must
    // serve the identical decision without another solve.
    match recover_outcome(&path) {
        Ok((outcome, report_replayed)) => {
            if report_replayed != 0 {
                v.push(bad(format!(
                    "commit already journaled but recovery re-solved {report_replayed} epochs"
                )));
            }
            compare(&reference, &outcome, "commit-replay", &mut v);
        }
        Err(e) => v.push(bad(format!("second recovery: {e}"))),
    }

    // The journal must end the exercise clean.
    match std::fs::read(&path) {
        Ok(bytes) => {
            if scan_bytes(&bytes).torn {
                v.push(bad("journal left torn after recovery".into()));
            }
        }
        Err(e) => v.push(bad(format!("reading back journal: {e}"))),
    }
    v
}

fn bad(detail: String) -> Violation {
    Violation {
        property: prop::JOURNAL_REPLAY,
        detail,
    }
}

/// The journal a daemon would have durably written by the moment the
/// fatal crash hits: open, every profile, every bid, and the close
/// intent — but no decision.
fn journal_bytes(ci: &CertInstance) -> Vec<u8> {
    let (model, param) = match ci.model {
        LocalIterationModel::Linear { scale } => ("linear", scale),
        LocalIterationModel::LogInverse { eta } => ("log", eta),
    };
    let qualify = match ci.qualify {
        QualifyMode::Intent => "intent",
        QualifyMode::Literal => "literal",
    };
    let params = OpenParams {
        nonce: 1,
        t: ci.t,
        k: ci.k,
        t_max: ci.t_max,
        model: model.into(),
        param,
        qualify: qualify.into(),
        budget: None,
    };
    let mut records = vec![Record::Open {
        session: SESSION.into(),
        params,
    }];
    let mut seq = 0u64;
    for &(t_cmp, t_com) in &ci.clients {
        seq += 1;
        records.push(Record::Client {
            session: SESSION.into(),
            seq,
            t_cmp,
            t_com,
        });
    }
    for b in &ci.bids {
        seq += 1;
        records.push(Record::Bid {
            session: SESSION.into(),
            seq,
            client: b.client,
            price: b.price,
            theta: b.theta,
            a: b.a,
            d: b.d,
            c: b.c,
        });
    }
    seq += 1;
    records.push(Record::CloseBegin {
        session: SESSION.into(),
        seq,
    });
    records.iter().flat_map(encode_record).collect()
}

/// Recovers a core from `path` and queries the epoch decision. Returns
/// the served outcome (`None` = explicit abort) and how many closes the
/// recovery had to re-solve.
fn recover_outcome(path: &std::path::Path) -> Result<(Option<AuctionOutcome>, usize), String> {
    let (core, report) = ServerCore::recover(path, Durability::Strict, None, Limits::default())
        .map_err(|e| e.to_string())?;
    let doc = ask(
        &core,
        &format!(r#"{{"op":"outcome","session":"{SESSION}"}}"#),
    )?;
    match doc.get("status").and_then(Json::as_str) {
        Some("committed") => {
            let outcome = doc
                .get("outcome")
                .ok_or("committed reply without outcome")?;
            let outcome =
                serial::outcome_from_value(outcome).map_err(|e| format!("bad outcome: {e}"))?;
            Ok((Some(outcome), report.replayed_closes))
        }
        Some("aborted") => Ok((None, report.replayed_closes)),
        other => Err(format!("outcome reply with status {other:?}")),
    }
}

fn ask(core: &ServerCore, payload: &str) -> Result<Json, String> {
    match core.handle(payload) {
        HandleResult::Reply(resp) => json::parse(&resp),
        other => Err(format!("unexpected handler result: {other:?}")),
    }
}

/// Committed ≡ committed bit-identically; infeasible ≡ aborted.
fn compare(
    reference: &Option<AuctionOutcome>,
    recovered: &Option<AuctionOutcome>,
    pass: &str,
    v: &mut Vec<Violation>,
) {
    match (reference, recovered) {
        (Some(want), Some(got)) => {
            let want = serial::outcome_to_json(want);
            let got = serial::outcome_to_json(got);
            if want != got {
                v.push(bad(format!(
                    "{pass}: recovered outcome diverged from the fresh solve: {got} vs {want}"
                )));
            }
        }
        (None, None) => {}
        (want, got) => v.push(bad(format!(
            "{pass}: decision flipped — fresh solve {}, recovery {}",
            decision(want),
            decision(got)
        ))),
    }
}

fn decision(o: &Option<AuctionOutcome>) -> &'static str {
    if o.is_some() {
        "committed"
    } else {
        "aborted"
    }
}

/// Per-client payment totals served after recovery must equal a fold
/// over the fresh outcome's winners, bit for bit.
fn verify_payments(
    path: &std::path::Path,
    reference: &Option<AuctionOutcome>,
    ci: &CertInstance,
    v: &mut Vec<Violation>,
) {
    let Some(reference) = reference else {
        return;
    };
    let Ok((core, _)) = ServerCore::recover(path, Durability::Strict, None, Limits::default())
    else {
        return; // already reported by the caller's recovery pass
    };
    let mut expected: HashMap<u32, f64> = HashMap::new();
    for c in 0..ci.clients.len() as u32 {
        // Same fold (identity 0.0, winner order) as the daemon's payment
        // handler, so equality is bitwise.
        let total = reference
            .solution()
            .winners()
            .iter()
            .filter(|w| w.bid_ref.client.0 == c)
            .fold(0.0f64, |acc, w| acc + w.payment);
        expected.insert(c, total);
    }
    for (client, want) in expected {
        let req = format!(r#"{{"op":"payment","session":"{SESSION}","client":{client}}}"#);
        match ask(&core, &req) {
            Ok(doc) => match doc.get("total").and_then(Json::as_f64) {
                Some(got) if got.to_bits() == want.to_bits() => {}
                Some(got) => v.push(bad(format!(
                    "client {client}: recovered payment {got} but fresh solve pays {want}"
                ))),
                None => v.push(bad(format!("client {client}: payment reply without total"))),
            },
            Err(e) => v.push(bad(format!("client {client}: payment query failed: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn generated_seeds_replay_clean() {
        for seed in 0..6 {
            let violations = check_replay(&generate(seed));
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn synthetic_journal_parses_back() {
        let ci = generate(3);
        let bytes = journal_bytes(&ci);
        let scan = scan_bytes(&bytes);
        assert!(!scan.torn);
        // open + clients + bids + close_begin
        assert_eq!(scan.records.len(), 1 + ci.clients.len() + ci.bids.len() + 1);
    }
}
