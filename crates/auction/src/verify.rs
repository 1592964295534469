//! Independent validation of auction outcomes.
//!
//! Re-checks every constraint of ILP (6) against the *original* instance —
//! not against any solver's internal state — so tests and experiments can
//! assert feasibility of any [`WdpSolver`](crate::WdpSolver)'s output,
//! including the baselines and the exact solver.

use std::collections::HashSet;

use crate::auction::AuctionOutcome;
use crate::bid::Instance;
use crate::preprocess::SweepPrecomp;
use crate::wdp::{Wdp, WdpSolution};
use fl_telemetry::{counter, span, warn};

/// Reports `bad` to telemetry under `what` and passes it through.
fn report(what: &'static str, bad: Vec<String>) -> Vec<String> {
    if !bad.is_empty() {
        counter!(what, bad.len());
        warn!("{what}: {} violation(s), first: {}", bad.len(), bad[0]);
    }
    bad
}

/// All constraint violations of `solution` with respect to `wdp`; an empty
/// vector means the solution is feasible for ILP (7).
pub fn wdp_violations(wdp: &Wdp, solution: &WdpSolution) -> Vec<String> {
    let mut bad = Vec::new();
    if solution.horizon() != wdp.horizon() {
        bad.push(format!(
            "solution horizon {} differs from WDP horizon {}",
            solution.horizon(),
            wdp.horizon()
        ));
    }
    let mut load = vec![0u32; wdp.horizon() as usize];
    let mut clients = HashSet::new();
    let mut cost = 0.0;
    for w in solution.winners() {
        let Some(qb) = wdp.bids().iter().find(|b| b.bid_ref == w.bid_ref) else {
            bad.push(format!("{} is not a qualified bid of this WDP", w.bid_ref));
            continue;
        };
        if !clients.insert(w.bid_ref.client) {
            bad.push(format!("{} wins more than one bid", w.bid_ref.client));
        }
        if (w.price - qb.price).abs() > 1e-9 {
            bad.push(format!(
                "{} price {} disagrees with the submitted price {}",
                w.bid_ref, w.price, qb.price
            ));
        }
        if w.schedule.len() as u32 != qb.rounds {
            bad.push(format!(
                "{} schedules {} rounds instead of c = {}",
                w.bid_ref,
                w.schedule.len(),
                qb.rounds
            ));
        }
        if !w.schedule.windows(2).all(|p| p[0] < p[1]) {
            bad.push(format!("{} schedule is not strictly increasing", w.bid_ref));
        }
        for &t in &w.schedule {
            if !qb.window.contains(t) {
                bad.push(format!(
                    "{} schedules {t} outside window {}",
                    w.bid_ref, qb.window
                ));
            } else {
                load[t.index()] += 1;
            }
        }
        cost += qb.price;
    }
    for (i, &l) in load.iter().enumerate() {
        if l < wdp.demand_per_round() {
            bad.push(format!(
                "round t={} has {l} participants, needs {}",
                i + 1,
                wdp.demand_per_round()
            ));
        }
    }
    if (cost - solution.cost()).abs() > 1e-6 * (1.0 + cost.abs()) {
        bad.push(format!(
            "reported cost {} differs from winner price total {cost}",
            solution.cost()
        ));
    }
    report("verify.wdp_violations", bad)
}

/// All violations of ILP (6) by a full auction outcome, including the
/// horizon-coupling constraints the WDP itself does not see.
pub fn outcome_violations(instance: &Instance, outcome: &AuctionOutcome) -> Vec<String> {
    let horizon = outcome.horizon();
    let _span = span!("verify_outcome", tg = horizon);
    let mut bad = Vec::new();
    if horizon == 0 || horizon > instance.config().max_rounds() {
        bad.push(format!(
            "T_g = {horizon} escapes the announced range [1, {}]",
            instance.config().max_rounds()
        ));
        return report("verify.outcome_violations", bad);
    }
    // Feasibility with respect to the qualified WDP at the chosen horizon.
    let wdp = SweepPrecomp::new(instance).qualify_at(horizon);
    bad.extend(wdp_violations(&wdp, outcome.solution()));
    // Constraint (6b): every winner's accuracy respects T_g ≥ 1/(1−θ).
    let theta_max = 1.0 - 1.0 / f64::from(horizon);
    for w in outcome.solution().winners() {
        let bid = instance.bid(w.bid_ref);
        if bid.accuracy() > theta_max + 1e-9 {
            bad.push(format!(
                "{} has θ = {} > θ_max = {theta_max} at T_g = {horizon}",
                w.bid_ref,
                bid.accuracy()
            ));
        }
        // Constraint (6d): per-round wall clock within t_max.
        let t = instance.round_time(w.bid_ref);
        if t > instance.config().round_time_limit() + 1e-9 {
            bad.push(format!(
                "{} needs {t} time units per round, over the limit {}",
                w.bid_ref,
                instance.config().round_time_limit()
            ));
        }
    }
    report("verify.outcome_violations", bad)
}

/// Individual-rationality violations: winners paid strictly less than
/// their claimed cost. Empty for any critical-value run (Theorem 2).
pub fn ir_violations(solution: &WdpSolution) -> Vec<String> {
    let bad = solution
        .winners()
        .iter()
        .filter(|w| w.payment < w.price - 1e-9)
        .map(|w| {
            format!(
                "{} paid {} below its claimed cost {}",
                w.bid_ref, w.payment, w.price
            )
        })
        .collect();
    report("verify.ir_violations", bad)
}

/// Verifies the paper's Lemma 5 inequality chain `D ≤ P ≤ H·ω·D` for a
/// solution carrying a certificate. Returns violations (empty when the
/// certificate is consistent or absent). An infinite `ω` trivially
/// satisfies the upper bound.
pub fn certificate_violations(solution: &WdpSolution) -> Vec<String> {
    let Some(cert) = solution.certificate() else {
        return Vec::new();
    };
    let mut bad = Vec::new();
    let p = solution.cost();
    let d = cert.dual_objective;
    if d > p + 1e-6 * (1.0 + p.abs()) {
        bad.push(format!("weak duality violated: D = {d} exceeds P = {p}"));
    }
    let bound = cert.ratio_bound() * d;
    if bound.is_finite() && p > bound + 1e-6 * (1.0 + bound.abs()) {
        bad.push(format!("Lemma 5 violated: P = {p} exceeds H·ω·D = {bound}"));
    }
    if cert.lambda.iter().any(|&l| l < -1e-9) {
        bad.push("negative λ dual variable".into());
    }
    if cert.g.iter().any(|&g| g < -1e-9 || g.is_nan()) {
        bad.push("invalid g(t) dual variable".into());
    }
    report("verify.certificate_violations", bad)
}

/// Checks dual feasibility (constraint (8a)) of a certificate against a
/// *sample* of schedules: for every qualified bid, its windows' contiguous
/// `c`-round schedules and its least/most-loaded variants. Constraint (8a)
/// requires `Σ_{t∈l} g(t) − λ_il − q_i ≤ ρ_il` for **every** feasible
/// schedule `l` (exponentially many); spot-checking the extremal ones
/// catches construction bugs without exponential work. For unselected
/// bids `λ = q = 0`; for selected ones the winner's `λ` applies.
///
/// Returns violation descriptions (empty when the sampled constraints
/// hold or no certificate is attached).
pub fn dual_feasibility_violations(wdp: &Wdp, solution: &WdpSolution) -> Vec<String> {
    let Some(cert) = solution.certificate() else {
        return Vec::new();
    };
    if !cert.omega.is_finite() {
        return Vec::new(); // bounds are vacuous at ω = ∞
    }
    let mut bad = Vec::new();
    let lambda_of = |bid: crate::types::BidRef| -> f64 {
        solution
            .winners()
            .iter()
            .position(|w| w.bid_ref == bid)
            .map_or(0.0, |i| cert.lambda[i])
    };
    for qb in wdp.bids() {
        let c = qb.rounds as usize;
        let rounds: Vec<_> = qb.window.rounds().collect();
        // Sample schedules: every contiguous c-window plus the winner's
        // actual schedule when applicable.
        let mut samples: Vec<Vec<crate::types::Round>> =
            rounds.windows(c).map(|w| w.to_vec()).collect();
        if let Some(w) = solution.winners().iter().find(|w| w.bid_ref == qb.bid_ref) {
            samples.push(w.schedule.clone());
        }
        let lambda = lambda_of(qb.bid_ref);
        for l in samples {
            let g_sum: f64 = l.iter().map(|t| cert.g[t.index()]).sum();
            let lhs = g_sum - lambda;
            if lhs > qb.price + 1e-6 * (1.0 + qb.price.abs()) {
                bad.push(format!(
                    "dual constraint (8a) violated for {} on schedule {l:?}: {lhs} > ρ = {}",
                    qb.bid_ref, qb.price
                ));
            }
        }
    }
    report("verify.dual_feasibility_violations", bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::{Bid, ClientProfile};
    use crate::config::AuctionConfig;
    use crate::types::{BidRef, ClientId, Round, Window};
    use crate::wdp::WinnerEntry;
    use crate::winner::AWinner;
    use crate::{run_auction, QualifiedBid, WdpSolver};

    fn wdp() -> Wdp {
        let qb = |client: u32, price: f64, a: u32, d: u32, c: u32| QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), 0),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 1.0,
        };
        Wdp::new(
            3,
            1,
            vec![
                qb(1, 2.0, 1, 2, 1),
                qb(2, 6.0, 2, 3, 2),
                qb(3, 5.0, 1, 3, 2),
            ],
        )
    }

    #[test]
    fn a_winner_output_is_clean() {
        let sol = AWinner::new().solve_wdp(&wdp()).unwrap();
        assert!(wdp_violations(&wdp(), &sol).is_empty());
        assert!(ir_violations(&sol).is_empty());
        assert!(certificate_violations(&sol).is_empty());
        assert!(dual_feasibility_violations(&wdp(), &sol).is_empty());
    }

    #[test]
    fn dual_feasibility_holds_on_random_wdps() {
        let mut state = 0xabcdef12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut checked = 0;
        for _ in 0..40 {
            let h = 3 + (next() % 4) as u32;
            let k = 1 + (next() % 2) as u32;
            let n = 5 + (next() % 6) as usize;
            let bids: Vec<QualifiedBid> = (0..n)
                .map(|i| {
                    let a = 1 + (next() % u64::from(h)) as u32;
                    let d = a + (next() % u64::from(h - a + 1)) as u32;
                    let c = 1 + (next() % u64::from(d - a + 1)) as u32;
                    QualifiedBid {
                        bid_ref: BidRef::new(ClientId(i as u32), 0),
                        price: 1.0 + (next() % 30) as f64,
                        accuracy: 0.5,
                        window: Window::new(Round(a), Round(d)),
                        rounds: c,
                        round_time: 1.0,
                    }
                })
                .collect();
            let w = Wdp::new(h, k, bids);
            if let Ok(sol) = AWinner::new().solve_wdp(&w) {
                let bad = dual_feasibility_violations(&w, &sol);
                assert!(bad.is_empty(), "{bad:?}");
                checked += 1;
            }
        }
        assert!(checked > 10, "too few feasible random WDPs ({checked})");
    }

    #[test]
    fn detects_undercoverage() {
        let winners = vec![WinnerEntry {
            bid_ref: BidRef::new(ClientId(1), 0),
            price: 2.0,
            payment: 2.0,
            schedule: vec![Round(1)],
        }];
        let sol = WdpSolution::new(3, winners, 2.0, None);
        let bad = wdp_violations(&wdp(), &sol);
        assert!(bad.iter().any(|m| m.contains("participants")), "{bad:?}");
    }

    #[test]
    fn detects_out_of_window_schedule() {
        let winners = vec![
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(1), 0),
                price: 2.0,
                payment: 2.0,
                schedule: vec![Round(3)], // window is [1,2]
            },
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(3), 0),
                price: 5.0,
                payment: 5.0,
                schedule: vec![Round(1), Round(2)],
            },
        ];
        let sol = WdpSolution::new(3, winners, 7.0, None);
        let bad = wdp_violations(&wdp(), &sol);
        assert!(bad.iter().any(|m| m.contains("outside window")), "{bad:?}");
    }

    #[test]
    fn detects_duplicate_client() {
        let qb = |bid: u32, a: u32| QualifiedBid {
            bid_ref: BidRef::new(ClientId(1), bid),
            price: 1.0,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(a)),
            rounds: 1,
            round_time: 1.0,
        };
        let w = Wdp::new(2, 1, vec![qb(0, 1), qb(1, 2)]);
        let winners = vec![
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(1), 0),
                price: 1.0,
                payment: 1.0,
                schedule: vec![Round(1)],
            },
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(1), 1),
                price: 1.0,
                payment: 1.0,
                schedule: vec![Round(2)],
            },
        ];
        let sol = WdpSolution::new(2, winners, 2.0, None);
        let bad = wdp_violations(&w, &sol);
        assert!(
            bad.iter().any(|m| m.contains("more than one bid")),
            "{bad:?}"
        );
    }

    #[test]
    fn detects_ir_violation() {
        let winners = vec![WinnerEntry {
            bid_ref: BidRef::new(ClientId(1), 0),
            price: 2.0,
            payment: 1.0,
            schedule: vec![Round(1)],
        }];
        let sol = WdpSolution::new(1, winners, 2.0, None);
        assert_eq!(ir_violations(&sol).len(), 1);
    }

    #[test]
    fn full_outcome_round_trip_is_clean() {
        let cfg = AuctionConfig::builder()
            .max_rounds(5)
            .clients_per_round(2)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for (price, theta) in [(4.0, 0.5), (6.0, 0.6), (3.0, 0.7), (9.0, 0.5), (5.0, 0.55)] {
            let c = inst.add_client(ClientProfile::new(2.0, 3.0).unwrap());
            inst.add_bid(
                c,
                Bid::new(price, theta, Window::new(Round(1), Round(5)), 5).unwrap(),
            )
            .unwrap();
        }
        let outcome = run_auction(&inst).unwrap();
        assert!(outcome_violations(&inst, &outcome).is_empty());
    }
}
