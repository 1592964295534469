//! Reference oracles for the per-horizon work that `fl_auction` runs on
//! faster data structures.
//!
//! Each oracle is the direct reading of its definition: per round for the
//! feasibility check and `ω`, per iteration over every bid for the greedy
//! and its dual certificate. The property engine ([`crate::props`]) holds
//! the production code to the first two at every candidate horizon, and
//! `tests/columnar_equivalence.rs` holds it to all three on the
//! certifier's shape families and on adversarial row orders.

use std::collections::HashSet;

use fl_auction::{
    payment, pick_schedule, Coverage, DualCertificate, PaymentRule, Round, SchedulePolicy,
    SelectionStep, Wdp, WdpError, WdpSolution, WinnerEntry,
};

/// Whether some round of `wdp` lies inside fewer than `K` windows of
/// *distinct* clients: one `HashSet` of client ids per round, filled from
/// every round of every window. The reference for
/// [`Wdp::obviously_infeasible`].
pub fn obviously_infeasible(wdp: &Wdp) -> bool {
    let mut per_round: Vec<HashSet<u32>> = vec![HashSet::new(); wdp.horizon() as usize];
    for b in wdp.bids() {
        for t in b.window.rounds() {
            per_round[t.index()].insert(b.bid_ref.client.0);
        }
    }
    per_round
        .iter()
        .any(|s| (s.len() as u32) < wdp.demand_per_round())
}

/// The dual certificate's `ω = max_t ψ_max^t / ψ_min^t` (Alg. 2 line 18),
/// rescanning every bid for every round: `ψ_max^t` is the largest price
/// and `ψ_min^t` the smallest `ρ/c` over the bids whose window covers `t`.
/// The reference for `DualCertificate::omega`.
pub fn omega(wdp: &Wdp) -> f64 {
    let mut omega: f64 = 0.0;
    for t in (1..=wdp.horizon()).map(fl_auction::Round) {
        let mut psi_max: f64 = 0.0;
        let mut psi_min = f64::INFINITY;
        for b in wdp.bids().iter().filter(|b| b.window.contains(t)) {
            psi_max = psi_max.max(b.price);
            psi_min = psi_min.min(b.price / f64::from(b.rounds.max(1)));
        }
        let w_t = if psi_min > 0.0 && psi_min.is_finite() {
            psi_max / psi_min
        } else if psi_max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        omega = omega.max(w_t);
    }
    omega
}

/// One unselected bid with its representative schedule under the current
/// coverage.
struct Candidate {
    idx: usize,
    schedule: Vec<Round>,
    gain: u32,
    avg: f64,
}

/// `A_winner` (Alg. 2, with Alg. 3's critical-value payments) as a
/// row-form full scan: every iteration re-derives each unselected bid's
/// representative schedule under `policy` from a [`Coverage`], and selects
/// the smallest average cost, then price, then bid reference; the
/// runner-up's average sets the winner's payment. The dual certificate is
/// built from the scan's own `φ` and available sets `F_il` (Alg. 2 lines
/// 16–23), with `ω` from [`omega`]. Returns the solution and the selection
/// trace. The reference for the columnar lazy greedy behind
/// `AWinner::solve_traced`.
///
/// # Errors
///
/// [`WdpError::Infeasible`] when no unselected bid can cover an
/// uncovered slot.
pub fn greedy(
    wdp: &Wdp,
    policy: SchedulePolicy,
) -> Result<(WdpSolution, Vec<SelectionStep>), WdpError> {
    let bids = wdp.bids();
    let precedes = |c: &Candidate, incumbent: &Option<Candidate>| {
        incumbent.as_ref().is_none_or(|inc| {
            let (b, i) = (&bids[c.idx], &bids[inc.idx]);
            c.avg
                .total_cmp(&inc.avg)
                .then(b.price.total_cmp(&i.price))
                .then(b.bid_ref.cmp(&i.bid_ref))
                .is_lt()
        })
    };
    let mut cov = Coverage::new(wdp.horizon(), wdp.demand_per_round());
    let mut selected = vec![false; bids.len()];
    let mut won: HashSet<u32> = HashSet::new();
    let (mut winners, mut trace, mut cost) = (Vec::new(), Vec::new(), 0.0);
    // η_φ(t): the largest φ(t, l) — a winner's average cost at selection —
    // over the winners that took round `t` while it was still available.
    let mut eta = vec![0.0f64; wdp.horizon() as usize];
    let mut available: Vec<Vec<Round>> = Vec::new();
    while !cov.is_complete() {
        let (mut best, mut second) = (None, None);
        for (idx, qb) in bids.iter().enumerate() {
            if selected[idx] || won.contains(&qb.bid_ref.client.0) {
                continue;
            }
            let schedule = pick_schedule(&cov, qb.window, qb.rounds, policy);
            let gain = cov.gain(&schedule);
            if gain == 0 {
                continue;
            }
            let cand = Candidate {
                idx,
                schedule,
                gain,
                avg: qb.price / f64::from(gain),
            };
            if precedes(&cand, &best) {
                second = best.replace(cand);
            } else if precedes(&cand, &second) {
                second = Some(cand);
            }
        }
        let Some(win) = best else {
            return Err(WdpError::Infeasible);
        };
        let qb = &bids[win.idx];
        let critical_avg = second.map(|c| c.avg);
        let free = cov.available_subset(&win.schedule);
        for t in &free {
            eta[t.index()] = eta[t.index()].max(win.avg);
        }
        available.push(free);
        cov.add(&win.schedule);
        selected[win.idx] = true;
        won.insert(qb.bid_ref.client.0);
        cost += qb.price;
        winners.push(WinnerEntry {
            bid_ref: qb.bid_ref,
            price: qb.price,
            payment: payment(PaymentRule::CriticalValue, qb.price, win.gain, critical_avg),
            schedule: win.schedule,
        });
        trace.push(SelectionStep {
            bid_ref: qb.bid_ref,
            gain: win.gain,
            avg: win.avg,
            critical_avg,
        });
    }
    // g(t) = η_φ(t)/(H·ω); λ_il = Σ_{t∈F_il} (η_φ(t) − φ(t,l))/(H·ω);
    // D = K·Σ g − Σ λ.
    let harmonic: f64 = (1..=wdp.horizon()).map(|t| 1.0 / f64::from(t)).sum();
    let omega = omega(wdp);
    let scale = harmonic * omega;
    let g: Vec<f64> = eta.iter().map(|&e| e / scale).collect();
    let lambda: Vec<f64> = available
        .iter()
        .zip(&trace)
        .map(|(free, step)| {
            free.iter()
                .map(|t| (eta[t.index()] - step.avg) / scale)
                .sum()
        })
        .collect();
    let k = f64::from(wdp.demand_per_round());
    let dual_objective = k * g.iter().sum::<f64>() - lambda.iter().sum::<f64>();
    let certificate = DualCertificate {
        harmonic,
        omega,
        g,
        lambda,
        dual_objective,
    };
    let solution = WdpSolution::new(wdp.horizon(), winners, cost, Some(certificate));
    Ok((solution, trace))
}
