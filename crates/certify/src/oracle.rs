//! Reference oracles for the per-horizon checks that `fl_auction` runs in
//! linear time.
//!
//! Each oracle is the direct, per-round reading of its definition. The
//! property engine ([`crate::props`]) holds the production code to these
//! at every candidate horizon, and `tests/columnar_equivalence.rs` holds
//! it to them on adversarial row orders.

use std::collections::HashSet;

use fl_auction::Wdp;

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
