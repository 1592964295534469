//! Standby procurement — fault-tolerant extension of `A_FL`.
//!
//! The paper's mechanism buys exactly `K` clients per round; a single
//! dropout leaves a round under-covered. This module procures a ranked
//! **standby pool** from the bids that qualified at the chosen horizon but
//! lost: for every round `t ≤ T_g*`, the losing clients whose windows
//! contain `t` are ranked by per-round average cost `ρ_ij / c_ij`, and each
//! rank is priced with the same critical-value idea as `A_payment` — a
//! standby at rank `r` is paid, per activation, the *next* rank's per-round
//! average cost (its own when it is the last rank).
//!
//! The rule keeps the mechanism's incentive properties on the standby side:
//! the per-round ranking is monotone in the claimed per-round cost (bidding
//! lower never worsens a rank), and the payment is the threshold value at
//! which the rank would be lost — so truthful reporting stays dominant and
//! every activation pays at least the standby's claimed per-round cost
//! (individual rationality, [`StandbyEntry::is_individually_rational`]).
//!
//! The pool is a *pricing commitment*, not an allocation: activations (and
//! therefore actual spend) happen at runtime, when the training loop in
//! `fl-sim` detects a coverage gap and substitutes standbys in rank order,
//! debiting each standby's battery budget `c_ij`.

use crate::auction::AuctionOutcome;
use crate::bid::Instance;
use crate::preprocess::SweepPrecomp;
use crate::types::{BidRef, Round};
use fl_telemetry::{counter, sample, span};

/// One ranked standby candidate for a specific round.
#[derive(Debug, Clone, PartialEq)]
pub struct StandbyEntry {
    /// Which losing bid backs this standby slot.
    pub bid_ref: BidRef,
    /// Claimed per-round cost `ρ_ij / c_ij` — the ranking key.
    pub price_per_round: f64,
    /// Critical-value remuneration per activation: the next rank's
    /// per-round cost, or this entry's own when no rank follows.
    pub payment_per_round: f64,
    /// Local accuracy `θ_ij` of the backing bid.
    pub accuracy: f64,
    /// Per-round wall clock `t_ij` of the backing bid.
    pub round_time: f64,
    /// Battery budget: at most `c_ij` activations across all rounds.
    pub budget: u32,
}

impl StandbyEntry {
    /// Whether the committed activation payment covers the claimed cost.
    pub fn is_individually_rational(&self) -> bool {
        self.payment_per_round >= self.price_per_round - 1e-12
    }
}

/// Per-round ranked standby lists for one solved auction.
///
/// Index `t.index()` holds round `t`'s candidates, cheapest per-round cost
/// first. The same client may appear in many rounds (with its cheapest
/// qualified bid per round) but activations share one battery budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StandbyPool {
    horizon: u32,
    rounds: Vec<Vec<StandbyEntry>>,
}

impl StandbyPool {
    /// The horizon `T_g*` the pool was built for.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The ranked standbys available in round `t` (empty when `t` exceeds
    /// the horizon).
    pub fn for_round(&self, t: Round) -> &[StandbyEntry] {
        self.rounds.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// How many standbys back round `t`.
    pub fn depth(&self, t: Round) -> usize {
        self.for_round(t).len()
    }

    /// The weakest per-round backing across the horizon — the number of
    /// simultaneous dropouts every round can absorb.
    pub fn min_depth(&self) -> usize {
        self.rounds.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Whether no round has any standby at all.
    pub fn is_empty(&self) -> bool {
        self.rounds.iter().all(Vec::is_empty)
    }

    /// Iterates `(round, ranked standbys)` pairs across the horizon.
    pub fn iter(&self) -> impl Iterator<Item = (Round, &[StandbyEntry])> {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, v)| (Round(i as u32 + 1), v.as_slice()))
    }
}

/// Builds the standby pool for a solved auction.
///
/// Re-qualifies the instance at the outcome's horizon, drops every bid of a
/// winning client, keeps each losing client's cheapest-per-round bid per
/// round, ranks the rest and prices ranks with the critical-value rule.
///
/// # Example
///
/// ```
/// use fl_auction::{
///     run_auction, standby_pool, AuctionConfig, Bid, ClientProfile, Instance, Round, Window,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = AuctionConfig::builder().max_rounds(4).clients_per_round(1).build()?;
/// let mut inst = Instance::new(cfg);
/// for price in [3.0, 5.0, 8.0] {
///     let c = inst.add_client(ClientProfile::new(2.0, 5.0)?);
///     inst.add_bid(c, Bid::new(price, 0.6, Window::new(Round(1), Round(4)), 4)?)?;
/// }
/// let outcome = run_auction(&inst)?;
/// let pool = standby_pool(&inst, &outcome);
/// // The $3 client wins; the $5 and $8 clients back every round.
/// assert_eq!(pool.depth(Round(1)), 2);
/// // Rank 0 is paid rank 1's per-round cost: 8/4 = 2 per activation.
/// let first = &pool.for_round(Round(1))[0];
/// assert_eq!(first.payment_per_round, 2.0);
/// assert!(first.is_individually_rational());
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the outcome's horizon lies outside `1..=T` of `instance`,
/// which no outcome of [`run_auction`](crate::run_auction) on `instance`
/// does.
pub fn standby_pool(instance: &Instance, outcome: &AuctionOutcome) -> StandbyPool {
    let horizon = outcome.horizon();
    let _span = span!("standby_pool", tg = horizon);
    let wdp = SweepPrecomp::new(instance).qualify_at(horizon);
    let winning_clients: std::collections::HashSet<u32> = outcome
        .solution()
        .winners()
        .iter()
        .map(|w| w.bid_ref.client.0)
        .collect();

    let mut rounds: Vec<Vec<StandbyEntry>> = vec![Vec::new(); horizon as usize];
    for (t_idx, ranked) in rounds.iter_mut().enumerate() {
        let t = Round(t_idx as u32 + 1);
        // Cheapest qualified bid per losing client whose window holds t.
        let mut best: std::collections::HashMap<u32, StandbyEntry> =
            std::collections::HashMap::new();
        for qb in wdp.bids() {
            if winning_clients.contains(&qb.bid_ref.client.0) || !qb.window.contains(t) {
                continue;
            }
            let entry = StandbyEntry {
                bid_ref: qb.bid_ref,
                price_per_round: qb.price / f64::from(qb.rounds),
                payment_per_round: 0.0, // priced after ranking
                accuracy: qb.accuracy,
                round_time: qb.round_time,
                budget: qb.rounds,
            };
            match best.entry(qb.bid_ref.client.0) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(entry);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if rank_cmp(&entry, o.get()) == std::cmp::Ordering::Less {
                        o.insert(entry);
                    }
                }
            }
        }
        let mut list: Vec<StandbyEntry> = best.into_values().collect();
        list.sort_by(rank_cmp);
        // Critical value: rank r is paid rank r+1's per-round cost; the
        // last rank has no successor and is paid its own claim (IR with
        // equality, mirroring `A_payment`'s missing-runner-up case).
        for r in 0..list.len() {
            list[r].payment_per_round = match list.get(r + 1) {
                Some(next) => next.price_per_round,
                None => list[r].price_per_round,
            };
        }
        counter!("standby.entries", list.len());
        sample!("standby.round_depth", list.len());
        *ranked = list;
    }
    StandbyPool { horizon, rounds }
}

/// Deterministic total ranking: per-round cost, then absolute price, then
/// bid reference — the same tie-breaking idiom as `A_winner`.
fn rank_cmp(a: &StandbyEntry, b: &StandbyEntry) -> std::cmp::Ordering {
    let abs = |e: &StandbyEntry| e.price_per_round * f64::from(e.budget);
    a.price_per_round
        .total_cmp(&b.price_per_round)
        .then(abs(a).total_cmp(&abs(b)))
        .then(a.bid_ref.cmp(&b.bid_ref))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::run_auction;
    use crate::bid::{Bid, ClientProfile};
    use crate::config::AuctionConfig;
    use crate::types::{ClientId, Window};

    /// K = 1, T = 4; five clients with full windows and distinct prices.
    fn instance() -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(4)
            .clients_per_round(1)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for price in [3.0, 5.0, 8.0, 13.0, 21.0] {
            let c = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
            inst.add_bid(
                c,
                Bid::new(price, 0.6, Window::new(Round(1), Round(4)), 4).unwrap(),
            )
            .unwrap();
        }
        inst
    }

    #[test]
    fn pool_excludes_every_winning_client() {
        let inst = instance();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        let winners: Vec<u32> = outcome
            .solution()
            .winners()
            .iter()
            .map(|w| w.bid_ref.client.0)
            .collect();
        for (_, entries) in pool.iter() {
            for e in entries {
                assert!(!winners.contains(&e.bid_ref.client.0));
            }
        }
    }

    #[test]
    fn ranking_is_ascending_and_payments_are_critical_values() {
        let inst = instance();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        for (t, entries) in pool.iter() {
            assert_eq!(entries.len(), 4, "4 losers back round {t:?}");
            for pair in entries.windows(2) {
                assert!(pair[0].price_per_round <= pair[1].price_per_round);
                // Rank r's payment is rank r+1's claim.
                assert_eq!(pair[0].payment_per_round, pair[1].price_per_round);
            }
            let last = entries.last().unwrap();
            assert_eq!(last.payment_per_round, last.price_per_round);
        }
    }

    #[test]
    fn every_entry_is_individually_rational() {
        let inst = instance();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        for (_, entries) in pool.iter() {
            for e in entries {
                assert!(e.is_individually_rational());
            }
        }
    }

    #[test]
    fn windows_gate_round_membership() {
        let cfg = AuctionConfig::builder()
            .max_rounds(4)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let winner = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            winner,
            Bid::new(1.0, 0.5, Window::new(Round(1), Round(4)), 4).unwrap(),
        )
        .unwrap();
        // A loser available only in rounds 2–3.
        let part_time = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            part_time,
            Bid::new(4.0, 0.5, Window::new(Round(2), Round(3)), 2).unwrap(),
        )
        .unwrap();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        assert_eq!(pool.depth(Round(1)), 0);
        assert_eq!(pool.depth(Round(2)), 1);
        assert_eq!(pool.depth(Round(3)), 1);
        assert_eq!(pool.depth(Round(4)), 0);
        assert_eq!(pool.min_depth(), 0);
        assert!(!pool.is_empty());
        let e = &pool.for_round(Round(2))[0];
        assert_eq!(e.bid_ref.client, part_time);
        assert_eq!(e.price_per_round, 2.0);
        assert_eq!(e.budget, 2);
    }

    #[test]
    fn one_entry_per_client_even_with_multiple_bids() {
        let cfg = AuctionConfig::builder()
            .max_rounds(3)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let winner = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            winner,
            Bid::new(1.0, 0.5, Window::new(Round(1), Round(3)), 3).unwrap(),
        )
        .unwrap();
        let multi = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        // Two qualified bids: per-round costs 9/3 = 3 and 4/2 = 2.
        inst.add_bid(
            multi,
            Bid::new(9.0, 0.5, Window::new(Round(1), Round(3)), 3).unwrap(),
        )
        .unwrap();
        inst.add_bid(
            multi,
            Bid::new(4.0, 0.5, Window::new(Round(1), Round(3)), 2).unwrap(),
        )
        .unwrap();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        for t in 1..=3 {
            let entries = pool.for_round(Round(t));
            assert_eq!(entries.len(), 1, "one entry per client in round {t}");
            assert_eq!(
                entries[0].price_per_round, 2.0,
                "cheapest per-round bid wins"
            );
        }
    }

    #[test]
    fn pool_is_deterministic() {
        let inst = instance();
        let outcome = run_auction(&inst).unwrap();
        assert_eq!(standby_pool(&inst, &outcome), standby_pool(&inst, &outcome));
    }

    #[test]
    fn sole_loser_is_paid_its_own_claim() {
        let cfg = AuctionConfig::builder()
            .max_rounds(2)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for price in [2.0, 6.0] {
            let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
            inst.add_bid(
                c,
                Bid::new(price, 0.5, Window::new(Round(1), Round(2)), 2).unwrap(),
            )
            .unwrap();
        }
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        let e = &pool.for_round(Round(1))[0];
        assert_eq!(e.bid_ref.client, ClientId(1));
        assert_eq!(e.payment_per_round, e.price_per_round);
        assert!(e.is_individually_rational());
    }

    #[test]
    fn out_of_horizon_round_has_no_standbys() {
        let inst = instance();
        let outcome = run_auction(&inst).unwrap();
        let pool = standby_pool(&inst, &outcome);
        assert!(pool.for_round(Round(pool.horizon() + 1)).is_empty());
    }
}
