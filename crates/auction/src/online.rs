//! Online (streaming) auction mode under a budget constraint.
//!
//! The batch mechanism `A_FL` sees the complete bid set before deciding;
//! this module implements the other operating regime from the online
//! procurement literature (Zhang et al., arXiv:2201.09047): bids **arrive
//! over time**, and the server must commit or reject each one *on
//! arrival, irrevocably*, while total remuneration stays within a budget
//! `B`.
//!
//! # Mechanism
//!
//! [`OnlineAuction`] fixes the horizon at the announced maximum `T̂ = T`
//! and posts a flat per-scheduled-round price
//!
//! ```text
//! π = B / (K · T̂)
//! ```
//!
//! On arrival a bid is screened by the *same* qualification gates as the
//! batch sweep: [`SweepPrecomp::insert`] computes its thresholds exactly
//! as the batch constructor does, and the bid qualifies iff its
//! [`SweepPrecomp::admission_horizon`] is at most `T̂`. A qualified bid is
//! scheduled into the earliest still-uncovered rounds of its truncated
//! window and committed iff
//!
//! 1. at least one of its rounds is still uncovered (`gain ≥ 1`),
//! 2. its claimed cost does not exceed the posted offer `π · gain`, and
//! 3. the offer fits the remaining budget.
//!
//! The committed bid is paid the posted offer. Because the offer depends
//! only on the budget, the demand, and the bid's *non-price* fields, a
//! client cannot change its payment by misreporting its cost — a price
//! misreport can only flip the commit decision against the client's true
//! utility (posted-price truthfulness). The offer also covers the claimed
//! cost (online individual rationality) and the running total never
//! exceeds `B` (budget feasibility). The certifier checks all three on
//! replayed arrival prefixes.
//!
//! Decisions are irrevocable. A decision reads only the arriving bid,
//! the coverage so far and the budget, never the earlier uncommitted
//! bids, so withdrawing one could change no later verdict and the mode
//! has no expiry. Duplicate submissions (client retries, duplicated
//! frames) replay the original decision instead of double-counting
//! coverage — see [`OnlineAuction::submit`].
//!
//! # Degenerate inputs
//!
//! `B = 0` posts a zero offer, so only zero-priced bids can commit; an
//! empty arrival prefix simply yields an empty committed set. Neither
//! panics.

use std::collections::HashMap;

use crate::bid::{Bid, ClientProfile, Instance};
use crate::config::AuctionConfig;
use crate::coverage::Coverage;
use crate::error::AuctionError;
use crate::preprocess::SweepPrecomp;
use crate::types::{BidRef, ClientId, Round};
use crate::wdp::{WdpSolution, WinnerEntry};
use fl_telemetry::counter;

/// Why a streamed bid was committed or turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// The bid was committed and scheduled.
    Committed,
    /// The bid fails the qualification gates at the fixed horizon `T̂`.
    Unqualified,
    /// Every round of the bid's truncated window is already covered.
    NoCapacity,
    /// The claimed cost exceeds the posted offer `π · gain`.
    PriceAboveOffer,
    /// The posted offer no longer fits the remaining budget.
    BudgetExhausted,
}

impl DecisionReason {
    /// Stable lowercase name (wire protocol, telemetry, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Committed => "committed",
            DecisionReason::Unqualified => "unqualified",
            DecisionReason::NoCapacity => "no_capacity",
            DecisionReason::PriceAboveOffer => "price_above_offer",
            DecisionReason::BudgetExhausted => "budget_exhausted",
        }
    }

    /// Parses [`DecisionReason::as_str`] output.
    pub fn parse_str(s: &str) -> Option<DecisionReason> {
        Some(match s {
            "committed" => DecisionReason::Committed,
            "unqualified" => DecisionReason::Unqualified,
            "no_capacity" => DecisionReason::NoCapacity,
            "price_above_offer" => DecisionReason::PriceAboveOffer,
            "budget_exhausted" => DecisionReason::BudgetExhausted,
            _ => return None,
        })
    }
}

/// The irrevocable per-arrival verdict returned by
/// [`OnlineAuction::submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineDecision {
    /// The reference the bid was registered under.
    pub bid_ref: BidRef,
    /// Whether the bid was committed (`reason == Committed`).
    pub committed: bool,
    /// The posted offer paid on commit; `0.0` on rejection.
    pub payment: f64,
    /// The committed schedule (strictly increasing rounds); empty on
    /// rejection.
    pub schedule: Vec<Round>,
    /// The commit/reject reason.
    pub reason: DecisionReason,
    /// `true` when this submission duplicated an earlier identical bid
    /// and the original decision was replayed instead of re-applied.
    pub duplicate: bool,
}

/// Counters describing one online run (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineCounters {
    /// Distinct bids that arrived (duplicates excluded).
    pub arrived: u64,
    /// Duplicate submissions replayed idempotently.
    pub duplicates: u64,
    /// Bids committed.
    pub committed: u64,
    /// Rejections: failed qualification gates at `T̂`.
    pub rejected_unqualified: u64,
    /// Rejections: no uncovered round in the bid's window.
    pub rejected_no_capacity: u64,
    /// Rejections: claimed cost above the posted offer.
    pub rejected_price: u64,
    /// Rejections: offer exceeded the remaining budget.
    pub rejected_budget: u64,
}

/// Final state of an online run: the committed set and its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    horizon: u32,
    budget: f64,
    winners: Vec<WinnerEntry>,
    covered: u64,
    total_demand: u64,
    counters: OnlineCounters,
}

impl OnlineOutcome {
    /// The fixed horizon `T̂` the run was committed against.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The budget `B` the run was opened with.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The committed bids in commit order.
    pub fn winners(&self) -> &[WinnerEntry] {
        &self.winners
    }

    /// Social cost of the committed set, `Σ b_ij`.
    pub fn social_cost(&self) -> f64 {
        self.winners.iter().map(|w| w.price).sum()
    }

    /// Total remuneration `Σ p_i` (never exceeds the budget).
    pub fn total_payment(&self) -> f64 {
        self.winners.iter().map(|w| w.payment).sum()
    }

    /// Coverage achieved, `R(S) = Σ_t min(γ_t, K)`.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// The coverage target `K · T̂`.
    pub fn total_demand(&self) -> u64 {
        self.total_demand
    }

    /// Whether every round reached its demand `K`.
    pub fn coverage_complete(&self) -> bool {
        self.covered == self.total_demand
    }

    /// The run counters.
    pub fn counters(&self) -> OnlineCounters {
        self.counters
    }

    /// The committed set as a [`WdpSolution`] (no dual certificate), for
    /// feasibility re-checks and cost comparisons against batch solvers.
    pub fn solution(&self) -> WdpSolution {
        WdpSolution::new(self.horizon, self.winners.clone(), self.social_cost(), None)
    }

    /// Empirical competitive ratio against an offline cost on the same
    /// surviving bid set: `Some(online / offline)` only when this run
    /// achieved complete coverage (otherwise the costs are not
    /// comparable), `None` when coverage is incomplete or `offline_cost`
    /// is non-positive.
    pub fn competitive_ratio(&self, offline_cost: f64) -> Option<f64> {
        (self.coverage_complete() && offline_cost > 0.0).then(|| self.social_cost() / offline_cost)
    }
}

/// Fingerprint of a submission used for duplicate detection: every field
/// a client sends, with float payloads compared bit-for-bit.
type BidKey = (u32, u64, u64, u32, u32, u32);

fn bid_key(client: ClientId, bid: &Bid) -> BidKey {
    (
        client.0,
        bid.price().to_bits(),
        bid.accuracy().to_bits(),
        bid.window().start().0,
        bid.window().end().0,
        bid.rounds(),
    )
}

/// The streaming auction driver. See the [module docs](self) for the
/// mechanism.
///
/// # Example
///
/// ```
/// use fl_auction::{AuctionConfig, Bid, ClientProfile, OnlineAuction, Round, Window};
///
/// # fn main() -> Result<(), fl_auction::AuctionError> {
/// let cfg = AuctionConfig::builder()
///     .max_rounds(4)
///     .clients_per_round(1)
///     .round_time_limit(100.0)
///     .build()?;
/// let mut online = OnlineAuction::new(cfg, 40.0)?; // B = 40 → π = 10/round
/// let c = online.register_client(ClientProfile::new(1.0, 1.0)?);
/// let d = online.submit(c, Bid::new(25.0, 0.5, Window::new(Round(1), Round(4)), 4)?)?;
/// assert!(d.committed, "4 rounds at π = 10 post an offer of 40 ≥ 25");
/// let outcome = online.finish();
/// assert!(outcome.total_payment() <= outcome.budget());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAuction {
    instance: Instance,
    precomp: SweepPrecomp,
    coverage: Coverage,
    winners: Vec<WinnerEntry>,
    seen: HashMap<BidKey, OnlineDecision>,
    budget: f64,
    spent: f64,
    price_per_round: f64,
    horizon: u32,
    counters: OnlineCounters,
}

impl OnlineAuction {
    /// Opens a streaming auction for `config` under budget `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] when `budget` is negative
    /// or NaN (`+∞` is allowed — it disables the budget and price gates,
    /// which the threshold-equivalence property tests rely on).
    pub fn new(config: AuctionConfig, budget: f64) -> Result<OnlineAuction, AuctionError> {
        if budget.is_nan() || budget < 0.0 {
            return Err(AuctionError::invalid(format!(
                "online budget must be non-negative, got {budget}"
            )));
        }
        let horizon = config.max_rounds();
        let k = config.clients_per_round();
        let price_per_round = budget / (f64::from(k) * f64::from(horizon));
        let precomp = SweepPrecomp::empty(&config);
        let coverage = Coverage::new(horizon, k);
        Ok(OnlineAuction {
            instance: Instance::new(config),
            precomp,
            coverage,
            winners: Vec::new(),
            seen: HashMap::new(),
            budget,
            spent: 0.0,
            price_per_round,
            horizon,
            counters: OnlineCounters::default(),
        })
    }

    /// The fixed horizon `T̂` every decision commits against.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The posted per-scheduled-round price `π = B / (K · T̂)`.
    pub fn price_per_round(&self) -> f64 {
        self.price_per_round
    }

    /// Budget still uncommitted, `B − Σ p_i`.
    pub fn remaining_budget(&self) -> f64 {
        if self.budget.is_infinite() {
            f64::INFINITY
        } else {
            (self.budget - self.spent).max(0.0)
        }
    }

    /// The growing instance (every distinct arrival, committed or not) —
    /// the offline replay input for competitive-ratio measurement.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The incremental qualified-set precomp over every distinct arrival.
    pub fn precomp(&self) -> &SweepPrecomp {
        &self.precomp
    }

    /// Run counters so far.
    pub fn counters(&self) -> OnlineCounters {
        self.counters
    }

    /// Registers a client profile (must happen before its bids arrive).
    pub fn register_client(&mut self, profile: ClientProfile) -> ClientId {
        self.instance.add_client(profile)
    }

    /// Processes one arriving bid and returns the irrevocable decision.
    ///
    /// A submission identical to an earlier one (same client and bid
    /// fields, floats compared bit-for-bit) is a *duplicate*: the original
    /// decision is returned with [`OnlineDecision::duplicate`] set, and
    /// neither the qualified pool nor coverage nor the budget moves —
    /// client retries and duplicated frames cannot double-count.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] when `client` is unknown.
    pub fn submit(&mut self, client: ClientId, bid: Bid) -> Result<OnlineDecision, AuctionError> {
        let key = bid_key(client, &bid);
        if let Some(original) = self.seen.get(&key) {
            self.counters.duplicates += 1;
            counter!("online.duplicates", 1);
            let mut replay = original.clone();
            replay.duplicate = true;
            return Ok(replay);
        }
        let bid_ref = self.instance.add_bid(client, bid)?;
        let round_time = self.instance.round_time(bid_ref);
        self.precomp.insert(bid_ref, &bid, round_time);
        self.counters.arrived += 1;
        counter!("online.arrived", 1);

        let decision = self.decide(bid_ref, &bid);
        if decision.committed {
            self.coverage.add(&decision.schedule);
            self.spent += decision.payment;
            self.winners.push(WinnerEntry {
                bid_ref,
                price: bid.price(),
                payment: decision.payment,
                schedule: decision.schedule.clone(),
            });
            self.counters.committed += 1;
            counter!("online.committed", 1);
        } else {
            counter!("online.rejected", 1);
        }
        self.seen.insert(key, decision.clone());
        Ok(decision)
    }

    /// The commit/reject rule (gate order is part of the journal
    /// contract: qualification → capacity → price → budget).
    fn decide(&mut self, bid_ref: BidRef, bid: &Bid) -> OnlineDecision {
        let reject = |counters: &mut OnlineCounters, reason: DecisionReason| {
            match reason {
                DecisionReason::Unqualified => counters.rejected_unqualified += 1,
                DecisionReason::NoCapacity => counters.rejected_no_capacity += 1,
                DecisionReason::PriceAboveOffer => counters.rejected_price += 1,
                DecisionReason::BudgetExhausted => counters.rejected_budget += 1,
                DecisionReason::Committed => unreachable!("reject never carries Committed"),
            }
            OnlineDecision {
                bid_ref,
                committed: false,
                payment: 0.0,
                schedule: Vec::new(),
                reason,
                duplicate: false,
            }
        };
        let qualified = self
            .precomp
            .admission_horizon(bid_ref)
            .is_some_and(|h| h <= self.horizon);
        if !qualified {
            return reject(&mut self.counters, DecisionReason::Unqualified);
        }
        let window = bid
            .window()
            .truncate(Round(self.horizon))
            .expect("a qualified window starts within the horizon");
        let schedule: Vec<Round> = window
            .rounds()
            .filter(|&t| self.coverage.is_available(t))
            .take(bid.rounds() as usize)
            .collect();
        if schedule.is_empty() {
            return reject(&mut self.counters, DecisionReason::NoCapacity);
        }
        let offer = self.price_per_round * schedule.len() as f64;
        if bid.price() > offer {
            return reject(&mut self.counters, DecisionReason::PriceAboveOffer);
        }
        if self.spent + offer > self.budget {
            return reject(&mut self.counters, DecisionReason::BudgetExhausted);
        }
        OnlineDecision {
            bid_ref,
            committed: true,
            payment: offer,
            schedule,
            reason: DecisionReason::Committed,
            duplicate: false,
        }
    }

    /// Closes the run and returns the committed set with its accounting.
    pub fn finish(self) -> OnlineOutcome {
        OnlineOutcome {
            horizon: self.horizon,
            budget: self.budget,
            winners: self.winners,
            covered: self.coverage.covered(),
            total_demand: self.coverage.total_demand(),
            counters: self.counters,
        }
    }

    /// A snapshot outcome without consuming the driver (used by the
    /// service layer, which keeps accepting arrivals until session close).
    pub fn outcome(&self) -> OnlineOutcome {
        OnlineOutcome {
            horizon: self.horizon,
            budget: self.budget,
            winners: self.winners.clone(),
            covered: self.coverage.covered(),
            total_demand: self.coverage.total_demand(),
            counters: self.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Window;

    fn cfg(t: u32, k: u32) -> AuctionConfig {
        AuctionConfig::builder()
            .max_rounds(t)
            .clients_per_round(k)
            .round_time_limit(100.0)
            .build()
            .unwrap()
    }

    fn bid(price: f64, a: u32, d: u32, c: u32) -> Bid {
        Bid::new(price, 0.5, Window::new(Round(a), Round(d)), c).unwrap()
    }

    #[test]
    fn commits_under_budget_and_pays_the_posted_offer() {
        let mut online = OnlineAuction::new(cfg(4, 1), 40.0).unwrap();
        assert!((online.price_per_round() - 10.0).abs() < 1e-12);
        let c = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        let d = online.submit(c, bid(25.0, 1, 4, 4)).unwrap();
        assert!(d.committed);
        assert!((d.payment - 40.0).abs() < 1e-12);
        assert_eq!(d.schedule.len(), 4);
        let out = online.finish();
        assert!(out.coverage_complete());
        assert!(out.total_payment() <= out.budget() + 1e-12);
        assert!((out.social_cost() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn price_above_offer_is_rejected_and_irrevocable() {
        let mut online = OnlineAuction::new(cfg(4, 1), 40.0).unwrap();
        let c = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        // Only 2 rounds offered → offer 20 < 25.
        let d = online.submit(c, bid(25.0, 1, 2, 2)).unwrap();
        assert!(!d.committed);
        assert_eq!(d.reason, DecisionReason::PriceAboveOffer);
        assert_eq!(d.payment, 0.0);
        assert!(d.schedule.is_empty());
        assert_eq!(online.counters().rejected_price, 1);
    }

    #[test]
    fn zero_budget_commits_nothing_without_panicking() {
        let mut online = OnlineAuction::new(cfg(3, 2), 0.0).unwrap();
        let c = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        for i in 0..4 {
            let d = online.submit(c, bid(1.0 + f64::from(i), 1, 3, 2)).unwrap();
            assert!(!d.committed);
        }
        let out = online.finish();
        assert!(out.winners().is_empty());
        assert_eq!(out.total_payment(), 0.0);
        assert!(!out.coverage_complete());
    }

    #[test]
    fn zero_priced_bid_commits_even_at_zero_budget() {
        let mut online = OnlineAuction::new(cfg(3, 1), 0.0).unwrap();
        let c = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        let d = online.submit(c, bid(0.0, 1, 3, 3)).unwrap();
        assert!(d.committed, "a free bid fits a zero offer");
        assert_eq!(d.payment, 0.0);
    }

    #[test]
    fn empty_prefix_yields_an_empty_outcome() {
        let out = OnlineAuction::new(cfg(5, 2), 10.0).unwrap().finish();
        assert!(out.winners().is_empty());
        assert_eq!(out.social_cost(), 0.0);
        assert_eq!(out.covered(), 0);
        assert_eq!(out.total_demand(), 10);
        assert!(out.competitive_ratio(1.0).is_none());
    }

    #[test]
    fn duplicate_submission_replays_the_original_decision() {
        let mut online = OnlineAuction::new(cfg(4, 1), 40.0).unwrap();
        let c = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        let first = online.submit(c, bid(25.0, 1, 4, 4)).unwrap();
        assert!(first.committed && !first.duplicate);
        let covered = online.coverage.covered();
        let spent = online.spent;
        let retry = online.submit(c, bid(25.0, 1, 4, 4)).unwrap();
        assert!(retry.duplicate);
        assert_eq!(retry.bid_ref, first.bid_ref);
        assert_eq!(retry.payment, first.payment);
        assert_eq!(retry.schedule, first.schedule);
        assert_eq!(online.coverage.covered(), covered, "no double coverage");
        assert_eq!(online.spent, spent, "no double spend");
        assert_eq!(online.counters().duplicates, 1);
        assert_eq!(online.counters().arrived, 1);
        assert_eq!(online.instance().num_bids(), 1, "no phantom bid row");
        // A *different* bid from the same client is not a duplicate.
        let other = online.submit(c, bid(24.0, 1, 4, 4)).unwrap();
        assert!(!other.duplicate);
    }

    #[test]
    fn budget_feasibility_and_ir_hold_on_a_mixed_stream() {
        let mut state = 0xab5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..25 {
            let t = 3 + (next() % 5) as u32;
            let k = 1 + (next() % 3) as u32;
            let budget = (next() % 200) as f64;
            let mut online = OnlineAuction::new(cfg(t, k), budget).unwrap();
            let clients: Vec<ClientId> = (0..5)
                .map(|_| online.register_client(ClientProfile::new(1.0, 1.0).unwrap()))
                .collect();
            for _ in 0..12 {
                let c = clients[(next() % clients.len() as u64) as usize];
                let a = 1 + (next() % u64::from(t)) as u32;
                let d = a + (next() % u64::from(t - a + 1)) as u32;
                let rounds = 1 + (next() % u64::from(d - a + 1)) as u32;
                let price = (next() % 60) as f64;
                let dec = online.submit(c, bid(price, a, d, rounds)).unwrap();
                if dec.committed {
                    assert!(
                        dec.payment >= price,
                        "trial {trial}: IR violated ({} < {price})",
                        dec.payment
                    );
                }
            }
            let out = online.finish();
            assert!(
                out.total_payment() <= budget * (1.0 + 1e-12) + 1e-9,
                "trial {trial}: payments {} exceed budget {budget}",
                out.total_payment()
            );
            // The committed set is a genuine partial WDP solution.
            let sol = out.solution();
            assert_eq!(sol.winners().len(), out.winners().len());
        }
    }

    #[test]
    fn infinite_budget_commits_every_qualified_bid_with_capacity() {
        let mut online = OnlineAuction::new(cfg(3, 1), f64::INFINITY).unwrap();
        let c0 = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        let c1 = online.register_client(ClientProfile::new(1.0, 1.0).unwrap());
        assert!(online.submit(c0, bid(1e9, 1, 3, 3)).unwrap().committed);
        // Coverage is saturated (K = 1): capacity rejects, not budget.
        let d = online.submit(c1, bid(1.0, 1, 3, 3)).unwrap();
        assert_eq!(d.reason, DecisionReason::NoCapacity);
        assert!(online.remaining_budget().is_infinite());
    }

    #[test]
    fn negative_or_nan_budget_is_rejected() {
        assert!(OnlineAuction::new(cfg(3, 1), -1.0).is_err());
        assert!(OnlineAuction::new(cfg(3, 1), f64::NAN).is_err());
    }

    #[test]
    fn unknown_client_is_an_error() {
        let mut online = OnlineAuction::new(cfg(3, 1), 5.0).unwrap();
        assert!(online.submit(ClientId(7), bid(1.0, 1, 3, 1)).is_err());
    }

    #[test]
    fn decision_reason_round_trips() {
        for r in [
            DecisionReason::Committed,
            DecisionReason::Unqualified,
            DecisionReason::NoCapacity,
            DecisionReason::PriceAboveOffer,
            DecisionReason::BudgetExhausted,
        ] {
            assert_eq!(DecisionReason::parse_str(r.as_str()), Some(r));
        }
        assert_eq!(DecisionReason::parse_str("nope"), None);
    }

    #[test]
    fn insert_only_stream_with_infinite_budget_matches_batch_prefixes() {
        // Driver-level property: with B = ∞ the incremental precomp stays
        // bit-identical, at every prefix, to a precomp built afresh from
        // the same arrivals in arrival order.
        let mut online = OnlineAuction::new(cfg(6, 2), f64::INFINITY).unwrap();
        let clients: Vec<ClientId> = (0..3)
            .map(|i| online.register_client(ClientProfile::new(1.0 + f64::from(i), 2.0).unwrap()))
            .collect();
        let arrivals = [
            (0, 5.0, 1, 6, 4),
            (1, 9.0, 2, 5, 2),
            (2, 3.5, 1, 3, 3),
            (0, 7.0, 4, 6, 1),
            (1, 2.0, 1, 6, 6),
        ];
        let mut arrived = Vec::new();
        for (ci, price, a, d, c) in arrivals {
            let b = bid(price, a, d, c);
            arrived.push((online.submit(clients[ci], b).unwrap().bid_ref, b));
            let mut fresh = SweepPrecomp::empty(online.instance().config());
            for (bid_ref, b) in &arrived {
                fresh.insert(*bid_ref, b, online.instance().round_time(*bid_ref));
            }
            let incremental = online.precomp();
            for h in 1..=fresh.horizon_cap() {
                assert_eq!(
                    fresh.qualify_at(h).bids(),
                    incremental.qualify_at(h).bids(),
                    "prefix diverges from a fresh precomp at T̂_g = {h}"
                );
                assert_eq!(
                    fresh.cost_lower_bound(h).to_bits(),
                    incremental.cost_lower_bound(h).to_bits()
                );
            }
            // A batch precomp over the grown instance iterates client-major
            // rather than arrival order, so compare the *per-bid*
            // thresholds, which are order-independent.
            let batch = SweepPrecomp::new(online.instance());
            for (bid_ref, _) in online.instance().iter_bids() {
                assert_eq!(
                    batch.admission_horizon(bid_ref),
                    incremental.admission_horizon(bid_ref),
                    "threshold diverges for {bid_ref}"
                );
            }
        }
    }
}
