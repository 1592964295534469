//! Exact Myerson (threshold) payments, and misreport search utilities.
//!
//! # Why this module exists
//!
//! The paper pays each winner `R_{i*l*}(S)·ρ_{i'l'}/R_{i'l'}(S)` — the
//! runner-up's average cost *in the iteration where the winner was
//! selected* (Alg. 3), and Lemma 2 claims a bid priced above that payment
//! "will fail". Empirically that is not quite the whole story: a bid
//! priced above its iteration-`k` payment can simply be *selected in a
//! later iteration* (possibly at a higher payment), and a bid with no
//! competing candidate is paid its own price, which makes overstating it
//! profitable. Our reproduction measures a ~5% profitable-overbid rate
//! for the paper's rule on small winner-determination problems (see
//! `EXPERIMENTS.md`, ablation A4).
//!
//! Because the *allocation* is price-monotone (lowering a winning bid's
//! price keeps it winning — Lemma 1, which does hold), Myerson's lemma
//! prescribes the unique truthful payment: the **threshold price** above
//! which the bid stops winning. [`myerson_payment`] computes it by
//! bisection over re-runs of `A_winner`; [`myerson_payments`] prices a
//! whole solution. This is an extension beyond the paper: `O(log(1/ε))`
//! full WDP solves per winner, practical for analysis-scale instances.

use crate::types::BidRef;
use crate::wdp::{Wdp, WdpSolution, WdpSolver};
use crate::winner::AWinner;
use fl_telemetry::{counter, span};

/// What happened to `bid` when its price was unilaterally replaced.
///
/// The three-way split matters because `A_winner` is greedy: a deviation
/// can reorder the selection so that the *whole* greedy run stalls on an
/// instance that is still feasible — the same approximation gap that makes
/// greedy occasionally miss feasible winner sets. A stall is not the bid
/// "losing" in the Lemma 1 sense (no competing allocation was chosen), so
/// probes that reason about allocation monotonicity must treat it as its
/// own outcome rather than a loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviationOutcome {
    /// The bid is in the recomputed winner set.
    Wins,
    /// Greedy completed and selected a winner set without the bid.
    Loses,
    /// Greedy stalled: no complete winner set was produced at all.
    Stalls,
}

/// Recomputes the `A_winner` allocation with `bid`'s price replaced by
/// `price` (all other bids held fixed) and reports what happened to it.
///
/// This is the raw unilateral-deviation probe underlying the bisection.
/// Exposed so external checkers (the `fl-certify` truthfulness probes) can
/// test allocation monotonicity around a threshold directly — and tell a
/// genuine loss apart from a greedy stall.
pub fn deviation_outcome(wdp: &Wdp, bid: BidRef, price: f64) -> DeviationOutcome {
    counter!("truthful.bisection_probes");
    let mut bids = wdp.bids().to_vec();
    for b in bids.iter_mut() {
        if b.bid_ref == bid {
            b.price = price;
        }
    }
    let patched = Wdp::new(wdp.horizon(), wdp.demand_per_round(), bids);
    match AWinner::new().without_certificate().solve_wdp(&patched) {
        Ok(s) if s.winners().iter().any(|w| w.bid_ref == bid) => DeviationOutcome::Wins,
        Ok(_) => DeviationOutcome::Loses,
        Err(_) => DeviationOutcome::Stalls,
    }
}

/// Does `bid` win the WDP when its price is replaced by `price`?
///
/// Collapses [`deviation_outcome`] to a boolean (a stall counts as not
/// winning) — the reading the threshold bisection needs.
pub fn wins_at(wdp: &Wdp, bid: BidRef, price: f64) -> bool {
    deviation_outcome(wdp, bid, price) == DeviationOutcome::Wins
}

/// The exact threshold payment for `bid` under the `A_winner` allocation:
/// the largest price (up to `cap`) at which the bid still wins, located by
/// bisection to absolute tolerance `tol`.
///
/// Returns `None` if the bid does not win even at its current price.
/// Returns `Some(cap)` when the bid wins at every probed price — a
/// monopolist whose true threshold is unbounded; `cap` then acts as the
/// market's reserve price. The returned value never exceeds `cap`.
///
/// `tol == 0` is allowed and means "bisect to the floating-point limit":
/// the loop stops once the midpoint can no longer be distinguished from
/// an endpoint, i.e. `lo` and `hi` are adjacent representable doubles.
/// The result is then exact for the allocation rule — `wins_at(lo)` is
/// `true` and `wins_at(next_up(lo))` is `false`.
///
/// # Example
///
/// ```
/// use fl_auction::truthful::myerson_payment;
/// use fl_auction::{BidRef, ClientId, QualifiedBid, Round, Wdp, Window};
///
/// let bid = |client, price, a, d, c| QualifiedBid {
///     bid_ref: BidRef::new(ClientId(client), 0),
///     price,
///     accuracy: 0.5,
///     window: Window::new(Round(a), Round(d)),
///     rounds: c,
///     round_time: 1.0,
/// };
/// // Two clients for one 2-round job: the $3 bid wins and its threshold
/// // is the competitor's price.
/// let wdp = Wdp::new(2, 1, vec![bid(0, 3.0, 1, 2, 2), bid(1, 10.0, 1, 2, 2)]);
/// let p = myerson_payment(&wdp, BidRef::new(ClientId(0), 0), 100.0, 1e-7).unwrap();
/// assert!((p - 10.0).abs() < 1e-5);
/// ```
///
/// # Panics
///
/// Panics if `cap` is not positive/finite, or `tol` is negative or NaN.
pub fn myerson_payment(wdp: &Wdp, bid: BidRef, cap: f64, tol: f64) -> Option<f64> {
    assert!(
        cap.is_finite() && cap > 0.0,
        "cap must be positive and finite"
    );
    assert!(tol >= 0.0, "tolerance must be non-negative");
    let _span = span!("myerson_payment");
    let current = wdp.bids().iter().find(|b| b.bid_ref == bid)?.price;
    if !wins_at(wdp, bid, current) {
        return None;
    }
    if wins_at(wdp, bid, cap) {
        return Some(cap);
    }
    // Invariant: wins at `lo`, loses at `hi`. Terminates even at tol = 0:
    // once lo and hi are adjacent doubles the midpoint rounds onto an
    // endpoint and the interval cannot shrink further.
    let (mut lo, mut hi) = (current, cap);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if wins_at(wdp, bid, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo.min(cap))
}

/// Re-prices every winner of `solution` with its exact threshold payment.
/// Returns `(bid_ref, paper_payment, myerson_payment)` triples.
pub fn myerson_payments(
    wdp: &Wdp,
    solution: &WdpSolution,
    cap: f64,
    tol: f64,
) -> Vec<(BidRef, f64, f64)> {
    solution
        .winners()
        .iter()
        .map(|w| {
            let exact = myerson_payment(wdp, w.bid_ref, cap, tol)
                .expect("a winner must win at its own price");
            (w.bid_ref, w.payment, exact)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientId, Round, Window};
    use crate::wdp::QualifiedBid;

    fn qb(client: u32, price: f64, a: u32, d: u32, c: u32) -> QualifiedBid {
        QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), 0),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 1.0,
        }
    }

    fn paper_example() -> Wdp {
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
    fn loser_has_no_threshold() {
        // B_2 loses the paper example.
        let wdp = paper_example();
        assert_eq!(
            myerson_payment(&wdp, BidRef::new(ClientId(2), 0), 100.0, 1e-6),
            None
        );
    }

    #[test]
    fn threshold_is_at_least_the_paper_payment_for_b3() {
        // B_3's paper payment is 6; it would still win at any price < its
        // true threshold, which bisection locates.
        let wdp = paper_example();
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        for (bid_ref, paper, exact) in myerson_payments(&wdp, &sol, 100.0, 1e-7) {
            assert!(
                exact >= paper - 1e-6,
                "{bid_ref}: exact threshold {exact} below paper payment {paper}"
            );
        }
    }

    #[test]
    fn threshold_is_tight() {
        // Winning at threshold − tol, losing at threshold + tol.
        let wdp = paper_example();
        let b3 = BidRef::new(ClientId(3), 0);
        let p = myerson_payment(&wdp, b3, 100.0, 1e-9).unwrap();
        assert!(wins_at(&wdp, b3, p - 1e-6));
        assert!(!wins_at(&wdp, b3, p + 1e-6), "threshold {p} not tight");
    }

    #[test]
    fn monopolist_is_capped() {
        // One client, K = 1: it wins at any price.
        let wdp = Wdp::new(2, 1, vec![qb(0, 3.0, 1, 2, 2)]);
        let p = myerson_payment(&wdp, BidRef::new(ClientId(0), 0), 50.0, 1e-6).unwrap();
        assert_eq!(p, 50.0);
    }

    #[test]
    fn threshold_payment_is_individually_rational() {
        let wdp = Wdp::new(
            4,
            2,
            vec![
                qb(0, 3.0, 1, 4, 4),
                qb(1, 4.0, 1, 4, 3),
                qb(2, 5.0, 2, 4, 2),
                qb(3, 2.0, 1, 2, 2),
                qb(4, 6.0, 1, 4, 4),
                qb(5, 3.5, 1, 3, 2),
            ],
        );
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        for (bid_ref, _, exact) in myerson_payments(&wdp, &sol, 200.0, 1e-6) {
            let price = wdp
                .bids()
                .iter()
                .find(|b| b.bid_ref == bid_ref)
                .unwrap()
                .price;
            assert!(
                exact >= price - 1e-6,
                "{bid_ref} paid {exact} below price {price}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cap must be")]
    fn bad_cap_panics() {
        let wdp = paper_example();
        let _ = myerson_payment(&wdp, BidRef::new(ClientId(1), 0), f64::INFINITY, 1e-6);
    }

    #[test]
    #[should_panic(expected = "tolerance must be non-negative")]
    fn negative_tol_panics() {
        let wdp = paper_example();
        let _ = myerson_payment(&wdp, BidRef::new(ClientId(1), 0), 100.0, -1e-6);
    }

    #[test]
    fn zero_tolerance_bisects_to_the_floating_point_limit() {
        // tol = 0 must terminate (fixpoint break) and return the exact
        // allocation threshold: winning at lo, losing one ulp above.
        let wdp = paper_example();
        let b3 = BidRef::new(ClientId(3), 0);
        let p = myerson_payment(&wdp, b3, 100.0, 0.0).unwrap();
        assert!(wins_at(&wdp, b3, p));
        assert!(!wins_at(&wdp, b3, f64::from_bits(p.to_bits() + 1)));
    }

    #[test]
    fn payment_exactly_at_cap_is_the_cap() {
        // A monopolist probed with a cap equal to its own price: wins at
        // cap, so the reserve binds and the result is exactly cap — not
        // cap ± one bisection step.
        let wdp = Wdp::new(2, 1, vec![qb(0, 3.0, 1, 2, 2)]);
        let p = myerson_payment(&wdp, BidRef::new(ClientId(0), 0), 3.0, 0.0).unwrap();
        assert_eq!(p, 3.0);
    }

    #[test]
    fn result_never_exceeds_cap() {
        // Degenerate call: the current price already sits above the cap.
        // Monotonicity means the bid also wins at the cap, so the reserve
        // binds; the clamp guarantees the contract `result ≤ cap` even if
        // the win-at-cap short-circuit were to change.
        let wdp = Wdp::new(2, 1, vec![qb(0, 50.0, 1, 2, 2)]);
        let p = myerson_payment(&wdp, BidRef::new(ClientId(0), 0), 10.0, 0.0).unwrap();
        assert!(p <= 10.0, "payment {p} exceeds cap");
    }

    #[test]
    fn lowering_a_price_can_stall_greedy_not_lose_the_bid() {
        // Fuzzer counterexample (crates/certify/corpus/, seed 774): at
        // price 2 the bid of client 0 is selected last and lands on round
        // 4; at price 1 it is selected earlier, the least-loaded tie-break
        // parks it on round 3, and greedy stalls with round 4 uncovered.
        // The deviation probe must report that as a stall — greedy never
        // produced a competing allocation — not as the bid losing.
        let wdp = Wdp::new(
            4,
            2,
            vec![
                qb(0, 2.0, 3, 4, 1),
                qb(1, 1.0, 1, 4, 4),
                qb(2, 2.0, 2, 3, 2),
                qb(3, 1.0, 1, 1, 1),
            ],
        );
        let b0 = BidRef::new(ClientId(0), 0);
        assert_eq!(deviation_outcome(&wdp, b0, 2.0), DeviationOutcome::Wins);
        assert_eq!(deviation_outcome(&wdp, b0, 1.0), DeviationOutcome::Stalls);
        assert!(!wins_at(&wdp, b0, 1.0), "a stall is not a win");
        // A clean competitive loss still reads as Loses: B_2 of the paper
        // example is priced out, while the others cover every round.
        let paper = paper_example();
        assert_eq!(
            deviation_outcome(&paper, BidRef::new(ClientId(2), 0), 6.0),
            DeviationOutcome::Loses
        );
    }

    #[test]
    fn bid_equal_to_its_threshold_still_wins() {
        // The allocation treats the threshold itself as winning (ties
        // break towards the probed bid via total order on (avg, price,
        // bid_ref)), so bidding exactly the critical value is safe.
        let wdp = paper_example();
        let b3 = BidRef::new(ClientId(3), 0);
        let p = myerson_payment(&wdp, b3, 100.0, 0.0).unwrap();
        assert!(
            wins_at(&wdp, b3, p),
            "bid at its own threshold {p} must still win"
        );
    }
}
