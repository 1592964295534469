//! Named pathological instances for stress-testing mechanisms.
//!
//! Random workloads rarely hit the corners where auction mechanisms
//! misbehave. These constructors build the corners on purpose; they are
//! used across the workspace's tests and are exported so downstream users
//! can regression-test their own solver implementations against them.

use fl_auction::{AuctionConfig, AuctionError, Bid, ClientProfile, Instance, Round, Window};

fn base_config(t: u32, k: u32) -> AuctionConfig {
    AuctionConfig::builder()
        .max_rounds(t)
        .clients_per_round(k)
        .round_time_limit(1_000.0)
        .build()
        .expect("static stress config is valid")
}

/// A monopolist round: `fringe` cheap clients cover rounds `1..T`, but
/// only one (expensive) client can serve round `T`. Exercises critical
/// payments with no competition and VCG's unbounded externality.
///
/// # Errors
///
/// Propagates construction errors (none for valid arguments).
pub fn monopolist_round(fringe: u32, t: u32) -> Result<Instance, AuctionError> {
    assert!(t >= 2, "needs at least two rounds");
    let mut inst = Instance::new(base_config(t, 1));
    for i in 0..fringe {
        let c = inst.add_client(ClientProfile::new(1.0, 1.0)?);
        inst.add_bid(
            c,
            Bid::new(
                1.0 + f64::from(i % 3),
                0.5,
                Window::new(Round(1), Round(t - 1)),
                t - 1,
            )?,
        )?;
    }
    let monopolist = inst.add_client(ClientProfile::new(1.0, 1.0)?);
    inst.add_bid(
        monopolist,
        Bid::new(50.0, 0.5, Window::new(Round(t), Round(t)), 1)?,
    )?;
    Ok(inst)
}

/// A price cliff: half the clients ask `lo`, the other half `hi ≫ lo`,
/// with identical windows. The mechanism should never touch the expensive
/// half while the cheap half suffices. Exercises tie-breaking and the
/// greedy's ordering.
///
/// # Errors
///
/// Propagates construction errors.
pub fn price_cliff(
    per_side: u32,
    t: u32,
    k: u32,
    lo: f64,
    hi: f64,
) -> Result<Instance, AuctionError> {
    let mut inst = Instance::new(base_config(t, k));
    for i in 0..2 * per_side {
        let price = if i < per_side { lo } else { hi };
        let c = inst.add_client(ClientProfile::new(1.0, 1.0)?);
        inst.add_bid(c, Bid::new(price, 0.5, Window::new(Round(1), Round(t)), t)?)?;
    }
    Ok(inst)
}

/// All bids identical (price, window, rounds, accuracy): any deterministic
/// mechanism must still produce a feasible, verifiable outcome, and its
/// tie-breaking must be stable. Exercises determinism.
///
/// # Errors
///
/// Propagates construction errors.
pub fn clones(n: u32, t: u32, k: u32) -> Result<Instance, AuctionError> {
    let mut inst = Instance::new(base_config(t, k));
    for _ in 0..n {
        let c = inst.add_client(ClientProfile::new(2.0, 3.0)?);
        inst.add_bid(c, Bid::new(10.0, 0.5, Window::new(Round(1), Round(t)), t)?)?;
    }
    Ok(inst)
}

/// A staircase of disjoint single-round windows: client `i` can only serve
/// round `i + 1`. Coverage requires accepting *everyone*; any skipped
/// client makes the job infeasible. Exercises feasibility-edge behaviour.
///
/// # Errors
///
/// Propagates construction errors.
pub fn staircase(t: u32, k: u32) -> Result<Instance, AuctionError> {
    let mut inst = Instance::new(base_config(t, k));
    for round in 1..=t {
        for dup in 0..k {
            let c = inst.add_client(ClientProfile::new(1.0, 1.0)?);
            inst.add_bid(
                c,
                Bid::new(
                    5.0 + f64::from(round + dup),
                    0.5,
                    Window::new(Round(round), Round(round)),
                    1,
                )?,
            )?;
        }
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_auction::{run_auction, verify, AuctionError, ClientId};

    #[test]
    fn monopolist_wins_when_its_round_is_demanded() {
        use fl_auction::{AWinner, SweepPrecomp, WdpSolver};
        let inst = monopolist_round(6, 5).unwrap();
        // The full auction dodges the monopolist by shrinking the horizon…
        let outcome = run_auction(&inst).unwrap();
        assert!(verify::outcome_violations(&inst, &outcome).is_empty());
        assert!(
            outcome.horizon() < 5,
            "A_FL avoids the monopolist's round entirely"
        );
        // …but at the full horizon, round 5 forces it in, at whatever price.
        let wdp = SweepPrecomp::new(&inst).qualify_at(5);
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        let monopolist = ClientId(6);
        let w = sol
            .winners()
            .iter()
            .find(|w| w.bid_ref.client == monopolist)
            .expect("round 5 is only coverable by the monopolist");
        assert_eq!(w.payment, w.price, "no competitor ⇒ pay-bid fallback");
    }

    #[test]
    fn price_cliff_never_buys_the_expensive_side() {
        let inst = price_cliff(5, 4, 3, 2.0, 200.0).unwrap();
        let outcome = run_auction(&inst).unwrap();
        assert!(verify::outcome_violations(&inst, &outcome).is_empty());
        for w in outcome.solution().winners() {
            assert!(w.price < 100.0, "bought from the expensive side: {w:?}");
        }
        assert_eq!(outcome.social_cost(), 6.0, "3 cheap clients × 2.0");
    }

    #[test]
    fn clones_are_handled_deterministically() {
        let inst = clones(8, 3, 2).unwrap();
        let a = run_auction(&inst).unwrap();
        let b = run_auction(&inst).unwrap();
        assert_eq!(a, b, "identical bids must tie-break identically");
        assert!(verify::outcome_violations(&inst, &a).is_empty());
        assert_eq!(a.solution().winners().len(), 2);
    }

    #[test]
    fn staircase_takes_everyone_it_needs() {
        let inst = staircase(5, 2).unwrap();
        let outcome = run_auction(&inst).unwrap();
        assert!(verify::outcome_violations(&inst, &outcome).is_empty());
        assert_eq!(
            outcome.horizon(),
            2,
            "A_FL shrinks the horizon to the cheapest feasible"
        );
        // At the chosen horizon every per-round specialist pair is needed.
        assert_eq!(outcome.solution().winners().len() as u32, 2 * 2);
    }

    #[test]
    fn staircase_is_tight_at_full_horizon() {
        // At fixed T̂_g = T, all K·T specialists win; removing any client
        // breaks coverage — exercised via the qualified WDP.
        use fl_auction::{AWinner, SweepPrecomp, WdpSolver};
        let inst = staircase(4, 1).unwrap();
        let wdp = SweepPrecomp::new(&inst).qualify_at(4);
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        assert_eq!(sol.winners().len(), 4);
    }

    #[test]
    fn degenerate_parameters_are_rejected_or_handled() {
        assert!(matches!(
            run_auction(&price_cliff(0, 3, 1, 1.0, 2.0).unwrap()),
            Err(AuctionError::InvalidInstance(_)) | Err(AuctionError::Infeasible)
        ));
    }
}
