//! Crate-level property tests for `fl-auction`: qualification
//! (`SweepPrecomp::qualify_at`, the sweeps' path) is exactly the published
//! predicate, `A_winner` outputs are always feasible, and payments always
//! cover prices.

use fl_auction::{
    AWinner, AuctionConfig, Bid, ClientProfile, Instance, QualifyMode, Round, SweepPrecomp,
    WdpSolver, Window,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawBid {
    price: u32,
    theta_pct: u32,
    a: u32,
    span: u32,
    c_frac: u32,
    cmp_t: u32,
    com_t: u32,
}

fn raw_bid() -> impl Strategy<Value = RawBid> {
    (
        1u32..60,
        20u32..90,
        1u32..10,
        0u32..9,
        1u32..=100,
        1u32..10,
        1u32..15,
    )
        .prop_map(|(price, theta_pct, a, span, c_frac, cmp_t, com_t)| RawBid {
            price,
            theta_pct,
            a,
            span,
            c_frac,
            cmp_t,
            com_t,
        })
}

fn build(raw: &[RawBid], t_max_time: f64, mode: QualifyMode) -> Instance {
    let cfg = AuctionConfig::builder()
        .max_rounds(10)
        .clients_per_round(2)
        .round_time_limit(t_max_time)
        .qualify_mode(mode)
        .build()
        .expect("valid config");
    let mut inst = Instance::new(cfg);
    for r in raw {
        let client = inst.add_client(
            ClientProfile::new(f64::from(r.cmp_t), f64::from(r.com_t)).expect("valid profile"),
        );
        let a = r.a.min(10);
        let d = (a + r.span).min(10);
        let len = d - a + 1;
        let c = (r.c_frac * len).div_ceil(100).clamp(1, len);
        inst.add_bid(
            client,
            Bid::new(
                f64::from(r.price),
                f64::from(r.theta_pct) / 100.0,
                Window::new(Round(a), Round(d)),
                c,
            )
            .expect("valid bid"),
        )
        .expect("known client");
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The qualified set is *exactly* the bids passing the published
    /// predicate — nothing extra, nothing missing.
    #[test]
    fn qualification_matches_the_predicate(
        raw in prop::collection::vec(raw_bid(), 4..14),
        horizon in 2u32..10,
    ) {
        let inst = build(&raw, 60.0, QualifyMode::Intent);
        let wdp = SweepPrecomp::new(&inst).qualify_at(horizon);
        let theta_max = 1.0 - 1.0 / f64::from(horizon);
        let mut expected = 0usize;
        for (bid_ref, bid) in inst.iter_bids() {
            let t_ij = inst.round_time(bid_ref);
            let window_ok = bid
                .window()
                .truncate(Round(horizon))
                .is_some_and(|w| w.len() >= bid.rounds());
            let qualified = bid.accuracy() <= theta_max + 1e-9
                && t_ij <= 60.0 + 1e-9
                && window_ok;
            if qualified {
                expected += 1;
                prop_assert!(
                    wdp.bids().iter().any(|qb| qb.bid_ref == bid_ref),
                    "{bid_ref} passes the predicate but was excluded"
                );
            } else {
                prop_assert!(
                    wdp.bids().iter().all(|qb| qb.bid_ref != bid_ref),
                    "{bid_ref} fails the predicate but was included"
                );
            }
        }
        prop_assert_eq!(wdp.bids().len(), expected);
    }

    /// Whatever the instance, a successful `A_winner` run is feasible,
    /// individually rational, and internally consistent.
    #[test]
    fn winner_outputs_always_verify(
        raw in prop::collection::vec(raw_bid(), 6..16),
        horizon in 2u32..10,
    ) {
        let inst = build(&raw, 1_000.0, QualifyMode::Intent);
        let wdp = SweepPrecomp::new(&inst).qualify_at(horizon);
        if let Ok(sol) = AWinner::new().solve_wdp(&wdp) {
            let bad = fl_auction::verify::wdp_violations(&wdp, &sol);
            prop_assert!(bad.is_empty(), "{bad:?}");
            let ir = fl_auction::verify::ir_violations(&sol);
            prop_assert!(ir.is_empty(), "{ir:?}");
            let cert = fl_auction::verify::certificate_violations(&sol);
            prop_assert!(cert.is_empty(), "{cert:?}");
            let dual = fl_auction::verify::dual_feasibility_violations(&wdp, &sol);
            prop_assert!(dual.is_empty(), "{dual:?}");
        }
    }

    /// Literal-mode qualification is a subset of intent-mode.
    #[test]
    fn literal_subset_of_intent(
        raw in prop::collection::vec(raw_bid(), 4..12),
        horizon in 2u32..10,
    ) {
        let intent = build(&raw, 60.0, QualifyMode::Intent);
        let literal = build(&raw, 60.0, QualifyMode::Literal);
        let qi = SweepPrecomp::new(&intent).qualify_at(horizon);
        let ql = SweepPrecomp::new(&literal).qualify_at(horizon);
        for qb in ql.bids() {
            prop_assert!(
                qi.bids().iter().any(|b| b.bid_ref == qb.bid_ref),
                "{} admitted by literal but not intent",
                qb.bid_ref
            );
        }
    }
}
