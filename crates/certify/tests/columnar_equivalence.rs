//! Columnar-path equivalence over the certifier's shape families.
//!
//! The winner-determination hot path runs on the struct-of-arrays store of
//! `fl_auction::columnar`; its reference is the row-form full scan
//! [`oracle::greedy`]. This suite drives both across every degenerate
//! [`Shape`] family of the certifier generator — the instances that
//! historically break greedy/payment code — plus seeded duplicate-price
//! WDPs, under both schedule policies, and requires bit-identical
//! feasibility verdicts, winners, schedules, payments, dual certificates
//! and selection traces. It also property-tests the `ColumnarBids` round-trip on the
//! same qualified bid sets, and holds the difference-array
//! `Wdp::obviously_infeasible` to its per-round `HashSet` oracle on raw
//! rows whose clients arrive interleaved.

use fl_certify::{generate, oracle, Shape, SplitMix64};

use fl_auction::{
    qualify, AWinner, BidRef, ClientId, ColumnarBids, QualifiedBid, Round, SchedulePolicy, Wdp,
    Window,
};

/// Enough seeds that every one of the 7 shape families appears many times
/// (the shape is the first draw of the seeded generator).
const SEEDS: u64 = 350;

/// Every (seed, horizon) qualified WDP of the generator's families.
fn for_each_wdp(mut f: impl FnMut(u64, &str, u32, &Wdp)) {
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for seed in 0..SEEDS {
        let cert = generate(seed);
        seen.insert(cert.shape.clone());
        let inst = cert.to_instance().expect("generated instances are valid");
        for horizon in 1..=cert.t {
            let wdp = qualify(&inst, horizon);
            f(seed, &cert.shape, horizon, &wdp);
        }
    }
    let all: Vec<&str> = Shape::ALL.iter().map(|s| s.name()).collect();
    for name in all {
        assert!(seen.contains(name), "seed range never produced {name:?}");
    }
}

/// 60 seeded WDPs (`T̂_g` 3–10, `K` 1–3, 6–25 rows, two bids per client)
/// whose prices repeat on purpose, so the `(avg, price, bid_ref)`
/// tie-break decides many selections.
fn duplicate_price_wdps() -> Vec<Wdp> {
    let mut state = 0x1357_9bdfu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..60)
        .map(|_| {
            let h = 3 + (next() % 8) as u32;
            let k = 1 + (next() % 3) as u32;
            let n = 6 + (next() % 20) as usize;
            let bids = (0..n)
                .map(|i| {
                    let a = 1 + (next() % u64::from(h)) as u32;
                    let d = a + (next() % u64::from(h - a + 1)) as u32;
                    let c = 1 + (next() % u64::from(d - a + 1)) as u32;
                    QualifiedBid {
                        bid_ref: BidRef::new(ClientId((i / 2) as u32), (i % 2) as u32),
                        price: (1 + next() % 12) as f64,
                        accuracy: 0.5,
                        window: Window::new(Round(a), Round(d)),
                        rounds: c,
                        round_time: 1.0,
                    }
                })
                .collect();
            Wdp::new(h, k, bids)
        })
        .collect()
}

#[test]
fn columnar_greedy_is_bit_identical_to_full_scan_on_all_shape_families() {
    let mut wdps = Vec::new();
    for_each_wdp(|seed, shape, horizon, wdp| {
        wdps.push((format!("seed {seed} ({shape}) T̂_g={horizon}"), wdp.clone()));
    });
    for (trial, wdp) in duplicate_price_wdps().into_iter().enumerate() {
        wdps.push((format!("duplicate-price trial {trial}"), wdp));
    }
    for policy in [SchedulePolicy::LeastLoaded, SchedulePolicy::Earliest] {
        let mut feasible = 0;
        for (ctx, wdp) in &wdps {
            let columnar = AWinner::new().with_policy(policy).solve_traced(wdp);
            feasible += usize::from(columnar.is_ok());
            assert_eq!(
                columnar,
                oracle::greedy(wdp, policy),
                "{ctx} {policy:?}: columnar greedy diverged from the row-form oracle"
            );
        }
        assert!(
            feasible >= 100,
            "only {feasible} feasible {policy:?} solves compared"
        );
    }
}

#[test]
fn columnar_bids_round_trip_on_all_shape_families() {
    for_each_wdp(|seed, shape, horizon, wdp| {
        let cols = ColumnarBids::from(wdp.bids());
        assert_eq!(cols.len(), wdp.bids().len());
        assert_eq!(
            cols.to_bids(),
            wdp.bids(),
            "seed {seed} ({shape}) T̂_g={horizon}: round trip diverged"
        );
        for (i, b) in wdp.bids().iter().enumerate() {
            assert_eq!(&cols.get(i), b);
        }
        let distinct: std::collections::BTreeSet<u32> =
            wdp.bids().iter().map(|b| b.bid_ref.client.0).collect();
        assert_eq!(cols.num_clients(), distinct.len());
        assert_eq!(
            wdp.obviously_infeasible(),
            oracle::obviously_infeasible(wdp),
            "seed {seed} ({shape}) T̂_g={horizon}: feasibility verdict diverged"
        );
    });
}

/// Rounds spanned by the raw random rows (windows start in `1..=10`).
const ROWS_HORIZON: u32 = 16;

#[test]
fn columnar_bids_round_trip_on_adversarial_random_rows() {
    // Property check on raw rows, independent of instance validation:
    // sparse client ids drawn from a small pool (so clients repeat and
    // interleave), duplicate refs, zero prices, non-finite-free but
    // extreme values.
    let mut rng = SplitMix64::new(0xc01a_11ab);
    let (mut unsorted, mut feasible, mut infeasible) = (0, 0, 0);
    for trial in 0..200 {
        let n = rng.below(40) as usize;
        let pool: Vec<u32> = (0..1 + rng.below(8))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let bids: Vec<QualifiedBid> = (0..n)
            .map(|_| {
                let a = rng.range(1, 10);
                let d = rng.range(a, ROWS_HORIZON);
                QualifiedBid {
                    bid_ref: BidRef::new(ClientId(*rng.pick(&pool)), rng.range(0, 9)),
                    price: rng.below(1 << 50) as f64 / 1024.0,
                    accuracy: rng.below(1000) as f64 / 1001.0,
                    window: Window::new(Round(a), Round(d)),
                    rounds: rng.range(1, d - a + 1),
                    round_time: rng.below(1000) as f64,
                }
            })
            .collect();
        let cols = ColumnarBids::from(bids.as_slice());
        assert_eq!(cols.to_bids(), bids);
        // Slots number clients densely in first-appearance order.
        let mut first_seen: Vec<u32> = Vec::new();
        for (i, b) in bids.iter().enumerate() {
            let id = b.bid_ref.client.0;
            let slot = match first_seen.iter().position(|&c| c == id) {
                Some(slot) => slot,
                None => {
                    first_seen.push(id);
                    first_seen.len() - 1
                }
            };
            assert_eq!(cols.client_slot(i), slot as u32, "trial {trial}, row {i}");
        }
        assert_eq!(cols.num_clients(), first_seen.len());
        // Feasibility verdicts: the rows as drawn (mostly out of client
        // order: the sorting path) and sorted by client (the one-pass
        // path).
        if bids
            .windows(2)
            .any(|p| p[0].bid_ref.client > p[1].bid_ref.client)
        {
            unsorted += 1;
        }
        let mut sorted = bids.clone();
        sorted.sort_by_key(|b| b.bid_ref.client);
        for k in 1..=4 {
            for rows in [&bids, &sorted] {
                let wdp = Wdp::new(ROWS_HORIZON, k, rows.clone());
                let verdict = wdp.obviously_infeasible();
                assert_eq!(
                    verdict,
                    oracle::obviously_infeasible(&wdp),
                    "trial {trial}, K={k}: feasibility verdict diverged from the oracle"
                );
                if verdict {
                    infeasible += 1;
                } else {
                    feasible += 1;
                }
            }
        }
    }
    assert!(
        unsorted >= 100,
        "only {unsorted} row sets arrived out of client order"
    );
    assert!(
        feasible >= 100 && infeasible >= 100,
        "verdicts too one-sided: {feasible} feasible, {infeasible} infeasible"
    );
}
