//! Algorithm suite and execution helpers shared by the figure binaries.

use std::time::{Duration, Instant};

use fl_auction::{
    run_auction_with, AWinner, AuctionError, AuctionOutcome, BidRef, ClientId, Instance,
    QualifiedBid, Round, Wdp, WdpError, WdpSolution, WdpSolver, Window,
};
use fl_baselines::{FcfsBaseline, GreedyBaseline, OnlineBaseline};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The algorithm suite the paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's mechanism (`A_FL` with `A_winner` inside).
    Afl,
    /// Static-ratio greedy (paper's ref. \[20\]).
    Greedy,
    /// Posted-price online mechanism (paper's ref. \[17\]).
    Online,
    /// First-come-first-served (paper's ref. \[21\]).
    Fcfs,
}

impl Algo {
    /// All four algorithms, in the paper's plotting order.
    pub const ALL: [Algo; 4] = [Algo::Afl, Algo::Greedy, Algo::Online, Algo::Fcfs];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Afl => "A_FL",
            Algo::Greedy => "Greedy",
            Algo::Online => "A_online",
            Algo::Fcfs => "FCFS",
        }
    }

    /// Runs the full auction (outer `T̂_g` enumeration) with this
    /// algorithm's WDP solver.
    ///
    /// # Errors
    ///
    /// Propagates [`AuctionError`] from the outer loop.
    pub fn run(self, instance: &Instance) -> Result<AuctionOutcome, AuctionError> {
        match self {
            Algo::Afl => run_auction_with(instance, &AWinner::new()),
            Algo::Greedy => run_auction_with(instance, &GreedyBaseline::new()),
            Algo::Online => run_auction_with(instance, &OnlineBaseline::new()),
            Algo::Fcfs => run_auction_with(instance, &FcfsBaseline::new()),
        }
    }

    /// Solves a single fixed-horizon WDP with this algorithm's solver.
    ///
    /// # Errors
    ///
    /// Propagates [`WdpError`] from the solver.
    pub fn solve_wdp(self, wdp: &Wdp) -> Result<WdpSolution, WdpError> {
        match self {
            Algo::Afl => AWinner::new().solve_wdp(wdp),
            Algo::Greedy => GreedyBaseline::new().solve_wdp(wdp),
            Algo::Online => OnlineBaseline::new().solve_wdp(wdp),
            Algo::Fcfs => FcfsBaseline::new().solve_wdp(wdp),
        }
    }
}

/// Runs `f` and returns its result with the elapsed wall-clock time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Applies `f` to every item on scoped worker threads (one per item, which
/// is fine for the harness's row-level parallelism) and returns results in
/// input order. Results are bit-identical to the sequential map — each
/// item's work is independent and internally seeded.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(items.len());
        for item in items {
            let f = &f;
            handles.push(scope.spawn(move || f(item)));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("harness worker panicked"));
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Generates a *pre-qualified* WDP for the Fig. 3 setting: every bid
/// already satisfies constraints (6b) and (6d) ("to ensure there are
/// enough bids, we assume that all bids can satisfy...").
///
/// Windows follow the paper's construction — `2J` distinct sorted marks
/// inside `[1, horizon]`, adjacent pairs — so window length shrinks as `J`
/// grows (the effect behind Fig. 3's decreasing-in-`J` ratio).
/// `c ∈ [1, d − a]`, prices uniform in `[10, 50]`.
///
/// # Panics
///
/// Panics if `2·bids_per_client > horizon` (not enough distinct marks).
pub fn gen_prequalified_wdp(
    seed: u64,
    clients: u32,
    bids_per_client: u32,
    horizon: u32,
    k: u32,
) -> Wdp {
    assert!(
        2 * bids_per_client <= horizon,
        "2J = {} marks cannot be distinct within horizon {horizon}",
        2 * bids_per_client
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bids = Vec::new();
    for i in 0..clients {
        let marks =
            fl_workload::sample::distinct_sorted(&mut rng, 2 * bids_per_client as usize, horizon);
        for j in 0..bids_per_client {
            let a = marks[2 * j as usize];
            let d = marks[2 * j as usize + 1];
            let c = if d > a {
                rng.random_range(1..=(d - a))
            } else {
                1
            };
            bids.push(QualifiedBid {
                bid_ref: BidRef::new(ClientId(i), j),
                price: rng.random_range(10.0..=50.0),
                accuracy: 1.0 - 1.0 / f64::from(horizon),
                window: Window::new(Round(a), Round(d)),
                rounds: c,
                round_time: 1.0,
            });
        }
    }
    Wdp::new(horizon, k, bids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_workload::WorkloadSpec;

    #[test]
    fn algo_names_match_the_paper() {
        let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["A_FL", "Greedy", "A_online", "FCFS"]);
    }

    #[test]
    fn all_algorithms_solve_a_small_default_instance() {
        let spec = WorkloadSpec::paper_default()
            .with_clients(120)
            .with_bids_per_client(4)
            .with_config(
                fl_auction::AuctionConfig::builder()
                    .max_rounds(16)
                    .clients_per_round(3)
                    .round_time_limit(60.0)
                    .build()
                    .unwrap(),
            );
        let inst = spec.generate(11).unwrap();
        let mut costs = Vec::new();
        for algo in Algo::ALL {
            let outcome = algo
                .run(&inst)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
            assert!(
                fl_auction::verify::outcome_violations(&inst, &outcome).is_empty(),
                "{} produced an infeasible outcome",
                algo.name()
            );
            costs.push((algo, outcome.social_cost()));
        }
        // A_FL must be no worse than every baseline on any instance where
        // all succeed (it picks the best horizon with the best greedy).
        let afl = costs[0].1;
        for (algo, c) in &costs[1..] {
            assert!(
                afl <= c * 1.35 + 1e-9,
                "A_FL ({afl}) should not be drastically worse than {} ({c})",
                algo.name()
            );
        }
    }

    #[test]
    fn prequalified_wdp_shape() {
        let wdp = gen_prequalified_wdp(3, 10, 4, 8, 2);
        assert_eq!(wdp.bids().len(), 40);
        assert_eq!(wdp.horizon(), 8);
        for b in wdp.bids() {
            assert!(b.window.end().0 <= 8);
            assert!(b.rounds >= 1);
            assert!(b.rounds <= b.window.len());
            assert!((10.0..=50.0).contains(&b.price));
        }
    }

    #[test]
    fn timed_reports_a_duration() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let xs: Vec<u64> = (0..20).collect();
        let seq: Vec<u64> = xs.iter().map(|x| x * x).collect();
        let par = par_map(xs, |x| x * x);
        assert_eq!(par, seq);
        assert!(par_map(Vec::<u64>::new(), |x| x).is_empty());
    }
}
