//! `A_FL` — the top-level auction (Alg. 1).
//!
//! The social-cost minimisation ILP couples the horizon `T_g` to the
//! winners' accuracies, so `A_FL` enumerates every admissible horizon
//! `T̂_g ∈ [T_0, T]`, solves the winner-determination problem each induces,
//! and announces the cheapest feasible result. The WDP solver is pluggable
//! ([`WdpSolver`]) so the same outer loop drives the paper's `A_winner`,
//! the three baselines, and the exact optimum.
//!
//! # Execution model
//!
//! Per-horizon qualification uses the thresholds precomputed once by
//! [`SweepPrecomp`]. [`run_auction_with`] visits the horizons best-first,
//! in ascending order of their
//! [cost lower bound](SweepPrecomp::cost_lower_bound), on the calling
//! thread, and stops at the first bound that proves no later horizon can
//! beat the incumbent. The cheapest horizon is usually mid-range, so this
//! order finds a good incumbent early and solves fewer horizons than the
//! ascending one. [`sweep_horizons`] never prunes, so its independent
//! per-horizon WDPs fan out over a scoped worker pool according to the
//! instance's [`SweepStrategy`](crate::SweepStrategy). None of this is
//! observable in the results:
//!
//! * **Tie-break.** The winning horizon is the *smallest* `T̂_g` attaining
//!   the minimum social cost, under exact (`<` and `==`, no epsilon)
//!   comparison, whatever the visit order.
//! * **Determinism.** The pruned sweep is one sequential loop in a fixed
//!   order, so its pruned set, outcome and trace do not depend on the
//!   strategy. The
//!   unpruned sweep merges results in ascending horizon order and replays
//!   worker telemetry in that order, so its records (and, for a fixed
//!   strategy, its traces) are bit-identical run to run and its records
//!   are bit-identical across strategies.

use crate::bid::Instance;
use crate::error::{AuctionError, WdpError};
use crate::parallel::ordered_map;
use crate::preprocess::{min_horizon, SweepPrecomp};
use crate::wdp::{WdpSolution, WdpSolver};
use crate::winner::AWinner;
use fl_telemetry::{counter, debug, gauge, span};

/// The auction result the server announces (Alg. 1 lines 12–15).
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    horizon: u32,
    solution: WdpSolution,
}

impl AuctionOutcome {
    /// Reassembles an outcome from its parts — the inverse of
    /// `(horizon(), solution())`, used by [`crate::serial`] and the
    /// service layer's journal recovery to reconstruct announced outcomes
    /// bit-identically.
    pub fn from_parts(horizon: u32, solution: WdpSolution) -> AuctionOutcome {
        AuctionOutcome { horizon, solution }
    }

    /// The chosen number of global iterations `T_g*`.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The winning solution: accepted bids, schedules and payments.
    pub fn solution(&self) -> &WdpSolution {
        &self.solution
    }

    /// The minimum social cost found.
    pub fn social_cost(&self) -> f64 {
        self.solution.cost()
    }

    /// The ranked standby pool backing this outcome — the fault-tolerance
    /// companion contract priced from the losing qualified bids (see
    /// [`crate::recover`]).
    pub fn standby_pool(&self, instance: &Instance) -> crate::recover::StandbyPool {
        crate::recover::standby_pool(instance, self)
    }
}

/// The per-horizon record produced by [`sweep_horizons`] (Fig. 7's x-axis).
#[derive(Debug, Clone)]
pub struct HorizonOutcome {
    /// The fixed `T̂_g` of this WDP.
    pub horizon: u32,
    /// How many bids qualified.
    pub qualified: usize,
    /// The WDP result at this horizon.
    pub result: Result<WdpSolution, WdpError>,
}

/// Runs the full paper mechanism: `A_FL` with `A_winner` inside.
///
/// # Errors
///
/// * [`AuctionError::InvalidInstance`] if no bids were submitted.
/// * [`AuctionError::Infeasible`] if no horizon admits a feasible winner
///   set.
///
/// # Example
///
/// ```
/// use fl_auction::{run_auction, AuctionConfig, Bid, ClientProfile, Instance, Round, Window};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = AuctionConfig::builder().max_rounds(4).clients_per_round(1).build()?;
/// let mut inst = Instance::new(cfg);
/// for price in [3.0, 5.0] {
///     let c = inst.add_client(ClientProfile::new(2.0, 5.0)?);
///     inst.add_bid(c, Bid::new(price, 0.6, Window::new(Round(1), Round(4)), 4)?)?;
/// }
/// let outcome = run_auction(&inst)?;
/// assert_eq!(outcome.social_cost(), 3.0);
/// # Ok(())
/// # }
/// ```
pub fn run_auction(instance: &Instance) -> Result<AuctionOutcome, AuctionError> {
    run_auction_with(instance, &AWinner::new())
}

/// Runs `A_FL`'s outer enumeration around an arbitrary WDP solver.
///
/// Every horizon's [cost lower bound](SweepPrecomp::cost_lower_bound) is
/// computed up front, and the horizons are visited best-first: by
/// ascending bound, the smaller horizon first on equal bounds. The loop
/// stops at the first bound that, shrunk past its floating-point rounding
/// error, strictly exceeds the best cost found so far, since every later
/// bound is at least as large; those horizons are pruned without solving
/// their WDPs and counted in `afl.horizons_pruned`. The fold keeps the
/// lexicographically smallest `(cost, T̂_g)` under exact `<` and `==` (no
/// epsilon), so the smallest `T̂_g` wins cost ties in any visit order.
/// Pruning requires the shrunk bound to be *strictly* larger, and no
/// computed cost of any [`WdpSolver`] falls below it, so a pruned horizon
/// can never be the winner or tie it — the outcome is identical to the
/// unpruned fold over [`sweep_horizons`]. Without the shrink it would not
/// be: a bound rounded up by one ulp past a cost equal to the incumbent's
/// would prune a smaller horizon that wins the tie. The instance's
/// [`SweepStrategy`](crate::SweepStrategy) does not apply here: the loop
/// always runs on the calling thread.
///
/// # Errors
///
/// Same as [`run_auction`]. A [`WdpError::ResourceLimit`] at some horizon
/// skips that horizon rather than aborting the auction.
///
/// # Example
///
/// ```
/// use fl_auction::{
///     run_auction_with, AWinner, AuctionConfig, Bid, ClientProfile, Instance, Round, Window,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = AuctionConfig::builder().max_rounds(4).clients_per_round(1).build()?;
/// let mut inst = Instance::new(cfg);
/// let c = inst.add_client(ClientProfile::new(2.0, 5.0)?);
/// inst.add_bid(c, Bid::new(3.0, 0.5, Window::new(Round(1), Round(4)), 2)?)?;
/// let outcome = run_auction_with(&inst, &AWinner::new())?;
/// // The cheapest horizon, the smallest one on ties.
/// assert_eq!((outcome.horizon(), outcome.social_cost()), (2, 3.0));
/// # Ok(())
/// # }
/// ```
pub fn run_auction_with<S: WdpSolver>(
    instance: &Instance,
    solver: &S,
) -> Result<AuctionOutcome, AuctionError> {
    let _run = span!(
        "afl_run",
        solver = solver.name(),
        bids = instance.iter_bids().count() as u64
    );
    let (precomp, horizons) = prepare_sweep(instance)?;
    // Best-first: every horizon's lower bound up front, cheapest first,
    // the smaller horizon first on equal bounds.
    let mut order: Vec<(f64, u32)> = horizons
        .iter()
        .map(|&h| (precomp.cost_lower_bound(h), h))
        .collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let shrink = rounding_shrink(instance.num_bids());
    let mut best: Option<AuctionOutcome> = None;
    let mut evaluated = 0;
    for &(bound, horizon) in &order {
        // Strict `>` on the bound shrunk past its rounding error: a
        // horizon whose cost could still tie the incumbent is solved, so
        // the smallest-`T̂_g` tie-break never turns on a pruned horizon.
        // The shrunk bound is monotone in the bound, so the rest of the
        // order is pruned with this one.
        if let Some(b) = best.as_ref().filter(|b| bound * shrink > b.social_cost()) {
            debug!(
                "T_g = {} and {} later horizon(s) pruned: lower bound {} exceeds incumbent {}",
                horizon,
                order.len() - evaluated - 1,
                bound,
                b.social_cost()
            );
            break;
        }
        evaluated += 1;
        if let Ok(sol) = evaluate_horizon(&precomp, solver, horizon).result {
            // Lexicographic `(cost, horizon)` with exact `<` and `==`: the
            // smallest horizon wins a cost tie whatever the visit order.
            let better = best.as_ref().is_none_or(|b| {
                sol.cost() < b.social_cost()
                    || (sol.cost() == b.social_cost() && horizon < b.horizon())
            });
            if better {
                best = Some(AuctionOutcome {
                    horizon,
                    solution: sol,
                });
            }
        }
    }
    if evaluated < order.len() {
        counter!("afl.horizons_pruned", order.len() - evaluated);
    }
    counter!("afl.horizons_swept", horizons.len());
    if let Some(b) = &best {
        gauge!("afl.social_cost", b.social_cost());
        gauge!("afl.horizon", b.horizon());
        debug!(
            "A_FL chose T_g = {} at social cost {}",
            b.horizon(),
            b.social_cost()
        );
    }
    best.ok_or(AuctionError::Infeasible)
}

/// Solves the WDP at **every** admissible horizon and returns all results
/// (Fig. 7 plots these directly; `A_FL` takes their minimum).
///
/// Unlike [`run_auction_with`] this never prunes — every horizon's record
/// is returned, in ascending order. The per-horizon WDPs run on the
/// instance's [`SweepStrategy`](crate::SweepStrategy), which changes how
/// they are scheduled, never what they return.
///
/// # Errors
///
/// [`AuctionError::InvalidInstance`] if no bids were submitted (there is no
/// `θ_min` to derive `T_0` from).
///
/// # Example
///
/// ```
/// use fl_auction::{
///     sweep_horizons, AWinner, AuctionConfig, Bid, ClientProfile, Instance, Round, Window,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = AuctionConfig::builder().max_rounds(4).clients_per_round(1).build()?;
/// let mut inst = Instance::new(cfg);
/// let c = inst.add_client(ClientProfile::new(2.0, 5.0)?);
/// // θ = 0.5 admits every horizon from T_0 = 2 up to T = 4.
/// inst.add_bid(c, Bid::new(3.0, 0.5, Window::new(Round(1), Round(4)), 2)?)?;
/// let sweep = sweep_horizons(&inst, &AWinner::new())?;
/// let horizons: Vec<u32> = sweep.iter().map(|h| h.horizon).collect();
/// assert_eq!(horizons, vec![2, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub fn sweep_horizons<S: WdpSolver + Sync>(
    instance: &Instance,
    solver: &S,
) -> Result<Vec<HorizonOutcome>, AuctionError> {
    let (precomp, horizons) = prepare_sweep(instance)?;
    let threads = instance.config().sweep_strategy().threads();
    let out = ordered_map(&horizons, threads, |horizon| {
        evaluate_horizon(&precomp, solver, horizon)
    });
    counter!("afl.horizons_swept", out.len());
    Ok(out)
}

/// The factor that takes a computed
/// [`cost_lower_bound`](SweepPrecomp::cost_lower_bound) of an instance of
/// `bids` bids below every computed cost it bounds.
///
/// The bound holds exactly in real arithmetic, but both sides round. With
/// `u = 2⁻⁵³`, the bound's terms `fl(fl(b/c)·take)` and its running sum of
/// at most `bids` of them can lift it by up to a factor `(1 + u)^(bids+1)`,
/// and a solution's cost, a sum of at most `bids` non-negative prices
/// ([`WdpSolution::new`]), can fall short of the exact sum by a factor
/// `(1 − u)^(bids−1)`. So a computed cost is at least the computed bound
/// times `(1 − u)^(2·bids) ≥ 1 − 2·bids·u`. The factor returned,
/// `1 − (4·bids + 8)·u`, also absorbs its own rounding and that of the
/// product it scales (for values in the normal range). The pruning it
/// guards loses nothing measurable: it is a relative `4.4·10⁻¹²` at 10⁴
/// bids.
fn rounding_shrink(bids: usize) -> f64 {
    1.0 - (4 * bids + 8) as f64 * (f64::EPSILON / 2.0)
}

/// Everything the sweeps share: the incremental qualifier plus the list of
/// admissible horizons `T_0 ..= T` in ascending order.
fn prepare_sweep(instance: &Instance) -> Result<(SweepPrecomp, Vec<u32>), AuctionError> {
    let t0 =
        min_horizon(instance).ok_or_else(|| AuctionError::invalid("no bids were submitted"))?;
    let horizons: Vec<u32> = (t0..=instance.config().max_rounds()).collect();
    let _span = span!(
        "sweep_precompute",
        bids = instance.iter_bids().count() as u64
    );
    Ok((SweepPrecomp::new(instance), horizons))
}

/// Qualifies and solves one candidate horizon (Alg. 1 lines 4–10).
fn evaluate_horizon<S: WdpSolver>(
    precomp: &SweepPrecomp,
    solver: &S,
    horizon: u32,
) -> HorizonOutcome {
    let _candidate = span!("tg_candidate", tg = horizon);
    let wdp = precomp.qualify_at(horizon);
    let qualified = wdp.len();
    let result = if wdp.obviously_infeasible() {
        counter!("afl.horizons_obviously_infeasible");
        Err(WdpError::Infeasible)
    } else {
        solver.solve_wdp(&wdp)
    };
    if result.is_ok() {
        counter!("afl.horizons_feasible");
    }
    HorizonOutcome {
        horizon,
        qualified,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::{Bid, ClientProfile};
    use crate::config::AuctionConfig;
    use crate::types::{Round, Window};
    use fl_telemetry::{install_local, Recorder};
    use std::sync::Arc;

    /// K = 1, T = 6; clients trade off accuracy (affects admissible
    /// horizons) against price.
    fn instance() -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(6)
            .clients_per_round(1)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c1 = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
        let c2 = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
        let c3 = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
        // Accurate but pricey, available everywhere.
        inst.add_bid(
            c1,
            Bid::new(30.0, 0.5, Window::new(Round(1), Round(6)), 6).unwrap(),
        )
        .unwrap();
        // Cheap, coarse accuracy (θ = 0.8 → needs T̂_g ≥ 5).
        inst.add_bid(
            c2,
            Bid::new(6.0, 0.8, Window::new(Round(1), Round(6)), 6).unwrap(),
        )
        .unwrap();
        // Mid client covering early rounds only.
        inst.add_bid(
            c3,
            Bid::new(8.0, 0.6, Window::new(Round(1), Round(3)), 3).unwrap(),
        )
        .unwrap();
        inst
    }

    #[test]
    fn picks_the_cheapest_feasible_horizon() {
        let outcome = run_auction(&instance()).unwrap();
        // At T̂_g ∈ [2,4] only the θ ≤ 0.75 bids qualify; covering all
        // rounds needs the $30 bid. At T̂_g ∈ [5,6] the $6 bid qualifies
        // and covers everything alone → cost 6.
        assert_eq!(outcome.social_cost(), 6.0);
        assert!(outcome.horizon() >= 5);
        assert_eq!(outcome.solution().winners().len(), 1);
    }

    #[test]
    fn sweep_reports_every_admissible_horizon() {
        let inst = instance();
        let sweep = sweep_horizons(&inst, &AWinner::new()).unwrap();
        // θ_min = 0.5 → T_0 = 2; horizons 2..=6.
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0].horizon, 2);
        assert_eq!(sweep.last().unwrap().horizon, 6);
        for h in &sweep {
            match &h.result {
                Ok(sol) => assert_eq!(sol.horizon(), h.horizon),
                Err(e) => assert_eq!(*e, WdpError::Infeasible),
            }
        }
    }

    #[test]
    fn empty_instance_is_invalid() {
        let inst = Instance::new(AuctionConfig::paper_default());
        assert!(matches!(
            run_auction(&inst),
            Err(AuctionError::InvalidInstance(_))
        ));
    }

    #[test]
    fn uncoverable_instance_is_infeasible() {
        let cfg = AuctionConfig::builder()
            .max_rounds(3)
            .clients_per_round(2)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(1.0, 0.5, Window::new(Round(1), Round(3)), 3).unwrap(),
        )
        .unwrap();
        assert_eq!(run_auction(&inst), Err(AuctionError::Infeasible));
    }

    #[test]
    fn outcome_exposes_solution() {
        let outcome = run_auction(&instance()).unwrap();
        assert_eq!(outcome.solution().cost(), outcome.social_cost());
        assert!(outcome.solution().certificate().is_some());
    }

    /// K = 1, T = 6, one client per `(price, θ, a, d, c)` bid; θ_min = 0.5,
    /// so the horizons are 2..=6.
    fn six_round_instance(bids: &[(f64, f64, u32, u32, u32)]) -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(6)
            .clients_per_round(1)
            .round_time_limit(1000.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for &(price, theta, a, d, c) in bids {
            let client = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
            let bid = Bid::new(price, theta, Window::new(Round(a), Round(d)), c).unwrap();
            inst.add_bid(client, bid).unwrap();
        }
        inst
    }

    #[test]
    fn best_first_keeps_the_smaller_horizon_on_a_cost_tie_visited_later() {
        // In both cases the bound order is not ascending and the cheapest
        // cost ties at two horizons, the larger one visited first. In the
        // second, the smaller horizon's bound equals the tied cost, so it
        // is solved only because pruning is strict.
        struct Case {
            bids: &'static [(f64, f64, u32, u32, u32)],
            /// Lower bounds and greedy costs of horizons 2..=6.
            bounds: [f64; 5],
            costs: [Option<f64>; 5],
            visits: &'static [&'static str],
            winner: (u32, f64),
        }
        let cases = [
            Case {
                bids: &[
                    (2.0, 0.75, 1, 6, 3),
                    (11.0, 0.7, 1, 5, 4),
                    (3.0, 0.8, 1, 4, 4),
                    (8.0, 0.5, 4, 5, 2),
                ],
                bounds: [f64::INFINITY, f64::INFINITY, 4.75, 3.5, 4.25],
                costs: [None, None, Some(13.0), Some(13.0), None],
                visits: &["5", "6", "4"],
                winner: (4, 13.0),
            },
            Case {
                bids: &[
                    (7.0, 0.5, 2, 6, 2),
                    (6.0, 0.8, 1, 4, 2),
                    (1.0, 0.7, 3, 6, 4),
                    (7.0, 0.5, 1, 4, 4),
                ],
                bounds: [f64::INFINITY, f64::INFINITY, 7.0, 10.0, 4.5],
                costs: [None, None, Some(7.0), Some(14.0), Some(7.0)],
                visits: &["6", "4"],
                winner: (4, 7.0),
            },
        ];
        for Case {
            bids,
            bounds,
            costs,
            visits,
            winner,
        } in cases
        {
            let inst = six_round_instance(bids);
            let precomp = SweepPrecomp::new(&inst);
            let sweep = sweep_horizons(&inst, &AWinner::new()).unwrap();
            let got: Vec<f64> = (2..=6).map(|h| precomp.cost_lower_bound(h)).collect();
            assert_eq!(got, bounds, "lower bounds of horizons 2..=6");
            let got: Vec<Option<f64>> = sweep
                .iter()
                .map(|h| h.result.as_ref().ok().map(WdpSolution::cost))
                .collect();
            assert_eq!(got, costs, "greedy costs of horizons 2..=6");

            let recorder = Arc::new(Recorder::default());
            let guard = install_local(recorder.clone());
            let outcome = run_auction(&inst).unwrap();
            drop(guard);
            assert_eq!((outcome.horizon(), outcome.social_cost()), winner);
            let snap = recorder.snapshot();
            let visited: Vec<String> = snap.roots[0]
                .children
                .iter()
                .filter(|c| c.name == "tg_candidate")
                .map(|c| c.fields[0].1.clone())
                .collect();
            assert_eq!(visited, visits, "best-first visit order");
            assert_eq!(
                snap.counters["afl.horizons_pruned"],
                5 - visits.len() as u64
            );
            assert_eq!(snap.counters["afl.horizons_swept"], 5);

            // The ascending fold solves more: horizons come in ascending
            // order, and one is skipped only when its bound exceeds the
            // incumbent found at a smaller horizon.
            let mut incumbent = f64::INFINITY;
            let mut ascending = 0;
            for (bound, cost) in bounds.iter().zip(&costs) {
                if *bound > incumbent {
                    continue;
                }
                ascending += 1;
                incumbent = incumbent.min(cost.unwrap_or(f64::INFINITY));
            }
            assert!(
                visited.len() < ascending,
                "{} vs {ascending}",
                visited.len()
            );
        }
    }

    #[test]
    fn a_bound_rounded_above_a_tied_cost_does_not_prune_the_smaller_horizon() {
        // K = 1, T = 4, both bids at p = 1.5 + 2⁻⁵². Horizon 3 admits only
        // A = (θ 0.6, [1, 3], c 3), horizon 4 also B = (θ 0.75, [1, 4],
        // c 4), and the greedy costs p at both. p/3 rounds up, so horizon
        // 3's bound fl(p/3)·3 = p + 2⁻⁵¹ overshoots its own cost, while
        // horizon 4's bound (p/4)·4 = p is exact. Best-first solves 4
        // first; 3 ties it and must still be solved, and win.
        let p = 1.5 + f64::EPSILON;
        let cfg = AuctionConfig::builder()
            .max_rounds(4)
            .clients_per_round(1)
            .round_time_limit(1000.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for (theta, d, c) in [(0.6, 3, 3), (0.75, 4, 4)] {
            let client = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
            let bid = Bid::new(p, theta, Window::new(Round(1), Round(d)), c).unwrap();
            inst.add_bid(client, bid).unwrap();
        }
        let precomp = SweepPrecomp::new(&inst);
        assert_eq!(precomp.cost_lower_bound(3), 1.5 + 2.0 * f64::EPSILON);
        assert_eq!(precomp.cost_lower_bound(4), p);
        let sweep = sweep_horizons(&inst, &AWinner::new()).unwrap();
        let costs: Vec<(u32, f64)> = sweep
            .iter()
            .map(|h| (h.horizon, h.result.as_ref().unwrap().cost()))
            .collect();
        assert_eq!(costs, [(3, p), (4, p)]);

        let recorder = Arc::new(Recorder::default());
        let guard = install_local(recorder.clone());
        let outcome = run_auction(&inst).unwrap();
        drop(guard);
        assert_eq!((outcome.horizon(), outcome.social_cost()), (3, p));
        assert!(!recorder
            .snapshot()
            .counters
            .contains_key("afl.horizons_pruned"));
    }

    #[test]
    fn ties_prefer_the_earlier_horizon() {
        // One client whose bid qualifies from T̂_g = 2 onward with the same
        // cost at every horizon... cost ties keep the first (smallest T̂_g).
        let cfg = AuctionConfig::builder()
            .max_rounds(4)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(5.0, 0.5, Window::new(Round(1), Round(4)), 4).unwrap(),
        )
        .unwrap();
        // c_ij = 4 needs the full window: only T̂_g = 4 is feasible though.
        let outcome = run_auction(&inst).unwrap();
        assert_eq!(outcome.horizon(), 4);

        let mut inst2 = Instance::new(
            AuctionConfig::builder()
                .max_rounds(4)
                .clients_per_round(1)
                .build()
                .unwrap(),
        );
        let c2 = inst2.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst2
            .add_bid(
                c2,
                Bid::new(5.0, 0.5, Window::new(Round(1), Round(4)), 2).unwrap(),
            )
            .unwrap();
        // c = 2: feasible at T̂_g = 2 (cost 5) and infeasible at 3, 4 only
        // if rounds cannot be covered — with c = 2 < T̂_g they cannot.
        let outcome2 = run_auction(&inst2).unwrap();
        assert_eq!(outcome2.horizon(), 2);
    }
}
