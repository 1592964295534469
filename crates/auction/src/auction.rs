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
//! [`SweepPrecomp`]. [`run_auction_with`] visits the horizons in ascending
//! order on the calling thread and skips any horizon whose
//! [cost lower bound](SweepPrecomp::cost_lower_bound) proves it cannot
//! beat the incumbent found at a smaller horizon.
//! [`sweep_horizons`] never prunes, so its independent per-horizon WDPs fan
//! out over a scoped worker pool according to the instance's
//! [`SweepStrategy`](crate::SweepStrategy). None of this is observable in
//! the results:
//!
//! * **Tie-break.** The winning horizon is the *smallest* `T̂_g` attaining
//!   the minimum social cost, under exact (`<`, no epsilon) comparison.
//! * **Determinism.** The pruned sweep is one sequential loop, so its
//!   pruned set, outcome and trace do not depend on the strategy. The
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
/// Horizons are visited in ascending order; a horizon whose
/// [cost lower bound](SweepPrecomp::cost_lower_bound) strictly exceeds the
/// best cost found at a smaller horizon is pruned without solving its WDP.
/// On cost ties the smallest `T̂_g` wins (exact comparison, no epsilon),
/// and because pruning requires a *strictly* larger lower bound, a pruned
/// horizon can never be the tie-break winner — the outcome is identical to
/// the unpruned fold over [`sweep_horizons`]. The instance's
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
    let mut best: Option<AuctionOutcome> = None;
    for &horizon in &horizons {
        let bound = best
            .as_ref()
            .map_or(f64::INFINITY, AuctionOutcome::social_cost);
        // Strict `>`: a lower bound merely *equal* to the incumbent is
        // still solved, so the smallest-`T̂_g` tie-break never turns on a
        // pruned horizon and pruning stays outcome-preserving.
        if precomp.cost_lower_bound(horizon) > bound {
            let _candidate = span!("tg_candidate", tg = horizon);
            counter!("afl.horizons_pruned");
            debug!(
                "T_g = {} pruned: lower bound exceeds incumbent {}",
                horizon, bound
            );
            continue;
        }
        if let Ok(sol) = evaluate_horizon(&precomp, solver, horizon).result {
            // Exact `<`: on a cost tie the incumbent (smaller horizon) is
            // kept.
            if best.as_ref().is_none_or(|b| sol.cost() < b.social_cost()) {
                best = Some(AuctionOutcome {
                    horizon,
                    solution: sol,
                });
            }
        }
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
    let qualified = wdp.bids().len();
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
