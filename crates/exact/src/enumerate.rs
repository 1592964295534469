//! Brute-force winner determination by subset enumeration.
//!
//! Exponential and only usable on toy instances (≤ 22 bids), but its
//! correctness is self-evident, which makes it the ground truth the
//! branch-and-bound solver is tested against.

use fl_auction::{QualifiedBid, Wdp, WdpError, WdpSolution, WdpSolver, WinnerEntry};

use crate::sched;
use crate::solver::{ExactOutcome, Optimality, ProvingWdpSolver};

/// Hard cap on the number of bids the enumerator accepts.
pub const MAX_BIDS: usize = 22;

/// Exhaustive WDP solver (testing yardstick).
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSolver;

impl BruteForceSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        BruteForceSolver
    }
}

impl WdpSolver for BruteForceSolver {
    fn name(&self) -> &str {
        "BruteForce"
    }

    fn solve_wdp(&self, wdp: &Wdp) -> Result<WdpSolution, WdpError> {
        let bids = wdp.bids();
        let n = bids.len();
        if n > MAX_BIDS {
            return Err(WdpError::ResourceLimit(format!(
                "brute force enumerates at most {MAX_BIDS} bids, got {n}"
            )));
        }
        let horizon = wdp.horizon();
        let k = wdp.demand_per_round();
        let mut best: Option<(f64, u32)> = None;
        'subsets: for mask in 0u32..(1u32 << n) {
            // One bid per client.
            let mut clients = std::collections::HashSet::new();
            let mut cost = 0.0;
            for (i, b) in bids.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    if !clients.insert(b.bid_ref.client.0) {
                        continue 'subsets;
                    }
                    cost += b.price;
                }
            }
            if best.as_ref().is_some_and(|(bc, _)| cost >= *bc - 1e-12) {
                continue;
            }
            let chosen: Vec<&QualifiedBid> = bids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, b)| b)
                .collect();
            if sched::is_feasible(&chosen, horizon, k) {
                best = Some((cost, mask));
            }
        }
        let Some((_, mask)) = best else {
            return Err(WdpError::Infeasible);
        };
        let chosen: Vec<&QualifiedBid> = bids
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, b)| b)
            .collect();
        let schedules = sched::build_schedules(&chosen, horizon, k)
            .expect("winning mask was feasibility-checked");
        let mut cost = 0.0;
        let winners: Vec<WinnerEntry> = chosen
            .iter()
            .zip(schedules)
            .map(|(b, schedule)| {
                cost += b.price;
                WinnerEntry {
                    bid_ref: b.bid_ref,
                    price: b.price,
                    payment: b.price,
                    schedule,
                }
            })
            .collect();
        Ok(WdpSolution::new(horizon, winners, cost, None))
    }
}

impl ProvingWdpSolver for BruteForceSolver {
    /// Enumeration either visits every subset (a proof) or refuses the
    /// instance outright, so a returned solution is always
    /// [`Optimality::Proven`].
    fn solve_proved(&self, wdp: &Wdp) -> Result<ExactOutcome, WdpError> {
        self.solve_wdp(wdp).map(|solution| ExactOutcome {
            solution,
            optimality: Optimality::Proven,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;
    use fl_auction::{BidRef, ClientId, Round, Window};

    fn qb(client: u32, bid: u32, price: f64, a: u32, d: u32, c: u32) -> QualifiedBid {
        QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), bid),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 1.0,
        }
    }

    #[test]
    fn matches_known_optimum() {
        let wdp = Wdp::new(
            3,
            1,
            vec![
                qb(1, 0, 2.0, 1, 2, 1),
                qb(2, 0, 6.0, 2, 3, 2),
                qb(3, 0, 5.0, 1, 3, 2),
            ],
        );
        let sol = BruteForceSolver::new().solve_wdp(&wdp).unwrap();
        assert_eq!(sol.cost(), 7.0);
    }

    #[test]
    fn rejects_oversized_instances() {
        let bids: Vec<QualifiedBid> = (0..23).map(|i| qb(i, 0, 1.0, 1, 2, 1)).collect();
        let wdp = Wdp::new(2, 1, bids);
        assert!(matches!(
            BruteForceSolver::new().solve_wdp(&wdp),
            Err(WdpError::ResourceLimit(_))
        ));
    }

    #[test]
    fn agrees_with_branch_and_bound_on_random_instances() {
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let horizon = 2 + (next() % 4) as u32;
            let k = 1 + (next() % 2) as u32;
            let n = 5 + (next() % 8) as usize; // ≤ 12 bids
            let mut bids = Vec::new();
            for i in 0..n {
                let a = 1 + (next() % u64::from(horizon)) as u32;
                let d = a + (next() % u64::from(horizon - a + 1)) as u32;
                let c = 1 + (next() % u64::from(d - a + 1)) as u32;
                let price = 1.0 + (next() % 40) as f64;
                // Every other trial gives clients two bids.
                let client = if trial % 2 == 0 {
                    i as u32
                } else {
                    (i / 2) as u32
                };
                let bid_idx = if trial % 2 == 0 { 0 } else { (i % 2) as u32 };
                bids.push(qb(client, bid_idx, price, a, d, c));
            }
            let wdp = Wdp::new(horizon, k, bids);
            let brute = BruteForceSolver::new().solve_wdp(&wdp);
            let bnb = ExactSolver::new().solve_wdp(&wdp);
            match (brute, bnb) {
                (Ok(a), Ok(b)) => assert!(
                    (a.cost() - b.cost()).abs() < 1e-9,
                    "trial {trial}: brute {} vs bnb {}",
                    a.cost(),
                    b.cost()
                ),
                (Err(WdpError::Infeasible), Err(WdpError::Infeasible)) => {}
                (a, b) => panic!("trial {trial}: disagreement {a:?} vs {b:?}"),
            }
        }
    }
}
