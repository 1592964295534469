//! `A_winner` — the greedy winner-determination algorithm (Alg. 2).
//!
//! Starting from an empty winner set, each iteration computes every
//! unselected bid's *representative schedule* (its `c_ij` least-loaded
//! rounds), prices it by average cost `ρ / R_il(S)` — price per newly
//! covered round — and selects the cheapest. The selected client's
//! remaining bids leave the candidate set; the loop ends when every round
//! has `K` participants. Payments follow the critical-value rule, and the
//! run is replayed into the dual of the relaxed compact-exponential ILP to
//! produce an instance-specific approximation certificate (Lemma 5).
//!
//! The greedy runs over the columnar bid store of [`crate::columnar`]: the
//! struct-of-arrays columns the [`Wdp`] holds (written by
//! [`SweepPrecomp::qualify_at`](crate::SweepPrecomp::qualify_at), so
//! nothing is transposed per solve), a per-thread scratch arena reused
//! across the horizon sweep, a lazy heap of 16-byte entries, and a
//! bucketed coverage index that keeps lazy-queue entries valid until a
//! load inside their window actually changes. Its reference is the row-form full scan
//! `fl_certify::oracle::greedy`, which re-evaluates every bid each
//! iteration and builds its own dual certificate;
//! `crates/certify/tests/columnar_equivalence.rs` holds the two
//! bit-identical, certificates included, under both schedule policies.

use crate::columnar::{avg_key, with_scratch, HeapSlot};
use crate::error::WdpError;
use crate::payment::{payment, PaymentRule};
use crate::schedule::{gain_in_window, pick_schedule_into, SchedulePolicy};
use crate::types::{BidRef, Round};
use crate::wdp::{DualCertificate, Wdp, WdpSolution, WdpSolver, WinnerEntry};
use fl_telemetry::{counter, span};

/// One `A_winner` iteration as seen by the payment rule: who was selected,
/// at what marginal gain and average cost, and which runner-up average set
/// the critical value. The trace lets external checkers (the `fl-certify`
/// property engine) verify the Alg. 3 payment identity
/// `payment = gain · critical_avg` (or `price` when no runner-up existed)
/// without re-deriving the greedy run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionStep {
    /// The bid selected in this iteration.
    pub bid_ref: BidRef,
    /// Marginal utility `R_{i*l*}(S)` at selection.
    pub gain: u32,
    /// Average cost `ρ_{i*l*} / R_{i*l*}(S)` at selection.
    pub avg: f64,
    /// The runner-up's average cost at this step (Alg. 3's critical
    /// value), `None` when the candidate set held no other bid.
    pub critical_avg: Option<f64>,
}

/// The paper's greedy WDP solver.
///
/// The default configuration is exactly Alg. 2; the policy and payment
/// knobs exist for the ablation experiments.
///
/// # Example
///
/// The worked example of Sec. V-B2 (`T̂_g = 3`, `K = 1`, three single-bid
/// clients) selects `B_1` and `B_3` for a social cost of 7:
///
/// ```
/// use fl_auction::{AWinner, QualifiedBid, Wdp, WdpSolver};
/// use fl_auction::{BidRef, ClientId, Round, Window};
///
/// # fn main() -> Result<(), fl_auction::WdpError> {
/// let bid = |client, price, a, d, c| QualifiedBid {
///     bid_ref: BidRef::new(ClientId(client), 0),
///     price,
///     accuracy: 0.5,
///     window: Window::new(Round(a), Round(d)),
///     rounds: c,
///     round_time: 1.0,
/// };
/// let wdp = Wdp::new(3, 1, vec![
///     bid(1, 2.0, 1, 2, 1),
///     bid(2, 6.0, 2, 3, 2),
///     bid(3, 5.0, 1, 3, 2),
/// ]);
/// let sol = AWinner::new().solve_wdp(&wdp)?;
/// assert_eq!(sol.cost(), 7.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AWinner {
    policy: SchedulePolicy,
    payment_rule: PaymentRule,
    with_certificate: bool,
}

impl AWinner {
    /// The paper's configuration: least-loaded representative schedules,
    /// critical-value payments, certificate enabled.
    pub fn new() -> Self {
        AWinner {
            policy: SchedulePolicy::LeastLoaded,
            payment_rule: PaymentRule::CriticalValue,
            with_certificate: true,
        }
    }

    /// Overrides the scheduling policy (ablation A1).
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the payment rule (ablation A4).
    pub fn with_payment_rule(mut self, rule: PaymentRule) -> Self {
        self.payment_rule = rule;
        self
    }

    /// Disables the dual certificate (skips the `O(N + T̂_g·log T̂_g +
    /// K·T̂_g)` post-pass over `N` qualified bids; useful in tight
    /// benchmarking loops).
    pub fn without_certificate(mut self) -> Self {
        self.with_certificate = false;
        self
    }

    /// Like [`WdpSolver::solve_wdp`] but also returns the per-iteration
    /// selection trace, in selection order (one [`SelectionStep`] per
    /// winner).
    ///
    /// # Errors
    ///
    /// Same contract as [`WdpSolver::solve_wdp`].
    pub fn solve_traced(&self, wdp: &Wdp) -> Result<(WdpSolution, Vec<SelectionStep>), WdpError> {
        self.solve_inner(wdp)
    }
}

/// Per-winner data retained for the payment pass and the dual replay.
struct RawWinner {
    bid_idx: usize,
    schedule: Vec<Round>,
    /// `F_{i*l*}`: the rounds of the schedule still available at selection.
    available: Vec<Round>,
    avg: f64,
    /// Marginal utility `R_{i*l*}(S)` at selection.
    gain: u32,
    /// The runner-up's average cost at the selection step (Alg. 3's
    /// critical value), `None` when the candidate set held no other bid.
    critical_avg: Option<f64>,
}

impl WdpSolver for AWinner {
    fn name(&self) -> &str {
        "A_winner"
    }

    fn solve_wdp(&self, wdp: &Wdp) -> Result<WdpSolution, WdpError> {
        self.solve_inner(wdp).map(|(solution, _)| solution)
    }
}

impl AWinner {
    fn solve_inner(&self, wdp: &Wdp) -> Result<(WdpSolution, Vec<SelectionStep>), WdpError> {
        let horizon = wdp.horizon();
        let cols = wdp.columns();
        let (raw, phi) = {
            let _greedy = span!("wdp_greedy", bids = cols.len() as u64);
            columnar_greedy(wdp, self.policy)?
        };

        let payments: Vec<f64> = {
            let _pay = span!("payment");
            raw.iter()
                .map(|w| {
                    if w.critical_avg.is_none() {
                        counter!("payment.no_runner_up");
                    }
                    payment(
                        self.payment_rule,
                        cols.price(w.bid_idx),
                        w.gain,
                        w.critical_avg,
                    )
                })
                .collect()
        };

        let certificate = if self.with_certificate {
            let _cert = span!("dual_certificate");
            Some(build_certificate(wdp, &raw, &phi))
        } else {
            None
        };

        let trace: Vec<SelectionStep> = raw
            .iter()
            .map(|w| SelectionStep {
                bid_ref: cols.bid_ref(w.bid_idx),
                gain: w.gain,
                avg: w.avg,
                critical_avg: w.critical_avg,
            })
            .collect();

        let mut cost = 0.0;
        let winners: Vec<WinnerEntry> = raw
            .into_iter()
            .zip(payments)
            .map(|(w, pay)| {
                let price = cols.price(w.bid_idx);
                cost += price;
                WinnerEntry {
                    bid_ref: cols.bid_ref(w.bid_idx),
                    price,
                    payment: pay,
                    schedule: w.schedule,
                }
            })
            .collect();
        Ok((WdpSolution::new(horizon, winners, cost, certificate), trace))
    }
}

/// The columnar greedy loop — Alg. 2 over the [`Wdp`]'s struct-of-arrays
/// columns ([`crate::columnar`]), with the lazy candidate queue validated
/// by the bucketed coverage index instead of per-iteration staleness.
///
/// # Why this is bit-identical to the row-form full scan
///
/// The reference (`fl_certify::oracle::greedy`) re-evaluates every
/// unselected bid against the live coverage in each iteration and selects
/// the minimum under `(avg, price, bid_ref)`.
///
/// A candidate's average cost `ρ / R_il(S)` can only **grow** as coverage
/// accumulates (availability shrinks monotonically), so a cached heap key
/// is a lower bound on the entry's current value. When the minimum entry
/// is *current* — no round in its window saturated since its stamp
/// ([`crate::columnar::CoverageIndex::is_current`]) — its cached `avg` and
/// `gain` are exact (gain is `min(c, m)` with `m` the window's unsaturated
/// round count; see [`gain_in_window`]), and every other entry's true
/// value is at least its own cached key ≥ the top's key, so the top is
/// the exact minimum under the full `(avg, price, bid_ref)` order. A stale
/// top is re-evaluated with the sort-free [`gain_in_window`]; if the
/// recomputed gain matches the cached one the bucket hit was conservative
/// and the top is *still* the exact minimum (same lower-bound argument),
/// so it is accepted in place — only a genuinely changed gain is counted
/// by `winner.lazy_refreshes` and re-keyed. Because an entry stays valid
/// until a round in its window actually saturates — at most `T̂_g`
/// saturations exist per run — valid entries survive *across* iterations,
/// which collapses the refresh count relative to the old one-iteration
/// freshness rule.
///
/// Schedules are never cached per entry: only the winner needs one, and it
/// is derived from the live loads at selection ([`pick_schedule_into`]) —
/// exactly the schedule the full scan would compute at that iteration.
/// Dropping the per-entry `Vec` keeps heap slots `Copy` and the seed pass
/// allocation-free.
///
/// The pop sequence does not depend on how the heap was built or
/// repaired: live keys are unique (`bid_ref` is the last tie-break and a
/// bid holds at most one live entry), so every pop returns the one
/// minimum. That covers the seed, which is heapified once, bottom-up, in
/// `O(n)` ([`LazyHeap::fill`]) — before the first selection every round
/// is unsaturated, so the gain is `min(c, d − a + 1)` under either policy
/// and the seed reads no loads — and a refreshed top, which is re-keyed
/// in place and sifted down once ([`LazyHeap::rekey_top`]) rather than
/// popped and pushed. The cached gain and stamp of each bid live in the
/// scratch columns `gains` and `stamps`; `avg` is recomputed as
/// `price / gain`, the division the cached key was made from.
///
/// [`LazyHeap::fill`]: crate::columnar::LazyHeap::fill
/// [`LazyHeap::rekey_top`]: crate::columnar::LazyHeap::rekey_top
fn columnar_greedy(
    wdp: &Wdp,
    policy: SchedulePolicy,
) -> Result<(Vec<RawWinner>, Vec<Vec<f64>>), WdpError> {
    let horizon = wdp.horizon();
    let k = wdp.demand_per_round();
    let cols = wdp.columns();
    let avg = |i: usize, gain: u32| cols.price(i) / f64::from(gain);
    let total = u64::from(k) * u64::from(horizon);
    let mut raw: Vec<RawWinner> = Vec::new();
    // φ(t, l) of selected schedules, per round (for η_φ).
    let mut phi: Vec<Vec<f64>> = vec![Vec::new(); horizon as usize];
    let mut refreshes = 0u64;
    let feasible = with_scratch(|s| {
        s.reset(horizon, cols.len(), cols.num_slots());
        // Seed: every bid evaluated under the empty coverage, stamp 0.
        let gains = &mut s.gains;
        s.heap.fill(
            (0..cols.len()).filter_map(|i| {
                let gain = cols.rounds(i).min(cols.end(i) - cols.start(i) + 1);
                gains[i] = gain;
                // Gains never grow back, so a zero gain never enters.
                (gain != 0).then(|| HeapSlot::new(i as u32, avg(i, gain)))
            }),
            cols,
        );
        let mut covered = 0u64;
        while covered < total {
            // Take tops until we hold the exact minimum and runner-up.
            let mut best: Option<HeapSlot> = None;
            let mut second: Option<HeapSlot> = None;
            while second.is_none() {
                let Some(top) = s.heap.peek() else {
                    break;
                };
                let i = top.idx as usize;
                if s.client_selected[cols.client_slot(i) as usize] {
                    // The client already won (this or another) bid.
                    s.heap.pop(cols);
                    continue;
                }
                if !s.index.is_current(cols.start(i), cols.end(i), s.stamps[i]) {
                    let gain = gain_in_window(
                        &s.loads,
                        k,
                        cols.start(i),
                        cols.end(i),
                        cols.rounds(i),
                        policy,
                    );
                    s.stamps[i] = s.index.clock();
                    // An unchanged gain means the bucketed index was
                    // conservative: no round this bid counts on actually
                    // saturated, so the cached key is exact and the top is
                    // still the true minimum of the candidate set (every
                    // other cached key is a lower bound that already sorts
                    // after it). It is accepted below.
                    if gain != s.gains[i] {
                        refreshes += 1;
                        s.gains[i] = gain;
                        if gain == 0 {
                            s.heap.pop(cols); // monotone: will never help again
                        } else {
                            s.heap.rekey_top(avg_key(avg(i, gain)), cols);
                        }
                        continue;
                    }
                }
                s.heap.pop(cols);
                if best.is_none() {
                    best = Some(top);
                } else {
                    second = Some(top);
                }
            }
            let Some(win) = best else {
                return false; // candidate set exhausted: infeasible
            };
            if let Some(sec) = second {
                // Still current — back into the heap untouched.
                s.heap.push(sec, cols);
            }
            let i = win.idx as usize;
            let win_gain = s.gains[i];
            let win_avg = avg(i, win_gain);
            // A current entry re-derives to exactly its cached evaluation.
            let gain = pick_schedule_into(
                &s.loads,
                k,
                cols.start(i),
                cols.end(i),
                cols.rounds(i),
                policy,
                &mut s.order,
                &mut s.schedule,
            );
            debug_assert_eq!(
                gain, win_gain,
                "current winner entry must re-derive exactly"
            );
            let mut available = Vec::with_capacity(win_gain as usize);
            s.index.advance();
            for &t in &s.schedule {
                let load = &mut s.loads[(t - 1) as usize];
                if *load < k {
                    covered += 1;
                    available.push(Round(t));
                    phi[(t - 1) as usize].push(win_avg);
                    if *load + 1 == k {
                        // The round just saturated: cached gains whose
                        // windows contain it are stale from here on.
                        s.index.touch(t);
                    }
                }
                *load += 1;
            }
            s.client_selected[cols.client_slot(i) as usize] = true;
            raw.push(RawWinner {
                bid_idx: i,
                schedule: s.schedule.iter().map(|&t| Round(t)).collect(),
                available,
                avg: win_avg,
                gain: win_gain,
                critical_avg: second.map(|sec| avg(sec.idx as usize, s.gains[sec.idx as usize])),
            });
        }
        true
    });
    counter!("winner.greedy_iterations", raw.len());
    if !feasible {
        return Err(WdpError::Infeasible);
    }
    counter!("winner.lazy_refreshes", refreshes);
    Ok((raw, phi))
}

/// Replays the run into the dual program (Alg. 2 lines 16–23).
fn build_certificate(wdp: &Wdp, raw: &[RawWinner], phi: &[Vec<f64>]) -> DualCertificate {
    let horizon = wdp.horizon();
    let harmonic: f64 = (1..=horizon).map(|t| 1.0 / f64::from(t)).sum();

    // ψ_max^t: the largest qualified bid price whose window covers t.
    // ψ_min^t: the smallest *possible* average cost at t — `ρ/c` over every
    // qualified bid whose window covers t. The domain must be all qualified
    // bids, not just the averages recorded during the run: a cheap bid
    // selected elsewhere (or never evaluated at t) still owns a dual
    // constraint `Σ_{t∈l} g(t) − λ ≤ ρ_il` for its schedules through t, and
    // `ρ/c` lower-bounds every realised average `ρ/R_il(S)` (R ≤ c), so
    // dividing η_φ by `H·ω` with this ω keeps constraint (8a) feasible for
    // every bid and schedule. (Differential fuzzing caught the narrower
    // recorded-averages domain producing infeasible duals with D > OPT;
    // see crates/certify/corpus/.)
    let (psi_max, psi_min) = psi_bounds(wdp);
    let mut omega: f64 = 0.0;
    for (&psi_max, &psi_min) in psi_max.iter().zip(&psi_min) {
        let w_t = if psi_min > 0.0 && psi_min.is_finite() {
            psi_max / psi_min
        } else if psi_max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        omega = omega.max(w_t);
    }

    // η_φ(t) = max_l φ(t, l) over selected schedules; g(t) = η_φ/(H·ω).
    let scale = harmonic * omega;
    let eta: Vec<f64> = phi
        .iter()
        .map(|v| v.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0))
        .collect();
    let g: Vec<f64> = eta.iter().map(|&e| e / scale).collect();

    // λ_il = Σ_{t∈F_il} (η_φ(t) − φ(t,l)) / (H·ω) per winner.
    let lambda: Vec<f64> = raw
        .iter()
        .map(|w| {
            w.available
                .iter()
                .map(|t| (eta[t.index()] - w.avg) / scale)
                .sum()
        })
        .collect();

    let k = f64::from(wdp.demand_per_round());
    let dual_objective = k * g.iter().sum::<f64>() - lambda.iter().sum::<f64>();
    DualCertificate {
        harmonic,
        omega,
        g,
        lambda,
        dual_objective,
    }
}

/// Per-round `(ψ_max^t, ψ_min^t)` (index 0 ↔ round 1): the largest price
/// and the smallest `ρ/c` over every bid whose window covers `t`, or
/// `(0, ∞)` for a round no window covers.
///
/// One pass over the bids instead of one scan per round: a window
/// `[a, d]` is written into the two blocks of length `2^k ≤ d − a + 1`
/// that start at `a` and end at `d`, as in a sparse table. A final sweep
/// pushes every level down to single rounds. That is
/// `O(N + T̂_g·log T̂_g)`. Max and min are idempotent and
/// order-independent, so the overlapping blocks and the visiting order
/// leave every value bit-identical to the per-round scan.
fn psi_bounds(wdp: &Wdp) -> (Vec<f64>, Vec<f64>) {
    let rounds = wdp.horizon() as usize;
    let levels = rounds.ilog2() as usize + 1;
    // Level `k` holds, at offset `k·rounds + i`, the bound over the
    // block of rounds `i + 1 ..= i + 2^k`.
    let mut psi_max = vec![0.0f64; levels * rounds];
    let mut psi_min = vec![f64::INFINITY; levels * rounds];
    let cols = wdp.columns();
    for b in 0..cols.len() {
        let (a, d) = (cols.start(b) as usize - 1, cols.end(b) as usize - 1);
        let k = (d - a + 1).ilog2() as usize;
        let price = cols.price(b);
        let avg = price / f64::from(cols.rounds(b).max(1));
        for i in [k * rounds + a, k * rounds + d + 1 - (1 << k)] {
            psi_max[i] = psi_max[i].max(price);
            psi_min[i] = psi_min[i].min(avg);
        }
    }
    for k in (1..levels).rev() {
        let half = 1 << (k - 1);
        for i in 0..=rounds - (1 << k) {
            let (hi, lo) = (k * rounds + i, (k - 1) * rounds + i);
            for j in [lo, lo + half] {
                psi_max[j] = psi_max[j].max(psi_max[hi]);
                psi_min[j] = psi_min[j].min(psi_min[hi]);
            }
        }
    }
    psi_max.truncate(rounds);
    psi_min.truncate(rounds);
    (psi_max, psi_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Coverage;
    use crate::types::{BidRef, ClientId, Window};
    use crate::wdp::QualifiedBid;

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

    /// The worked example of Sec. V-B2.
    fn paper_example() -> Wdp {
        Wdp::new(
            3,
            1,
            vec![
                qb(1, 0, 2.0, 1, 2, 1), // B_1($2, [1,2], 1)
                qb(2, 0, 6.0, 2, 3, 2), // B_2($6, [2,3], 2)
                qb(3, 0, 5.0, 1, 3, 2), // B_3($5, [1,3], 2)
            ],
        )
    }

    #[test]
    fn reproduces_the_papers_worked_example() {
        let sol = AWinner::new().solve_wdp(&paper_example()).unwrap();
        assert_eq!(sol.winners().len(), 2);
        let w1 = &sol.winners()[0];
        let w3 = &sol.winners()[1];
        assert_eq!(w1.bid_ref, BidRef::new(ClientId(1), 0));
        assert_eq!(w1.schedule, vec![Round(1)]);
        assert!((w1.payment - 2.5).abs() < 1e-12, "p_1 = 2.5 in the paper");
        assert_eq!(w3.bid_ref, BidRef::new(ClientId(3), 0));
        assert_eq!(w3.schedule, vec![Round(2), Round(3)]);
        assert!((w3.payment - 6.0).abs() < 1e-12, "p_3 = 6 in the paper");
        assert_eq!(sol.cost(), 7.0);
    }

    #[test]
    fn coverage_is_complete_in_every_round() {
        let sol = AWinner::new().solve_wdp(&paper_example()).unwrap();
        let mut cov = Coverage::new(3, 1);
        for w in sol.winners() {
            cov.add(&w.schedule);
        }
        assert!(cov.is_complete());
    }

    #[test]
    fn infeasible_wdp_is_reported() {
        // Only one client but K = 2.
        let wdp = Wdp::new(2, 2, vec![qb(0, 0, 1.0, 1, 2, 2)]);
        assert_eq!(
            AWinner::new().solve_wdp(&wdp).unwrap_err(),
            WdpError::Infeasible
        );
    }

    #[test]
    fn round_not_covered_by_any_window_is_infeasible() {
        let wdp = Wdp::new(3, 1, vec![qb(0, 0, 1.0, 1, 2, 2), qb(1, 0, 1.0, 1, 2, 2)]);
        assert_eq!(
            AWinner::new().solve_wdp(&wdp).unwrap_err(),
            WdpError::Infeasible
        );
    }

    #[test]
    fn at_most_one_bid_per_client_is_selected() {
        let wdp = Wdp::new(
            2,
            1,
            vec![
                qb(0, 0, 1.0, 1, 1, 1),
                qb(0, 1, 1.0, 2, 2, 1), // same client, cheap second bid
                qb(1, 0, 50.0, 2, 2, 1),
            ],
        );
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        let clients: Vec<u32> = sol.winners().iter().map(|w| w.bid_ref.client.0).collect();
        let mut dedup = clients.clone();
        dedup.dedup();
        assert_eq!(clients.len(), dedup.len());
        // Client 0 wins one bid, client 1 must staff the other round.
        assert_eq!(sol.winners().len(), 2);
        assert!((sol.cost() - 51.0).abs() < 1e-12);
    }

    #[test]
    fn payments_are_individually_rational() {
        let sol = AWinner::new().solve_wdp(&paper_example()).unwrap();
        for w in sol.winners() {
            assert!(
                w.payment >= w.price - 1e-12,
                "winner {} paid {} below price {}",
                w.bid_ref,
                w.payment,
                w.price
            );
        }
    }

    #[test]
    fn schedules_stay_inside_windows() {
        let wdp = Wdp::new(
            4,
            2,
            vec![
                qb(0, 0, 3.0, 1, 4, 3),
                qb(1, 0, 4.0, 1, 2, 2),
                qb(2, 0, 5.0, 2, 4, 3),
                qb(3, 0, 2.0, 3, 4, 1),
                qb(4, 0, 6.0, 1, 4, 4),
                qb(5, 0, 3.5, 1, 3, 2),
            ],
        );
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        for w in sol.winners() {
            let qb = wdp.bids().iter().find(|b| b.bid_ref == w.bid_ref).unwrap();
            assert_eq!(w.schedule.len() as u32, qb.rounds, "exactly c_ij rounds");
            assert!(
                w.schedule.windows(2).all(|p| p[0] < p[1]),
                "strictly increasing"
            );
            assert!(w.schedule.iter().all(|&t| qb.window.contains(t)));
        }
    }

    #[test]
    fn certificate_satisfies_weak_duality_bound() {
        let sol = AWinner::new().solve_wdp(&paper_example()).unwrap();
        let cert = sol.certificate().expect("certificate enabled by default");
        assert!(cert.dual_objective > 0.0);
        // Lemma 5: P ≤ H·ω·D.
        assert!(
            sol.cost() <= cert.ratio_bound() * cert.dual_objective + 1e-9,
            "P = {}, bound = {}",
            sol.cost(),
            cert.ratio_bound() * cert.dual_objective
        );
        assert_eq!(cert.lambda.len(), sol.winners().len());
        assert_eq!(cert.g.len(), 3);
        assert!(
            cert.lambda.iter().all(|&l| l >= -1e-12),
            "λ must be non-negative"
        );
        assert!(cert.g.iter().all(|&g| g >= 0.0));
    }

    #[test]
    fn certificate_stays_dual_feasible_with_unrecorded_cheap_bids() {
        // Fuzzer counterexample (crates/certify/corpus/, seed 870): the $1
        // bid covers both rounds but is selected for round 1 only, so its
        // average was never recorded at round 2. With ψ_min taken over
        // recorded averages, g(2) = 12/H exceeded the $1 bid's dual
        // constraint for schedule [2] and the dual objective exceeded the
        // optimum. ψ_min over every covering bid's ρ/c keeps the point
        // feasible.
        let wdp = Wdp::new(2, 1, vec![qb(0, 0, 12.0, 2, 2, 1), qb(1, 0, 1.0, 1, 2, 1)]);
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        assert!(crate::verify::dual_feasibility_violations(&wdp, &sol).is_empty());
        let cert = sol.certificate().unwrap();
        // Both bids must win, so OPT = 13; weak duality: D ≤ OPT.
        assert_eq!(sol.cost(), 13.0);
        assert!(
            cert.dual_objective <= 13.0 + 1e-9,
            "D = {} exceeds OPT = 13",
            cert.dual_objective
        );
        assert!(sol.cost() <= cert.ratio_bound() * cert.dual_objective + 1e-9);
    }

    #[test]
    fn without_certificate_skips_the_dual_pass() {
        let sol = AWinner::new()
            .without_certificate()
            .solve_wdp(&paper_example())
            .unwrap();
        assert!(sol.certificate().is_none());
    }

    #[test]
    fn earliest_policy_changes_schedules_not_feasibility() {
        let wdp = Wdp::new(
            3,
            1,
            vec![
                qb(0, 0, 1.0, 1, 3, 1),
                qb(1, 0, 1.0, 1, 3, 1),
                qb(2, 0, 1.0, 1, 3, 1),
            ],
        );
        let sol = AWinner::new()
            .with_policy(SchedulePolicy::Earliest)
            .solve_wdp(&wdp);
        // Earliest policy keeps piling clients on round 1; gains drop to
        // zero for later bids only if rounds 2, 3 become uncoverable —
        // they do not here because each bid has the whole window... but the
        // earliest pick is always round 1, so after round 1 is full the
        // gain of the representative becomes 0 and the WDP stalls.
        // This documents why the paper's least-loaded choice matters.
        assert!(sol.is_err());
        let sol_ll = AWinner::new().solve_wdp(&wdp);
        assert!(sol_ll.is_ok());
    }

    #[test]
    fn pay_as_bid_rule_pays_exactly_the_price() {
        let sol = AWinner::new()
            .with_payment_rule(PaymentRule::PayAsBid)
            .solve_wdp(&paper_example())
            .unwrap();
        for w in sol.winners() {
            assert_eq!(w.payment, w.price);
        }
    }

    #[test]
    fn zero_price_bids_do_not_break_the_certificate() {
        let wdp = Wdp::new(2, 1, vec![qb(0, 0, 0.0, 1, 2, 2), qb(1, 0, 3.0, 1, 2, 2)]);
        let sol = AWinner::new().solve_wdp(&wdp).unwrap();
        assert_eq!(sol.cost(), 0.0);
        let cert = sol.certificate().unwrap();
        // ψ_min = 0 ⇒ ω = ∞; the bound degrades gracefully instead of
        // producing NaN.
        assert!(cert.omega.is_infinite() || cert.omega >= 1.0);
        assert!(!cert.dual_objective.is_nan());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(AWinner::new().name(), "A_winner");
    }

    #[test]
    fn selection_trace_matches_winners_and_payment_identity() {
        let wdp = paper_example();
        let (sol, trace) = AWinner::new().solve_traced(&wdp).unwrap();
        assert_eq!(sol, AWinner::new().solve_wdp(&wdp).unwrap());
        assert_eq!(trace.len(), sol.winners().len());
        for (step, w) in trace.iter().zip(sol.winners()) {
            assert_eq!(step.bid_ref, w.bid_ref);
            let expected = match step.critical_avg {
                Some(avg) => f64::from(step.gain) * avg,
                None => w.price,
            };
            assert_eq!(
                w.payment, expected,
                "{}: payment must equal gain × critical_avg exactly",
                w.bid_ref
            );
            assert_eq!(step.avg, w.price / f64::from(step.gain));
        }
        // The worked example's first step has runner-up average 2.5.
        assert_eq!(trace[0].critical_avg, Some(2.5));
    }
}
