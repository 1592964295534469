//! The winner-determination problem (WDP) and its solution types.
//!
//! For a fixed horizon `T̂_g`, the WDP asks for a minimum-cost set of
//! qualified bids — at most one per client — together with per-bid schedules
//! such that every round `1..=T̂_g` has at least `K` scheduled clients
//! (ILP (7) in the paper, after the compact-exponential reformulation).

use std::sync::OnceLock;

use crate::columnar::ColumnarBids;
use crate::error::WdpError;
use crate::types::{BidRef, Round, Window};

/// One bid together with the per-horizon data the solvers need: a row of
/// a [`Wdp`]'s [row view](Wdp::bids).
///
/// This is a passive record; fields are public on purpose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualifiedBid {
    /// Which submitted bid this is.
    pub bid_ref: BidRef,
    /// Claimed cost `b_ij`.
    pub price: f64,
    /// Local accuracy `θ_ij`.
    pub accuracy: f64,
    /// Availability window clipped to the WDP horizon.
    pub window: Window,
    /// Participation rounds `c_ij`.
    pub rounds: u32,
    /// Per-round wall clock `t_ij` under the instance's local model.
    pub round_time: f64,
}

/// One WDP instance: a horizon, the per-round demand, and the qualified
/// bids admitted for this horizon.
///
/// The bids are held as [`ColumnarBids`], the layout `A_winner` runs on:
/// [`SweepPrecomp::qualify_at`] writes them there directly. The row form
/// ([`bids`](Wdp::bids)) is built on first use, for the row-form solvers
/// and the checkers.
///
/// [`SweepPrecomp::qualify_at`]: crate::SweepPrecomp::qualify_at
#[derive(Debug, Clone)]
pub struct Wdp {
    horizon: u32,
    k: u32,
    cols: ColumnarBids,
    rows: OnceLock<Vec<QualifiedBid>>,
}

impl Wdp {
    /// Wraps a qualified bid set, transposing it into columns once.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` or `k` is zero, or if any bid's window escapes
    /// the horizon (qualification is supposed to clip windows).
    pub fn new(horizon: u32, k: u32, bids: Vec<QualifiedBid>) -> Self {
        let cols = ColumnarBids::from(bids.as_slice());
        Wdp {
            rows: OnceLock::from(bids),
            ..Wdp::from_columns(horizon, k, cols)
        }
    }

    /// Wraps qualified bids that are already columns; the row view is
    /// built on first use. Same panics as [`Wdp::new`].
    pub(crate) fn from_columns(horizon: u32, k: u32, cols: ColumnarBids) -> Self {
        assert!(horizon >= 1, "horizon must be at least 1");
        assert!(k >= 1, "per-round demand must be at least 1");
        for i in 0..cols.len() {
            assert!(
                cols.end(i) <= horizon,
                "bid {} window {} escapes horizon {horizon}",
                cols.bid_ref(i),
                cols.get(i).window
            );
        }
        Wdp {
            horizon,
            k,
            cols,
            rows: OnceLock::new(),
        }
    }

    /// The horizon `T̂_g`.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The per-round demand `K`.
    pub fn demand_per_round(&self) -> u32 {
        self.k
    }

    /// Number of qualified bids.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether no bid qualified.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The qualified bids as columns, in the same order as
    /// [`bids`](Wdp::bids).
    pub fn columns(&self) -> &ColumnarBids {
        &self.cols
    }

    /// The qualified bids as rows, built from the columns on first use.
    pub fn bids(&self) -> &[QualifiedBid] {
        self.rows.get_or_init(|| self.cols.to_bids())
    }

    /// A quick necessary (not sufficient) feasibility check: every round
    /// must be inside at least `K` qualified windows of *distinct* clients.
    ///
    /// Distinct clients per round come from a difference array: each
    /// client's windows are merged into disjoint intervals, every merged
    /// interval adds +1 at its start and −1 one past its end, and a prefix
    /// sum yields the per-round count. Clients are told apart by their
    /// [client slots](ColumnarBids::client_slot). Bids in ascending slot
    /// order — the client-major order [`SweepPrecomp::qualify_at`] emits,
    /// and any client-major rows — are consumed in one pass, one client
    /// run at a time: `O(N log J + T̂_g)` for `N` bids of at most `J` per
    /// client, with no per-call buffer of size `N`. Bids in any other
    /// order are sorted by slot first. The per-round `HashSet` reference
    /// lives in `fl-certify`.
    ///
    /// [`SweepPrecomp::qualify_at`]: crate::SweepPrecomp::qualify_at
    pub fn obviously_infeasible(&self) -> bool {
        let c = &self.cols;
        let row = |i: usize| (c.client_slot(i), c.start(i), c.end(i));
        let mut diff = vec![0i64; self.horizon as usize + 1];
        if !add_client_runs(&mut diff, (0..c.len()).map(row)) {
            let mut rows: Vec<(u32, u32, u32)> = (0..c.len()).map(row).collect();
            rows.sort_unstable();
            diff.fill(0);
            add_client_runs(&mut diff, rows.into_iter());
        }
        let mut distinct = 0i64;
        diff[..self.horizon as usize].iter().any(|&d| {
            distinct += d;
            distinct < i64::from(self.k)
        })
    }
}

/// Adds each client's coverage to the difference array `diff` (index
/// `t − 1` ↔ round `t`) from `(client, start, end)` rows sorted by
/// client. Returns `false`, leaving `diff` partly filled, at the first
/// row whose client sorts before the previous row's.
fn add_client_runs(diff: &mut [i64], rows: impl Iterator<Item = (u32, u32, u32)>) -> bool {
    let mut run: Vec<(u32, u32)> = Vec::new();
    let mut client = None;
    for (c, a, d) in rows {
        if client != Some(c) {
            if client.is_some_and(|prev| c < prev) {
                return false;
            }
            add_merged(diff, &mut run);
            client = Some(c);
        }
        run.push((a, d));
    }
    add_merged(diff, &mut run);
    true
}

/// Adds one client's windows `run` to `diff` so that each maximal union
/// of overlapping windows counts once, then empties `run`.
fn add_merged(diff: &mut [i64], run: &mut Vec<(u32, u32)>) {
    let mut mark = |(s, e): (u32, u32)| {
        diff[s as usize - 1] += 1;
        diff[e as usize] -= 1;
    };
    run.sort_unstable();
    let mut merged: Option<(u32, u32)> = None;
    for &(a, d) in run.iter() {
        match merged {
            Some((s, e)) if a <= e => merged = Some((s, e.max(d))),
            _ => {
                if let Some(done) = merged.replace((a, d)) {
                    mark(done);
                }
            }
        }
    }
    if let Some(done) = merged {
        mark(done);
    }
    run.clear();
}

/// One accepted bid in a WDP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct WinnerEntry {
    /// Which bid won.
    pub bid_ref: BidRef,
    /// The winner's claimed cost `b_ij` (equals the true cost under
    /// truthful bidding).
    pub price: f64,
    /// The remuneration `p_i` awarded to the client. Critical-value for
    /// `A_winner`; pay-as-bid for baselines (their social-cost comparison
    /// does not involve payments).
    pub payment: f64,
    /// The `c_ij` scheduled rounds, strictly increasing.
    pub schedule: Vec<Round>,
}

impl WinnerEntry {
    /// The winner's utility under truthful bidding, `p_i − v_ij`.
    pub fn utility(&self) -> f64 {
        self.payment - self.price
    }
}

/// Dual-variable certificate emitted by `A_winner` (Alg. 2 lines 16–23).
///
/// Feeding the selected schedules' average costs into the dual of the
/// relaxed ILP (7) yields a feasible dual point whose objective `D`
/// satisfies `D ≤ OPT_LP ≤ OPT ≤ P ≤ H_{T̂_g}·ω·D` (Lemma 5), so
/// `ratio_bound()` is an *instance-specific* upper bound on how far the
/// greedy cost `P` is from optimal.
#[derive(Debug, Clone, PartialEq)]
pub struct DualCertificate {
    /// Harmonic number `H_{T̂_g} = Σ_{t≤T̂_g} 1/t`.
    pub harmonic: f64,
    /// `ω = max_t ψ_max^t / ψ_min^t` (Alg. 2 line 18), where `ψ_max^t` is
    /// the largest qualified price covering round `t` and `ψ_min^t` the
    /// smallest possible average cost `ρ/c` over **all** qualified bids
    /// covering `t` (not just averages realised during the run — the wider
    /// domain is what keeps the scaled dual point feasible for bids the
    /// greedy never evaluated at `t`).
    pub omega: f64,
    /// Dual variable `g(t)` per round (index 0 ↔ round 1).
    pub g: Vec<f64>,
    /// Dual variable `λ_il` per winner, parallel to the solution's winner
    /// list.
    pub lambda: Vec<f64>,
    /// Dual objective `D = K·Σ_t g(t) − Σ λ_il` (all `q_i = 0`).
    pub dual_objective: f64,
}

impl DualCertificate {
    /// The a-posteriori approximation guarantee `H_{T̂_g}·ω`.
    pub fn ratio_bound(&self) -> f64 {
        self.harmonic * self.omega
    }

    /// The tighter empirical bound `P / D` implied by weak duality (always
    /// `≤ ratio_bound()` when the certificate is valid).
    pub fn empirical_bound(&self, primal_cost: f64) -> f64 {
        if self.dual_objective <= 0.0 {
            f64::INFINITY
        } else {
            primal_cost / self.dual_objective
        }
    }
}

/// A feasible solution to one WDP.
#[derive(Debug, Clone, PartialEq)]
pub struct WdpSolution {
    horizon: u32,
    winners: Vec<WinnerEntry>,
    cost: f64,
    certificate: Option<DualCertificate>,
    /// How many winners an *online* solver admitted through an offline
    /// completion pass after its irrevocable arrival phase failed to fill
    /// the quota (`A_online`'s "panic exit"). `0` for every solver that
    /// honours its own decision model; a non-zero value flags the solution
    /// as degraded for ratio aggregation.
    backfilled: usize,
}

impl WdpSolution {
    /// Assembles a solution; `cost` must equal the sum of winner prices.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `cost` disagrees with the winners' total
    /// price by more than a relative epsilon.
    pub fn new(
        horizon: u32,
        winners: Vec<WinnerEntry>,
        cost: f64,
        certificate: Option<DualCertificate>,
    ) -> Self {
        debug_assert!(
            {
                let total: f64 = winners.iter().map(|w| w.price).sum();
                (total - cost).abs() <= 1e-6 * (1.0 + total.abs())
            },
            "cost must be the sum of winning prices"
        );
        WdpSolution {
            horizon,
            winners,
            cost,
            certificate,
            backfilled: 0,
        }
    }

    /// Marks `n` winners as admitted by an offline completion pass that
    /// broke the solver's online (irrevocable-decision) semantics. See
    /// [`WdpSolution::backfilled`].
    pub fn with_backfilled(mut self, n: usize) -> Self {
        self.backfilled = n;
        self
    }

    /// Number of winners admitted outside the solver's own decision model
    /// (0 unless an online solver fell back to an offline completion
    /// pass). Solutions with `backfilled() > 0` must be excluded from
    /// online-vs-offline ratio aggregates — the fallback quietly converts
    /// an online run into a partially offline one.
    pub fn backfilled(&self) -> usize {
        self.backfilled
    }

    /// Whether this solution violates its solver's stated decision model
    /// ([`backfilled`](WdpSolution::backfilled)` > 0`).
    pub fn is_degraded(&self) -> bool {
        self.backfilled > 0
    }

    /// The horizon this solution was computed for.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The accepted bids with their schedules and payments.
    pub fn winners(&self) -> &[WinnerEntry] {
        &self.winners
    }

    /// The social cost `Σ b_ij x_ij` of the solution.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Total remuneration paid out, `Σ p_i`.
    pub fn total_payment(&self) -> f64 {
        self.winners.iter().map(|w| w.payment).sum()
    }

    /// The dual certificate, when the solver produced one (`A_winner`
    /// does; baselines and the exact solver do not).
    pub fn certificate(&self) -> Option<&DualCertificate> {
        self.certificate.as_ref()
    }
}

/// A winner-determination algorithm: anything that can solve one WDP.
///
/// Implemented by `A_winner` (this crate), the three baselines
/// (`fl-baselines`), and the exact branch-and-bound (`fl-exact`), so the
/// outer `A_FL` enumeration can run any of them interchangeably.
pub trait WdpSolver {
    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &str;

    /// Solves one WDP.
    ///
    /// # Errors
    ///
    /// [`WdpError::Infeasible`] when the qualified bids cannot staff every
    /// round; [`WdpError::ResourceLimit`] when an internal budget is hit.
    fn solve_wdp(&self, wdp: &Wdp) -> Result<WdpSolution, WdpError>;
}

impl<S: WdpSolver + ?Sized> WdpSolver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve_wdp(&self, wdp: &Wdp) -> Result<WdpSolution, WdpError> {
        (**self).solve_wdp(wdp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClientId;

    fn qb(client: u32, bid: u32, price: f64, a: u32, d: u32, c: u32) -> QualifiedBid {
        QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), bid),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 10.0,
        }
    }

    #[test]
    fn wdp_accessors() {
        let w = Wdp::new(3, 1, vec![qb(0, 0, 2.0, 1, 2, 1)]);
        assert_eq!(w.horizon(), 3);
        assert_eq!(w.demand_per_round(), 1);
        assert_eq!(w.bids().len(), 1);
        assert_eq!((w.len(), w.is_empty()), (1, false));
        assert_eq!(w.columns().to_bids(), w.bids());
    }

    #[test]
    #[should_panic(expected = "escapes horizon")]
    fn window_escaping_horizon_panics() {
        let _ = Wdp::new(2, 1, vec![qb(0, 0, 2.0, 1, 3, 1)]);
    }

    #[test]
    fn obvious_infeasibility_detects_uncovered_round() {
        // Round 3 is covered by nobody.
        let w = Wdp::new(3, 1, vec![qb(0, 0, 2.0, 1, 2, 1), qb(1, 0, 2.0, 1, 2, 2)]);
        assert!(w.obviously_infeasible());
        // Distinct clients cover everything.
        let w2 = Wdp::new(2, 2, vec![qb(0, 0, 2.0, 1, 2, 1), qb(1, 0, 2.0, 1, 2, 2)]);
        assert!(!w2.obviously_infeasible());
        // Two bids of the SAME client do not count twice.
        let w3 = Wdp::new(2, 2, vec![qb(0, 0, 2.0, 1, 2, 1), qb(0, 1, 2.0, 1, 2, 2)]);
        assert!(w3.obviously_infeasible());
    }

    #[test]
    fn obvious_infeasibility_merges_each_clients_windows_in_any_row_order() {
        // Client 0's windows overlap ([1,3] ∪ [2,5]) and touch ([6,6]);
        // client 1 covers [1,6]. Every round has exactly two distinct
        // clients, so K = 2 passes and K = 3 fails — whatever the order.
        let rows = vec![
            qb(0, 0, 1.0, 2, 5, 1),
            qb(0, 1, 1.0, 6, 6, 1),
            qb(0, 2, 1.0, 1, 3, 1),
            qb(1, 0, 1.0, 1, 6, 1),
        ];
        let interleaved = vec![rows[3], rows[0], rows[2], rows[1]];
        for bids in [rows, interleaved] {
            assert!(!Wdp::new(6, 2, bids.clone()).obviously_infeasible());
            assert!(Wdp::new(6, 3, bids).obviously_infeasible());
        }
        // A gap between one client's windows leaves round 4 at one client.
        let gap = vec![
            qb(1, 0, 1.0, 1, 6, 1),
            qb(5, 0, 1.0, 5, 6, 1),
            qb(5, 1, 1.0, 1, 3, 1),
        ];
        assert!(Wdp::new(6, 2, gap).obviously_infeasible());
        assert!(Wdp::new(1, 1, Vec::new()).obviously_infeasible());
    }

    #[test]
    fn winner_entry_utility() {
        let w = WinnerEntry {
            bid_ref: BidRef::new(ClientId(0), 0),
            price: 4.0,
            payment: 6.5,
            schedule: vec![Round(1)],
        };
        assert!((w.utility() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn solution_aggregates() {
        let winners = vec![
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(0), 0),
                price: 4.0,
                payment: 6.0,
                schedule: vec![Round(1)],
            },
            WinnerEntry {
                bid_ref: BidRef::new(ClientId(1), 0),
                price: 3.0,
                payment: 3.5,
                schedule: vec![Round(2)],
            },
        ];
        let sol = WdpSolution::new(2, winners, 7.0, None);
        assert_eq!(sol.cost(), 7.0);
        assert!((sol.total_payment() - 9.5).abs() < 1e-12);
        assert_eq!(sol.winners().len(), 2);
        assert!(sol.certificate().is_none());
        assert_eq!(sol.horizon(), 2);
    }

    #[test]
    fn certificate_bounds() {
        let cert = DualCertificate {
            harmonic: 1.5,
            omega: 2.0,
            g: vec![1.0, 1.0],
            lambda: vec![0.0],
            dual_objective: 4.0,
        };
        assert!((cert.ratio_bound() - 3.0).abs() < 1e-12);
        assert!((cert.empirical_bound(6.0) - 1.5).abs() < 1e-12);
        let degenerate = DualCertificate {
            dual_objective: 0.0,
            ..cert
        };
        assert!(degenerate.empirical_bound(6.0).is_infinite());
    }
}
