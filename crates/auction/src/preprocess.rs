//! Qualified-bid construction (Alg. 1 lines 4–6): the per-sweep
//! admissibility precomputation ([`SweepPrecomp`]).
//!
//! For each candidate horizon `T̂_g`, a bid enters the winner-determination
//! problem only if it can actually serve under that horizon: its local
//! accuracy keeps the global-iteration bound satisfied, its per-round time
//! fits the round budget, and its availability window (clipped to the
//! horizon) still has room for all of its participation rounds.
//!
//! [`SweepPrecomp`] never drops a bid — it only precomputes, per bid, the
//! smallest horizon at which those gates admit it, so each horizon's exact
//! qualified set is rebuilt by threshold comparison instead of re-deriving
//! every gate, and a horizon's cost can be lower-bounded to skip horizons
//! that provably cannot win (see [`SweepPrecomp::cost_lower_bound`]). The
//! batch sweeps build one per instance; the online mode
//! ([`crate::online`]) appends bids to it one at a time and reads each
//! arrival's threshold through [`SweepPrecomp::admission_horizon`]. The
//! gate-by-gate reading that the precomp is certified against lives in
//! `fl-certify` (`oracle::qualify`).

use std::sync::OnceLock;

use crate::bid::{Bid, Instance};
use crate::columnar::{avg_key, ColumnarBids};
use crate::config::{AuctionConfig, QualifyMode};
use crate::types::{BidRef, Window};
use crate::wdp::Wdp;
use fl_telemetry::{counter, span};

/// Numerical slack for the `θ ≤ θ_max` and `t_ij ≤ t_max` comparisons, so
/// that boundary bids generated from exact arithmetic are not rejected by
/// floating-point jitter.
pub(crate) const QUALIFY_EPS: f64 = 1e-9;

/// The smallest horizon worth trying, `T_0 = ⌈1/(1−θ_min)⌉` (Alg. 1
/// line 3), clamped to at least 1. Returns `None` when no bids exist.
pub fn min_horizon(instance: &Instance) -> Option<u32> {
    let theta_min = instance.min_accuracy()?;
    let raw = 1.0 / (1.0 - theta_min);
    // Guard against fp jitter pushing an exact integer up a notch.
    Some(((raw - 1e-9).ceil().max(1.0)) as u32)
}

/// Sentinel threshold for "no horizon in the sweep admits this bid".
const NEVER: u32 = u32::MAX;

/// Per-bid admissibility data precomputed once per sweep, stored as
/// parallel columns (one entry per bid, instance order) in the same
/// struct-of-arrays style as [`crate::columnar`]: the per-horizon
/// qualification scan of [`SweepPrecomp::qualify_at`] admits a bid on one
/// compare against `min_admissible` and counts the accuracy and time
/// rejections from two more columns without branching, so a rejected bid
/// never drags a full record through the cache.
#[derive(Debug, Clone, Default)]
struct PrecompColumns {
    bid_refs: Vec<BidRef>,
    prices: Vec<f64>,
    accuracies: Vec<f64>,
    /// The bids' full (untruncated) windows.
    windows: Vec<Window>,
    rounds: Vec<u32>,
    round_times: Vec<f64>,
    /// Whether `t_ij ≤ t_max + ε` (horizon-independent).
    time_ok: Vec<bool>,
    /// Smallest horizon passing the accuracy gate `θ ≤ 1 − 1/T̂_g + ε`
    /// ([`NEVER`] if none within the sweep).
    h_accuracy: Vec<u32>,
    /// Smallest horizon at which the bid passes all three gates, or
    /// [`NEVER`].
    min_admissible: Vec<u32>,
    /// Average per-scheduled-round cost `b_ij / c_ij`.
    avg: Vec<f64>,
}

impl PrecompColumns {
    fn with_capacity(n: usize) -> PrecompColumns {
        PrecompColumns {
            bid_refs: Vec::with_capacity(n),
            prices: Vec::with_capacity(n),
            accuracies: Vec::with_capacity(n),
            windows: Vec::with_capacity(n),
            rounds: Vec::with_capacity(n),
            round_times: Vec::with_capacity(n),
            time_ok: Vec::with_capacity(n),
            h_accuracy: Vec::with_capacity(n),
            min_admissible: Vec::with_capacity(n),
            avg: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.bid_refs.len()
    }
}

/// Incremental qualification for the `A_FL` horizon sweep.
///
/// Every qualification gate is monotone in the horizon: the accuracy bound
/// `θ_max = 1 − 1/T̂_g` relaxes as `T̂_g` grows, the `t_max` check does not
/// depend on `T̂_g` at all, and the truncated window only gains rounds. A
/// bid's qualification status therefore flips from rejected to accepted at
/// exactly one threshold horizon, which this type computes once per bid
/// (walking the accuracy gate from its real-valued boundary along the
/// *identical* floating-point comparison a per-horizon check evaluates).
/// After that, [`SweepPrecomp::qualify_at`] builds any horizon's qualified
/// set by threshold comparison, in `O(bids)` with no float re-derivation.
///
/// The thresholds also yield [`SweepPrecomp::cost_lower_bound`], the
/// admissible-average-cost bound `A_FL` uses to skip horizons that provably
/// cannot beat an already-found outcome.
///
/// # Incremental maintenance
///
/// The precomp is append-only. Beyond the batch constructor,
/// [`insert`](SweepPrecomp::insert) streams one bid in for the online
/// auction mode ([`crate::online`]), running the exact per-bid
/// computation the batch constructor runs, so after any sequence of
/// inserts the precomp is observationally identical — bid sets, gate
/// counters, lower bounds — to [`SweepPrecomp::new`] over the same bids
/// in arrival order. The lower bound's `(avg, slot)` scan order is built
/// by the first [`cost_lower_bound`](SweepPrecomp::cost_lower_bound)
/// after construction or after the last insert, so a stream that never
/// asks for a bound never sorts.
#[derive(Debug, Clone)]
pub struct SweepPrecomp {
    k: u32,
    horizon_cap: u32,
    t_max: f64,
    mode: QualifyMode,
    cols: PrecompColumns,
    /// Admissible slots in `(avg, slot)` order, for the lower bound's
    /// cheapest-slot scan. Filled by `avg_order()`, emptied by `insert`.
    by_avg: OnceLock<Vec<u32>>,
}

impl SweepPrecomp {
    /// An empty precomp ready for streaming [`insert`](SweepPrecomp::insert)s
    /// under `config`'s gates (horizon cap `T`, `t_max`, qualify mode).
    pub fn empty(config: &AuctionConfig) -> SweepPrecomp {
        SweepPrecomp {
            k: config.clients_per_round(),
            horizon_cap: config.max_rounds(),
            t_max: config.round_time_limit(),
            mode: config.qualify_mode(),
            cols: PrecompColumns::default(),
            by_avg: OnceLock::new(),
        }
    }

    /// Precomputes per-bid admissibility thresholds for sweeping
    /// `instance`'s horizons `1..=T`. Opens no telemetry span: the sweeps
    /// trace the build as `sweep_precompute`, and a single-horizon caller
    /// traces only the [`qualify_at`](SweepPrecomp::qualify_at) it runs.
    pub fn new(instance: &Instance) -> SweepPrecomp {
        let mut precomp = Self::empty(instance.config());
        precomp.cols = PrecompColumns::with_capacity(instance.num_bids());
        for (bid_ref, bid) in instance.iter_bids() {
            precomp.push_columns(bid_ref, bid, instance.round_time(bid_ref));
        }
        precomp
    }

    /// Appends one bid's threshold columns; identical per-bid computation
    /// to the batch constructor.
    fn push_columns(&mut self, bid_ref: BidRef, bid: &Bid, round_time: f64) {
        let time_ok = round_time <= self.t_max + QUALIFY_EPS;
        let h_accuracy = accuracy_threshold(bid.accuracy(), self.horizon_cap);
        let a = u64::from(bid.window().start().0);
        let c = u64::from(bid.rounds());
        let h_window = match self.mode {
            // Truncated window `[a, min(d, T̂_g)]` holds `c` rounds
            // iff `T̂_g ≥ a + c − 1` (bids guarantee `c ≤ d − a + 1`).
            QualifyMode::Intent => clamp_u32(a + c - 1),
            // Literal Alg. 1 line 6: `a + c ≤ T̂_g`.
            QualifyMode::Literal => clamp_u32(a + c),
        };
        let min_admissible = if !time_ok || h_accuracy == NEVER {
            NEVER
        } else {
            h_accuracy.max(h_window)
        };
        self.cols.bid_refs.push(bid_ref);
        self.cols.prices.push(bid.price());
        self.cols.accuracies.push(bid.accuracy());
        self.cols.windows.push(bid.window());
        self.cols.rounds.push(bid.rounds());
        self.cols.round_times.push(round_time);
        self.cols.time_ok.push(time_ok);
        self.cols.h_accuracy.push(h_accuracy);
        self.cols.min_admissible.push(min_admissible);
        self.cols.avg.push(bid.price() / f64::from(bid.rounds()));
    }

    /// Streams one bid into the precomp and drops the lower-bound scan
    /// order, which the next
    /// [`cost_lower_bound`](SweepPrecomp::cost_lower_bound) rebuilds. After
    /// any sequence of inserts the precomp is bit-identical to
    /// [`SweepPrecomp::new`] over the same bids in the same order.
    ///
    /// `round_time` is the bid's per-round wall clock
    /// ([`Instance::round_time`]); it is passed in because a streaming
    /// caller owns the growing instance.
    ///
    /// # Panics
    ///
    /// Panics if `bid_ref` was already inserted — duplicate submissions
    /// must be deduplicated by the caller
    /// ([`crate::online::OnlineAuction`] keeps them idempotent).
    pub fn insert(&mut self, bid_ref: BidRef, bid: &Bid, round_time: f64) {
        // A new ref is compared with every slot; for that full scan the
        // forward `position` loop measured faster than `rposition` or `any`.
        let slot = self.cols.bid_refs.iter().position(|&r| r == bid_ref);
        assert!(slot.is_none(), "duplicate insert of bid {bid_ref}");
        self.push_columns(bid_ref, bid, round_time);
        self.by_avg.take();
    }

    /// The admissible slots in `(avg, slot)` order, built on first use
    /// after construction or the last [`insert`](SweepPrecomp::insert).
    /// The pairs `(avg_key(avg), slot)` are sorted unstably; the slot
    /// breaks key ties, so the order is that of a stable `total_cmp` sort
    /// on `avg`. Only the slots are kept, as `u32`.
    fn avg_order(&self) -> &[u32] {
        self.by_avg.get_or_init(|| {
            let mut keyed: Vec<(u64, u32)> = (0..self.cols.len())
                .filter(|&i| self.cols.min_admissible[i] != NEVER)
                .map(|i| (avg_key(self.cols.avg[i]), i as u32))
                .collect();
            keyed.sort_unstable();
            keyed.iter().map(|&(_, slot)| slot).collect()
        })
    }

    /// The largest horizon (`T`) the thresholds were computed for.
    pub fn horizon_cap(&self) -> u32 {
        self.horizon_cap
    }

    /// Builds the qualified bid set `J_{T̂_g}` for `horizon` from the
    /// precomputed thresholds and wraps it in a [`Wdp`], as the columns
    /// `A_winner` reads ([`Wdp::columns`]); the row view is built only if
    /// a caller asks for it.
    ///
    /// A bid qualifies when its accuracy is at most `θ_max = 1 − 1/T̂_g`
    /// (from `T_g ≥ 1/(1−θ)`), its per-round time is within the
    /// configured `t_max`, and its window admits it under the instance's
    /// [`QualifyMode`]. Bids keep instance order, windows are truncated to
    /// `[1, T̂_g]`, each bid's client slot is its client id, and the
    /// `qualify` span's `qualify.*` counters charge each rejection to the
    /// first failing gate, in the order accuracy, time, window.
    ///
    /// A bid is admitted iff `T̂_g` reaches its `min_admissible` threshold,
    /// which is equivalent to passing all three gates. The accuracy and
    /// time rejections are counted without branching; the window
    /// rejections are the remainder.
    ///
    /// # Example
    ///
    /// ```
    /// use fl_auction::{AuctionConfig, Bid, ClientProfile, Instance, Round, SweepPrecomp, Window};
    ///
    /// # fn main() -> Result<(), fl_auction::AuctionError> {
    /// let cfg = AuctionConfig::builder().max_rounds(8).clients_per_round(1).build()?;
    /// let mut inst = Instance::new(cfg);
    /// let c = inst.add_client(ClientProfile::new(2.0, 5.0)?);
    /// // θ = 0.75 requires T̂_g ≥ 4 to satisfy θ ≤ 1 − 1/T̂_g.
    /// inst.add_bid(c, Bid::new(9.0, 0.75, Window::new(Round(1), Round(8)), 3)?)?;
    /// let precomp = SweepPrecomp::new(&inst);
    /// assert_eq!(precomp.qualify_at(3).bids().len(), 0);
    /// assert_eq!(precomp.qualify_at(4).bids().len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero or exceeds
    /// [`horizon_cap`](SweepPrecomp::horizon_cap).
    pub fn qualify_at(&self, horizon: u32) -> Wdp {
        assert!(horizon >= 1, "horizon must be at least 1");
        assert!(
            horizon <= self.horizon_cap,
            "horizon {horizon} exceeds the precomputed cap {}",
            self.horizon_cap
        );
        let _span = span!("qualify", tg = horizon);
        let c = &self.cols;
        let (mut by_accuracy, mut by_time) = (0u64, 0u64);
        let mut admitted: Vec<usize> = Vec::new();
        for i in 0..c.len() {
            let accurate = horizon >= c.h_accuracy[i];
            by_accuracy += u64::from(!accurate);
            by_time += u64::from(accurate & !c.time_ok[i]);
            if horizon >= c.min_admissible[i] {
                admitted.push(i);
            }
        }
        let (examined, accepted) = (c.len() as u64, admitted.len() as u64);
        counter!("qualify.examined", examined);
        counter!("qualify.rejected_accuracy", by_accuracy);
        counter!("qualify.rejected_time", by_time);
        counter!(
            "qualify.rejected_window",
            examined - by_accuracy - by_time - accepted
        );
        counter!("qualify.accepted", accepted);
        // Each column is gathered in one pass over the admitted slots. A
        // horizon at or past `min_admissible` is at or past the window
        // start, so the truncated window `[a, min(d, T̂_g)]` is never empty.
        let bids = ColumnarBids::from_columns(
            admitted.iter().map(|&i| c.bid_refs[i]).collect(),
            admitted.iter().map(|&i| c.prices[i]).collect(),
            admitted.iter().map(|&i| c.accuracies[i]).collect(),
            admitted.iter().map(|&i| c.windows[i].start().0).collect(),
            admitted
                .iter()
                .map(|&i| c.windows[i].end().0.min(horizon))
                .collect(),
            admitted.iter().map(|&i| c.rounds[i]).collect(),
            admitted.iter().map(|&i| c.round_times[i]).collect(),
        );
        Wdp::from_columns(horizon, self.k, bids)
    }

    /// A cheap lower bound on the social cost of **any** feasible solution
    /// at `horizon`: the sum of the `K·T̂_g` cheapest admissible
    /// average-cost round slots.
    ///
    /// Every feasible solution schedules at least `K` distinct clients in
    /// each of the `T̂_g` rounds, so its winners contribute at least
    /// `K·T̂_g` scheduled rounds in total; charging each winner's rounds at
    /// its average per-round cost `b_ij/c_ij` and taking the cheapest
    /// `K·T̂_g` such slots can only undercount. Returns `f64::INFINITY`
    /// when the admissible bids cannot even fill the slots (the horizon is
    /// infeasible outright). The summation order is deterministic, so
    /// prune decisions based on this bound reproduce across runs.
    pub fn cost_lower_bound(&self, horizon: u32) -> f64 {
        let mut remaining = u64::from(self.k) * u64::from(horizon);
        let mut bound = 0.0;
        for &slot in self.avg_order() {
            let idx = slot as usize;
            if self.cols.min_admissible[idx] > horizon {
                continue;
            }
            let take = remaining.min(u64::from(self.cols.rounds[idx]));
            bound += self.cols.avg[idx] * take as f64;
            remaining -= take;
            if remaining == 0 {
                return bound;
            }
        }
        f64::INFINITY
    }

    /// The smallest horizon at which `bid_ref` qualifies, or `None` if no
    /// horizon in `1..=T` admits it (or the bid was never inserted). This
    /// is the online mode's qualification gate: a streamed bid qualifies
    /// at the fixed horizon `T̂` iff its admission horizon is at most `T̂`.
    ///
    /// The slot is searched from the newest one: the online gate asks
    /// about the bid its [`insert`](SweepPrecomp::insert) just appended,
    /// which sits in the last slot, so the search stops at once instead of
    /// scanning the whole stream. Bid refs are unique, so the direction
    /// does not change the answer.
    pub fn admission_horizon(&self, bid_ref: BidRef) -> Option<u32> {
        let i = self.cols.bid_refs.iter().rposition(|&r| r == bid_ref)?;
        (self.cols.min_admissible[i] != NEVER).then_some(self.cols.min_admissible[i])
    }
}

/// The smallest `h ∈ [1, cap]` with `θ ≤ (1 − 1/h) + ε`, or [`NEVER`].
///
/// Decided by the **exact** comparison a per-horizon check evaluates;
/// `1 − 1/h` is monotone non-decreasing in `h` even in floating point
/// (division by a larger positive integer never rounds upward past the
/// previous quotient), so the predicate flips at most once. The walk
/// starts at the real-valued boundary `⌈1/(1 − θ + ε)⌉`, clamped to
/// `[1, cap]`, steps down while `h − 1` passes and up while `h` fails;
/// rounding puts the start within a step of the flip, so about three
/// comparisons settle what a binary search takes `log₂ cap` for.
fn accuracy_threshold(accuracy: f64, cap: u32) -> u32 {
    let admitted = |h: u32| accuracy <= (1.0 - 1.0 / f64::from(h)) + QUALIFY_EPS;
    let boundary = (1.0 / (1.0 - accuracy + QUALIFY_EPS)).ceil();
    let mut h = boundary.clamp(1.0, f64::from(cap)) as u32;
    while h > 1 && admitted(h - 1) {
        h -= 1;
    }
    while !admitted(h) {
        if h == cap {
            return NEVER;
        }
        h += 1;
    }
    h
}

/// Saturating `u64 → u32` for window thresholds (a saturated threshold can
/// never be reached by a real horizon, which is the correct reading).
fn clamp_u32(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bid::ClientProfile;
    use crate::online::OnlineAuction;
    use crate::types::{ClientId, Round};
    use crate::wdp::WdpSolver;
    use crate::winner::AWinner;
    use fl_telemetry::{install_local, Recorder, Snapshot};
    use std::sync::Arc;

    /// The gate exercise instance: one bid per gate — accepted,
    /// time-rejected, accuracy-rejected (until h = 5).
    fn gates_instance(mode: QualifyMode) -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(10)
            .clients_per_round(1)
            .round_time_limit(40.0)
            .qualify_mode(mode)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(5.0, 10.0).unwrap());
        // θ = 0.5 → T_l = 5 → t = 35 ≤ 40. Window [1,4], c = 3.
        inst.add_bid(
            c,
            Bid::new(10.0, 0.5, Window::new(Round(1), Round(4)), 3).unwrap(),
        )
        .unwrap();
        // θ = 0.3 → T_l = 7 → t = 45 > 40: time-disqualified at every horizon.
        inst.add_bid(
            c,
            Bid::new(10.0, 0.3, Window::new(Round(1), Round(4)), 2).unwrap(),
        )
        .unwrap();
        // θ = 0.8 → T_l = 2 → t = 20; needs T̂_g ≥ 5 for θ ≤ 1 − 1/T̂_g.
        inst.add_bid(
            c,
            Bid::new(10.0, 0.8, Window::new(Round(2), Round(9)), 4).unwrap(),
        )
        .unwrap();
        inst
    }

    fn counters_of(f: impl FnOnce()) -> Snapshot {
        let recorder = Arc::new(Recorder::default());
        let guard = install_local(recorder.clone());
        f();
        drop(guard);
        recorder.snapshot()
    }

    #[test]
    fn accuracy_gate_scales_with_horizon() {
        let precomp = SweepPrecomp::new(&gates_instance(QualifyMode::Intent));
        // T̂_g = 2 → θ_max = 0.5: only the θ = 0.5 bid passes the accuracy
        // gate, but its truncated window [1,2] holds only 2 < 3 rounds.
        assert_eq!(precomp.qualify_at(2).bids().len(), 0);
        // T̂_g = 4 → θ_max = 0.75: the θ = 0.5 bid qualifies with its full
        // window.
        let w4 = precomp.qualify_at(4);
        assert_eq!(w4.bids().len(), 1);
        assert_eq!(w4.bids()[0].accuracy, 0.5);
        // T̂_g = 5 → θ_max = 0.8: the θ = 0.8 bid joins.
        assert_eq!(precomp.qualify_at(5).bids().len(), 2);
    }

    #[test]
    fn time_gate_rejects_slow_bids() {
        let precomp = SweepPrecomp::new(&gates_instance(QualifyMode::Intent));
        for h in 1..=precomp.horizon_cap() {
            assert!(
                precomp
                    .qualify_at(h)
                    .bids()
                    .iter()
                    .all(|b| b.accuracy != 0.3),
                "the 45-time-unit bid must never qualify"
            );
        }
    }

    #[test]
    fn windows_are_truncated_to_horizon() {
        let precomp = SweepPrecomp::new(&gates_instance(QualifyMode::Intent));
        let w5 = precomp.qualify_at(5);
        let late = w5.bids().iter().find(|b| b.accuracy == 0.8).unwrap();
        assert_eq!(late.window, Window::new(Round(2), Round(5)));
    }

    #[test]
    fn literal_mode_is_stricter_than_intent() {
        let intent = SweepPrecomp::new(&gates_instance(QualifyMode::Intent));
        let literal = SweepPrecomp::new(&gates_instance(QualifyMode::Literal));
        for h in 1..=intent.horizon_cap() {
            let qi = intent.qualify_at(h);
            for b in literal.qualify_at(h).bids() {
                assert!(
                    qi.bids().iter().any(|i| i.bid_ref == b.bid_ref),
                    "literal ⊆ intent at T̂_g={h}"
                );
            }
        }
        // θ = 0.5 bid: window starts at 1, c = 3 → literal needs T̂_g ≥ 4,
        // intent needs T̂_g ≥ 3 (but accuracy forces ≥ 2; window forces ≥ 3).
        assert_eq!(intent.qualify_at(3).bids().len(), 1);
        assert_eq!(literal.qualify_at(3).bids().len(), 0);
    }

    #[test]
    fn qualified_bid_carries_round_time() {
        let precomp = SweepPrecomp::new(&gates_instance(QualifyMode::Intent));
        assert!((precomp.qualify_at(4).bids()[0].round_time - 35.0).abs() < 1e-12);
    }

    #[test]
    fn min_horizon_rounds_up() {
        let inst = gates_instance(QualifyMode::Intent);
        // θ_min = 0.3 → 1/0.7 ≈ 1.43 → T_0 = 2.
        assert_eq!(min_horizon(&inst), Some(2));
        let empty = Instance::new(AuctionConfig::paper_default());
        assert_eq!(min_horizon(&empty), None);
    }

    #[test]
    fn min_horizon_exact_integer_boundary() {
        let cfg = AuctionConfig::builder()
            .max_rounds(10)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        // θ = 0.5 → 1/(1−θ) = 2 exactly.
        inst.add_bid(
            c,
            Bid::new(1.0, 0.5, Window::new(Round(1), Round(2)), 1).unwrap(),
        )
        .unwrap();
        assert_eq!(min_horizon(&inst), Some(2));
    }

    #[test]
    fn empty_bid_set_yields_empty_horizons_and_infinite_bounds() {
        let inst = Instance::new(AuctionConfig::paper_default());
        let precomp = SweepPrecomp::new(&inst);
        for h in [1, 2, precomp.horizon_cap()] {
            assert!(precomp.qualify_at(h).bids().is_empty());
            assert_eq!(precomp.cost_lower_bound(h), f64::INFINITY);
        }
    }

    #[test]
    fn all_infeasible_horizon_is_empty_with_infinite_lower_bound() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        // At T̂_g = 1 nothing passes the accuracy gate (θ_max = 0).
        assert!(precomp.qualify_at(1).bids().is_empty());
        assert_eq!(precomp.cost_lower_bound(1), f64::INFINITY);
    }

    #[test]
    fn t0_equal_to_t_still_sweeps_the_single_horizon() {
        // θ = 0.8 → T_0 = 5 = T: the sweep degenerates to one horizon.
        let cfg = AuctionConfig::builder()
            .max_rounds(5)
            .clients_per_round(1)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(4.0, 0.8, Window::new(Round(1), Round(5)), 5).unwrap(),
        )
        .unwrap();
        assert_eq!(min_horizon(&inst), Some(5));
        let precomp = SweepPrecomp::new(&inst);
        assert_eq!(precomp.horizon_cap(), 5);
        assert_eq!(precomp.qualify_at(4).bids().len(), 0);
        assert_eq!(precomp.qualify_at(5).bids().len(), 1);
        let bid_ref = BidRef::new(ClientId(0), 0);
        assert_eq!(precomp.admission_horizon(bid_ref), Some(5));
    }

    #[test]
    fn admission_horizon_is_the_first_qualifying_horizon() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        for (bid_ref, _) in inst.iter_bids() {
            let first = (1..=inst.config().max_rounds()).find(|&h| {
                precomp
                    .qualify_at(h)
                    .bids()
                    .iter()
                    .any(|b| b.bid_ref == bid_ref)
            });
            assert_eq!(
                precomp.admission_horizon(bid_ref),
                first,
                "admission horizon diverges for {bid_ref}"
            );
        }
    }

    // ---- Streaming inserts vs the batch constructor ---------------------

    /// Asserts two precomps are observationally identical at every horizon:
    /// same qualified bid sets, same gate counters, same lower-bound bits.
    fn assert_equivalent(a: &SweepPrecomp, b: &SweepPrecomp, what: &str) {
        assert_eq!(a.horizon_cap(), b.horizon_cap(), "{what}: horizon cap");
        for h in 1..=a.horizon_cap() {
            let (wa, wb) = (a.qualify_at(h), b.qualify_at(h));
            assert_eq!(wa.bids(), wb.bids(), "{what}: bid sets at T̂_g = {h}");
            let ca = counters_of(|| drop(a.qualify_at(h)));
            let cb = counters_of(|| drop(b.qualify_at(h)));
            assert_eq!(ca.counters, cb.counters, "{what}: counters at T̂_g = {h}");
            let (la, lb) = (a.cost_lower_bound(h), b.cost_lower_bound(h));
            assert_eq!(
                la.to_bits(),
                lb.to_bits(),
                "{what}: lower bound at T̂_g = {h} ({la} vs {lb})"
            );
        }
    }

    /// A richer mixed instance: several clients, several bids each, every
    /// gate exercised (time-rejected, late-accuracy, escaping windows).
    /// With `K = 1`, from the ninth arrival on, the admissible bids fill
    /// every slot at `T̂_g = 7` and 8 in the intent mode, so the lower
    /// bound is finite there.
    fn mixed_instance(mode: QualifyMode) -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(8)
            .clients_per_round(1)
            .round_time_limit(40.0)
            .qualify_mode(mode)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let mut state = 0x5eedu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4 {
            let c = inst.add_client(ClientProfile::new(1.0 + (next() % 8) as f64, 10.0).unwrap());
            for _ in 0..3 {
                let a = 1 + (next() % 8) as u32;
                let d = a + (next() % (12 - u64::from(a))) as u32;
                let len = d - a + 1;
                let rounds = 1 + (next() % u64::from(len)) as u32;
                let theta = [0.3, 0.5, 0.8, 0.9][(next() % 4) as usize];
                let price = 1.0 + (next() % 40) as f64;
                inst.add_bid(
                    c,
                    Bid::new(price, theta, Window::new(Round(a), Round(d)), rounds).unwrap(),
                )
                .unwrap();
            }
        }
        inst
    }

    #[test]
    fn insert_only_streaming_matches_batch_at_every_prefix() {
        for mode in [QualifyMode::Intent, QualifyMode::Literal] {
            let inst = mixed_instance(mode);
            let all: Vec<(BidRef, Bid)> = inst.iter_bids().map(|(r, b)| (r, *b)).collect();
            let mut streaming = SweepPrecomp::empty(inst.config());
            for (n, (bid_ref, bid)) in all.iter().enumerate() {
                streaming.insert(*bid_ref, bid, inst.round_time(*bid_ref));
                // Batch reference over exactly the arrival prefix: a fresh
                // instance holding the first n+1 bids in arrival order.
                let mut prefix = Instance::new(inst.config().clone());
                for p in inst.clients() {
                    prefix.add_client(*p);
                }
                for (r, b) in &all[..=n] {
                    assert_eq!(prefix.add_bid(r.client, *b).unwrap(), *r);
                }
                assert_equivalent(
                    &streaming,
                    &SweepPrecomp::new(&prefix),
                    &format!("prefix {} ({mode:?})", n + 1),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate insert")]
    fn duplicate_insert_of_a_live_bid_panics() {
        let inst = gates_instance(QualifyMode::Intent);
        let mut precomp = SweepPrecomp::new(&inst);
        let (bid_ref, bid) = inst.iter_bids().next().map(|(r, b)| (r, *b)).unwrap();
        precomp.insert(bid_ref, &bid, inst.round_time(bid_ref));
    }

    #[test]
    fn the_lower_bound_order_is_built_only_on_demand() {
        let cfg = AuctionConfig::builder()
            .max_rounds(20)
            .clients_per_round(2)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut online = OnlineAuction::new(cfg, 500.0).unwrap();
        let clients: Vec<ClientId> = (0..40)
            .map(|_| online.register_client(ClientProfile::new(1.0, 1.0).unwrap()))
            .collect();
        let mut state = 0x0dd5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..1_200u32 {
            let a = 1 + (next() % 20) as u32;
            let d = a + (next() % u64::from(21 - a)) as u32;
            let c = 1 + (next() % u64::from(d - a + 1)) as u32;
            let theta = [0.3, 0.5, 0.9][(next() % 3) as usize];
            // Distinct prices, so no arrival duplicates an earlier one.
            let bid = Bid::new(
                1.0 + f64::from(i),
                theta,
                Window::new(Round(a), Round(d)),
                c,
            );
            let client = clients[i as usize % clients.len()];
            online.submit(client, bid.unwrap()).unwrap();
        }
        assert_eq!(online.counters().arrived, 1_200);
        assert!(
            online.precomp().by_avg.get().is_none(),
            "the online gate built the lower-bound order"
        );

        let inst = online.instance();
        let all: Vec<(BidRef, Bid)> = inst.iter_bids().map(|(r, b)| (r, *b)).collect();
        let ((last_ref, last_bid), rest) = all.split_last().unwrap();
        let mut precomp = SweepPrecomp::empty(inst.config());
        for (bid_ref, bid) in rest {
            precomp.insert(*bid_ref, bid, inst.round_time(*bid_ref));
        }
        assert!(
            precomp.by_avg.get().is_none(),
            "inserts alone build nothing"
        );
        let h = precomp.horizon_cap();
        precomp.cost_lower_bound(h);
        assert!(precomp.by_avg.get().is_some(), "the bound builds the order");
        precomp.insert(*last_ref, last_bid, inst.round_time(*last_ref));
        assert!(precomp.by_avg.get().is_none(), "an insert clears the order");
        assert_eq!(
            precomp.cost_lower_bound(h).to_bits(),
            SweepPrecomp::new(inst).cost_lower_bound(h).to_bits()
        );
    }

    #[test]
    fn empty_streaming_precomp_is_empty_batch() {
        let cfg = AuctionConfig::paper_default();
        let streaming = SweepPrecomp::empty(&cfg);
        assert_equivalent(&streaming, &SweepPrecomp::new(&Instance::new(cfg)), "empty");
    }

    // ---- The rewritten primitives against their references -------------

    /// Reference for `accuracy_threshold`: bisection over the same
    /// predicate for the smallest admitted horizon in `[1, cap]`, or
    /// [`NEVER`].
    fn threshold_by_bisection(accuracy: f64, cap: u32) -> u32 {
        let admitted = |h: u32| accuracy <= (1.0 - 1.0 / f64::from(h)) + QUALIFY_EPS;
        if !admitted(cap) {
            return NEVER;
        }
        let (mut lo, mut hi) = (1u32, cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if admitted(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn accuracy_threshold_matches_bisection_at_every_boundary() {
        let mut state = 0x7e57_a11du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random: Vec<f64> = (0..2_000)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        for cap in [1, 2, 3, 16, 64, 4096] {
            let boundaries = (1..=cap).flat_map(|h| {
                let at = (1.0 - 1.0 / f64::from(h)) + QUALIFY_EPS;
                [at.next_down(), at, at.next_up()]
            });
            let thetas = boundaries
                .chain([1e-12, 0.5, 1.0])
                .chain(random.iter().copied());
            for theta in thetas {
                assert_eq!(
                    accuracy_threshold(theta, cap),
                    threshold_by_bisection(theta, cap),
                    "θ = {theta:e} ({:#x}), cap {cap}",
                    theta.to_bits()
                );
            }
        }
    }

    /// The lower bound's scan order, rebuilt the way it was before the
    /// keyed sort: admissible slots, stably sorted by `avg.total_cmp`.
    fn stable_avg_order(p: &SweepPrecomp) -> Vec<usize> {
        let mut order: Vec<usize> = (0..p.cols.len())
            .filter(|&i| p.cols.min_admissible[i] != NEVER)
            .collect();
        order.sort_by(|&i, &j| p.cols.avg[i].total_cmp(&p.cols.avg[j]));
        order
    }

    fn keyed_avg_order(p: &SweepPrecomp) -> Vec<usize> {
        p.avg_order().iter().map(|&slot| slot as usize).collect()
    }

    #[test]
    fn keyed_lower_bound_order_is_the_stable_total_cmp_order() {
        let cfg = AuctionConfig::builder()
            .max_rounds(16)
            .clients_per_round(2)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let mut state = 0xa5a5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Few distinct prices and round counts, so most averages repeat;
        // `−0.0` and `+0.0` prices tie under `==` but not under
        // `total_cmp`.
        let prices = [-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0];
        for _ in 0..60 {
            let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
            for _ in 0..5 {
                let a = 1 + (next() % 8) as u32;
                let d = a + (next() % 8) as u32;
                let rounds = 1 + (next() % u64::from((d - a + 1).min(3))) as u32;
                let theta = [0.3, 0.5, 0.9, 0.97][(next() % 4) as usize];
                let price = prices[(next() % prices.len() as u64) as usize];
                inst.add_bid(
                    c,
                    Bid::new(price, theta, Window::new(Round(a), Round(d)), rounds).unwrap(),
                )
                .unwrap();
            }
        }
        let batch = SweepPrecomp::new(&inst);
        let order = keyed_avg_order(&batch);
        assert!(order.len() > 100, "enough admissible slots to reorder");
        assert_eq!(order, stable_avg_order(&batch), "after new");
        let zeros: Vec<f64> = order
            .iter()
            .map(|&i| batch.cols.avg[i])
            .filter(|&a| a == 0.0)
            .collect();
        assert!(zeros.iter().any(|a| a.is_sign_negative()));
        assert!(
            zeros.is_sorted_by_key(|a| a.is_sign_positive()),
            "−0.0 sorts before +0.0"
        );

        let mut streaming = SweepPrecomp::empty(inst.config());
        for (n, (bid_ref, bid)) in inst.iter_bids().enumerate() {
            streaming.insert(bid_ref, bid, inst.round_time(bid_ref));
            if n % 37 == 0 {
                assert_eq!(
                    keyed_avg_order(&streaming),
                    stable_avg_order(&streaming),
                    "after {} inserts",
                    n + 1
                );
            }
        }
        assert_eq!(keyed_avg_order(&streaming), order, "after every insert");
    }

    #[test]
    fn cost_lower_bound_never_exceeds_any_feasible_solution() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        let solver = AWinner::new().without_certificate();
        for h in 1..=inst.config().max_rounds() {
            let wdp = precomp.qualify_at(h);
            if let Ok(sol) = solver.solve_wdp(&wdp) {
                let lb = precomp.cost_lower_bound(h);
                assert!(
                    lb <= sol.cost() + 1e-12,
                    "T̂_g = {h}: lower bound {lb} exceeds greedy cost {}",
                    sol.cost()
                );
            }
        }
    }
}
