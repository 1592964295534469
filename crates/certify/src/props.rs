//! The property engine: every mechanism invariant, checked per instance.
//!
//! [`check`] runs three families of properties against one
//! [`CertInstance`], every per-horizon check on the WDPs production
//! solves (one [`SweepPrecomp`] per instance, read through
//! [`qualify_at`](SweepPrecomp::qualify_at)):
//!
//! 1. **Differential optimality** — per candidate horizon, the greedy
//!    `A_winner` social cost is compared against the exact solvers
//!    ([`BruteForceSolver`] as ground truth, [`ExactSolver`] cross-checked
//!    against it). When an optimum is *proven* (see
//!    [`Optimality`]), greedy must not beat it, the dual certificate's
//!    objective must stay below it, and greedy must stay within the
//!    per-instance `H_{T̂_g}·ω` bound of it. Horizons where the exact
//!    search stops at a bound are skipped — an unproven incumbent must
//!    never produce a false positive.
//! 2. **Truthfulness** — each winner's Myerson threshold is located by
//!    bisection, then probed: bidding just below still wins, just above
//!    loses, the threshold does not move under a misreport, and losers
//!    stay losers when they raise their price (allocation monotonicity,
//!    Lemma 1).
//! 3. **Feasibility and identities** — `fl_auction::verify`'s ILP checks,
//!    individual rationality, the Alg. 3 payment identity
//!    `payment = gain · critical_avg` replayed from the selection trace,
//!    consistency of `run_auction`'s horizon pick with a manual fold
//!    over the sweep, at every candidate horizon the linear-time
//!    feasibility check and certificate `ω` against their per-round
//!    [`crate::oracle`]s, and at every horizon `1..=T` the qualified
//!    columns and the `qualify.*` counters against the gate-by-gate
//!    [`oracle::qualify`].
//!
//! A documented non-bug is classified as a statistic, not a violation:
//! greedy `A_winner` can stall (report infeasible) on instances the exact
//! solver schedules — that is the approximation gap the paper accepts, and
//! it lands in [`Stats::greedy_stalls`]. The same gap leaks into the
//! truthfulness probes: repricing a bid can reorder the greedy selection
//! until a least-loaded tie parks the bid on the wrong round and the whole
//! run stalls, which makes the allocation non-monotone *through the stall*
//! rather than through any payment-rule defect. Lemma 1's monotonicity is
//! conditional on the greedy staying feasible, so a winner whose probe
//! failures coincide with a stall anywhere along its price axis is counted
//! in [`Stats::stalled_probes`] instead of flagged.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fl_auction::truthful::{deviation_outcome, myerson_payment, wins_at, DeviationOutcome};
use fl_auction::{
    min_horizon, run_auction, verify, AWinner, AuctionError, Bid, BidRef, ClientId, ClientProfile,
    ColumnarBids, DecisionReason, Instance, OnlineAuction, OnlineDecision, Round, SweepPrecomp,
    Wdp, WdpError, WdpSolution, WdpSolver, Window,
};
use fl_exact::{BruteForceSolver, ExactSolver, Optimality, ProvingWdpSolver};
use fl_telemetry::{install_local, Recorder};

use crate::gen::CertInstance;
use crate::oracle;

/// Bid-count ceiling for the exhaustive yardstick (well under
/// [`fl_exact::MAX_BIDS`]; the generator stays below it by construction).
const BRUTE_LIMIT: usize = 14;

/// Stable machine-readable property codes. The minimiser shrinks while
/// preserving the *same* failing code, so these must not change meaning.
pub mod prop {
    /// The instance itself failed validation (hand-written corpus entry).
    pub const INVALID: &str = "invalid_instance";
    /// `verify::wdp_violations` on a solver output.
    pub const WDP: &str = "wdp_feasibility";
    /// `verify::outcome_violations` on the final outcome.
    pub const OUTCOME: &str = "outcome_feasibility";
    /// `verify::ir_violations`: a winner paid below its claimed cost.
    pub const IR: &str = "individual_rationality";
    /// `verify::certificate_violations`: inconsistent dual certificate.
    pub const CERT: &str = "certificate";
    /// `verify::dual_feasibility_violations`: constraint (8a) broken.
    pub const DUAL: &str = "dual_feasibility";
    /// Brute force and branch-and-bound disagree on a proven optimum or on
    /// feasibility.
    pub const EXACT_DIVERGENCE: &str = "exact_divergence";
    /// Greedy produced a cheaper solution than a *proven* optimum.
    pub const GREEDY_BELOW_OPT: &str = "greedy_below_proven_opt";
    /// Greedy cost exceeds `H_{T̂_g}·ω · OPT` on a proven optimum.
    pub const RATIO_BOUND: &str = "ratio_bound_vs_opt";
    /// The dual objective exceeds a proven optimum (weak duality broken).
    pub const DUAL_ABOVE_OPT: &str = "dual_above_opt";
    /// The exact solver proved infeasibility while greedy found a feasible
    /// solution (impossible: the greedy solution is a witness).
    pub const FEASIBILITY_FLIP: &str = "exact_infeasible_greedy_feasible";
    /// `run_auction`'s `(horizon, cost)` pick disagrees with the manual
    /// fold over the per-horizon sweep (cheapest, smallest-horizon ties).
    pub const OUTER_PICK: &str = "outer_pick";
    /// A winner's payment is not `gain · critical_avg` (or its price when
    /// no runner-up existed) per the selection trace.
    pub const PAYMENT_IDENTITY: &str = "payment_identity";
    /// A winner has no Myerson threshold (it does not win at its own
    /// price — contradicts it being a winner).
    pub const MYERSON_MISSING: &str = "myerson_missing";
    /// The Myerson threshold lies below the winner's claimed cost.
    pub const MYERSON_IR: &str = "myerson_ir";
    /// The bid still wins when priced above its threshold.
    pub const ABOVE_THRESHOLD_WINS: &str = "above_threshold_wins";
    /// The bid loses when priced below its threshold.
    pub const BELOW_THRESHOLD_LOSES: &str = "below_threshold_loses";
    /// The threshold moved when the bid misreported its price (the
    /// allocation must make payments bid-independent for truthfulness).
    pub const THRESHOLD_DEPENDS_ON_BID: &str = "threshold_depends_on_bid";
    /// A losing bid started winning after *raising* its price
    /// (monotonicity, Lemma 1).
    pub const LOSER_MONOTONICITY: &str = "loser_monotonicity";
    /// A journal-recovered epoch decision diverged from a fresh solve on
    /// the recorded bid set (see [`crate::replay`]).
    pub const JOURNAL_REPLAY: &str = "journal_replay";
    /// Online mode: total remuneration exceeded the budget `B`.
    pub const ONLINE_BUDGET: &str = "online_budget_feasibility";
    /// Online mode: a committed bid was paid below its claimed cost.
    pub const ONLINE_IR: &str = "online_individual_rationality";
    /// Online mode: a price misreport moved the payment, let the bid win
    /// above the posted offer, or rejected it below (posted-price
    /// truthfulness on the replayed arrival prefix).
    pub const ONLINE_POSTED_TRUTHFUL: &str = "online_posted_truthfulness";
    /// Online mode: the streaming qualified-set precomp diverged from a
    /// fresh [`fl_auction::SweepPrecomp`] fed the same arrivals in arrival
    /// order, or a bid's admission horizon from a batch build over the
    /// grown instance.
    pub const ONLINE_INCREMENTAL_BATCH: &str = "online_incremental_vs_batch";
    /// `Wdp::obviously_infeasible` disagrees with the per-round `HashSet`
    /// oracle ([`crate::oracle::obviously_infeasible`]), in the rows'
    /// qualified order or with the clients interleaved.
    pub const FEASIBILITY_ORACLE: &str = "feasibility_vs_oracle";
    /// The certificate's `ω` is not bit-identical to the per-round rescan
    /// ([`crate::oracle::omega`]).
    pub const OMEGA_ORACLE: &str = "certificate_omega_vs_oracle";
    /// `SweepPrecomp::qualify_at` differs from the gate-by-gate
    /// [`crate::oracle::qualify`] in its `qualify.*` counters or in its
    /// columns: bids, order, truncated windows or the client partition.
    pub const QUALIFY_ORACLE: &str = "qualify_vs_oracle";
}

/// One failed property with human-readable context.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable code from [`prop`] (the minimiser keys on this).
    pub property: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.property, self.detail)
    }
}

/// Non-failure observations: work counters and documented algorithm gaps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Candidate horizons whose WDP was examined.
    pub horizons: u64,
    /// Horizons where an exact solver proved an optimum.
    pub exact_proven: u64,
    /// Horizons where branch-and-bound stopped at a bound (no proof).
    pub exact_bounded: u64,
    /// Horizons where greedy stalled but an exact solver scheduled around
    /// it — the paper's documented approximation gap, not a violation.
    pub greedy_stalls: u64,
    /// Unilateral price-deviation probe groups executed.
    pub probes: u64,
    /// Winners whose probe failures were traced to a greedy stall along
    /// their price axis (Lemma 1 monotonicity is conditional on the greedy
    /// staying feasible — see the module docs), not to the payment rule.
    pub stalled_probes: u64,
    /// Instances replayed as an online arrival stream (the online knob).
    pub online_streams: u64,
    /// Online prefix-replay misreport probes executed.
    pub online_probes: u64,
    /// Whether `run_auction` produced an outcome at all.
    pub feasible: bool,
}

impl Stats {
    /// Merges another run's counters into this one (`feasible` ORs).
    pub fn absorb(&mut self, other: &Stats) {
        self.horizons += other.horizons;
        self.exact_proven += other.exact_proven;
        self.exact_bounded += other.exact_bounded;
        self.greedy_stalls += other.greedy_stalls;
        self.probes += other.probes;
        self.stalled_probes += other.stalled_probes;
        self.online_streams += other.online_streams;
        self.online_probes += other.online_probes;
        self.feasible |= other.feasible;
    }
}

/// The certifier's verdict on one instance.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every property violation found (empty = certified clean).
    pub violations: Vec<Violation>,
    /// Work counters and gap statistics.
    pub stats: Stats,
}

impl Report {
    /// Whether the instance passed every property.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every property against one instance.
pub fn check(ci: &CertInstance) -> Report {
    let mut v = Vec::new();
    let mut stats = Stats::default();
    let instance = match ci.to_instance() {
        Ok(i) => i,
        Err(e) => {
            v.push(Violation {
                property: prop::INVALID,
                detail: e.to_string(),
            });
            return Report {
                violations: v,
                stats,
            };
        }
    };
    let t = instance.config().max_rounds();
    let Some(t0) = min_horizon(&instance) else {
        // No bids: nothing to certify for the batch mechanism, but the
        // online driver must still survive the empty arrival prefix.
        if let Some(budget) = ci.online_budget {
            check_online(ci, budget, &mut v, &mut stats);
        }
        return Report {
            violations: v,
            stats,
        };
    };

    let precomp = SweepPrecomp::new(&instance);
    check_qualify_oracle(&instance, &precomp, &mut v);

    // Per-horizon differential sweep (Alg. 1's loop, re-derived manually
    // so run_auction's own pick can be cross-checked below).
    let greedy = AWinner::new();
    let mut best: Option<(u32, f64)> = None;
    for h in t0..=t {
        let wdp = precomp.qualify_at(h);
        check_feasibility_oracle(&wdp, &mut v);
        if wdp.bids().is_empty() {
            continue;
        }
        stats.horizons += 1;
        let g = greedy.solve_wdp(&wdp);
        let (opt, exact_feasible) = check_exact(&wdp, h, &g, &mut v, &mut stats);
        match &g {
            Ok(sol) => {
                check_omega_oracle(&wdp, sol, &mut v);
                push_all(&mut v, prop::WDP, h, verify::wdp_violations(&wdp, sol));
                push_all(&mut v, prop::IR, h, verify::ir_violations(sol));
                push_all(&mut v, prop::CERT, h, verify::certificate_violations(sol));
                push_all(
                    &mut v,
                    prop::DUAL,
                    h,
                    verify::dual_feasibility_violations(&wdp, sol),
                );
                if let Some(opt) = opt {
                    check_differential(sol, opt, h, &mut v);
                }
                if best.as_ref().is_none_or(|&(_, c)| sol.cost() < c) {
                    best = Some((h, sol.cost()));
                }
            }
            Err(WdpError::Infeasible) if exact_feasible => {
                stats.greedy_stalls += 1;
            }
            Err(_) => {}
        }
    }

    // Outer consistency: run_auction must pick the cheapest greedy-feasible
    // horizon, smallest horizon on ties (exact `<` fold, PR 3 semantics).
    match run_auction(&instance) {
        Ok(outcome) => {
            stats.feasible = true;
            match best {
                Some((h, c)) if outcome.horizon() == h && outcome.social_cost() == c => {}
                other => v.push(Violation {
                    property: prop::OUTER_PICK,
                    detail: format!(
                        "run_auction chose T_g={} at cost {} but the sweep fold says {:?}",
                        outcome.horizon(),
                        outcome.social_cost(),
                        other
                    ),
                }),
            }
            push_all(
                &mut v,
                prop::OUTCOME,
                outcome.horizon(),
                verify::outcome_violations(&instance, &outcome),
            );
            let wdp = precomp.qualify_at(outcome.horizon());
            check_payment_identity(&wdp, outcome.solution(), &mut v);
            check_truthfulness(&wdp, outcome.solution(), &mut v, &mut stats);
        }
        Err(_) => {
            if let Some((h, c)) = best {
                v.push(Violation {
                    property: prop::OUTER_PICK,
                    detail: format!(
                        "run_auction reported infeasible but horizon {h} has greedy cost {c}"
                    ),
                });
            }
        }
    }

    if let Some(budget) = ci.online_budget {
        check_online(ci, budget, &mut v, &mut stats);
    }

    Report {
        violations: v,
        stats,
    }
}

/// Holds `precomp` to the gate-by-gate oracle at every horizon `1..=T`:
/// the `qualify.*` counters `qualify_at` emits against the oracle's
/// [`oracle::QualifyCounts`], and its columns against the oracle's rows
/// transposed by `ColumnarBids::from`, column for column (see
/// [`column_mismatch`]).
fn check_qualify_oracle(instance: &Instance, precomp: &SweepPrecomp, v: &mut Vec<Violation>) {
    for h in 1..=precomp.horizon_cap() {
        let (expected, counts) = oracle::qualify(instance, h);
        let recorder = Arc::new(Recorder::default());
        let guard = install_local(recorder.clone());
        let got = precomp.qualify_at(h);
        drop(guard);
        let counters = recorder.snapshot().counters;
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        let got_counts = oracle::QualifyCounts {
            examined: counter("qualify.examined"),
            rejected_accuracy: counter("qualify.rejected_accuracy"),
            rejected_time: counter("qualify.rejected_time"),
            rejected_window: counter("qualify.rejected_window"),
            accepted: counter("qualify.accepted"),
        };
        if got_counts != counts {
            v.push(Violation {
                property: prop::QUALIFY_ORACLE,
                detail: format!(
                    "T_g={h}: qualify_at counted {got_counts:?}, the oracle {counts:?}"
                ),
            });
        }
        let want = ColumnarBids::from(expected.bids());
        if let Some(diff) = column_mismatch(got.columns(), &want) {
            v.push(Violation {
                property: prop::QUALIFY_ORACLE,
                detail: format!("T_g={h}: qualify_at's columns differ from the oracle's: {diff}"),
            });
        }
    }
}

/// Where `got` first differs from `want`, or `None` if they hold the same
/// bids in the same order, column for column (floats bit for bit), and
/// their client slots partition the bids alike: two bids share a slot in
/// `got` iff they share one in `want`. Slot numbers themselves may differ
/// (`qualify_at` uses client ids, `From` first-appearance order).
fn column_mismatch(got: &ColumnarBids, want: &ColumnarBids) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} bid(s) against {}", got.len(), want.len()));
    }
    let mut got_to_want: HashMap<u32, u32> = HashMap::new();
    let mut want_to_got: HashMap<u32, u32> = HashMap::new();
    for i in 0..got.len() {
        let (g, w) = (got.get(i), want.get(i));
        let columns = [
            ("bid_ref", g.bid_ref == w.bid_ref),
            ("price", g.price.to_bits() == w.price.to_bits()),
            ("accuracy", g.accuracy.to_bits() == w.accuracy.to_bits()),
            ("start", g.window.start() == w.window.start()),
            ("end", g.window.end() == w.window.end()),
            ("rounds", g.rounds == w.rounds),
            (
                "round_time",
                g.round_time.to_bits() == w.round_time.to_bits(),
            ),
        ];
        if let Some((column, _)) = columns.iter().find(|(_, same)| !same) {
            return Some(format!("bid {i} ({}): {column}", w.bid_ref));
        }
        let (gs, ws) = (got.client_slot(i), want.client_slot(i));
        if gs as usize >= got.num_slots()
            || *got_to_want.entry(gs).or_insert(ws) != ws
            || *want_to_got.entry(ws).or_insert(gs) != gs
        {
            return Some(format!(
                "bid {i} ({}): client slot {gs} of {} does not partition the bids as {ws} does",
                w.bid_ref,
                got.num_slots()
            ));
        }
    }
    None
}

/// Holds `Wdp::obviously_infeasible` to its per-round `HashSet` oracle,
/// on the qualified rows (client-major) and on the same rows dealt out
/// bid index first, which interleaves the clients (the sorting path).
fn check_feasibility_oracle(wdp: &Wdp, v: &mut Vec<Violation>) {
    let expected = oracle::obviously_infeasible(wdp);
    let mut interleaved = wdp.bids().to_vec();
    interleaved.sort_by_key(|b| (b.bid_ref.bid, b.bid_ref.client));
    let interleaved = Wdp::new(wdp.horizon(), wdp.demand_per_round(), interleaved);
    for (order, got) in [
        ("qualified", wdp.obviously_infeasible()),
        ("interleaved", interleaved.obviously_infeasible()),
    ] {
        if got != expected {
            v.push(Violation {
                property: prop::FEASIBILITY_ORACLE,
                detail: format!(
                    "T_g={}: obviously_infeasible() = {got} on {order} rows, oracle says {expected}",
                    wdp.horizon()
                ),
            });
        }
    }
}

/// Holds the certificate's `ω` to the per-round rescan, bit for bit.
fn check_omega_oracle(wdp: &Wdp, sol: &WdpSolution, v: &mut Vec<Violation>) {
    let Some(cert) = sol.certificate() else {
        return;
    };
    let expected = oracle::omega(wdp);
    if cert.omega.to_bits() != expected.to_bits() {
        v.push(Violation {
            property: prop::OMEGA_ORACLE,
            detail: format!(
                "T_g={}: certificate omega {:e} differs from the rescan's {:e}",
                wdp.horizon(),
                cert.omega,
                expected
            ),
        });
    }
}

/// Replays the bid list as an arrival stream (bids arrive in list order)
/// through [`OnlineAuction`] under budget `B` and checks the online
/// mechanism's invariants:
///
/// * **Budget feasibility** — `Σ payments ≤ B`;
/// * **Online IR** — every committed bid is paid at least its claimed
///   cost (the posted offer covered the price by the commit rule);
/// * **Posted-price truthfulness on arrival prefixes** — for each
///   arrival, the prefix up to it is replayed with that one bid
///   repriced: under-reporting must not move the payment, and pricing
///   above the posted offer must flip the decision to
///   `price_above_offer` (the payment is bid-independent, so no
///   misreport can profit);
/// * **Incremental ≡ batch** — the streaming [`SweepPrecomp`] must agree
///   bit-for-bit, on every horizon's qualified set and cost lower bound,
///   with a fresh [`SweepPrecomp::empty`] fed the stream's distinct
///   arrivals in arrival order (which recomputes every threshold), and
///   each bid's [`admission_horizon`](SweepPrecomp::admission_horizon)
///   must match [`SweepPrecomp::new`] over the grown instance. The fresh
///   precomp's lower bounds are also read after every insert and held to
///   a precomp built afresh from that arrival prefix, so a lower-bound
///   order that an insert leaves stale shows.
fn check_online(ci: &CertInstance, budget: f64, v: &mut Vec<Violation>, stats: &mut Stats) {
    let full = match stream(ci, budget, ci.bids.len(), None) {
        Ok(run) => run,
        Err(e) => {
            // `to_instance` validated the same fields already; an error
            // here means the online driver rejects an input the batch
            // path accepts.
            v.push(Violation {
                property: prop::ONLINE_INCREMENTAL_BATCH,
                detail: format!("online stream rejected a valid instance: {e}"),
            });
            return;
        }
    };
    stats.online_streams += 1;
    let out = full.online.outcome();

    // Budget feasibility: Σ payments ≤ B.
    if out.total_payment() > budget + 1e-9 * (1.0 + budget.min(f64::MAX)) {
        v.push(Violation {
            property: prop::ONLINE_BUDGET,
            detail: format!(
                "total payment {} exceeds the budget {budget}",
                out.total_payment()
            ),
        });
    }

    // Online IR: every committed payment covers the claimed cost.
    for (i, d) in full.decisions.iter().enumerate() {
        if d.committed && !d.duplicate && d.payment + 1e-9 < ci.bids[i].price {
            v.push(Violation {
                property: prop::ONLINE_IR,
                detail: format!(
                    "arrival {i}: committed at payment {} below the claimed cost {}",
                    d.payment, ci.bids[i].price
                ),
            });
        }
    }

    // Incremental ≡ batch: the streaming precomp vs a fresh one fed the
    // distinct arrivals in arrival order, on every horizon's qualified set
    // and cost lower bound; then each bid's admission horizon vs a batch
    // build, whose client-major order leaves per-bid thresholds unchanged.
    let instance = full.online.instance();
    let precomp = full.online.precomp();
    let mut fresh = SweepPrecomp::empty(instance.config());
    let mut prefix = Vec::new();
    for d in full.decisions.iter().filter(|d| !d.duplicate) {
        let bid_ref = d.bid_ref;
        fresh.insert(bid_ref, instance.bid(bid_ref), instance.round_time(bid_ref));
        prefix.push(bid_ref);
        let mut afresh = SweepPrecomp::empty(instance.config());
        for &r in &prefix {
            afresh.insert(r, instance.bid(r), instance.round_time(r));
        }
        for h in 1..=ci.t {
            let (lb, lb_afresh) = (fresh.cost_lower_bound(h), afresh.cost_lower_bound(h));
            if lb.to_bits() != lb_afresh.to_bits() {
                v.push(Violation {
                    property: prop::ONLINE_INCREMENTAL_BATCH,
                    detail: format!(
                        "after {} insert(s), T̂={h}: lower bound {lb} vs {lb_afresh} \
                         from a precomp built afresh",
                        prefix.len()
                    ),
                });
            }
        }
    }
    for h in 1..=ci.t {
        let inc = precomp.qualify_at(h);
        let bat = fresh.qualify_at(h);
        if inc.bids() != bat.bids() {
            v.push(Violation {
                property: prop::ONLINE_INCREMENTAL_BATCH,
                detail: format!(
                    "T̂={h}: incremental qualified set has {} bid(s), fresh precomp {}",
                    inc.bids().len(),
                    bat.bids().len()
                ),
            });
        }
        let (lb_inc, lb_bat) = (precomp.cost_lower_bound(h), fresh.cost_lower_bound(h));
        if lb_inc.to_bits() != lb_bat.to_bits() {
            v.push(Violation {
                property: prop::ONLINE_INCREMENTAL_BATCH,
                detail: format!("T̂={h}: incremental lower bound {lb_inc} vs fresh {lb_bat}"),
            });
        }
    }
    let batch = SweepPrecomp::new(instance);
    for (bid_ref, _) in instance.iter_bids() {
        let (inc, bat) = (
            precomp.admission_horizon(bid_ref),
            batch.admission_horizon(bid_ref),
        );
        if inc != bat {
            v.push(Violation {
                property: prop::ONLINE_INCREMENTAL_BATCH,
                detail: format!(
                    "{bid_ref}: incremental admission horizon {inc:?} vs batch {bat:?}"
                ),
            });
        }
    }

    // Posted-price truthfulness on arrival prefixes. Repricing a bid can
    // make it collide with an identical earlier arrival (the duplicate
    // ledger would replay that one instead); such probes are skipped.
    for (i, d) in full.decisions.iter().enumerate() {
        if d.duplicate {
            continue;
        }
        let truth = ci.bids[i].price;
        if d.committed {
            // Under-report: still committed, payment bit-identical.
            let lower = truth / 2.0;
            if !collides(ci, i, lower) {
                stats.online_probes += 1;
                match stream(ci, budget, i + 1, Some((i, lower))) {
                    Ok(run) => {
                        let rd = &run.decisions[i];
                        if !rd.committed
                            || rd.payment.to_bits() != d.payment.to_bits()
                            || rd.schedule != d.schedule
                        {
                            v.push(Violation {
                                property: prop::ONLINE_POSTED_TRUTHFUL,
                                detail: format!(
                                    "arrival {i}: under-reporting {truth} → {lower} changed the \
                                     decision (committed={}, payment {} → {})",
                                    rd.committed, d.payment, rd.payment
                                ),
                            });
                        }
                    }
                    Err(e) => v.push(Violation {
                        property: prop::ONLINE_POSTED_TRUTHFUL,
                        detail: format!("arrival {i}: repriced prefix replay failed: {e}"),
                    }),
                }
            }
            // Over-report past the posted offer: must be turned away by
            // the price gate. (The offer is `payment`; unreachable when
            // the budget, and hence the offer, is infinite.)
            let above = 2.0 * d.payment + 1.0;
            if above.is_finite() && !collides(ci, i, above) {
                stats.online_probes += 1;
                match stream(ci, budget, i + 1, Some((i, above))) {
                    Ok(run) => {
                        let rd = &run.decisions[i];
                        if rd.committed || rd.reason != DecisionReason::PriceAboveOffer {
                            v.push(Violation {
                                property: prop::ONLINE_POSTED_TRUTHFUL,
                                detail: format!(
                                    "arrival {i}: priced at {above} above the offer {} but got \
                                     {:?} instead of price_above_offer",
                                    d.payment, rd.reason
                                ),
                            });
                        }
                    }
                    Err(e) => v.push(Violation {
                        property: prop::ONLINE_POSTED_TRUTHFUL,
                        detail: format!("arrival {i}: repriced prefix replay failed: {e}"),
                    }),
                }
            }
        } else if d.reason == DecisionReason::PriceAboveOffer && !collides(ci, i, 0.0) {
            // Rejected by the price gate alone: a free bid must clear it
            // (it may still hit the budget gate, but never the price one).
            stats.online_probes += 1;
            match stream(ci, budget, i + 1, Some((i, 0.0))) {
                Ok(run) => {
                    let rd = &run.decisions[i];
                    if rd.reason == DecisionReason::PriceAboveOffer {
                        v.push(Violation {
                            property: prop::ONLINE_POSTED_TRUTHFUL,
                            detail: format!(
                                "arrival {i}: still price_above_offer at price 0 \
                                 (the offer cannot be negative)"
                            ),
                        });
                    }
                }
                Err(e) => v.push(Violation {
                    property: prop::ONLINE_POSTED_TRUTHFUL,
                    detail: format!("arrival {i}: repriced prefix replay failed: {e}"),
                }),
            }
        }
    }
}

/// One replayed arrival stream: the per-arrival decisions plus the
/// driver for end-state inspection.
struct StreamRun {
    decisions: Vec<OnlineDecision>,
    online: OnlineAuction,
}

/// Replays the first `upto` bids of `ci` as an arrival stream under
/// `budget`, optionally repricing the bid at index `reprice.0`.
fn stream(
    ci: &CertInstance,
    budget: f64,
    upto: usize,
    reprice: Option<(usize, f64)>,
) -> Result<StreamRun, AuctionError> {
    let cfg = fl_auction::AuctionConfig::builder()
        .max_rounds(ci.t)
        .clients_per_round(ci.k)
        .round_time_limit(ci.t_max)
        .local_model(ci.model)
        .qualify_mode(ci.qualify)
        .build()?;
    let mut online = OnlineAuction::new(cfg, budget)?;
    for &(compute, comm) in &ci.clients {
        online.register_client(ClientProfile::new(compute, comm)?);
    }
    let mut decisions = Vec::with_capacity(upto);
    for (i, b) in ci.bids.iter().take(upto).enumerate() {
        let price = match reprice {
            Some((j, p)) if j == i => p,
            _ => b.price,
        };
        let bid = Bid::new(price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c)?;
        decisions.push(online.submit(ClientId(b.client), bid)?);
    }
    Ok(StreamRun { decisions, online })
}

/// Whether repricing bid `i` to `price` makes it identical to an earlier
/// arrival (the duplicate ledger would then replay that decision).
fn collides(ci: &CertInstance, i: usize, price: f64) -> bool {
    let b = &ci.bids[i];
    ci.bids[..i].iter().any(|e| {
        e.client == b.client
            && e.price.to_bits() == price.to_bits()
            && e.theta.to_bits() == b.theta.to_bits()
            && (e.a, e.d, e.c) == (b.a, b.d, b.c)
    })
}

/// Runs the exact yardsticks on one horizon's WDP. Returns the proven
/// optimum cost (when any solver completed its proof) and whether any
/// exact solver found a feasible solution at all.
fn check_exact(
    wdp: &Wdp,
    h: u32,
    greedy: &Result<WdpSolution, WdpError>,
    v: &mut Vec<Violation>,
    stats: &mut Stats,
) -> (Option<f64>, bool) {
    let bnb = ExactSolver::new().solve_proved(wdp);
    let brute =
        (wdp.bids().len() <= BRUTE_LIMIT).then(|| BruteForceSolver::new().solve_proved(wdp));

    // Exact solutions must themselves satisfy the ILP constraints.
    for (name, r) in [("bnb", Some(&bnb)), ("brute", brute.as_ref())] {
        if let Some(Ok(out)) = r {
            for m in verify::wdp_violations(wdp, &out.solution) {
                v.push(Violation {
                    property: prop::WDP,
                    detail: format!("T̂={h} [{name}]: {m}"),
                });
            }
        }
    }

    // Cross-check the two exact solvers against each other.
    if let Some(br) = &brute {
        match (br, &bnb) {
            (Ok(a), Ok(b))
                if a.optimality.is_proven()
                    && b.optimality.is_proven()
                    && !close(a.solution.cost(), b.solution.cost()) =>
            {
                v.push(Violation {
                    property: prop::EXACT_DIVERGENCE,
                    detail: format!(
                        "T̂={h}: brute optimum {} vs bnb optimum {}",
                        a.solution.cost(),
                        b.solution.cost()
                    ),
                });
            }
            (Err(WdpError::Infeasible), Ok(b)) => v.push(Violation {
                property: prop::EXACT_DIVERGENCE,
                detail: format!(
                    "T̂={h}: brute proved infeasible, bnb found cost {}",
                    b.solution.cost()
                ),
            }),
            (Ok(a), Err(WdpError::Infeasible)) => v.push(Violation {
                property: prop::EXACT_DIVERGENCE,
                detail: format!(
                    "T̂={h}: bnb proved infeasible, brute found cost {}",
                    a.solution.cost()
                ),
            }),
            _ => {}
        }
    }

    let mut proven: Option<f64> = None;
    let mut exact_feasible = false;
    let mut exact_infeasible = false;
    for r in [&bnb].into_iter().chain(brute.as_ref()) {
        match r {
            Ok(out) => {
                exact_feasible = true;
                match &out.optimality {
                    Optimality::Proven => {
                        proven.get_or_insert(out.solution.cost());
                    }
                    Optimality::Bounded { .. } => stats.exact_bounded += 1,
                }
            }
            Err(WdpError::Infeasible) => exact_infeasible = true,
            Err(_) => {}
        }
    }
    if proven.is_some() {
        stats.exact_proven += 1;
    }
    if exact_infeasible && greedy.is_ok() {
        v.push(Violation {
            property: prop::FEASIBILITY_FLIP,
            detail: format!(
                "T̂={h}: an exact solver proved infeasibility but greedy found a feasible set"
            ),
        });
    }
    (proven, exact_feasible)
}

/// The headline differential property on one horizon: greedy vs a proven
/// optimum, with the dual certificate sandwiched in between (Lemma 5:
/// `D ≤ OPT ≤ P ≤ H_{T̂_g}·ω·D ≤ H_{T̂_g}·ω·OPT`).
fn check_differential(sol: &WdpSolution, opt: f64, h: u32, v: &mut Vec<Violation>) {
    let p = sol.cost();
    if p < opt - 1e-9 * (1.0 + opt.abs()) {
        v.push(Violation {
            property: prop::GREEDY_BELOW_OPT,
            detail: format!("T̂={h}: greedy cost {p} beats the proven optimum {opt}"),
        });
    }
    let Some(cert) = sol.certificate() else {
        return;
    };
    if cert.dual_objective > opt + 1e-6 * (1.0 + opt.abs()) {
        v.push(Violation {
            property: prop::DUAL_ABOVE_OPT,
            detail: format!(
                "T̂={h}: dual objective {} exceeds the proven optimum {opt}",
                cert.dual_objective
            ),
        });
    }
    let bound = cert.ratio_bound() * opt;
    if bound.is_finite() && p > bound + 1e-6 * (1.0 + bound.abs()) {
        v.push(Violation {
            property: prop::RATIO_BOUND,
            detail: format!(
                "T̂={h}: greedy cost {p} exceeds H·ω·OPT = {bound} (H·ω = {})",
                cert.ratio_bound()
            ),
        });
    }
}

/// Replays the greedy selection trace and checks the Alg. 3 payment
/// identity exactly (same deterministic code path, so `==` is correct).
fn check_payment_identity(wdp: &Wdp, sol: &WdpSolution, v: &mut Vec<Violation>) {
    let Ok((resolved, trace)) = AWinner::new().solve_traced(wdp) else {
        v.push(Violation {
            property: prop::PAYMENT_IDENTITY,
            detail: "traced re-solve is infeasible at the announced horizon".into(),
        });
        return;
    };
    if &resolved != sol {
        v.push(Violation {
            property: prop::PAYMENT_IDENTITY,
            detail: "traced re-solve diverged from the announced outcome".into(),
        });
        return;
    }
    for (step, w) in trace.iter().zip(resolved.winners()) {
        let expected = match step.critical_avg {
            Some(avg) => f64::from(step.gain) * avg,
            None => w.price,
        };
        if w.payment != expected {
            v.push(Violation {
                property: prop::PAYMENT_IDENTITY,
                detail: format!(
                    "{}: payment {} but gain {} × critical_avg {:?} = {expected}",
                    w.bid_ref, w.payment, step.gain, step.critical_avg
                ),
            });
        }
    }
}

/// Unilateral price-deviation probes around every winner's Myerson
/// threshold, plus loser monotonicity.
fn check_truthfulness(wdp: &Wdp, sol: &WdpSolution, v: &mut Vec<Violation>, stats: &mut Stats) {
    let cap = 2.0 * wdp.bids().iter().map(|b| b.price).sum::<f64>() + 10.0;
    let tol = 1e-9;
    // Probe offset comfortably above the bisection tolerance.
    let eps = 1e-6;

    for w in sol.winners() {
        stats.probes += 1;
        let Some(tau) = myerson_payment(wdp, w.bid_ref, cap, tol) else {
            v.push(Violation {
                property: prop::MYERSON_MISSING,
                detail: format!("winner {} has no threshold at its own price", w.bid_ref),
            });
            continue;
        };
        // Probe failures are collected locally first: if any of them (or
        // a scan of the winner's price axis) turns out to involve a greedy
        // stall, the whole group is reclassified as the documented
        // approximation gap rather than a mechanism violation.
        let mut local = Vec::new();
        let mut probed = vec![(tau - eps).max(0.0), tau + eps];
        if tau < w.price - 1e-9 {
            local.push(Violation {
                property: prop::MYERSON_IR,
                detail: format!(
                    "{}: threshold {tau} below the claimed cost {}",
                    w.bid_ref, w.price
                ),
            });
        }
        if !wins_at(wdp, w.bid_ref, (tau - eps).max(0.0)) {
            local.push(Violation {
                property: prop::BELOW_THRESHOLD_LOSES,
                detail: format!(
                    "{}: loses at {} just below threshold {tau}",
                    w.bid_ref,
                    tau - eps
                ),
            });
        }
        if tau + eps < cap && wins_at(wdp, w.bid_ref, tau + eps) {
            local.push(Violation {
                property: prop::ABOVE_THRESHOLD_WINS,
                detail: format!(
                    "{}: wins at {} just above threshold {tau}",
                    w.bid_ref,
                    tau + eps
                ),
            });
        }
        // Truthfulness core: the threshold payment must not move when the
        // bid misreports (otherwise the report influences the payment and
        // a strategic bid could profit).
        for misreport in [0.5 * w.price, 0.5 * (w.price + tau)] {
            if misreport == w.price {
                continue;
            }
            probed.push(misreport);
            let patched = reprice(wdp, w.bid_ref, misreport);
            match myerson_payment(&patched, w.bid_ref, cap, tol) {
                Some(tau2) if (tau2 - tau).abs() <= 1e-6 * (1.0 + tau.abs()) => {}
                got => {
                    if let Some(tau2) = got {
                        probed.push((tau2 - eps).max(0.0));
                        probed.push(tau2 + eps);
                    }
                    local.push(Violation {
                        property: prop::THRESHOLD_DEPENDS_ON_BID,
                        detail: format!(
                            "{}: threshold {tau} became {got:?} after misreporting {misreport}",
                            w.bid_ref
                        ),
                    });
                }
            }
        }
        if !local.is_empty() && stalls_anywhere(wdp, w.bid_ref, &probed, cap) {
            stats.stalled_probes += 1;
        } else {
            v.append(&mut local);
        }
    }

    // Losers must stay losers when they raise their price (Lemma 1).
    let winners: HashSet<BidRef> = sol.winners().iter().map(|w| w.bid_ref).collect();
    for qb in wdp.bids() {
        if winners.contains(&qb.bid_ref) {
            continue;
        }
        stats.probes += 1;
        let raised = 2.0 * qb.price + 1.0;
        if wins_at(wdp, qb.bid_ref, raised) {
            v.push(Violation {
                property: prop::LOSER_MONOTONICITY,
                detail: format!(
                    "losing bid {} starts winning after raising its price {} → {raised}",
                    qb.bid_ref, qb.price
                ),
            });
        }
    }
}

/// Whether repricing `bid` stalls the greedy at any of the probed prices
/// or on a coarse grid over `(0, cap]`.
///
/// A stall anywhere along the price axis means the bid's win region is not
/// the clean interval Lemma 1 assumes — bisection thresholds and deviation
/// probes can then disagree without any payment-rule defect. The grid
/// catches stall pockets the specific failing probes happened to miss.
fn stalls_anywhere(wdp: &Wdp, bid: BidRef, probed: &[f64], cap: f64) -> bool {
    let grid = (1..=16).map(|i| cap * f64::from(i) / 16.0);
    probed
        .iter()
        .copied()
        .chain(grid)
        .any(|p| deviation_outcome(wdp, bid, p) == DeviationOutcome::Stalls)
}

/// Relative closeness for cost comparisons between solvers whose only
/// legitimate difference is floating-point summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Copies `wdp` with one bid's price replaced.
fn reprice(wdp: &Wdp, bid: BidRef, price: f64) -> Wdp {
    let mut bids = wdp.bids().to_vec();
    for b in &mut bids {
        if b.bid_ref == bid {
            b.price = price;
        }
    }
    Wdp::new(wdp.horizon(), wdp.demand_per_round(), bids)
}

/// Prefixes `verify` messages with the horizon and tags them.
fn push_all(v: &mut Vec<Violation>, property: &'static str, h: u32, msgs: Vec<String>) {
    for m in msgs {
        v.push(Violation {
            property,
            detail: format!("T̂={h}: {m}"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, CertBid, CertInstance};
    use fl_auction::{LocalIterationModel, QualifyMode};

    fn hand_instance(bids: Vec<CertBid>, t: u32, k: u32) -> CertInstance {
        let n_clients = bids.iter().map(|b| b.client + 1).max().unwrap_or(0);
        CertInstance {
            seed: 0,
            shape: "hand".into(),
            note: String::new(),
            t,
            k,
            t_max: 60.0,
            model: LocalIterationModel::paper(),
            qualify: QualifyMode::Intent,
            clients: (0..n_clients).map(|_| (1.0, 1.0)).collect(),
            bids,
            online_budget: None,
        }
    }

    fn bid(client: u32, price: f64, a: u32, d: u32, c: u32) -> CertBid {
        CertBid {
            client,
            price,
            theta: 0.5,
            a,
            d,
            c,
        }
    }

    #[test]
    fn paper_worked_example_certifies_clean() {
        let ci = hand_instance(
            vec![
                bid(0, 2.0, 1, 2, 1),
                bid(1, 6.0, 2, 3, 2),
                bid(2, 5.0, 1, 3, 2),
            ],
            3,
            1,
        );
        let report = check(&ci);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.stats.feasible);
        assert!(report.stats.exact_proven >= 1);
    }

    #[test]
    fn invalid_instance_reports_not_panics() {
        let mut ci = hand_instance(vec![bid(0, 1.0, 1, 2, 2)], 2, 1);
        ci.bids[0].theta = 1.5;
        let report = check(&ci);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].property, prop::INVALID);
    }

    #[test]
    fn infeasible_instance_is_a_statistic_not_a_violation() {
        // One client, K = 2: no horizon is feasible for anyone.
        let ci = hand_instance(vec![bid(0, 1.0, 1, 2, 2)], 2, 2);
        let report = check(&ci);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(!report.stats.feasible);
    }

    #[test]
    fn greedy_suboptimal_instance_stays_within_the_certificate() {
        // The bnb test instance where greedy pays 3 and OPT is 2: a real
        // approximation gap that the H·ω bound must absorb.
        let ci = hand_instance(
            vec![
                bid(0, 1.0, 1, 1, 1),
                bid(1, 2.0, 1, 2, 2),
                bid(2, 10.0, 2, 2, 1),
            ],
            2,
            1,
        );
        let report = check(&ci);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.stats.exact_proven >= 1);
    }

    #[test]
    fn first_generated_seeds_certify_clean() {
        for seed in 0..8 {
            let report = check(&generate(seed));
            assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn online_knob_runs_the_stream_and_certifies_clean() {
        let mut ci = hand_instance(
            vec![
                bid(0, 2.0, 1, 2, 1),
                bid(1, 6.0, 2, 3, 2),
                bid(2, 5.0, 1, 3, 2),
            ],
            3,
            1,
        );
        for budget in [0.0, 9.0, 1000.0, f64::INFINITY] {
            ci.online_budget = Some(budget);
            let report = check(&ci);
            assert!(report.ok(), "B={budget}: {:?}", report.violations);
            assert_eq!(report.stats.online_streams, 1, "B={budget}");
            if budget > 0.0 && budget.is_finite() {
                assert!(report.stats.online_probes > 0, "B={budget}");
            }
        }
    }

    #[test]
    fn online_knob_survives_the_empty_arrival_prefix() {
        let mut ci = hand_instance(vec![], 3, 1);
        ci.clients = vec![(1.0, 1.0)];
        ci.online_budget = Some(12.0);
        let report = check(&ci);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.stats.online_streams, 1);
    }

    #[test]
    fn online_generated_seeds_certify_clean() {
        let mut streamed = 0;
        for seed in 0..40 {
            let ci = generate(seed);
            let report = check(&ci);
            assert!(report.ok(), "seed {seed}: {:?}", report.violations);
            streamed += report.stats.online_streams;
        }
        assert!(streamed > 0, "the online knob never fired in 40 seeds");
    }
}
