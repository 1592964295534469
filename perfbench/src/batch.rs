//! `afl_batch`: in-process `A_FL` over a seeded stream of ~10⁴-bid
//! instances.
//!
//! *Why:* precompute, winner determination and the dual certificate carry
//! the time here, with no wire or journal in the way. The sweep is pinned
//! to [`SweepStrategy::Sequential`]: the library default reads
//! `FL_THREADS` or the core count, which would make the set of pruned
//! horizons depend on the machine.
//!
//! The traced run recomposes `A_FL` from its public parts in the
//! program's order — [`SweepPrecomp::new`], then
//! [`SweepPrecomp::cost_lower_bound`] per candidate horizon against the
//! incumbent, then [`SweepPrecomp::qualify_at`], the
//! `Wdp::obviously_infeasible` check and [`WdpSolver::solve_wdp`] for the
//! survivors — timing each call, and
//! requires the recomposed outcome to equal `run_auction_with`'s bit for
//! bit.

use std::sync::Arc;
use std::time::Instant;

use fl_auction::{
    min_horizon, run_auction_with, serial, verify, AWinner, AuctionConfig, AuctionError,
    AuctionOutcome, Instance, SweepPrecomp, SweepStrategy, WdpSolver,
};
use fl_telemetry::{install_local, Recorder};
use fl_workload::{CostModel, WorkloadSpec};

use crate::gen::mix;
use crate::report::{Figure, Report};
use crate::stats::Samples;
use crate::trace::{TraceRows, Tracer};
use crate::{peak_rss_mb, Opts, SETUPS};

const CLIENTS: usize = 2_500;
const BIDS_PER_CLIENT: u32 = 4;
const ROUNDS: u32 = 64;
const PER_ROUND: u32 = 8;
/// Fig. 7's time-proportional cost model: a bid's claimed cost is its
/// per-round wall clock times a unit price drawn from this range.
const UNIT_PRICE: (f64, f64) = (0.5, 2.5);
/// Salt separating the measured stream from other generated inputs.
const STREAM_SALT: u64 = 0xa71;
/// Seed of the warm-up instance. It is the same for every run: solve
/// times vary several-fold between instances, and set-up time should
/// not vary with the seed.
const WARMUP_SEED: u64 = 0xa72;

/// The `index`-th instance of the stream seeded by `seed`.
///
/// # Errors
///
/// Workload generation failures.
pub fn instance(seed: u64, index: u64) -> Result<Instance, String> {
    let config = AuctionConfig::builder()
        .max_rounds(ROUNDS)
        .clients_per_round(PER_ROUND)
        .round_time_limit(60.0)
        .sweep_strategy(SweepStrategy::Sequential)
        .build()
        .map_err(|e| format!("afl_batch config: {e}"))?;
    WorkloadSpec::paper_default()
        .with_clients(CLIENTS)
        .with_bids_per_client(BIDS_PER_CLIENT)
        .with_config(config)
        .with_cost_model(CostModel::TimeProportional { unit: UNIT_PRICE })
        .generate(mix(seed, index))
        .map_err(|e| format!("afl_batch instance {index}: {e}"))
}

/// One `A_FL` solve recomposed from its public parts, with per-call
/// timings (seconds) and counts.
#[derive(Debug)]
pub struct Recomposed {
    /// The outcome the recomposition announces.
    pub outcome: Result<AuctionOutcome, AuctionError>,
    /// Wall time of the whole recomposed solve.
    pub total_s: f64,
    /// `SweepPrecomp::new`.
    pub build_s: f64,
    /// Every `cost_lower_bound` call.
    pub lower_bound_s: f64,
    /// Every `qualify_at` call.
    pub qualify_s: f64,
    /// Every `Wdp::obviously_infeasible` check.
    pub feasibility_s: f64,
    /// Every `AWinner::new().solve_wdp` call.
    pub solve_s: f64,
    /// The same WDPs solved again with the certificate disabled
    /// (outside `total_s`).
    pub greedy_s: f64,
    /// Horizons whose WDP was qualified and handed to the solver.
    pub solved: u64,
    /// Horizons pruned by the lower bound.
    pub pruned: u64,
    /// Qualified bids summed over the solved horizons.
    pub qualified_bids: u64,
    /// The library's `winner.lazy_refreshes` counter over the solves.
    pub lazy_refreshes: u64,
}

impl Recomposed {
    /// Time of the recomposed solve not inside any timed call: the outer
    /// loop's own bookkeeping.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s
            - self.build_s
            - self.lower_bound_s
            - self.qualify_s
            - self.feasibility_s
            - self.solve_s
    }
}

/// Recomposes `A_FL` (sequential sweep) on `instance`, recording one
/// span per call under a root span for `unit`.
pub fn recompose(instance: &Instance, tracer: &mut Tracer, unit: u64) -> Recomposed {
    let solver = AWinner::new();
    let recorder = Arc::new(Recorder::default());
    let guard = install_local(recorder.clone());
    let root = tracer.reserve();
    let start = Instant::now();
    let mut r = Recomposed {
        outcome: Err(AuctionError::Infeasible),
        total_s: 0.0,
        build_s: 0.0,
        lower_bound_s: 0.0,
        qualify_s: 0.0,
        feasibility_s: 0.0,
        solve_s: 0.0,
        greedy_s: 0.0,
        solved: 0,
        pruned: 0,
        qualified_bids: 0,
        lazy_refreshes: 0,
    };
    let mut solved_horizons = Vec::new();
    let precomp = match min_horizon(instance) {
        None => {
            r.outcome = Err(AuctionError::InvalidInstance(
                "no bids were submitted".into(),
            ));
            None
        }
        Some(t0) => {
            let (precomp, s) = tracer.time("preprocess.build", unit, root, || {
                SweepPrecomp::new(instance)
            });
            r.build_s = s;
            let mut best: Option<AuctionOutcome> = None;
            for horizon in t0..=instance.config().max_rounds() {
                let incumbent = best.as_ref().map_or(f64::INFINITY, |b| b.social_cost());
                let (bound, s) = tracer.time("preprocess.lower_bound", unit, root, || {
                    precomp.cost_lower_bound(horizon)
                });
                r.lower_bound_s += s;
                if bound > incumbent {
                    r.pruned += 1;
                    continue;
                }
                let (wdp, s) = tracer.time("preprocess.qualify", unit, root, || {
                    precomp.qualify_at(horizon)
                });
                r.qualify_s += s;
                let (infeasible, s) =
                    tracer.time("wdp.feasibility", unit, root, || wdp.obviously_infeasible());
                r.feasibility_s += s;
                if infeasible {
                    continue;
                }
                r.solved += 1;
                r.qualified_bids += wdp.bids().len() as u64;
                solved_horizons.push(horizon);
                let (result, s) =
                    tracer.time("winner.solve", unit, root, || solver.solve_wdp(&wdp));
                r.solve_s += s;
                // A solver error skips the horizon, as in `run_auction_with`.
                if let Ok(sol) = result {
                    // Exact `<`: on a cost tie the smaller horizon stays.
                    if best.as_ref().is_none_or(|b| sol.cost() < b.social_cost()) {
                        best = Some(AuctionOutcome::from_parts(horizon, sol));
                    }
                }
            }
            r.outcome = best.ok_or(AuctionError::Infeasible);
            Some(precomp)
        }
    };
    let end = Instant::now();
    tracer.close(root, "auction.afl", unit, 0, start, end);
    r.total_s = (end - start).as_secs_f64();
    drop(guard);
    r.lazy_refreshes = recorder
        .snapshot()
        .counters
        .get("winner.lazy_refreshes")
        .copied()
        .unwrap_or(0);
    // Certificate attribution: the same WDPs without the certificate,
    // outside the recomposed solve.
    if let Some(precomp) = precomp {
        let greedy = AWinner::new().without_certificate();
        for horizon in solved_horizons {
            let wdp = precomp.qualify_at(horizon);
            let (_, s) = tracer.time("winner.solve_without_certificate", unit, 0, || {
                greedy.solve_wdp(&wdp)
            });
            r.greedy_s += s;
        }
    }
    r
}

/// The mechanism's own checks on one outcome: announced outcome against
/// the instance, individual rationality and the dual certificate.
fn violations(instance: &Instance, outcome: &AuctionOutcome) -> Vec<String> {
    let mut v = verify::outcome_violations(instance, outcome);
    v.extend(verify::ir_violations(outcome.solution()));
    v.extend(verify::certificate_violations(outcome.solution()));
    v
}

/// One untraced, checked solve per instance.
struct Solved {
    bids: usize,
    seconds: f64,
    ok: bool,
}

fn solve_checked(instance: &Instance, index: u64, report: &mut Report) -> Solved {
    let start = Instant::now();
    let result = run_auction_with(instance, &AWinner::new());
    let seconds = start.elapsed().as_secs_f64();
    report.attempted += 1;
    if let Err(e) = &result {
        report.failed += 1;
        report.note(format!("instance {index} failed: {e}"));
    }
    for v in result.iter().flat_map(|o| violations(instance, o)) {
        report.violation(format!("instance {index}: {v}"));
    }
    Solved {
        bids: instance.num_bids(),
        seconds,
        ok: result.is_ok(),
    }
}

/// Solves instances of the stream until `seconds` of wall time have
/// passed; returns the per-instance results in stream order.
fn solve_for(opts: &Opts, seconds: f64, report: &mut Report) -> Result<Vec<Solved>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let index = out.len() as u64;
        let inst = instance(opts.seed ^ STREAM_SALT, index)?;
        out.push(solve_checked(&inst, index, report));
    }
    Ok(out)
}

fn latency_figures(solved: &[Solved], report: &mut Report) -> Result<(), String> {
    let mut solve_ms = Samples::new();
    let (mut bids, mut secs) = (0usize, 0.0f64);
    for s in solved {
        if s.ok {
            solve_ms.push(s.seconds * 1e3);
        } else {
            solve_ms.push_failed();
        }
        bids += s.bids;
        secs += s.seconds;
    }
    let n = solve_ms.len();
    let p50 = Figure::new(solve_ms.median()?, n);
    let p90 = Figure::new(solve_ms.percentile(0.9)?, n);
    let rate = Figure::new(bids as f64 / secs, n);
    report.detail("solve_p50_ms", "ms", p50);
    report.detail("solve_p90_ms", "ms", p90);
    report.detail("solved_bids_per_s", "1/s", rate);
    report.set("latency_p50_ms", p50);
    report.set("latency_tail_ms", p90);
    report.set("bids_per_s", rate);
    Ok(())
}

/// The end-to-end run: a warm-up solve as set-up (repeated on the fixed
/// warm-up instance), then checked solves for `--seconds`.
///
/// # Errors
///
/// Workload generation failures and undersized samples.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let warm = instance(WARMUP_SEED, 0)?;
    let mut setup = Samples::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let out = run_auction_with(&warm, &AWinner::new());
        setup.push(start.elapsed().as_secs_f64());
        std::hint::black_box(out.ok());
    }
    report.set("setup_s", Figure::new(setup.median()?, setup.len()));
    let solved = solve_for(opts, opts.seconds, report)?;
    latency_figures(&solved, report)?;
    report.set_ok_frac();
    report.set("peak_rss_mb", Figure::new(peak_rss_mb()?, 1));
    Ok(())
}

/// The traced pass: an untraced pass for `budget_s` seconds, then the
/// same instances recomposed under the trace.
///
/// # Errors
///
/// Workload generation failures and undersized samples.
pub fn run_traced(
    opts: &Opts,
    budget_s: f64,
    report: &mut Report,
) -> Result<(Tracer, TraceRows), String> {
    let untraced = solve_for(opts, budget_s, report)?;
    latency_figures(&untraced, report)?;
    let base = Instant::now();
    let mut tracer = Tracer::new(base, 0);
    let mut per_instance = Layers::default();
    for index in 0..untraced.len() {
        let inst = instance(opts.seed ^ STREAM_SALT, index as u64)?;
        let r = recompose(&inst, &mut tracer, index as u64);
        let same = match (&r.outcome, &run_auction_with(&inst, &AWinner::new())) {
            (Ok(a), Ok(b)) => serial::outcome_to_json(a) == serial::outcome_to_json(b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            report.violation(format!(
                "instance {index}: recomposed A_FL differs from run_auction_with"
            ));
        }
        per_instance.add(&r);
    }
    per_instance.report(report)?;
    let traced_s: f64 = per_instance.total_ms.sum() / 1e3;
    let untraced_s: f64 = untraced.iter().map(|s| s.seconds).sum();
    let unattributed_s: f64 = per_instance.unattributed_ms.sum() / 1e3;
    let rows = TraceRows {
        overhead_pct: (traced_s - untraced_s) / untraced_s * 100.0,
        unattributed_pct: unattributed_s / traced_s * 100.0,
        units: untraced.len(),
    };
    Ok((tracer, rows))
}

/// Per-instance layer figures of recomposed solves.
#[derive(Debug, Default)]
struct Layers {
    total_ms: Samples,
    build_ms: Samples,
    lower_bound_ms: Samples,
    qualify_ms: Samples,
    feasibility_ms: Samples,
    greedy_ms: Samples,
    certificate_ms: Samples,
    unattributed_ms: Samples,
    solved: u64,
    pruned: u64,
    qualified_bids: u64,
    winners: u64,
    lazy_refreshes: u64,
    with_certificate_s: f64,
    certificate_s: f64,
}

impl Layers {
    /// Adds one recomposed solve.
    fn add(&mut self, r: &Recomposed) {
        let certificate_s = r.solve_s - r.greedy_s;
        self.total_ms.push(r.total_s * 1e3);
        self.build_ms.push(r.build_s * 1e3);
        self.lower_bound_ms.push(r.lower_bound_s * 1e3);
        self.qualify_ms.push(r.qualify_s * 1e3);
        self.feasibility_ms.push(r.feasibility_s * 1e3);
        self.greedy_ms.push(r.greedy_s * 1e3);
        self.certificate_ms.push(certificate_s * 1e3);
        self.unattributed_ms.push(r.unattributed_s() * 1e3);
        self.solved += r.solved;
        self.pruned += r.pruned;
        self.qualified_bids += r.qualified_bids;
        self.winners += r
            .outcome
            .as_ref()
            .map_or(0, |o| o.solution().winners().len() as u64);
        self.lazy_refreshes += r.lazy_refreshes;
        self.with_certificate_s += r.solve_s;
        self.certificate_s += certificate_s;
    }

    /// Sets the `auction.*`, `preprocess.*` (batch use) and `winner.*`
    /// metrics: medians per solve, counts as means per solve.
    ///
    /// # Errors
    ///
    /// Fewer solves than a median needs.
    fn report(&self, report: &mut Report) -> Result<(), String> {
        let n = self.total_ms.len();
        let per = |count: u64| Figure::new(count as f64 / n.max(1) as f64, n);
        let med = |s: &Samples| s.median().map(|v| Figure::new(v, n));
        report.set("auction.horizons_solved", per(self.solved));
        report.set("auction.horizons_pruned", per(self.pruned));
        report.set(
            "auction.solved_ratio",
            Figure::new(
                self.solved as f64 / (self.solved + self.pruned).max(1) as f64,
                n,
            ),
        );
        let total = med(&self.total_ms)?;
        report.set(
            "auction.close_solve_us.p50",
            Figure::new(total.value * 1e3, n),
        );
        report.set("auction.unattributed_ms.p50", med(&self.unattributed_ms)?);
        report.set("preprocess.build_ms.p50", med(&self.build_ms)?);
        report.set("preprocess.lower_bound_ms.p50", med(&self.lower_bound_ms)?);
        report.set("preprocess.qualify_ms.p50", med(&self.qualify_ms)?);
        report.set("preprocess.qualified_bids", per(self.qualified_bids));
        report.set("wdp.feasibility_ms.p50", med(&self.feasibility_ms)?);
        report.set("winner.greedy_ms.p50", med(&self.greedy_ms)?);
        report.set("winner.certificate_ms.p50", med(&self.certificate_ms)?);
        report.set(
            "winner.certificate_share",
            Figure::new(self.certificate_s / self.with_certificate_s, n),
        );
        report.set("winner.winners", per(self.winners));
        report.set("winner.lazy_refreshes", per(self.lazy_refreshes));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_auction::{Bid, ClientProfile, Round, Window};

    /// A small instance with several feasible horizons, so the
    /// recomposition both prunes and solves.
    fn small(seed: u64) -> Instance {
        let config = AuctionConfig::builder()
            .max_rounds(12)
            .clients_per_round(2)
            .round_time_limit(60.0)
            .sweep_strategy(SweepStrategy::Sequential)
            .build()
            .expect("valid config");
        WorkloadSpec::paper_default()
            .with_clients(40)
            .with_bids_per_client(3)
            .with_config(config)
            .with_cost_model(CostModel::TimeProportional { unit: UNIT_PRICE })
            .generate(seed)
            .expect("valid spec")
    }

    #[test]
    fn recomposition_matches_run_auction_with_bit_for_bit() {
        let mut pruned = 0;
        for seed in 0..40 {
            let inst = small(seed);
            let mut tracer = Tracer::new(Instant::now(), 0);
            let r = recompose(&inst, &mut tracer, seed);
            let reference = run_auction_with(&inst, &AWinner::new());
            match (&r.outcome, &reference) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(serial::outcome_to_json(a), serial::outcome_to_json(b));
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("seed {seed}: recomposition and run_auction_with disagree"),
            }
            assert!(r.unattributed_s() >= 0.0);
            pruned += r.pruned;
        }
        assert!(pruned > 0, "the test instances never exercise pruning");
    }

    #[test]
    fn recomposition_spans_cover_the_solve() {
        let inst = small(3);
        let mut tracer = Tracer::new(Instant::now(), 0);
        let r = recompose(&inst, &mut tracer, 9);
        let roots: Vec<_> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "auction.afl")
            .collect();
        assert_eq!(roots.len(), 1);
        let children = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == roots[0].id)
            .count() as u64;
        // One build, one lower bound per horizon, one qualify and one
        // feasibility check per unpruned horizon, one solve per solved one.
        assert!(children >= 1 + r.pruned + 3 * r.solved);
        assert!(tracer.spans().iter().all(|s| s.unit == 9));
    }

    #[test]
    fn an_infeasible_instance_recomposes_to_infeasible() {
        let config = AuctionConfig::builder()
            .max_rounds(3)
            .clients_per_round(2)
            .sweep_strategy(SweepStrategy::Sequential)
            .build()
            .expect("valid config");
        let mut inst = Instance::new(config);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).expect("profile"));
        inst.add_bid(
            c,
            Bid::new(1.0, 0.5, Window::new(Round(1), Round(3)), 3).expect("bid"),
        )
        .expect("add bid");
        let mut tracer = Tracer::new(Instant::now(), 0);
        let r = recompose(&inst, &mut tracer, 0);
        assert_eq!(r.outcome, Err(AuctionError::Infeasible));
        assert_eq!(
            run_auction_with(&inst, &AWinner::new()),
            Err(AuctionError::Infeasible)
        );
    }
}
