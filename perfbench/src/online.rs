//! `online_stream`: `OnlineAuction::submit` over long seeded arrival
//! streams under a posted-price budget.
//!
//! *Why:* per-bid decision cost grows with stream length, and this path
//! uses `SweepPrecomp` incrementally where `afl_batch` builds it in batch,
//! so a change that helps one use and hurts the other shows. A few
//! percent of submissions are re-sent duplicates, as client retries
//! produce. The offline `A_FL` reference for the competitive ratio runs
//! outside the timed region.

use std::time::Instant;

use fl_auction::{
    run_auction_with, AWinner, AuctionConfig, Bid, ClientId, Instance, OnlineAuction,
    OnlineCounters, SweepPrecomp, SweepStrategy,
};
use fl_workload::WorkloadSpec;

use crate::gen::{mix, SplitMix};
use crate::report::{Figure, Report};
use crate::stats::Samples;
use crate::trace::{TraceRows, Tracer};
use crate::{peak_rss_mb, Opts, SETUPS};

const CLIENTS: usize = 10_000;
const BIDS_PER_CLIENT: u32 = 4;
const ROUNDS: u32 = 16;
const PER_ROUND: u32 = 5;
/// Posted price per scheduled round, as in `bench_suite`'s
/// `online_ingest` (mid-band of the paper's `[10, 50]` prices); the
/// budget is `π · K · T`.
const PRICE_PER_ROUND: f64 = 25.0;
/// Chance that a submission is followed by a re-send of a recent one.
const DUPLICATE_CHANCE: f64 = 0.03;
/// A re-send repeats one of this many most recent distinct submissions.
const RETRY_WINDOW: u64 = 8;
const STREAM_SALT: u64 = 0x0a1;
const DUPLICATE_SALT: u64 = 0x0a2;

fn config() -> Result<AuctionConfig, String> {
    AuctionConfig::builder()
        .max_rounds(ROUNDS)
        .clients_per_round(PER_ROUND)
        .round_time_limit(60.0)
        .sweep_strategy(SweepStrategy::Sequential)
        .build()
        .map_err(|e| format!("online config: {e}"))
}

fn budget() -> f64 {
    PRICE_PER_ROUND * f64::from(PER_ROUND) * f64::from(ROUNDS)
}

/// One arrival: the bid, and which earlier distinct arrival it re-sends.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Owning client.
    pub client: ClientId,
    /// The submitted bid.
    pub bid: Bid,
    /// `Some(j)` when this re-sends distinct arrival `j`.
    pub resend_of: Option<usize>,
}

/// Stream `index`: its instance (every distinct bid, client-major) and
/// the arrival sequence with re-sent duplicates mixed in.
///
/// # Errors
///
/// Workload generation failures.
pub fn stream(seed: u64, index: u64) -> Result<(Instance, Vec<Arrival>), String> {
    let instance = WorkloadSpec::paper_default()
        .with_clients(CLIENTS)
        .with_bids_per_client(BIDS_PER_CLIENT)
        .with_config(config()?)
        .generate(mix(seed ^ STREAM_SALT, index))
        .map_err(|e| format!("stream {index}: {e}"))?;
    let mut dice = SplitMix::new(mix(seed ^ DUPLICATE_SALT, index));
    let mut arrivals = Vec::with_capacity(instance.num_bids() * 104 / 100);
    let mut distinct: Vec<(ClientId, Bid)> = Vec::with_capacity(instance.num_bids());
    for (bid_ref, bid) in instance.iter_bids() {
        distinct.push((bid_ref.client, *bid));
        arrivals.push(Arrival {
            client: bid_ref.client,
            bid: *bid,
            resend_of: None,
        });
        if dice.next_f64() < DUPLICATE_CHANCE {
            let back = dice.below(RETRY_WINDOW.min(distinct.len() as u64)) as usize;
            let j = distinct.len() - 1 - back;
            arrivals.push(Arrival {
                client: distinct[j].0,
                bid: distinct[j].1,
                resend_of: Some(j),
            });
        }
    }
    Ok((instance, arrivals))
}

/// The program's set-up for one stream: open the auction and register
/// every client.
fn open(instance: &Instance) -> Result<OnlineAuction, String> {
    let mut online =
        OnlineAuction::new(config()?, budget()).map_err(|e| format!("online open: {e}"))?;
    for profile in instance.clients() {
        online.register_client(*profile);
    }
    Ok(online)
}

/// One stream fed through `submit`, with its per-call latencies.
struct Fed {
    /// Per-submit latency, microseconds, in arrival order.
    submit_us: Vec<f64>,
    /// Wall time of the whole feeding loop, seconds.
    loop_s: f64,
    counters: OnlineCounters,
    failed: u64,
    /// Process peak resident memory once this stream was decided, MiB.
    peak_rss_mb: f64,
}

/// Feeds every arrival and checks the stream's outputs: duplicates
/// replay their original decision, Σ payments ≤ budget, every payment
/// covers its bid's price, and the competitive ratio against offline
/// `A_FL` (solved outside the timed region) is noted.
fn feed(
    mut online: OnlineAuction,
    instance: &Instance,
    arrivals: &[Arrival],
    index: u64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Fed {
    let traced = tracer.is_some();
    let root = tracer.as_mut().map_or(0, |t| t.reserve());
    let mut submit_us = Vec::with_capacity(arrivals.len());
    let mut verdicts: Vec<(bool, u64, &'static str)> = Vec::with_capacity(instance.num_bids());
    let mut failed = 0;
    let start = Instant::now();
    for a in arrivals {
        let t0 = Instant::now();
        let decision = online.submit(a.client, a.bid);
        let t1 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            let id = t.reserve();
            t.close(id, "online.submit", index, root, t0, t1);
        }
        let d = match decision {
            Ok(d) => d,
            Err(e) => {
                failed += 1;
                submit_us.push(f64::INFINITY);
                if a.resend_of.is_none() {
                    verdicts.push((false, u64::MAX, "failed"));
                }
                report.note(format!("stream {index}: submit failed: {e}"));
                continue;
            }
        };
        submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        let verdict = (d.committed, d.payment.to_bits(), d.reason.as_str());
        match a.resend_of {
            None if d.duplicate => {
                report.violation(format!(
                    "stream {index}: a fresh bid replayed as a duplicate"
                ));
            }
            None => verdicts.push(verdict),
            Some(j) => {
                if !d.duplicate || verdicts.get(j) != Some(&verdict) {
                    report.violation(format!(
                        "stream {index}: a re-sent bid did not replay its decision"
                    ));
                }
            }
        }
    }
    let end = Instant::now();
    if let Some(t) = tracer {
        t.close(root, "online.stream", index, 0, start, end);
    }
    let outcome = online.outcome();
    let mut paid = 0.0f64;
    for w in outcome.winners() {
        paid += w.payment;
        if w.payment < w.price {
            report.violation(format!(
                "stream {index}: {} paid {} below its price {}",
                w.bid_ref, w.payment, w.price
            ));
        }
    }
    if paid > outcome.budget() || outcome.total_payment() > outcome.budget() {
        report.violation(format!(
            "stream {index}: payments {paid} exceed the budget {}",
            outcome.budget()
        ));
    }
    let resent = arrivals.iter().filter(|a| a.resend_of.is_some()).count() as u64;
    let counters = online.counters();
    if counters.duplicates != resent {
        report.violation(format!(
            "stream {index}: {} duplicates counted, {resent} re-sent",
            counters.duplicates
        ));
    }
    // The offline reference runs outside the timed region, and only in
    // the untraced pass: the traced pass repeats the same streams.
    if !traced {
        match run_auction_with(online.instance(), &AWinner::new()) {
            Ok(offline) => match outcome.competitive_ratio(offline.social_cost()) {
                Some(ratio) => report.note(format!(
                    "stream {index}: competitive ratio {ratio:.3} against offline A_FL (cost {:.3})",
                    offline.social_cost()
                )),
                None => report.note(format!("stream {index}: coverage incomplete, no ratio")),
            },
            Err(e) => report.note(format!("stream {index}: offline A_FL reference: {e}")),
        }
    }
    Fed {
        submit_us,
        loop_s: (end - start).as_secs_f64(),
        counters,
        failed,
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
    }
}

/// Feeds streams until `seconds` have passed.
fn feed_for(opts: &Opts, seconds: f64, report: &mut Report) -> Result<Vec<Fed>, String> {
    let start = Instant::now();
    let mut fed = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let index = fed.len() as u64;
        let (instance, arrivals) = stream(opts.seed, index)?;
        let online = open(&instance)?;
        fed.push(feed(online, &instance, &arrivals, index, None, report));
    }
    Ok(fed)
}

fn decision_figures(fed: &[Fed], report: &mut Report) -> Result<(), String> {
    let mut us = Samples::new();
    let mut secs = 0.0;
    for f in fed {
        for &v in &f.submit_us {
            us.push(v);
        }
        secs += f.submit_us.iter().filter(|v| v.is_finite()).sum::<f64>() / 1e6;
        report.attempted += f.submit_us.len() as u64;
        report.failed += f.failed;
    }
    let n = us.len();
    let p50 = us.median()?;
    let p99 = us.percentile(0.99)?;
    let rate = Figure::new(n as f64 / secs, n);
    report.detail("decision_p50_us", "us", Figure::new(p50, n));
    report.detail("decision_p99_us", "us", Figure::new(p99, n));
    report.detail("decided_bids_per_s", "1/s", rate);
    report.set("latency_p50_ms", Figure::new(p50 / 1e3, n));
    report.set("latency_tail_ms", Figure::new(p99 / 1e3, n));
    report.set("bids_per_s", rate);
    report.note(format!(
        "{} streams of ~{} submissions",
        fed.len(),
        n / fed.len().max(1)
    ));
    Ok(())
}

/// The end-to-end run: set-up (open plus client registration) measured
/// on stream 0, then streams for `--seconds`.
///
/// # Errors
///
/// Workload generation failures and undersized samples.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let mut setup = Samples::new();
    {
        let (first, _) = stream(opts.seed, 0)?;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let online = open(&first)?;
            setup.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(online);
        }
    }
    report.set("setup_s", Figure::new(setup.median()?, setup.len()));
    let fed = feed_for(opts, opts.seconds, report)?;
    decision_figures(&fed, report)?;
    report.set_ok_frac();
    // The first stream holds the program's whole working set; later
    // streams repeat it, while this benchmark's own latency buffers keep
    // growing with the number of streams the run gets through.
    report.set("peak_rss_mb", Figure::new(fed[0].peak_rss_mb, 1));
    Ok(())
}

/// The submissions of one tenth of a stream, in arrival order.
fn decile(us: &[f64], which: usize) -> &[f64] {
    let n = us.len();
    &us[n * which / 10..n * (which + 1) / 10]
}

/// The traced pass: streams untraced for `budget_s` seconds, the same
/// streams again with every `submit` as a span, and each stream fed to a
/// standalone `SweepPrecomp::empty` through `insert` and
/// `admission_horizon`.
///
/// # Errors
///
/// Workload generation failures and undersized samples.
pub fn run_traced(
    opts: &Opts,
    budget_s: f64,
    report: &mut Report,
) -> Result<(Tracer, TraceRows), String> {
    let untraced = feed_for(opts, budget_s, report)?;
    decision_figures(&untraced, report)?;
    let mut tracer = Tracer::new(Instant::now(), 0);
    let (mut first, mut last) = (Samples::new(), Samples::new());
    let (mut insert, mut insert_last, mut admission) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut sum = OnlineCounters::default();
    let (mut traced_s, mut untraced_s, mut loop_s) = (0.0, 0.0, 0.0);
    for (index, plain) in untraced.iter().enumerate() {
        let (instance, arrivals) = stream(opts.seed, index as u64)?;
        let online = open(&instance)?;
        let f = feed(
            online,
            &instance,
            &arrivals,
            index as u64,
            Some(&mut tracer),
            report,
        );
        let finite = |v: &[f64]| v.iter().filter(|x| x.is_finite()).sum::<f64>() / 1e6;
        traced_s += finite(&f.submit_us);
        untraced_s += finite(&plain.submit_us);
        loop_s += f.loop_s;
        for &v in decile(&f.submit_us, 0) {
            first.push(v);
        }
        for &v in decile(&f.submit_us, 9) {
            last.push(v);
        }
        let c = f.counters;
        sum.arrived += c.arrived;
        sum.duplicates += c.duplicates;
        sum.committed += c.committed;
        sum.rejected_unqualified += c.rejected_unqualified;
        sum.rejected_no_capacity += c.rejected_no_capacity;
        sum.rejected_price += c.rejected_price;
        sum.rejected_budget += c.rejected_budget;

        // The incremental precomp alone, on the same distinct arrivals.
        let unit = (1 << 50) + index as u64;
        let mut precomp = SweepPrecomp::empty(&config()?);
        let mut inserts = Vec::with_capacity(instance.num_bids());
        for (bid_ref, bid) in instance.iter_bids() {
            let round_time = instance.round_time(bid_ref);
            let ((), s) = tracer.time("preprocess.insert", unit, 0, || {
                precomp.insert(bid_ref, bid, round_time)
            });
            inserts.push(s * 1e6);
            let (h, s) = tracer.time("preprocess.admission_horizon", unit, 0, || {
                precomp.admission_horizon(bid_ref)
            });
            std::hint::black_box(h);
            admission.push(s * 1e6);
        }
        for &v in &inserts {
            insert.push(v);
        }
        for &v in decile(&inserts, 9) {
            insert_last.push(v);
        }
    }
    let streams = untraced.len();
    let med = |s: &Samples| s.median().map(|v| Figure::new(v, s.len()));
    let f0 = med(&first)?;
    let f9 = med(&last)?;
    report.set("online.submit_us.first_decile", f0);
    report.set("online.submit_us.last_decile", f9);
    report.set(
        "online.growth_ratio",
        Figure::new(f9.value / f0.value, streams),
    );
    report.set(
        "online.commit_ratio",
        Figure::new(sum.committed as f64 / sum.arrived.max(1) as f64, streams),
    );
    let per = |x: u64| Figure::new(x as f64 / streams as f64, streams);
    report.set("online.duplicates", per(sum.duplicates));
    report.set("online.rejected.unqualified", per(sum.rejected_unqualified));
    report.set("online.rejected.no_capacity", per(sum.rejected_no_capacity));
    report.set("online.rejected.price", per(sum.rejected_price));
    report.set("online.rejected.budget", per(sum.rejected_budget));
    report.set("preprocess.insert_us.p50", med(&insert)?);
    report.set("preprocess.insert_us.last_decile", med(&insert_last)?);
    report.set("preprocess.admission_us.p50", med(&admission)?);
    let rows = TraceRows {
        overhead_pct: (traced_s - untraced_s) / untraced_s * 100.0,
        unattributed_pct: (loop_s - traced_s) / loop_s * 100.0,
        units: streams,
    };
    Ok((tracer, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_resend_a_few_percent() {
        let (inst, a) = stream(3, 0).expect("stream");
        let (_, b) = stream(3, 0).expect("stream");
        assert_eq!(a.len(), b.len());
        let resent = a.iter().filter(|x| x.resend_of.is_some()).count();
        assert_eq!(a.len(), inst.num_bids() + resent);
        let share = resent as f64 / inst.num_bids() as f64;
        assert!((0.02..0.04).contains(&share), "re-sent share {share}");
        let (_, other) = stream(4, 0).expect("stream");
        assert_ne!(
            a.iter()
                .map(|x| x.bid.price().to_bits())
                .collect::<Vec<_>>(),
            other
                .iter()
                .map(|x| x.bid.price().to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn deciles_split_a_stream_in_order() {
        let us: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(decile(&us, 0), &us[..10]);
        assert_eq!(decile(&us, 9), &us[90..]);
    }
}
