//! `service_sealed`: sealed-bid sessions against a live `flpd` daemon on
//! loopback, journal in `Strict` mode on the run directory's disk.
//!
//! *Why:* this is the only workload on the client → frame → wire →
//! session → journal path, where the fsync dominates each write, so
//! journal, lock and codec changes show here and nowhere else. Reads sit
//! beside journaled writes, so a lock change that speeds one at the
//! other's cost shows.
//!
//! Load comes from this process: [`CONNECTIONS`] client threads, one
//! connection each. The open-loop phase offers sessions on a seeded
//! Poisson schedule well below saturation and times every session from
//! when it was *due*, not from when a connection freed up. A closed-loop
//! phase on a fresh daemon measures capacity.
//!
//! The daemon refuses every `open` once it holds `Limits::max_sessions`
//! lifetime sessions (committed ones are never evicted). The run is sized
//! for its metrics alone: if it crosses that cap, the refusals count as
//! failures and as sessions that miss every latency limit.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fl_auction::{run_auction, serial, AuctionError, ClientId, Instance};
use fl_flpd::client::PaymentReply;
use fl_flpd::journal::{encode_record_traced, CloseResult, Journal, Record};
use fl_flpd::session::{HandleResult, ServerCore};
use fl_flpd::wire::{self, BidParams, OpenParams, Request};
use fl_flpd::{
    Client, ClientConfig, ClientError, CloseReply, Daemon, DaemonConfig, Durability, Limits,
};
use fl_telemetry::frame;
use fl_telemetry::json::{self, Json};
use fl_workload::{ArrivalProcess, WorkloadSpec};

use crate::gen::mix;
use crate::report::{Figure, Report};
use crate::stats::Samples;
use crate::trace::{TraceRows, Tracer};
use crate::{peak_rss_mb, Opts, SETUPS};

/// Client threads, each with one connection (≤ `nproc`, asserted).
pub const CONNECTIONS: usize = 2;
/// FL clients per session, each with [`BIDS_PER_CLIENT`] bids.
const CLIENTS_PER_SESSION: usize = 8;
const BIDS_PER_CLIENT: u32 = 2;
/// Session horizon `T` and demand `K`. At `K = 2` about a quarter of
/// 8-client sessions are infeasible; at `K = 1` almost all commit, so
/// the payment reads exercise real outcomes.
const ROUNDS: u32 = 8;
const PER_ROUND: u32 = 1;
/// Offered load of the open loop, sessions per second: well below
/// saturation even when the disk is slow — two connections complete
/// 100–280 sessions/s closed-loop on a 2-core VM, depending on the
/// host's load.
pub const RATE_PER_S: f64 = 25.0;
/// Length of the closed-loop capacity phase, seconds (at most 30 % of
/// `--seconds`); the rest of the run is the open loop.
const CAPACITY_S: f64 = 3.0;
/// Shortest open loop of a traced pass, seconds.
const MIN_TRACED_S: f64 = 6.0;
/// Pings that measure the idle round-trip floor.
const PINGS: usize = 200;
/// Salts for the open-loop sessions, the capacity sessions and arrivals.
const OPEN_SALT: u64 = 0x5e1;
const CAPACITY_SALT: u64 = 0x5e2;
const ARRIVAL_SALT: u64 = 0x5e3;

/// The `open` parameters of every session: the paper's local-iteration
/// model `T_l(θ) = ⌊10(1−θ)⌋`.
fn open_params() -> OpenParams {
    OpenParams {
        param: 10.0,
        ..OpenParams::new(0, ROUNDS, PER_ROUND, 60.0)
    }
}

/// The generated contents of session `index` of the stream `seed`.
///
/// # Errors
///
/// Configuration or workload generation failures.
pub fn session_instance(seed: u64, index: u64) -> Result<Instance, String> {
    let config = open_params()
        .to_config()
        .map_err(|e| format!("session config: {e}"))?;
    WorkloadSpec::paper_default()
        .with_clients(CLIENTS_PER_SESSION)
        .with_bids_per_client(BIDS_PER_CLIENT)
        .with_config(config)
        .generate(mix(seed, index))
        .map_err(|e| format!("session {index}: {e}"))
}

/// One wire operation of a session, in the order a session sends them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `open`.
    Open,
    /// `client` (register one FL client).
    Client {
        /// Per-round computation time.
        t_cmp: f64,
        /// Per-round communication time.
        t_com: f64,
    },
    /// `bid`.
    Bid(BidParams),
    /// `close` (solve and commit).
    Close,
    /// `outcome` query.
    Outcome,
    /// `payment` query for one client.
    Payment(u32),
}

/// How an operation's latency is classed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `open`.
    Open,
    /// `client` and `bid`: journaled writes.
    Write,
    /// `close`.
    Close,
    /// `outcome` and `payment`.
    Read,
}

impl Op {
    /// The latency class.
    pub fn class(self) -> Class {
        match self {
            Op::Open => Class::Open,
            Op::Client { .. } | Op::Bid(_) => Class::Write,
            Op::Close => Class::Close,
            Op::Outcome | Op::Payment(_) => Class::Read,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::Open => "client.open",
            Op::Client { .. } => "client.add_client",
            Op::Bid(_) => "client.add_bid",
            Op::Close => "client.close",
            Op::Outcome => "client.outcome",
            Op::Payment(_) => "client.payments",
        }
    }

    /// The wire request, with the session's handle and mutation `seq`.
    fn request(self, session: &str, seq: u64, nonce: u64) -> Request {
        let session = session.to_string();
        match self {
            Op::Open => Request::Open(OpenParams {
                nonce,
                ..open_params()
            }),
            Op::Client { t_cmp, t_com } => Request::Client {
                session,
                seq,
                t_cmp,
                t_com,
            },
            Op::Bid(bid) => Request::Bid { session, seq, bid },
            Op::Close => Request::Close { session, seq },
            Op::Outcome => Request::Outcome { session },
            Op::Payment(client) => Request::Payment { session, client },
        }
    }

    /// The journal record the daemon appends for this operation, if any
    /// (`close` appends its commit record too, once solved).
    fn record(self, session: &str, seq: u64, nonce: u64) -> Option<Record> {
        let session = session.to_string();
        Some(match self {
            Op::Open => Record::Open {
                session,
                params: OpenParams {
                    nonce,
                    ..open_params()
                },
            },
            Op::Client { t_cmp, t_com } => Record::Client {
                session,
                seq,
                t_cmp,
                t_com,
            },
            Op::Bid(b) => Record::Bid {
                session,
                seq,
                client: b.client,
                price: b.price,
                theta: b.theta,
                a: b.a,
                d: b.d,
                c: b.c,
            },
            Op::Close => Record::CloseBegin { session, seq },
            Op::Outcome | Op::Payment(_) => return None,
        })
    }
}

/// Every operation of one session: open, each client followed by its
/// bids, close, the outcome, then every client's payment.
pub fn ops(instance: &Instance) -> Vec<Op> {
    let mut out = vec![Op::Open];
    for (c, profile) in instance.clients().iter().enumerate() {
        out.push(Op::Client {
            t_cmp: profile.compute_time(),
            t_com: profile.comm_time(),
        });
        for bid in instance.bids_of(ClientId(c as u32)) {
            out.push(Op::Bid(BidParams {
                client: c as u32,
                price: bid.price(),
                theta: bid.accuracy(),
                a: bid.window().start().0,
                d: bid.window().end().0,
                c: bid.rounds(),
            }));
        }
    }
    out.push(Op::Close);
    out.push(Op::Outcome);
    out.extend((0..instance.num_clients() as u32).map(Op::Payment));
    out
}

/// The replies of one session's operations.
#[derive(Debug, Default)]
pub struct Replies {
    /// Index the daemon gave each registered client, in order.
    pub clients: Vec<u32>,
    /// The `close` decision.
    pub close: Option<CloseReply>,
    /// The `outcome` query.
    pub outcome: Option<CloseReply>,
    /// Every client's payments, in client order.
    pub payments: Vec<PaymentReply>,
}

/// One session as the load generator saw it.
#[derive(Debug)]
pub struct SessionRun {
    /// Position in the session stream.
    pub index: usize,
    /// Due time → last reply, seconds; `None` when the session failed.
    pub latency_s: Option<f64>,
    /// Start − due: how late the generator ran, seconds.
    pub lateness_s: f64,
    /// Per-call latency, seconds, by class (`+∞` for the failed call).
    pub calls: Vec<(Class, f64)>,
    /// Why the session failed, if it did.
    pub failure: Option<String>,
    /// What the daemon answered.
    pub replies: Replies,
}

/// Runs one session over `client`, due at `due`. With a tracer, every
/// client call becomes a span under a session span, all sharing the
/// session's index.
pub fn drive(
    client: &mut Client,
    instance: &Instance,
    index: usize,
    due: Instant,
    mut tracer: Option<&mut Tracer>,
) -> SessionRun {
    let start = Instant::now();
    let unit = index as u64;
    let session_span = tracer.as_mut().map_or(0, |t| t.reserve());
    if let Some(t) = tracer.as_mut() {
        let id = t.reserve();
        t.close(
            id,
            "generator.wait",
            unit,
            session_span,
            due.min(start),
            start,
        );
    }
    let mut run = SessionRun {
        index,
        latency_s: None,
        lateness_s: start.saturating_duration_since(due).as_secs_f64(),
        calls: Vec::new(),
        failure: None,
        replies: Replies::default(),
    };
    let mut sid = String::new();
    for op in ops(instance) {
        let t0 = Instant::now();
        let result = call(client, &sid, op, &mut run.replies);
        let t1 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            let id = t.reserve();
            t.close(id, op.span(), unit, session_span, t0, t1);
        }
        match result {
            Ok(opened) => {
                if let Some(opened) = opened {
                    sid = opened;
                }
                run.calls.push((op.class(), (t1 - t0).as_secs_f64()));
            }
            Err(e) => {
                run.calls.push((op.class(), f64::INFINITY));
                run.failure = Some(format!("{}: {e}", op.span()));
                break;
            }
        }
    }
    let end = Instant::now();
    if let Some(t) = tracer {
        t.close(session_span, "session", unit, 0, due.min(start), end);
    }
    if run.failure.is_none() {
        run.latency_s = Some(end.saturating_duration_since(due).as_secs_f64());
    }
    run
}

/// One client call; returns the session handle for `open`.
fn call(
    client: &mut Client,
    sid: &str,
    op: Op,
    replies: &mut Replies,
) -> Result<Option<String>, ClientError> {
    match op {
        Op::Open => return client.open(open_params()).map(Some),
        Op::Client { t_cmp, t_com } => replies.clients.push(client.add_client(sid, t_cmp, t_com)?),
        Op::Bid(bid) => {
            client.add_bid(sid, bid)?;
        }
        Op::Close => replies.close = Some(client.close(sid)?),
        Op::Outcome => replies.outcome = Some(client.outcome(sid)?),
        Op::Payment(c) => replies.payments.push(client.payments(sid, c)?),
    }
    Ok(None)
}

/// The outcome a correct daemon commits for `instance`, or `None` when
/// the instance is infeasible and the epoch must abort.
fn expected(instance: &Instance) -> Result<Option<fl_auction::AuctionOutcome>, String> {
    match run_auction(instance) {
        Ok(outcome) => Ok(Some(outcome)),
        Err(AuctionError::Infeasible) => Ok(None),
        Err(e) => Err(format!("local run_auction failed: {e}")),
    }
}

/// Checks one completed session's replies against a local `run_auction`
/// of the same instance: the committed outcome bit for bit, the outcome
/// query, and every payment reply with the daemon's own fold order.
pub fn check(instance: &Instance, replies: &Replies) -> Vec<String> {
    let mut bad = Vec::new();
    let want: Vec<u32> = (0..instance.num_clients() as u32).collect();
    if replies.clients != want {
        bad.push(format!("client indices {:?}", replies.clients));
    }
    let local = match expected(instance) {
        Ok(local) => local,
        Err(e) => return vec![e],
    };
    let decision = |reply: &Option<CloseReply>| match reply {
        Some(CloseReply::Committed(o)) => Some(Some(serial::outcome_to_json(o))),
        Some(CloseReply::Aborted(_)) => Some(None),
        None => None,
    };
    let want_json = local.as_ref().map(serial::outcome_to_json);
    for (what, reply) in [("close", &replies.close), ("outcome", &replies.outcome)] {
        if decision(reply) != Some(want_json.clone()) {
            bad.push(format!("{what} reply differs from local run_auction"));
        }
    }
    for (c, reply) in replies.payments.iter().enumerate() {
        let ok = match (&local, reply) {
            (Some(outcome), PaymentReply::Committed { total, per_bid }) => {
                let mut want_total = 0.0f64;
                let mut want_bids = Vec::new();
                for w in outcome.solution().winners() {
                    if w.bid_ref.client.0 == c as u32 {
                        want_total += w.payment;
                        want_bids.push((w.bid_ref.bid, w.payment.to_bits()));
                    }
                }
                let got: Vec<(u32, u64)> = per_bid.iter().map(|&(b, p)| (b, p.to_bits())).collect();
                total.to_bits() == want_total.to_bits() && got == want_bids
            }
            (None, PaymentReply::Aborted(_)) => true,
            _ => false,
        };
        if !ok {
            bad.push(format!("payment reply of client {c} differs"));
        }
    }
    if replies.payments.len() != instance.num_clients() {
        bad.push("missing payment replies".into());
    }
    bad
}

/// A daemon with its journal under `dir` and connected clients.
struct Service {
    daemon: Daemon,
    clients: Vec<Client>,
}

/// Starts a daemon (`Strict` journal under `dir`) and connects
/// [`CONNECTIONS`] clients: the program's set-up.
fn start(dir: &Path, seed: u64) -> Result<Service, String> {
    let daemon = Daemon::start(DaemonConfig::new(dir.join("wal.jsonl")))
        .map_err(|e| format!("daemon start: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|w| {
            let mut client = Client::new(
                daemon.addr(),
                ClientConfig {
                    seed: mix(seed, w as u64),
                    ..ClientConfig::default()
                },
            );
            client.ping().map(|()| client)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Service { daemon, clients })
}

/// Sessions of one phase, with their instances.
struct Phase {
    runs: Vec<SessionRun>,
    instances: Vec<Instance>,
    retries: u64,
    tracer: Option<Tracer>,
    elapsed_s: f64,
}

/// The open loop: session `i` is due at `offsets[i]` after `base`; the
/// worker that takes it sleeps until then, and a session that has to wait
/// for a free connection is timed from its due time all the same.
fn open_loop(
    clients: Vec<Client>,
    instances: Vec<Instance>,
    offsets: &[Duration],
    traced: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    let base = Instant::now() + Duration::from_millis(5);
    let workers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(w, mut client)| {
                let (next, instances) = (&next, &instances);
                s.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(base, (w as u64 + 1) << 40));
                    let mut runs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= instances.len() {
                            break;
                        }
                        let due = base + offsets[i];
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        runs.push(drive(&mut client, &instances[i], i, due, tracer.as_mut()));
                    }
                    (runs, tracer, client.retries())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let elapsed_s = base.elapsed().as_secs_f64();
    merge(workers, instances, elapsed_s)
}

/// The closed loop: both connections run sessions back to back until
/// `seconds` have passed.
fn closed_loop(clients: Vec<Client>, seed: u64, seconds: f64) -> Result<Phase, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    type Worker = Result<(Vec<(SessionRun, Instance)>, u64), String>;
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                s.spawn(move || -> Worker {
                    let mut runs = Vec::new();
                    while Instant::now() < stop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let inst = session_instance(seed, i as u64)?;
                        let run = drive(&mut client, &inst, i, Instant::now(), None);
                        runs.push((run, inst));
                    }
                    Ok((runs, client.retries()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut pairs = Vec::new();
    let mut retries = 0;
    for w in workers {
        let (runs, r) = w?;
        pairs.extend(runs);
        retries += r;
    }
    pairs.sort_by_key(|(run, _)| run.index);
    let (runs, instances): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    Ok(Phase {
        runs,
        instances,
        retries,
        tracer: None,
        elapsed_s,
    })
}

type WorkerOut = (Vec<SessionRun>, Option<Tracer>, u64);

fn merge(workers: Vec<WorkerOut>, instances: Vec<Instance>, elapsed_s: f64) -> Phase {
    let mut runs = Vec::new();
    let mut tracer: Option<Tracer> = None;
    let mut retries = 0;
    for (r, t, n) in workers {
        runs.extend(r);
        retries += n;
        if let Some(t) = t {
            match tracer.as_mut() {
                Some(all) => all.absorb(t),
                None => tracer = Some(t),
            }
        }
    }
    runs.sort_by_key(|r| r.index);
    Phase {
        runs,
        instances,
        retries,
        tracer,
        elapsed_s,
    }
}

/// Latency samples of a phase, in milliseconds.
#[derive(Debug, Default)]
struct Latencies {
    session: Samples,
    write: Samples,
    close: Samples,
    read: Samples,
    lateness: Samples,
}

impl Latencies {
    fn of(phase: &Phase) -> Latencies {
        let mut l = Latencies::default();
        for run in &phase.runs {
            match run.latency_s {
                Some(s) => l.session.push(s * 1e3),
                None => l.session.push_failed(),
            }
            l.lateness.push(run.lateness_s * 1e3);
            for &(class, s) in &run.calls {
                let ms = s * 1e3;
                match class {
                    Class::Write => l.write.push(ms),
                    Class::Close => l.close.push(ms),
                    Class::Read => l.read.push(ms),
                    Class::Open => {}
                }
            }
        }
        l
    }
}

/// Counts failures and checks every completed session's outputs.
fn account(phase: &Phase, report: &mut Report) {
    for (run, inst) in phase.runs.iter().zip(&phase.instances) {
        report.attempted += 1;
        if let Some(why) = &run.failure {
            report.failed += 1;
            if report.failed <= 5 {
                report.note(format!("session {} failed: {why}", run.index));
            }
            continue;
        }
        for v in check(inst, &run.replies) {
            report.violation(format!("session {}: {v}", run.index));
        }
    }
}

/// Lengths of the open-loop and capacity phases within `seconds`.
fn phases(seconds: f64) -> (f64, f64) {
    let capacity = CAPACITY_S.min(0.3 * seconds);
    (seconds - capacity, capacity)
}

/// The open-loop schedule of one run: arrival offsets of the sessions
/// due within `seconds`, and their generated contents.
fn schedule(seed: u64, seconds: f64) -> Result<(Vec<Duration>, Vec<Instance>), String> {
    let expected = (RATE_PER_S * seconds).ceil() as usize;
    let mut offsets = ArrivalProcess::Poisson {
        rate_per_sec: RATE_PER_S,
    }
    .schedule(mix(seed, ARRIVAL_SALT), expected * 2 + 64);
    offsets.retain(|d| d.as_secs_f64() < seconds);
    let instances = (0..offsets.len() as u64)
        .map(|i| session_instance(seed ^ OPEN_SALT, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((offsets, instances))
}

fn stats_doc(daemon: &Daemon, seed: u64) -> Result<Json, String> {
    let mut client = Client::new(
        daemon.addr(),
        ClientConfig {
            seed: mix(seed, 99),
            ..ClientConfig::default()
        },
    );
    client.stats_doc().map_err(|e| format!("stats: {e}"))
}

fn live_counter(doc: &Json, name: &str) -> u64 {
    doc.get("live")
        .and_then(|l| l.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A quantile of one of the daemon's live histograms, in microseconds,
/// with the window size behind it.
fn live_quantile(doc: &Json, hist: &str, q: &str) -> Result<Figure, String> {
    let h = doc
        .get("live")
        .and_then(|l| l.get("hists"))
        .and_then(|hs| hs.get(hist))
        .ok_or_else(|| format!("daemon stats lack {hist}"))?;
    let value = h.get(q).and_then(Json::as_f64).unwrap_or(0.0);
    let window = h.get("window").and_then(Json::as_u64).unwrap_or(0) as usize;
    Ok(Figure::new(value * 1e3, window))
}

/// Prints the daemon-side failure counters the run must not hide.
fn note_refusals(report: &mut Report, doc: &Json, retries: u64) {
    report.detail(
        "daemon.shed",
        "count",
        Figure::new(
            doc.get("shed").and_then(Json::as_u64).unwrap_or(0) as f64,
            1,
        ),
    );
    report.detail(
        "service.err.overloaded",
        "count",
        Figure::new(live_counter(doc, "service.err.overloaded") as f64, 1),
    );
    report.detail("client.retries", "count", Figure::new(retries as f64, 1));
}

fn fs_note(dir: &Path) -> String {
    let fs = crate::fs_type(dir).unwrap_or_else(|| "unknown".into());
    format!("journal directory filesystem: {fs}")
}

/// The end-to-end run: repeated set-up, the open loop, then capacity on
/// a fresh daemon.
///
/// # Errors
///
/// Set-up failures and undersized samples.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    report.note(fs_note(&opts.dir));
    let (open_s, capacity_s) = phases(opts.seconds);
    let (offsets, instances) = schedule(opts.seed, open_s)?;

    let mut setup = Samples::new();
    let mut service = None;
    for k in 0..SETUPS {
        let dir = opts.dir.join(format!("setup-{k}"));
        let t0 = Instant::now();
        let started = start(&dir, opts.seed)?;
        setup.push(t0.elapsed().as_secs_f64());
        if let Some(mut previous) = service.replace(started) {
            let Service { daemon, clients } = &mut previous;
            clients.clear();
            daemon.stop();
        }
    }
    report.set("setup_s", Figure::new(setup.median()?, setup.len()));
    let Service {
        mut daemon,
        clients,
    } = service.expect("at least one set-up");

    let open = open_loop(clients, instances, &offsets, false);
    let lat = Latencies::of(&open);
    let open_doc = stats_doc(&daemon, opts.seed)?;
    daemon.stop();
    account(&open, report);
    // Peak memory of the open loop, whose session count the seed fixes;
    // the capacity phase's count follows the machine's speed.
    report.set("peak_rss_mb", Figure::new(peak_rss_mb()?, 1));

    let fresh = start(&opts.dir.join("capacity"), opts.seed)?;
    let cap = closed_loop(fresh.clients, opts.seed ^ CAPACITY_SALT, capacity_s)?;
    let cap_doc = stats_doc(&fresh.daemon, opts.seed)?;
    drop(fresh.daemon);
    account(&cap, report);

    let n = lat.session.len();
    let p50 = Figure::new(lat.session.median()?, n);
    let p90 = Figure::new(lat.session.percentile(0.9)?, n);
    report.detail("session_p50_ms", "ms", p50);
    report.detail("session_p90_ms", "ms", p90);
    for (name, s, q) in [
        ("write_ack_p50_ms", &lat.write, 0.5),
        ("write_ack_p99_ms", &lat.write, 0.99),
        ("close_p50_ms", &lat.close, 0.5),
        ("close_p90_ms", &lat.close, 0.9),
        ("read_p99_ms", &lat.read, 0.99),
    ] {
        report.detail(name, "ms", Figure::new(s.percentile(q)?, s.len()));
    }
    let completed = cap.runs.iter().filter(|r| r.failure.is_none()).count();
    let bids: usize = cap
        .runs
        .iter()
        .zip(&cap.instances)
        .filter(|(r, _)| r.failure.is_none())
        .map(|(_, i)| i.num_bids())
        .sum();
    report.detail(
        "capacity_sessions_per_s",
        "1/s",
        Figure::new(completed as f64 / cap.elapsed_s, cap.runs.len()),
    );
    let rate = Figure::new(bids as f64 / cap.elapsed_s, cap.runs.len());
    report.detail("capacity_bids_per_s", "1/s", rate);
    report.detail(
        "generator_lateness_p50_ms",
        "ms",
        Figure::new(lat.lateness.median()?, lat.lateness.len()),
    );
    let late_max = lat.lateness.values().iter().copied().fold(0.0, f64::max);
    report.detail("generator_lateness_max_ms", "ms", Figure::new(late_max, n));
    report.note(format!(
        "open loop: {} sessions offered at {RATE_PER_S}/s over {open_s:.1} s; capacity: {} sessions over {:.2} s",
        open.runs.len(),
        cap.runs.len(),
        cap.elapsed_s
    ));
    note_refusals(report, &open_doc, open.retries);
    report.note(format!(
        "capacity daemon: shed {}, overloaded {}, client retries {}",
        cap_doc.get("shed").and_then(Json::as_u64).unwrap_or(0),
        live_counter(&cap_doc, "service.err.overloaded"),
        cap.retries
    ));

    report.set_ok_frac();
    report.set("latency_p50_ms", p50);
    report.set("latency_tail_ms", p90);
    report.set("bids_per_s", rate);
    Ok(())
}

/// The traced pass: the open loop untraced on one daemon for `budget_s`
/// seconds, then the same schedule traced on a fresh daemon, then an
/// unloaded in-process replay of the traced sessions' payloads through
/// each layer.
///
/// # Errors
///
/// Set-up failures and undersized samples.
pub fn run_traced(
    opts: &Opts,
    budget_s: f64,
    report: &mut Report,
) -> Result<(Tracer, TraceRows), String> {
    report.note(fs_note(&opts.dir));
    // Enough sessions for the p99 of the read figures (nine reads per
    // session, a thousand reads needed).
    let (offsets, instances) = schedule(opts.seed, budget_s.max(MIN_TRACED_S))?;

    let plain = start(&opts.dir.join("untraced"), opts.seed)?;
    let untraced = open_loop(plain.clients, instances.clone(), &offsets, false);
    drop(plain.daemon);
    account(&untraced, report);
    let base_lat = Latencies::of(&untraced);

    let traced_svc = start(&opts.dir.join("traced"), opts.seed)?;
    let mut traced = open_loop(traced_svc.clients, instances, &offsets, true);
    let doc = stats_doc(&traced_svc.daemon, opts.seed)?;
    let mut pinger = Client::new(
        traced_svc.daemon.addr(),
        ClientConfig {
            seed: mix(opts.seed, 98),
            ..ClientConfig::default()
        },
    );
    let mut ping_us = Samples::new();
    for _ in 0..PINGS {
        let t0 = Instant::now();
        pinger.ping().map_err(|e| format!("ping: {e}"))?;
        ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(pinger);
    drop(traced_svc.daemon);
    account(&traced, report);
    let lat = Latencies::of(&traced);
    let mut tracer = traced.tracer.take().expect("traced phase records spans");

    // End-to-end figures of both passes, then the trace's own rows.
    let n = lat.session.len();
    let untraced_p50 = base_lat.session.median()?;
    let traced_p50 = lat.session.median()?;
    report.detail("session_p50_ms", "ms", Figure::new(untraced_p50, n));
    report.detail("traced.session_p50_ms", "ms", Figure::new(traced_p50, n));
    let own = tracer.self_ns();
    let (mut session_ns, mut unattributed_ns) = (0u64, 0u64);
    for s in tracer.spans().iter().filter(|s| s.name == "session") {
        session_ns += s.dur_ns();
        unattributed_ns += own[&s.id];
    }
    let rows = TraceRows {
        overhead_pct: (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        unattributed_pct: unattributed_ns as f64 / session_ns.max(1) as f64 * 100.0,
        units: n,
    };

    // Client layer.
    let calls: usize = traced.runs.iter().map(|r| r.calls.len()).sum();
    report.set("client.calls", Figure::new(calls as f64, n));
    report.set("client.retries", Figure::new(traced.retries as f64, n));
    let ping = Figure::new(ping_us.median()?, ping_us.len());
    report.set("client.ping_us.p50", ping);

    // Daemon layer, from its own stats document.
    let write = live_quantile(&doc, "service.cmd.bid_ms", "p50")?;
    report.set("daemon.server_us.write.p50", write);
    report.set(
        "daemon.server_us.write.p99",
        live_quantile(&doc, "service.cmd.bid_ms", "p99")?,
    );
    let read99 = live_quantile(&doc, "service.cmd.payment_ms", "p99")?;
    report.set("daemon.server_us.read.p99", read99);
    let client_write = lat.write.median()? * 1e3;
    report.set(
        "daemon.queue_us.write.p50",
        Figure::new(client_write - write.value - ping.value, lat.write.len()),
    );
    report.set(
        "daemon.shed",
        Figure::new(
            doc.get("shed").and_then(Json::as_u64).unwrap_or(0) as f64,
            1,
        ),
    );
    report.set(
        "daemon.err.overloaded",
        Figure::new(live_counter(&doc, "service.err.overloaded") as f64, 1),
    );
    note_refusals(report, &doc, traced.retries);

    // Unloaded replay of the same sessions, one layer at a time.
    let done: Vec<&Instance> = traced
        .runs
        .iter()
        .zip(&traced.instances)
        .filter(|(r, _)| r.failure.is_none())
        .map(|(_, i)| i)
        .collect();
    let replayed = replay(&done, &opts.dir.join("replay"), opts.seed, &mut tracer)?;
    replayed.report(report)?;
    let handle_read99 = replayed.handle_read.percentile(0.99)?;
    report.set(
        "session.lock_wait_us.read.p99",
        Figure::new(read99.value - handle_read99, replayed.handle_read.len()),
    );
    let loaded_append = live_quantile(&doc, "service.journal.append_ms", "p99")?;
    report.set(
        "journal.wait_us.p99",
        Figure::new(
            loaded_append.value - replayed.append.percentile(0.99)?,
            replayed.append.len(),
        ),
    );
    report.note(
        "derived (loaded minus unloaded): daemon.queue_us.write.p50, \
         session.lock_wait_us.read.p99, journal.wait_us.p99",
    );
    Ok((tracer, rows))
}

/// Per-layer samples of the unloaded replay (microseconds, bytes).
#[derive(Debug, Default)]
struct Replay {
    parse: Samples,
    handle_write: Samples,
    handle_close: Samples,
    handle_read: Samples,
    append: Samples,
    close_reply_bytes: Samples,
    outcome_us: Samples,
    outcome_bytes: Samples,
    sessions: usize,
    wire_bytes: usize,
    appends: usize,
    journal_bytes: usize,
}

impl Replay {
    fn report(&self, report: &mut Report) -> Result<(), String> {
        let per = |x: usize| Figure::new(x as f64 / self.sessions.max(1) as f64, self.sessions);
        let q = |s: &Samples, q: f64| s.percentile(q).map(|v| Figure::new(v, s.len()));
        report.set("wire.bytes_per_session", per(self.wire_bytes));
        report.set("wire.parse_us.p50", q(&self.parse, 0.5)?);
        report.set(
            "wire.close_reply_bytes.p50",
            q(&self.close_reply_bytes, 0.5)?,
        );
        report.set("session.handle_us.write.p50", q(&self.handle_write, 0.5)?);
        report.set("session.handle_us.close.p50", q(&self.handle_close, 0.5)?);
        report.set("session.handle_us.read.p50", q(&self.handle_read, 0.5)?);
        report.set("journal.append_us.p50", q(&self.append, 0.5)?);
        report.set("journal.append_us.p99", q(&self.append, 0.99)?);
        report.set("journal.appends_per_session", per(self.appends));
        report.set("journal.bytes_per_session", per(self.journal_bytes));
        report.set("serial.outcome_us.p50", q(&self.outcome_us, 0.5)?);
        report.set("serial.outcome_bytes.p50", q(&self.outcome_bytes, 0.5)?);
        Ok(())
    }
}

fn framed_len(payload: &str) -> usize {
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, payload).expect("writing to memory cannot fail");
    buf.len()
}

fn replay_err(e: impl std::fmt::Display) -> String {
    format!("replay: {e}")
}

/// Feeds each session's payloads, rebuilt with the client's own encoder,
/// single-threaded through `wire::parse_request`, `ServerCore::handle` on
/// a fresh `Strict` journal, `Journal::append` of the same records on
/// another fresh journal, and `run_auction` + `serial::outcome_to_json`.
fn replay(
    instances: &[&Instance],
    dir: &Path,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    // The replay measures the handler, not the lifetime-session cap.
    let limits = Limits {
        max_sessions: usize::MAX,
        ..Limits::default()
    };
    let (core, _) = ServerCore::recover(&dir.join("core.jsonl"), Durability::Strict, None, limits)
        .map_err(replay_err)?;
    let (mut journal, _) = Journal::open(&dir.join("append.jsonl"), Durability::Strict, None, None)
        .map_err(replay_err)?;
    let mut r = Replay::default();
    let mut id = 0u64;
    for (s, inst) in instances.iter().enumerate() {
        let unit = (1 << 50) + s as u64;
        let nonce = s as u64 + 1;
        let mut sid = String::new();
        let mut seq = 0u64;
        let mut records = Vec::new();
        for op in ops(inst) {
            id += 1;
            if !matches!(op.class(), Class::Read | Class::Open) {
                seq += 1;
            }
            let trace = format!("cli-{seed}-{id}");
            let payload = wire::request_with_trace(id, Some(&trace), &op.request(&sid, seq, nonce));
            let (parsed, secs) = tracer.time("wire.parse_request", unit, 0, || {
                wire::parse_request(&payload)
            });
            parsed.map_err(replay_err)?;
            r.parse.push(secs * 1e6);
            let (handled, secs) = tracer.time("session.handle", unit, 0, || core.handle(&payload));
            let resp = match handled {
                HandleResult::Reply(resp) => resp,
                other => return Err(format!("replay: unexpected {other:?}")),
            };
            let doc = json::parse(&resp).map_err(replay_err)?;
            if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("replay: {} refused: {resp}", op.span()));
            }
            let us = secs * 1e6;
            match op.class() {
                Class::Open => {
                    sid = doc
                        .get("session")
                        .and_then(Json::as_str)
                        .ok_or("replay: open reply without session")?
                        .to_string();
                }
                Class::Write => r.handle_write.push(us),
                Class::Close => {
                    r.handle_close.push(us);
                    r.close_reply_bytes.push(framed_len(&resp) as f64);
                }
                Class::Read => r.handle_read.push(us),
            }
            r.wire_bytes += framed_len(&payload) + framed_len(&resp);
            records.extend(op.record(&sid, seq, nonce));
        }

        // The same records, appended on a journal of their own.
        let (result, _) = tracer.time("auction.run_auction", unit, 0, || expected(inst));
        let close = match result? {
            Some(outcome) => {
                let (text, secs) = tracer.time("serial.outcome_to_json", unit, 0, || {
                    serial::outcome_to_json(&outcome)
                });
                r.outcome_us.push(secs * 1e6);
                r.outcome_bytes.push(text.len() as f64);
                CloseResult::Committed(outcome)
            }
            None => CloseResult::Aborted("infeasible".into()),
        };
        records.push(Record::CloseCommit {
            session: sid,
            result: close,
        });
        for rec in &records {
            id += 1;
            let trace = format!("cli-{seed}-{id}");
            let (out, secs) = tracer.time("journal.append", unit, 0, || {
                journal.append_with_trace(rec, Some(&trace))
            });
            out.map_err(replay_err)?;
            r.append.push(secs * 1e6);
            r.journal_bytes += encode_record_traced(rec, Some(&trace)).len();
        }
        r.appends += records.len();
        r.sessions += 1;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_sends_every_client_bid_and_read() {
        let inst = session_instance(7, 0).expect("instance");
        let ops = ops(&inst);
        let count = |class| ops.iter().filter(|o| o.class() == class).count();
        assert_eq!(count(Class::Open), 1);
        assert_eq!(
            count(Class::Write),
            CLIENTS_PER_SESSION * (1 + BIDS_PER_CLIENT as usize)
        );
        assert_eq!(count(Class::Close), 1);
        assert_eq!(count(Class::Read), 1 + CLIENTS_PER_SESSION);
    }

    #[test]
    fn session_latency_counts_from_the_due_time() {
        let dir = crate::scratch_dir("due-time");
        let svc = start(&dir, 1).expect("daemon");
        let mut client = svc.clients.into_iter().next().expect("client");
        let inst = session_instance(3, 0).expect("instance");
        // A session that was due 50 ms before it could start.
        let due = Instant::now() - Duration::from_millis(50);
        let run = drive(&mut client, &inst, 0, due, None);
        assert!(run.failure.is_none(), "{:?}", run.failure);
        assert!(run.lateness_s >= 0.05);
        let latency = run.latency_s.expect("completed");
        let calls: f64 = run.calls.iter().map(|&(_, s)| s).sum();
        assert!(latency >= run.lateness_s + calls);
        assert!(check(&inst, &run.replies).is_empty());
        drop(svc.daemon);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn refusals_count_as_failed_sessions_that_miss_every_limit() {
        let dir = crate::scratch_dir("refusals");
        let config = DaemonConfig {
            limits: Limits {
                max_sessions: 1,
                ..Limits::default()
            },
            ..DaemonConfig::new(dir.join("wal.jsonl"))
        };
        let daemon = Daemon::start(config).expect("daemon");
        let mut client = Client::new(
            daemon.addr(),
            ClientConfig {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        );
        let phase = Phase {
            runs: (0..3)
                .map(|i| {
                    let inst = session_instance(5, i).expect("instance");
                    drive(&mut client, &inst, i as usize, Instant::now(), None)
                })
                .collect(),
            instances: (0..3)
                .map(|i| session_instance(5, i).expect("instance"))
                .collect(),
            retries: client.retries(),
            tracer: None,
            elapsed_s: 1.0,
        };
        let mut report = Report::default();
        account(&phase, &mut report);
        // The first session fits under the cap; the other two are refused.
        assert_eq!((report.attempted, report.failed), (3, 2));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let lat = Latencies::of(&phase);
        let values = lat.session.values();
        assert!(values[0].is_finite());
        assert!(values[1..].iter().all(|v| v.is_infinite()));
        drop(daemon);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_wrong_payment_is_a_violation() {
        let inst = (0..)
            .map(|i| session_instance(11, i).expect("instance"))
            .find(|i| run_auction(i).is_ok())
            .expect("a feasible session");
        let outcome = run_auction(&inst).expect("feasible");
        let mut replies = Replies {
            clients: (0..inst.num_clients() as u32).collect(),
            close: Some(CloseReply::Committed(outcome.clone())),
            outcome: Some(CloseReply::Committed(outcome.clone())),
            payments: Vec::new(),
        };
        for c in 0..inst.num_clients() as u32 {
            let per_bid: Vec<(u32, f64)> = outcome
                .solution()
                .winners()
                .iter()
                .filter(|w| w.bid_ref.client.0 == c)
                .map(|w| (w.bid_ref.bid, w.payment))
                .collect();
            let total = per_bid.iter().fold(0.0, |t, &(_, p)| t + p);
            replies
                .payments
                .push(PaymentReply::Committed { total, per_bid });
        }
        assert!(check(&inst, &replies).is_empty());
        let winner = outcome.solution().winners()[0].bid_ref.client.0 as usize;
        if let PaymentReply::Committed { total, .. } = &mut replies.payments[winner] {
            *total += 1e-9;
        }
        assert_eq!(check(&inst, &replies).len(), 1);
    }
}
