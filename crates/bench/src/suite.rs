//! The curated scenario set behind `bench_suite`, and the runner that
//! turns one scenario into one [`BenchRecord`].
//!
//! Every scenario is a fixed-seed workload pushed through the real
//! pipeline entry points (`run_auction_with`, `sweep_horizons`, the
//! Myerson re-pricer, the FedAvg simulator) under a fresh thread-local
//! [`Recorder`]. A scenario is executed `runs` times: the minimum wall
//! clock becomes the record's timing statistic, the phase profile comes
//! from that same fastest pass, and every pass's
//! timing-free telemetry (span tree, counters, gauges, histograms,
//! messages) plus economics must agree **bit-for-bit** — any divergence is
//! a determinism bug and fails the run before anything is written.
//!
//! Sweep scenarios pin their worker-thread count explicitly (never
//! `FL_THREADS` or auto-detection), so each record's `env.threads` says
//! what ran. `A_FL` prunes sequentially whatever the strategy, so its
//! pruned-horizon set and counters never depend on the machine.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use fl_auction::truthful::myerson_payments;
use fl_auction::{
    run_auction_with, AWinner, AuctionConfig, EconomicHealth, Instance, MechanismStats,
    OnlineAuction, SweepPrecomp, SweepStrategy, WdpSolver,
};
use fl_flpd::wire::{BidParams, OpenParams};
use fl_flpd::{Client, ClientConfig, CloseReply, Daemon, DaemonConfig};
use fl_sim::{DatasetSpec, FaultModel, Federation, FlJob, RecoveryPolicy};
use fl_telemetry::json::Json;
use fl_telemetry::{install_local, Recorder, Snapshot};
use fl_workload::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::runner::gen_prequalified_wdp;
use crate::schema::{
    BenchRecord, EnvBlock, PhaseList, PhaseProfile, ScaleBlock, TimingBlock, SCHEMA_VERSION,
};

/// The fixed seed every scenario runs under.
pub const SUITE_SEED: u64 = 42;
/// Payment-bisection cap for the recovery scenario — safely above the
/// workload's price range.
const MYERSON_CAP: f64 = 500.0;

/// Workload scale of one scenario variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of clients `I`.
    pub clients: usize,
    /// Bids per client `J`.
    pub bids_per_client: u32,
    /// Maximum horizon `T`.
    pub rounds: u32,
    /// Per-round demand `K`.
    pub k: u32,
}

impl Scale {
    fn block(&self) -> ScaleBlock {
        ScaleBlock {
            clients: self.clients as u64,
            bids_per_client: u64::from(self.bids_per_client),
            rounds: u64::from(self.rounds),
            k: u64::from(self.k),
        }
    }
}

/// What one scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A single pre-qualified WDP solved by `A_winner` (Fig. 3 setting).
    Wdp,
    /// The full `A_FL` enumeration (its pruned sweep is sequential).
    Auction,
    /// The unpruned horizon sweep with the given pinned worker count.
    Sweep {
        /// Pinned sweep worker threads.
        threads: usize,
    },
    /// The whole service pipeline: auction, Myerson re-pricing, standby
    /// pool, simulated execution under churn with standby recovery.
    Recovery,
    /// Full session lifecycles against a live `flpd` daemon over loopback
    /// TCP: open, register clients, submit bids, close the epoch, query
    /// payments — journal and wire layers included.
    Service,
    /// The streaming auction driver: every workload bid pushed through
    /// [`fl_auction::OnlineAuction`] as an arrival stream (irrevocable
    /// commit/reject on arrival under a posted budget), then the
    /// committed set compared against the offline `A_FL` solve of the
    /// same instance for the empirical competitive ratio.
    OnlineIngest,
}

impl ScenarioKind {
    /// Schema tag for the record's `kind` field.
    pub fn tag(self) -> &'static str {
        match self {
            ScenarioKind::Wdp => "wdp",
            ScenarioKind::Auction => "auction",
            ScenarioKind::Sweep { .. } => "sweep",
            ScenarioKind::Recovery => "recovery",
            ScenarioKind::Service => "service",
            ScenarioKind::OnlineIngest => "online_ingest",
        }
    }

    fn threads(self) -> usize {
        match self {
            ScenarioKind::Sweep { threads } => threads,
            ScenarioKind::Wdp
            | ScenarioKind::Auction
            | ScenarioKind::Recovery
            | ScenarioKind::Service
            | ScenarioKind::OnlineIngest => 1,
        }
    }
}

/// One named workload scenario with its full-scale and CI (`--smoke`)
/// variants.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable history key.
    pub name: &'static str,
    /// One-line description for `bench_suite list` and the report.
    pub summary: &'static str,
    /// What the scenario exercises.
    pub kind: ScenarioKind,
    /// Full (paper/stress) scale.
    pub full: Scale,
    /// Reduced CI scale.
    pub smoke: Scale,
}

impl Scenario {
    /// The scale of the requested variant.
    pub fn scale(&self, smoke: bool) -> Scale {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }
}

/// The curated suite, in reporting order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "winner_fig3",
            summary: "A_winner on one pre-qualified WDP at the Fig. 3 setting",
            kind: ScenarioKind::Wdp,
            full: Scale {
                clients: 200,
                bids_per_client: 4,
                rounds: 24,
                k: 10,
            },
            smoke: Scale {
                clients: 40,
                bids_per_client: 3,
                rounds: 12,
                k: 4,
            },
        },
        Scenario {
            name: "afl_fig5",
            summary: "full A_FL at the paper's Fig. 5 scale (sequential)",
            kind: ScenarioKind::Auction,
            full: Scale {
                clients: 200,
                bids_per_client: 4,
                rounds: 16,
                k: 5,
            },
            smoke: Scale {
                clients: 60,
                bids_per_client: 3,
                rounds: 10,
                k: 3,
            },
        },
        Scenario {
            name: "afl_stress",
            summary: "full A_FL at stress scale (sequential)",
            kind: ScenarioKind::Auction,
            full: Scale {
                clients: 400,
                bids_per_client: 5,
                rounds: 32,
                k: 6,
            },
            smoke: Scale {
                clients: 80,
                bids_per_client: 3,
                rounds: 12,
                k: 3,
            },
        },
        // The scale frontier: A_winner on the columnar store as the bid
        // count climbs 10³ → 10⁴ → 10⁵ (clients × 4 bids each). One shared
        // shape (T = 64, K = 8, J = 4) so the trajectory isolates bid-count
        // scaling; see the "Scale frontier" section of REPORT_perf.md for
        // the bids/sec headline derived from these records.
        Scenario {
            name: "scale_frontier_1k",
            summary: "A_winner on a 1 000-bid WDP (columnar scale frontier)",
            kind: ScenarioKind::Wdp,
            full: Scale {
                clients: 250,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
            smoke: Scale {
                clients: 125,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
        },
        Scenario {
            name: "scale_frontier_10k",
            summary: "A_winner on a 10 000-bid WDP (columnar scale frontier)",
            kind: ScenarioKind::Wdp,
            full: Scale {
                clients: 2_500,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
            smoke: Scale {
                clients: 250,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
        },
        Scenario {
            name: "scale_frontier_100k",
            summary: "A_winner on a 100 000-bid WDP (columnar scale frontier)",
            kind: ScenarioKind::Wdp,
            full: Scale {
                clients: 25_000,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
            smoke: Scale {
                clients: 250,
                bids_per_client: 4,
                rounds: 64,
                k: 8,
            },
        },
        Scenario {
            name: "sweep_sequential",
            summary: "unpruned horizon sweep, sequential",
            kind: ScenarioKind::Sweep { threads: 1 },
            full: Scale {
                clients: 125,
                bids_per_client: 4,
                rounds: 64,
                k: 5,
            },
            smoke: Scale {
                clients: 40,
                bids_per_client: 3,
                rounds: 16,
                k: 3,
            },
        },
        Scenario {
            name: "sweep_parallel4",
            summary: "unpruned horizon sweep, 4 pinned workers",
            kind: ScenarioKind::Sweep { threads: 4 },
            full: Scale {
                clients: 125,
                bids_per_client: 4,
                rounds: 64,
                k: 5,
            },
            smoke: Scale {
                clients: 40,
                bids_per_client: 3,
                rounds: 16,
                k: 3,
            },
        },
        Scenario {
            name: "afl_recovery",
            summary: "auction + Myerson re-pricing + standby pool + simulated churn recovery",
            kind: ScenarioKind::Recovery,
            full: Scale {
                clients: 200,
                bids_per_client: 4,
                rounds: 16,
                k: 5,
            },
            smoke: Scale {
                clients: 60,
                bids_per_client: 3,
                rounds: 10,
                k: 3,
            },
        },
        Scenario {
            name: "flpd_service",
            summary: "full session lifecycles against a live flpd daemon over loopback TCP",
            kind: ScenarioKind::Service,
            // `clients` is the total across the run; the driver partitions
            // it into sessions of `SERVICE_CLIENTS_PER_SESSION`.
            full: Scale {
                clients: 100,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
            smoke: Scale {
                clients: 20,
                bids_per_client: 2,
                rounds: 8,
                k: 2,
            },
        },
        Scenario {
            name: "online_ingest",
            summary: "sustained streaming ingest through OnlineAuction + competitive ratio vs offline A_FL",
            kind: ScenarioKind::OnlineIngest,
            full: Scale {
                clients: 2_000,
                bids_per_client: 4,
                rounds: 16,
                k: 5,
            },
            smoke: Scale {
                clients: 100,
                bids_per_client: 3,
                rounds: 10,
                k: 3,
            },
        },
    ]
}

/// Looks a scenario up by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

fn instance(scale: &Scale, threads: usize) -> Result<Instance, String> {
    WorkloadSpec::paper_default()
        .with_clients(scale.clients)
        .with_bids_per_client(scale.bids_per_client)
        .with_config(
            AuctionConfig::builder()
                .max_rounds(scale.rounds)
                .clients_per_round(scale.k)
                .round_time_limit(60.0)
                .sweep_strategy(SweepStrategy::with_threads(threads))
                .build()
                .map_err(|e| format!("invalid config: {e}"))?,
        )
        .generate(SUITE_SEED)
        .map_err(|e| format!("workload generation failed: {e}"))
}

/// One pass of the scenario's pipeline; returns its economic health.
fn execute(kind: ScenarioKind, scale: &Scale) -> Result<EconomicHealth, String> {
    match kind {
        ScenarioKind::Wdp => {
            let wdp = gen_prequalified_wdp(
                SUITE_SEED,
                scale.clients as u32,
                scale.bids_per_client,
                scale.rounds,
                scale.k,
            );
            let solution = AWinner::new()
                .solve_wdp(&wdp)
                .map_err(|e| format!("A_winner failed: {e}"))?;
            Ok(EconomicHealth::of_solution(&solution))
        }
        ScenarioKind::Auction => {
            let inst = instance(scale, 1)?;
            let outcome = run_auction_with(&inst, &AWinner::new())
                .map_err(|e| format!("A_FL failed: {e}"))?;
            Ok(EconomicHealth::of_outcome(&inst, &outcome))
        }
        ScenarioKind::Sweep { threads } => {
            let inst = instance(scale, threads)?;
            let sweep = fl_auction::sweep_horizons(&inst, &AWinner::new())
                .map_err(|e| format!("sweep failed: {e}"))?;
            // Fold to A_FL's answer: cheapest cost, smallest horizon on
            // exact ties (the sweep is ascending, `<` keeps the first).
            let best = sweep
                .iter()
                .filter_map(|h| h.result.as_ref().ok())
                .fold(None::<&fl_auction::WdpSolution>, |acc, sol| match acc {
                    Some(b) if b.cost() <= sol.cost() => Some(b),
                    _ => Some(sol),
                })
                .ok_or("no feasible horizon in the sweep")?;
            Ok(EconomicHealth::of_solution(best))
        }
        ScenarioKind::Service => service_pass(scale),
        ScenarioKind::OnlineIngest => online_ingest_pass(scale),
        ScenarioKind::Recovery => {
            let inst = instance(scale, 1)?;
            let outcome = run_auction_with(&inst, &AWinner::new())
                .map_err(|e| format!("A_FL failed: {e}"))?;
            let health = EconomicHealth::of_outcome(&inst, &outcome);
            // Exact threshold re-pricing of every winner (Myerson
            // bisection) — the `truthful.bisection_probes` driver.
            let wdp = SweepPrecomp::new(&inst).qualify_at(outcome.horizon());
            let repriced = myerson_payments(&wdp, outcome.solution(), MYERSON_CAP, 1e-7);
            if repriced.len() != outcome.solution().winners().len() {
                return Err("Myerson re-pricing lost a winner".into());
            }
            // Simulated execution under Bernoulli churn with standby
            // recovery.
            let federation =
                Federation::generate(&DatasetSpec::default(), inst.num_clients(), SUITE_SEED);
            let report = FlJob::new(0.3)
                .with_faults(FaultModel::bernoulli(0.2))
                .with_recovery(RecoveryPolicy::Standby)
                .with_coverage_floor(scale.k)
                .run(&inst, &outcome, &federation, SUITE_SEED);
            if report.rounds.len() as u32 != outcome.horizon() {
                return Err("simulator did not run the full horizon".into());
            }
            Ok(health)
        }
    }
}

/// Posted per-scheduled-round price of the `online_ingest` scenario; the
/// budget is `π · K · T̂`, so π is pinned directly. Chosen at the middle
/// of the paper workload's `[10, 50]` price band: a realistic mix of
/// commits and price-gate rejections rather than an accept-everything
/// stream.
const ONLINE_PRICE_PER_ROUND: f64 = 25.0;

/// One pass of the `online_ingest` scenario: every workload bid pushed
/// through [`OnlineAuction`] in client-major arrival order, decisions
/// irrevocable on arrival. The driver's own `online.*` counters land in
/// the pass snapshot (so the commit/reject mix is part of the bit-exact
/// determinism gate), and the committed set is compared against the
/// offline `A_FL` solve of the identical instance:
/// `online.competitive_ratio_milli` (a counter, ratio ×1000 rounded, so
/// it survives into the history record) when the stream reached full
/// coverage, `online.ratio_unavailable` otherwise.
///
/// The sustained-ingest headline (bids/sec) is derived in the report
/// from `online.arrived / min_ms`.
fn online_ingest_pass(scale: &Scale) -> Result<EconomicHealth, String> {
    let inst = instance(scale, 1)?;
    let budget = ONLINE_PRICE_PER_ROUND * f64::from(scale.k) * f64::from(scale.rounds);
    let mut online = OnlineAuction::new(inst.config().clone(), budget)
        .map_err(|e| format!("online open failed: {e}"))?;
    for profile in inst.clients() {
        online.register_client(*profile);
    }
    {
        let _g = fl_telemetry::span!("online.ingest");
        for c in 0..inst.num_clients() {
            let client = fl_auction::ClientId(c as u32);
            for bid in inst.bids_of(client) {
                online
                    .submit(client, *bid)
                    .map_err(|e| format!("submit failed: {e}"))?;
            }
        }
    }
    let outcome = online.finish();
    // Offline comparator on the same instance: the batch A_FL cost.
    let offline = {
        let _g = fl_telemetry::span!("online.offline_reference");
        run_auction_with(&inst, &AWinner::new())
            .map_err(|e| format!("offline A_FL reference failed: {e}"))?
    };
    match outcome.competitive_ratio(offline.social_cost()) {
        Some(ratio) => {
            // Milli-units keep three decimals visible through the
            // integer counter channel (gauges never reach the record).
            fl_telemetry::counter!(
                "online.competitive_ratio_milli",
                (ratio * 1e3).round() as u64
            );
        }
        None => {
            fl_telemetry::counter!("online.ratio_unavailable");
        }
    }
    fl_telemetry::counter!(
        "online.coverage_pct",
        (100 * outcome.covered()) / outcome.total_demand().max(1)
    );
    Ok(EconomicHealth::of_solution(&outcome.solution()))
}

/// FL clients registered per daemon session in the service scenario;
/// `Scale::clients` is the total across the whole run.
const SERVICE_CLIENTS_PER_SESSION: usize = 5;

thread_local! {
    /// Side channel from [`service_pass`] to [`run_scenario`]: the
    /// daemon's own per-command quantiles (`service.srv.*` phases),
    /// which cannot travel through the bench recorder because the
    /// daemon's threads never touch the bench's thread-local sink.
    static SERVER_PHASES: RefCell<PhaseList> = const { RefCell::new(Vec::new()) };
}

/// One pass of the `flpd_service` scenario: self-host a daemon on an
/// ephemeral loopback port with a scratch journal, then drive full
/// session lifecycles (open, register, bid, close, query payments)
/// sequentially from this thread.
///
/// Telemetry discipline: the recorder installed by [`run_scenario`] is
/// thread-local, so the daemon's worker threads never write into it —
/// every span and counter below is emitted from the bench thread, which
/// keeps the pass view deterministic. Client retries are possible under
/// a slow machine but idempotent, so only *logical* operations are
/// counted, never attempts.
fn service_pass(scale: &Scale) -> Result<EconomicHealth, String> {
    let dir = fl_flpd::testutil::TempDir::new("bench-service");
    let mut daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl")))
        .map_err(|e| format!("daemon start failed: {e}"))?;
    let mut client = Client::new(
        daemon.addr(),
        ClientConfig {
            seed: SUITE_SEED,
            ..ClientConfig::default()
        },
    );

    let sessions = (scale.clients / SERVICE_CLIENTS_PER_SESSION).max(1);
    let per_session = SERVICE_CLIENTS_PER_SESSION as u32;
    let t = scale.rounds;
    let mut last_committed = None;
    let mut committed_count = 0u64;
    for s in 0..sessions {
        let _session = fl_telemetry::span!("service.session");
        let mut rng = StdRng::seed_from_u64(SUITE_SEED ^ (s as u64).wrapping_mul(0x9e37_79b9));
        let sid = {
            let _g = fl_telemetry::span!("service.open");
            client
                .open(OpenParams::new(0, t, scale.k, 60.0))
                .map_err(|e| format!("open: {e}"))?
        };
        {
            let _g = fl_telemetry::span!("service.submit");
            for c in 0..per_session {
                client
                    .add_client(&sid, 1.0 + rng.next_f64(), 2.0 + rng.next_f64() * 2.0)
                    .map_err(|e| format!("add_client: {e}"))?;
                for j in 0..scale.bids_per_client {
                    // The first bid of every client spans the full horizon
                    // so the pool always covers demand; the rest draw
                    // random windows for a non-trivial WDP.
                    let (a, d) = if j == 0 {
                        (1, t)
                    } else {
                        let a = rng.random_range(1..=t);
                        (a, rng.random_range(a..=t))
                    };
                    client
                        .add_bid(
                            &sid,
                            BidParams {
                                client: c,
                                price: 1.0 + rng.next_f64() * 5.0,
                                theta: 0.5 + rng.next_f64() * 0.3,
                                a,
                                d,
                                c: rng.random_range(1..=(d - a + 1)),
                            },
                        )
                        .map_err(|e| format!("add_bid: {e}"))?;
                    fl_telemetry::counter!("service.bids");
                }
            }
        }
        let reply = {
            let _g = fl_telemetry::span!("service.close");
            client.close(&sid).map_err(|e| format!("close: {e}"))?
        };
        match reply {
            CloseReply::Committed(outcome) => {
                committed_count += 1;
                fl_telemetry::counter!("service.committed");
                fl_telemetry::counter!("service.winners", outcome.solution().winners().len());
                let _g = fl_telemetry::span!("service.payments");
                client
                    .payments(&sid, 0)
                    .map_err(|e| format!("payments: {e}"))?;
                last_committed = Some(outcome);
            }
            CloseReply::Aborted(_) => {
                fl_telemetry::counter!("service.aborted");
            }
        }
        fl_telemetry::counter!("service.sessions");
    }
    // The daemon's own view of the run: per-command quantiles from its
    // live-metrics plane, committed to the record as
    // `service.srv.*` phases. `calls` is the *client-side logical* op
    // count — deterministic, unlike the server's sample count, which
    // grows with retries — while the timing columns are the server's
    // wall clock (compare-excluded, like every `*_ms` field).
    let stats = client
        .stats_doc()
        .map_err(|e| format!("final stats fetch: {e}"))?;
    let logical: [(&str, u64); 5] = [
        ("open", sessions as u64),
        ("client", sessions as u64 * u64::from(per_session)),
        (
            "bid",
            sessions as u64 * u64::from(per_session) * u64::from(scale.bids_per_client),
        ),
        ("close", sessions as u64),
        ("payment", committed_count),
    ];
    let hists = stats.get("live").and_then(|l| l.get("hists")).cloned();
    let srv: PhaseList = logical
        .iter()
        .map(|(op, calls)| {
            let h = hists
                .as_ref()
                .and_then(|hs| hs.get(&format!("service.cmd.{op}_ms")));
            let f = |k: &str| {
                h.and_then(|h| h.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let n = h
                .and_then(|h| h.get("n"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (
                format!("service.srv.{op}"),
                PhaseProfile {
                    calls: *calls,
                    total_ms: f("mean") * n as f64,
                    p50_ms: f("p50"),
                    p90_ms: f("p90"),
                    p99_ms: f("p99"),
                },
            )
        })
        .collect();
    SERVER_PHASES.with(|p| *p.borrow_mut() = srv);
    daemon.stop();
    let outcome = last_committed.ok_or("no session committed an epoch")?;
    Ok(EconomicHealth::of_solution(outcome.solution()))
}

/// Everything of a pass that must reproduce bit-for-bit under the same
/// seed: the timing-free snapshot plus the economics. Wall-clock fields
/// are deliberately excluded.
fn deterministic_pass_view(snapshot: &Snapshot, health: &EconomicHealth) -> String {
    format!(
        "{}\ncounters: {:?}\ngauges: {:?}\nhistograms: {:?}\nmessages: {:?}\neconomics: {:?}",
        snapshot.tree_string(),
        snapshot.counters,
        snapshot.gauges,
        snapshot.histograms,
        snapshot.messages,
        health,
    )
}

/// Runs one scenario variant `runs` times and assembles its record.
///
/// # Errors
///
/// Pipeline failures, and any pass-to-pass divergence of the deterministic
/// telemetry (reported with the differing views).
pub fn run_scenario(scenario: &Scenario, smoke: bool, runs: usize) -> Result<BenchRecord, String> {
    let runs = runs.max(2); // at least two passes for the determinism check
    let scale = scenario.scale(smoke);
    let mut runs_ms: Vec<f64> = Vec::with_capacity(runs);
    let mut reference: Option<String> = None;
    // The phase profile comes from the pass that sets `min_ms`, so the
    // phases account for the headline time rather than a slower pass.
    let mut fastest: Option<(Snapshot, EconomicHealth, PhaseList)> = None;
    for pass in 0..runs {
        let recorder = Arc::new(Recorder::default());
        let guard = install_local(recorder.clone());
        let start = Instant::now();
        let health = execute(scenario.kind, &scale);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(guard);
        let health = health?;
        let snapshot = recorder.snapshot();
        let view = deterministic_pass_view(&snapshot, &health);
        match &reference {
            None => reference = Some(view),
            Some(reference) => {
                if view != *reference {
                    return Err(format!(
                        "scenario {}: pass {} diverged from pass 0 on timing-free \
                         telemetry — determinism bug\n--- pass 0 ---\n{reference}\n--- pass {pass} ---\n{view}",
                        scenario.name, pass
                    ));
                }
            }
        }
        // The daemon-side quantiles of this pass (service scenarios only).
        let server = SERVER_PHASES.with(|p| std::mem::take(&mut *p.borrow_mut()));
        if runs_ms.iter().all(|&ms| elapsed_ms < ms) {
            fastest = Some((snapshot, health, server));
        }
        runs_ms.push(elapsed_ms);
    }
    let (snapshot, health, server) = fastest.expect("runs >= 2");
    let (mut phases, counters) = BenchRecord::profile_from_snapshot(&snapshot);
    if scenario.kind == ScenarioKind::Service {
        // Call counts are identical across passes by construction.
        phases.extend(server);
        phases.sort_by(|a, b| a.0.cmp(&b.0));
    }
    if phases.is_empty() {
        return Err(format!(
            "scenario {}: no telemetry phases recorded — instrumentation regressed",
            scenario.name
        ));
    }
    let min_ms = runs_ms.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(BenchRecord {
        schema_version: SCHEMA_VERSION,
        scenario: scenario.name.to_string(),
        kind: scenario.kind.tag().to_string(),
        env: EnvBlock {
            seed: SUITE_SEED,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            threads: scenario.kind.threads() as u64,
            smoke,
            build: std::env::var("FL_BUILD_INFO").unwrap_or_else(|_| "unknown".into()),
            scale: scale.block(),
        },
        timing: TimingBlock {
            runs: runs as u64,
            min_ms,
            runs_ms,
        },
        phases,
        counters,
        mechanism: MechanismStats::from_snapshot(&snapshot),
        economics: health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_has_at_least_four_uniquely_named_scenarios() {
        let all = scenarios();
        assert!(all.len() >= 4);
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "scenario names must be unique");
        assert!(find_scenario("afl_fig5").is_some());
        assert!(find_scenario("nope").is_none());
        // Every parallel scenario pins its thread count (no auto-detect).
        for s in &all {
            assert!(s.kind.threads() >= 1);
        }
    }

    #[test]
    fn the_scale_frontier_spans_three_decades_of_bids() {
        for (name, bids) in [
            ("scale_frontier_1k", 1_000u64),
            ("scale_frontier_10k", 10_000),
            ("scale_frontier_100k", 100_000),
        ] {
            let s = find_scenario(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(s.kind, ScenarioKind::Wdp, "{name} must be a raw WDP solve");
            assert_eq!(
                s.full.clients as u64 * u64::from(s.full.bids_per_client),
                bids,
                "{name} full scale must hold exactly {bids} bids"
            );
            assert!(
                s.smoke.clients as u64 * u64::from(s.smoke.bids_per_client) <= 1_000,
                "{name} smoke variant must stay at or below 10³ bids for CI"
            );
            // All three share one shape so the trajectory isolates the
            // bid count.
            assert_eq!((s.full.rounds, s.full.k), (64, 8), "{name} shape drifted");
        }
    }

    #[test]
    fn the_phase_profile_comes_from_the_fastest_pass() {
        // Root spans run one after another inside the timed region, so on
        // the pass that sets `min_ms` their totals add up to at most
        // `min_ms`. A thread's first pass runs cold and is the slowest;
        // profiling it broke this bound.
        for (name, roots) in [
            (
                "winner_fig3",
                &["wdp_greedy", "payment", "dual_certificate"][..],
            ),
            ("afl_fig5", &["afl_run"][..]),
        ] {
            let scenario = find_scenario(name).expect("scenario is in the curated set");
            let record = run_scenario(&scenario, true, 5).expect("smoke run succeeds");
            let total: f64 = roots
                .iter()
                .map(|root| {
                    let (_, phase) = record
                        .phases
                        .iter()
                        .find(|(n, _)| n == root)
                        .unwrap_or_else(|| panic!("{name} records no {root} span"));
                    phase.total_ms
                })
                .sum();
            assert!(
                total <= record.timing.min_ms,
                "{name}: root spans take {total} ms, more than the headline min {} ms",
                record.timing.min_ms
            );
        }
    }

    #[test]
    fn smoke_scales_are_smaller_than_full_scales() {
        for s in scenarios() {
            assert!(s.smoke.clients < s.full.clients, "{}", s.name);
            assert!(s.smoke.rounds <= s.full.rounds, "{}", s.name);
        }
    }
}
