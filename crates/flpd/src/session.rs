//! Session state machine and the request handler shared by the live
//! daemon and journal recovery.
//!
//! A session walks `Collecting → Closing → Closed(committed | aborted)`.
//! Mutations (client, bid, close) are idempotent per session via the
//! client-chosen `seq`: the handler journals the mutation, fsyncs, then
//! remembers `(seq, response)` so a retry whose ack was lost replays the
//! stored response instead of double-applying. Recovery rebuilds exactly
//! this state from the journal — including the stored responses, which
//! are regenerated by the same response builders the live path uses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use fl_auction::{
    run_auction, serial, AuctionError, AuctionOutcome, Bid, ClientId, ClientProfile, Instance,
    OnlineAuction, OnlineDecision, Round, Window,
};
use fl_telemetry::{json, FlightRecorder, LiveMetrics};

use crate::error::{ErrCode, ServiceError};
use crate::faults::FaultPlan;
use crate::journal::{is_injected_crash, CloseResult, Durability, Journal, Record};
use crate::wire::{self, BidParams, OpenParams, ReqMeta, Request};

/// Capacity limits the daemon sheds load against.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum live sessions; `open` beyond this is `Overloaded`.
    pub max_sessions: usize,
    /// Maximum concurrent epoch closes; beyond this `close` is
    /// `Backlog`. Zero means every close is shed (used in tests).
    pub max_inflight_close: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_sessions: 1024,
            max_inflight_close: 2,
        }
    }
}

#[derive(Debug)]
enum SessionState {
    Collecting,
    Closing,
    Closed(CloseResult),
}

/// Fingerprint of a bid submission (floats bit-for-bit), used to make
/// re-submitted identical bids idempotent in both collection modes.
type BidFp = (u32, u64, u64, u32, u32, u32);

fn bid_fingerprint(b: &BidParams) -> BidFp {
    (
        b.client,
        b.price.to_bits(),
        b.theta.to_bits(),
        b.a,
        b.d,
        b.c,
    )
}

#[derive(Debug)]
struct Session {
    instance: Instance,
    /// `Some` for streaming sessions (opened with a budget): the online
    /// driver owns the arrival state and takes the irrevocable per-bid
    /// decisions.
    online: Option<OnlineAuction>,
    /// Batch-mode duplicate ledger: fingerprint → bid index of the first
    /// submission (the streaming driver keeps its own).
    seen_bids: HashMap<BidFp, u32>,
    state: SessionState,
    last_seq: u64,
    last_resp: Option<String>,
    /// Set during replay for a `close_begin` with no commit yet.
    pending_close_seq: Option<u64>,
}

impl Session {
    fn create(params: &OpenParams) -> Result<Session, ServiceError> {
        let config = params.to_config()?;
        let online = match params.budget {
            Some(budget) => Some(
                OnlineAuction::new(config.clone(), budget)
                    .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))?,
            ),
            None => None,
        };
        Ok(Session {
            instance: Instance::new(config),
            online,
            seen_bids: HashMap::new(),
            state: SessionState::Collecting,
            last_seq: 0,
            last_resp: None,
            pending_close_seq: None,
        })
    }
}

/// What the commit phase of a close needs: a batch solve input, or the
/// streaming session's already-decided committed set.
enum CloseWork {
    Batch(Instance),
    Streaming(CloseResult),
}

impl CloseWork {
    fn of(s: &Session) -> CloseWork {
        match &s.online {
            // A streaming close never solves: every decision was taken
            // (and journaled) on arrival, so the outcome is just the
            // accumulated committed set.
            Some(online) => {
                let out = online.outcome();
                CloseWork::Streaming(CloseResult::Committed(AuctionOutcome::from_parts(
                    out.horizon(),
                    out.solution(),
                )))
            }
            None => CloseWork::Batch(s.instance.clone()),
        }
    }

    fn resolve(self) -> CloseResult {
        match self {
            CloseWork::Batch(instance) => solve(&instance),
            CloseWork::Streaming(result) => result,
        }
    }
}

#[derive(Default)]
struct Inner {
    sessions: HashMap<String, Session>,
    nonces: HashMap<u64, String>,
    next_id: u64,
    closed: u64,
}

/// What recovery found and did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryReport {
    /// Sessions rebuilt from the journal.
    pub sessions: usize,
    /// Epochs whose `close_begin` had no commit and were re-solved.
    pub replayed_closes: usize,
    /// Epochs recovered (or re-solved) into an explicit abort.
    pub aborted: usize,
    /// Records that contradicted session invariants (corrupt journal).
    pub anomalies: usize,
    /// Torn-tail bytes truncated from the journal file.
    pub truncated_bytes: u64,
}

/// How the connection layer must react to a handled request.
#[derive(Debug)]
pub enum HandleResult {
    /// Send this frame.
    Reply(String),
    /// The (simulated) process is dead: send nothing, stop everything.
    Crashed,
    /// Send this frame, then begin graceful shutdown.
    ShutdownRequested(String),
}

enum Failure {
    Err(ServiceError),
    Crash,
}

impl From<ServiceError> for Failure {
    fn from(e: ServiceError) -> Failure {
        Failure::Err(e)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's shared state: sessions plus the write-ahead journal,
/// instrumented with the live observability plane (sharded metrics +
/// flight recorder, see `fl_telemetry`).
pub struct ServerCore {
    inner: Mutex<Inner>,
    journal: Mutex<Journal>,
    limits: Limits,
    inflight_close: AtomicUsize,
    crashed: AtomicBool,
    live: Arc<LiveMetrics>,
    flight: Arc<FlightRecorder>,
    /// Source of server-assigned `srv-<n>` trace ids.
    next_trace: AtomicU64,
    /// Connections shed at the accept gate (reported by the daemon via
    /// [`note_shed`](Self::note_shed)).
    shed: AtomicU64,
    started: Instant,
}

impl ServerCore {
    /// Opens the journal at `path`, replays it, and re-solves any epoch
    /// that was mid-close when the previous process died. The fault plan
    /// supplies the journal's injected crash/jam points, if any.
    ///
    /// # Errors
    ///
    /// Propagates journal file I/O failures.
    pub fn recover(
        path: &std::path::Path,
        durability: Durability,
        faults: Option<FaultPlan>,
        limits: Limits,
    ) -> std::io::Result<(ServerCore, RecoveryReport)> {
        let crash = faults.and_then(|p| p.crash);
        let jam = faults.and_then(|p| p.jam);
        let (journal, recovered) = Journal::open(path, durability, crash, jam)?;
        let core = ServerCore {
            inner: Mutex::new(Inner::default()),
            journal: Mutex::new(journal),
            limits,
            inflight_close: AtomicUsize::new(0),
            crashed: AtomicBool::new(false),
            live: Arc::new(LiveMetrics::new()),
            flight: Arc::new(FlightRecorder::new()),
            next_trace: AtomicU64::new(1),
            shed: AtomicU64::new(0),
            started: Instant::now(),
        };
        // Pre-register the full error taxonomy so `stats` always shows
        // every `service.err.<code>` counter, fired or not.
        for code in ErrCode::ALL {
            core.live
                .counter(&format!("service.err.{}", code.as_str()), 0);
        }
        let mut report = RecoveryReport {
            truncated_bytes: recovered.truncated,
            ..RecoveryReport::default()
        };
        core.replay(recovered.records, &mut report);
        core.finish_pending_closes(&mut report);
        report.sessions = lock(&core.inner).sessions.len();
        if report.truncated_bytes > 0 {
            core.flight.record(
                "recovery",
                "recover",
                &format!("truncated {} torn tail bytes", report.truncated_bytes),
            );
        }
        if report.replayed_closes > 0 {
            core.flight.record(
                "recovery",
                "recover",
                &format!("re-solved {} pending closes", report.replayed_closes),
            );
        }
        core.flight.record(
            "recovery",
            "start",
            &format!("recovered {} sessions", report.sessions),
        );
        Ok((core, report))
    }

    /// Whether an injected crash has killed this core.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The core's live metrics aggregator (shared with the daemon layer,
    /// which records accept-gate and framing events into it).
    pub fn live(&self) -> &Arc<LiveMetrics> {
        &self.live
    }

    /// The core's flight recorder.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Records one connection shed at the accept gate. Counted both as a
    /// `service.shed` event and under the `overloaded` error code (that
    /// is the frame the peer received).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.live.counter("service.shed", 1);
        self.live.counter("service.err.overloaded", 1);
        self.flight
            .record("", "shed", "connection shed at capacity");
    }

    /// Total connections shed at the accept gate so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records a connection-layer failure that never reached [`Self::handle`]
    /// (oversized frame, I/O deadline) under its taxonomy code.
    pub fn note_wire_err(&self, code: ErrCode, detail: &str) {
        self.live
            .counter(&format!("service.err.{}", code.as_str()), 1);
        self.flight
            .record("", "err", &format!("{}: {detail}", code.as_str()));
    }

    fn assign_trace(&self) -> String {
        format!("srv-{}", self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Handles one parsed-or-raw request frame end to end. Every request
    /// gets a trace id (the client's, or a fresh `srv-<n>`) that is
    /// echoed on the response, stamped on journal records, and threaded
    /// through the flight recorder; per-command latency lands in the
    /// `service.cmd.<op>_ms` live histogram and error responses increment
    /// `service.err.<code>`.
    pub fn handle(&self, payload: &str) -> HandleResult {
        if self.crashed() {
            return HandleResult::Crashed;
        }
        let started = Instant::now();
        let (meta, req) = match wire::parse_request(payload) {
            Ok(parsed) => parsed,
            Err(e) => {
                let trace = self.assign_trace();
                self.live.counter("service.err.bad_request", 1);
                self.live
                    .sample("service.cmd.invalid_ms", ms_since(started));
                self.flight.record(&trace, "err", "unparseable request");
                let meta = ReqMeta {
                    id: None,
                    trace: Some(trace),
                };
                return HandleResult::Reply(wire::with_meta(&wire::error_response(&e), &meta));
            }
        };
        let trace = meta.trace.clone().unwrap_or_else(|| self.assign_trace());
        let resp_meta = ReqMeta {
            id: meta.id,
            trace: Some(trace.clone()),
        };
        let op = wire::op_name(&req);
        self.flight.record(&trace, "req", op);
        if matches!(req, Request::Shutdown) {
            self.flight.record(&trace, "resp", "shutdown requested");
            return HandleResult::ShutdownRequested(wire::with_meta(&ok_only(), &resp_meta));
        }
        let result = self.dispatch(&req, &trace);
        self.live
            .sample(&format!("service.cmd.{op}_ms"), ms_since(started));
        match result {
            Ok(resp) => {
                self.flight.record(&trace, "resp", "ok");
                HandleResult::Reply(wire::with_meta(&resp, &resp_meta))
            }
            Err(Failure::Err(e)) => {
                self.live
                    .counter(&format!("service.err.{}", e.code.as_str()), 1);
                self.flight.record(&trace, "err", e.code.as_str());
                HandleResult::Reply(wire::with_meta(&wire::error_response(&e), &resp_meta))
            }
            Err(Failure::Crash) => {
                self.flight
                    .record(&trace, "crash", "injected journal crash");
                HandleResult::Crashed
            }
        }
    }

    fn dispatch(&self, req: &Request, trace: &str) -> Result<String, Failure> {
        match req {
            Request::Ping => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("op".into(), json::string("ping")),
            ])),
            Request::Stats => Ok(self.stats_resp()),
            Request::Health => Ok(self.health_resp()),
            Request::Flight => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("flight".into(), self.flight.dump_json()),
            ])),
            Request::Shutdown => Ok(ok_only()),
            Request::Open(params) => self.handle_open(params, trace),
            Request::Client {
                session,
                seq,
                t_cmp,
                t_com,
            } => self.handle_client(session, *seq, *t_cmp, *t_com, trace),
            Request::Bid { session, seq, bid } => self.handle_bid(session, *seq, bid, trace),
            Request::Submit { session, seq, bid } => self.handle_submit(session, *seq, bid, trace),
            Request::Close { session, seq } => self.handle_close(session, *seq, trace),
            Request::Outcome { session } => self.handle_outcome(session),
            Request::Payment { session, client } => self.handle_payment(session, *client),
        }
    }

    /// The `stats` response: the session-level counters the original
    /// daemon exposed (`sessions`/`closed`, which clients still read),
    /// the close/shed pressure state, per-session FSM tallies, and the
    /// merged live-metrics snapshot (per-command latency histograms,
    /// journal fsync latency, error-taxonomy counters).
    fn stats_resp(&self) -> String {
        let (sessions, closed, fsm) = {
            let inner = lock(&self.inner);
            let mut fsm = [0u64; 4];
            for s in inner.sessions.values() {
                let slot = match &s.state {
                    SessionState::Collecting => 0,
                    SessionState::Closing => 1,
                    SessionState::Closed(CloseResult::Committed(_)) => 2,
                    SessionState::Closed(CloseResult::Aborted(_)) => 3,
                };
                fsm[slot] += 1;
            }
            (inner.sessions.len(), inner.closed, fsm)
        };
        json::object(&[
            ("ok".into(), "true".into()),
            ("sessions".into(), sessions.to_string()),
            ("closed".into(), closed.to_string()),
            (
                "inflight_close".into(),
                self.inflight_close.load(Ordering::SeqCst).to_string(),
            ),
            ("shed".into(), self.shed_count().to_string()),
            (
                "uptime_ms".into(),
                self.started.elapsed().as_millis().to_string(),
            ),
            (
                "fsm".into(),
                json::object(&[
                    ("collecting".into(), fsm[0].to_string()),
                    ("closing".into(), fsm[1].to_string()),
                    ("committed".into(), fsm[2].to_string()),
                    ("aborted".into(), fsm[3].to_string()),
                ]),
            ),
            ("live".into(), self.live.merge().to_json()),
        ])
    }

    /// The `health` response: liveness and overload state without
    /// merging metrics — cheap enough for tight poll loops.
    fn health_resp(&self) -> String {
        let sessions = lock(&self.inner).sessions.len();
        let inflight = self.inflight_close.load(Ordering::SeqCst);
        let overloaded = sessions >= self.limits.max_sessions
            || (self.limits.max_inflight_close > 0 && inflight >= self.limits.max_inflight_close);
        json::object(&[
            ("ok".into(), "true".into()),
            (
                "status".into(),
                json::string(if overloaded { "overloaded" } else { "ok" }),
            ),
            ("sessions".into(), sessions.to_string()),
            ("inflight_close".into(), inflight.to_string()),
            ("shed".into(), self.shed_count().to_string()),
            (
                "uptime_ms".into(),
                self.started.elapsed().as_millis().to_string(),
            ),
        ])
    }

    fn handle_open(&self, params: &OpenParams, trace: &str) -> Result<String, Failure> {
        if params.t > wire::MAX_T {
            return Err(ServiceError::new(
                ErrCode::BadRequest,
                format!("t = {} exceeds the limit {}", params.t, wire::MAX_T),
            )
            .into());
        }
        let session = Session::create(params)?;
        let mut inner = lock(&self.inner);
        if let Some(existing) = inner.nonces.get(&params.nonce) {
            return Ok(open_resp(existing));
        }
        if inner.sessions.len() >= self.limits.max_sessions {
            return Err(ServiceError::new(
                ErrCode::Overloaded,
                format!("session capacity {} reached", self.limits.max_sessions),
            )
            .into());
        }
        inner.next_id += 1;
        let id = format!("s-{}", inner.next_id);
        self.journal_append(
            &Record::Open {
                session: id.clone(),
                params: params.clone(),
            },
            trace,
        )?;
        inner.nonces.insert(params.nonce, id.clone());
        inner.sessions.insert(id.clone(), session);
        Ok(open_resp(&id))
    }

    fn handle_client(
        &self,
        session: &str,
        seq: u64,
        t_cmp: f64,
        t_com: f64,
        trace: &str,
    ) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        let s = mutable_session(&mut inner, session, seq)?;
        if let Some(replay) = seq_gate(s, seq)? {
            return Ok(replay);
        }
        let idx = apply_client(s, t_cmp, t_com)?;
        self.journal_append(
            &Record::Client {
                session: session.into(),
                seq,
                t_cmp,
                t_com,
            },
            trace,
        )?;
        let resp = client_resp(idx);
        s.last_seq = seq;
        s.last_resp = Some(resp.clone());
        Ok(resp)
    }

    fn handle_bid(
        &self,
        session: &str,
        seq: u64,
        bid: &BidParams,
        trace: &str,
    ) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        let s = mutable_session(&mut inner, session, seq)?;
        if let Some(replay) = seq_gate(s, seq)? {
            return Ok(replay);
        }
        let (idx, duplicate) = apply_bid(s, bid)?;
        if !duplicate {
            // Duplicates change no state, so there is nothing to make
            // durable: a post-crash retry takes this same path and gets
            // the same answer.
            self.journal_append(
                &Record::Bid {
                    session: session.into(),
                    seq,
                    client: bid.client,
                    price: bid.price,
                    theta: bid.theta,
                    a: bid.a,
                    d: bid.d,
                    c: bid.c,
                },
                trace,
            )?;
        } else {
            self.live.counter("service.bid.duplicate", 1);
        }
        let resp = bid_resp(idx, duplicate);
        s.last_seq = seq;
        s.last_resp = Some(resp.clone());
        Ok(resp)
    }

    fn handle_submit(
        &self,
        session: &str,
        seq: u64,
        bid: &BidParams,
        trace: &str,
    ) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        let s = mutable_session(&mut inner, session, seq)?;
        if let Some(replay) = seq_gate(s, seq)? {
            return Ok(replay);
        }
        let decision = apply_submit(s, bid)?;
        // The verdict is journaled *with* the arrival: recovery re-drives
        // the same deterministic rule and refuses the journal if the
        // re-derived decision differs by a single bit.
        self.journal_append(
            &Record::Decision {
                session: session.into(),
                seq,
                client: bid.client,
                price: bid.price,
                theta: bid.theta,
                a: bid.a,
                d: bid.d,
                c: bid.c,
                committed: decision.committed,
                payment: decision.payment,
                reason: decision.reason.as_str().into(),
                duplicate: decision.duplicate,
            },
            trace,
        )?;
        if decision.duplicate {
            self.live.counter("service.bid.duplicate", 1);
        }
        let resp = submit_resp(&decision);
        s.last_seq = seq;
        s.last_resp = Some(resp.clone());
        Ok(resp)
    }

    fn handle_close(&self, session: &str, seq: u64, trace: &str) -> Result<String, Failure> {
        // Phase 1: gate, reserve a close slot, journal the intent.
        let work = {
            let mut inner = lock(&self.inner);
            let s = known_session(&mut inner, session)?;
            // Exact-seq retry of an already-applied close replays the
            // stored decision whatever the state.
            if seq == s.last_seq {
                if let Some(replay) = s.last_resp.clone() {
                    return Ok(replay);
                }
            }
            match &s.state {
                SessionState::Closed(_) => return Err(conflict("session already closed").into()),
                SessionState::Closing => {
                    return Err(
                        ServiceError::new(ErrCode::Backlog, "close already in progress").into(),
                    )
                }
                SessionState::Collecting => {}
            }
            if let Some(replay) = seq_gate(s, seq)? {
                return Ok(replay);
            }
            if !self.try_reserve_close_slot() {
                return Err(ServiceError::new(
                    ErrCode::Backlog,
                    format!("all {} close slots busy", self.limits.max_inflight_close),
                )
                .into());
            }
            if let Err(e) = self.journal_append(
                &Record::CloseBegin {
                    session: session.into(),
                    seq,
                },
                trace,
            ) {
                self.release_close_slot();
                return Err(e);
            }
            s.state = SessionState::Closing;
            CloseWork::of(s)
        };

        // Phase 2: solve outside every lock — closes of other sessions
        // and all queries proceed meanwhile. (Streaming sessions resolve
        // instantly: their decisions were all taken on arrival.)
        let result = work.resolve();

        // Phase 3: commit the decision.
        let commit = self.journal_append(
            &Record::CloseCommit {
                session: session.into(),
                result: result.clone(),
            },
            trace,
        );
        self.release_close_slot();
        commit?;
        let mut inner = lock(&self.inner);
        let resp = close_resp(&result);
        if let Some(s) = inner.sessions.get_mut(session) {
            s.state = SessionState::Closed(result);
            s.last_seq = seq;
            s.last_resp = Some(resp.clone());
        }
        inner.closed += 1;
        Ok(resp)
    }

    fn handle_outcome(&self, session: &str) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        let s = known_session(&mut inner, session)?;
        match &s.state {
            SessionState::Closed(result) => Ok(close_resp(result)),
            SessionState::Closing => {
                Err(ServiceError::new(ErrCode::Backlog, "close in progress").into())
            }
            SessionState::Collecting => Err(conflict("session not closed").into()),
        }
    }

    fn handle_payment(&self, session: &str, client: u32) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        let s = known_session(&mut inner, session)?;
        match &s.state {
            SessionState::Closed(CloseResult::Committed(outcome)) => {
                let mut entries = Vec::new();
                let mut total = 0.0f64;
                for w in outcome.solution().winners() {
                    if w.bid_ref.client.0 == client {
                        total += w.payment;
                        entries.push(json::object(&[
                            ("bid".into(), w.bid_ref.bid.to_string()),
                            ("payment".into(), json::number(w.payment)),
                        ]));
                    }
                }
                Ok(json::object(&[
                    ("ok".into(), "true".into()),
                    ("status".into(), json::string("committed")),
                    ("client".into(), client.to_string()),
                    ("total".into(), json::number(total)),
                    ("payments".into(), json::array(&entries)),
                ]))
            }
            SessionState::Closed(CloseResult::Aborted(reason)) => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("status".into(), json::string("aborted")),
                ("reason".into(), json::string(reason)),
            ])),
            SessionState::Closing => {
                Err(ServiceError::new(ErrCode::Backlog, "close in progress").into())
            }
            SessionState::Collecting => Err(conflict("session not closed").into()),
        }
    }

    fn try_reserve_close_slot(&self) -> bool {
        self.inflight_close
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.limits.max_inflight_close).then_some(n + 1)
            })
            .is_ok()
    }

    fn release_close_slot(&self) {
        self.inflight_close.fetch_sub(1, Ordering::SeqCst);
    }

    fn journal_append(&self, rec: &Record, trace: &str) -> Result<(), Failure> {
        let started = Instant::now();
        let mut journal = lock(&self.journal);
        let out = journal.append_with_trace(rec, (!trace.is_empty()).then_some(trace));
        self.live
            .sample("service.journal.append_ms", ms_since(started));
        match out {
            Ok(()) => Ok(()),
            Err(e) if is_injected_crash(&e) => {
                self.crashed.store(true, Ordering::SeqCst);
                Err(Failure::Crash)
            }
            Err(e) => Err(ServiceError::new(
                ErrCode::Internal,
                format!("journal append failed: {e}"),
            )
            .into()),
        }
    }

    /// Rebuilds in-memory state from journal records (no re-journaling).
    fn replay(&self, records: Vec<Record>, report: &mut RecoveryReport) {
        let mut inner = lock(&self.inner);
        for rec in records {
            let session_id = rec.session().to_string();
            match rec {
                Record::Open { session, params } => {
                    let rebuilt = match Session::create(&params) {
                        Ok(s) => s,
                        Err(_) => {
                            report.anomalies += 1;
                            continue;
                        }
                    };
                    let numeric: u64 = session
                        .strip_prefix("s-")
                        .and_then(|n| n.parse().ok())
                        .unwrap_or(0);
                    inner.next_id = inner.next_id.max(numeric);
                    inner.nonces.insert(params.nonce, session.clone());
                    inner.sessions.insert(session, rebuilt);
                }
                Record::Client {
                    seq, t_cmp, t_com, ..
                } => match inner.sessions.get_mut(&session_id) {
                    Some(s) => match apply_client(s, t_cmp, t_com) {
                        Ok(idx) => {
                            s.last_seq = seq;
                            s.last_resp = Some(client_resp(idx));
                        }
                        Err(_) => report.anomalies += 1,
                    },
                    None => report.anomalies += 1,
                },
                Record::Bid {
                    seq,
                    client,
                    price,
                    theta,
                    a,
                    d,
                    c,
                    ..
                } => match inner.sessions.get_mut(&session_id) {
                    Some(s) => {
                        let bid = BidParams {
                            client,
                            price,
                            theta,
                            a,
                            d,
                            c,
                        };
                        match apply_bid(s, &bid) {
                            Ok((idx, duplicate)) => {
                                s.last_seq = seq;
                                s.last_resp = Some(bid_resp(idx, duplicate));
                            }
                            Err(_) => report.anomalies += 1,
                        }
                    }
                    None => report.anomalies += 1,
                },
                Record::Decision {
                    seq,
                    client,
                    price,
                    theta,
                    a,
                    d,
                    c,
                    committed,
                    payment,
                    reason,
                    duplicate,
                    ..
                } => match inner.sessions.get_mut(&session_id) {
                    Some(s) => {
                        let bid = BidParams {
                            client,
                            price,
                            theta,
                            a,
                            d,
                            c,
                        };
                        // Re-drive the online rule and require the
                        // re-derived verdict to match the journaled one
                        // bit-for-bit — a mismatch means the journal and
                        // the mechanism disagree, which recovery must
                        // surface, never paper over.
                        match apply_submit(s, &bid) {
                            Ok(decision)
                                if decision.committed == committed
                                    && decision.payment.to_bits() == payment.to_bits()
                                    && decision.reason.as_str() == reason
                                    && decision.duplicate == duplicate =>
                            {
                                s.last_seq = seq;
                                s.last_resp = Some(submit_resp(&decision));
                            }
                            _ => report.anomalies += 1,
                        }
                    }
                    None => report.anomalies += 1,
                },
                Record::CloseBegin { seq, .. } => match inner.sessions.get_mut(&session_id) {
                    Some(s) => {
                        s.state = SessionState::Closing;
                        s.pending_close_seq = Some(seq);
                    }
                    None => report.anomalies += 1,
                },
                Record::CloseCommit { result, .. } => match inner.sessions.get_mut(&session_id) {
                    Some(s) => {
                        if let CloseResult::Aborted(_) = &result {
                            report.aborted += 1;
                        }
                        if let Some(seq) = s.pending_close_seq.take() {
                            s.last_seq = seq;
                        }
                        s.last_resp = Some(close_resp(&result));
                        s.state = SessionState::Closed(result);
                        inner.closed += 1;
                    }
                    None => report.anomalies += 1,
                },
            }
        }
    }

    /// Re-solves epochs whose `close_begin` never committed. The solve
    /// is deterministic on the journaled bid set, so the outcome is
    /// bit-identical to what the dead process would have produced.
    fn finish_pending_closes(&self, report: &mut RecoveryReport) {
        let pending: Vec<(String, CloseWork, u64)> = {
            let inner = lock(&self.inner);
            inner
                .sessions
                .iter()
                .filter_map(|(id, s)| match (&s.state, s.pending_close_seq) {
                    (SessionState::Closing, Some(seq)) => Some((id.clone(), CloseWork::of(s), seq)),
                    _ => None,
                })
                .collect()
        };
        for (id, work, seq) in pending {
            let result = work.resolve();
            if self
                .journal_append(
                    &Record::CloseCommit {
                        session: id.clone(),
                        result: result.clone(),
                    },
                    "recovery",
                )
                .is_err()
            {
                // Crashed again (nested crash point) or journal broke:
                // leave the session Closing; the next recovery retries.
                return;
            }
            report.replayed_closes += 1;
            if let CloseResult::Aborted(_) = &result {
                report.aborted += 1;
            }
            let mut inner = lock(&self.inner);
            if let Some(s) = inner.sessions.get_mut(&id) {
                s.last_seq = seq;
                s.last_resp = Some(close_resp(&result));
                s.pending_close_seq = None;
                s.state = SessionState::Closed(result);
            }
            inner.closed += 1;
        }
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn solve(instance: &Instance) -> CloseResult {
    match run_auction(instance) {
        Ok(outcome) => CloseResult::Committed(outcome),
        Err(AuctionError::Infeasible) => CloseResult::Aborted("infeasible".into()),
        Err(e) => CloseResult::Aborted(format!("solver failed: {e}")),
    }
}

fn conflict(detail: &str) -> ServiceError {
    ServiceError::new(ErrCode::Conflict, detail)
}

fn known_session<'a>(inner: &'a mut Inner, session: &str) -> Result<&'a mut Session, ServiceError> {
    inner.sessions.get_mut(session).ok_or_else(|| {
        ServiceError::new(ErrCode::UnknownSession, format!("no session {session:?}"))
    })
}

/// Looks up a session for a mutating request and requires it to still be
/// collecting — except for exact-seq replays, which are answered from
/// the stored response whatever the state.
fn mutable_session<'a>(
    inner: &'a mut Inner,
    session: &str,
    seq: u64,
) -> Result<&'a mut Session, ServiceError> {
    let s = known_session(inner, session)?;
    let replayable = seq == s.last_seq && s.last_resp.is_some();
    match &s.state {
        SessionState::Collecting => {}
        _ if replayable => {}
        SessionState::Closing => return Err(conflict("close in progress")),
        SessionState::Closed(_) => return Err(conflict("session already closed")),
    }
    Ok(s)
}

/// The idempotency gate: `Ok(Some(resp))` replays a stored response,
/// `Ok(None)` admits a fresh seq, `Err` rejects a stale one.
fn seq_gate(s: &Session, seq: u64) -> Result<Option<String>, ServiceError> {
    if seq == s.last_seq {
        if let Some(resp) = &s.last_resp {
            return Ok(Some(resp.clone()));
        }
    }
    if seq <= s.last_seq {
        return Err(conflict(&format!(
            "stale seq {seq} (last applied {})",
            s.last_seq
        )));
    }
    Ok(None)
}

fn apply_client(s: &mut Session, t_cmp: f64, t_com: f64) -> Result<u32, ServiceError> {
    let profile = ClientProfile::new(t_cmp, t_com)
        .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))?;
    let idx = s.instance.add_client(profile).0;
    if let Some(online) = &mut s.online {
        // The driver keeps its own instance; registering in both keeps
        // the indices aligned (both start empty, same order).
        online.register_client(profile);
    }
    Ok(idx)
}

/// Applies a batch-mode bid, deduplicating identical re-submissions:
/// the second arrival of a bit-identical `(client, bid)` pair replays
/// the original index instead of growing the instance.
fn apply_bid(s: &mut Session, b: &BidParams) -> Result<(u32, bool), ServiceError> {
    if s.online.is_some() {
        return Err(conflict(
            "streaming session accepts \"submit\", not \"bid\"",
        ));
    }
    let fp = bid_fingerprint(b);
    if let Some(&idx) = s.seen_bids.get(&fp) {
        return Ok((idx, true));
    }
    let bid = Bid::new(b.price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c)
        .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))?;
    let idx = s
        .instance
        .add_bid(ClientId(b.client), bid)
        .map(|bid_ref| bid_ref.bid)
        .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))?;
    s.seen_bids.insert(fp, idx);
    Ok((idx, false))
}

/// Drives one streaming arrival through the online mechanism. The
/// driver itself makes duplicates idempotent (it replays the original
/// decision), so retried and duplicated frames cannot double-commit.
fn apply_submit(s: &mut Session, b: &BidParams) -> Result<OnlineDecision, ServiceError> {
    let online = s
        .online
        .as_mut()
        .ok_or_else(|| conflict("batch session accepts \"bid\", not \"submit\""))?;
    let bid = Bid::new(b.price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c)
        .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))?;
    online
        .submit(ClientId(b.client), bid)
        .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))
}

fn ok_only() -> String {
    json::object(&[("ok".into(), "true".into())])
}

fn open_resp(session: &str) -> String {
    json::object(&[
        ("ok".into(), "true".into()),
        ("session".into(), json::string(session)),
    ])
}

fn client_resp(idx: u32) -> String {
    json::object(&[
        ("ok".into(), "true".into()),
        ("client".into(), idx.to_string()),
    ])
}

fn bid_resp(idx: u32, duplicate: bool) -> String {
    let mut members = vec![
        ("ok".into(), "true".into()),
        ("bid".into(), idx.to_string()),
    ];
    if duplicate {
        members.push(("duplicate".into(), "true".into()));
    }
    json::object(&members)
}

/// The `submit` response: the irrevocable on-arrival verdict.
fn submit_resp(d: &OnlineDecision) -> String {
    let rounds: Vec<String> = d.schedule.iter().map(|r| r.0.to_string()).collect();
    json::object(&[
        ("ok".into(), "true".into()),
        ("bid".into(), d.bid_ref.bid.to_string()),
        ("committed".into(), d.committed.to_string()),
        ("reason".into(), json::string(d.reason.as_str())),
        ("payment".into(), json::number(d.payment)),
        ("rounds".into(), json::array(&rounds)),
        ("duplicate".into(), d.duplicate.to_string()),
    ])
}

/// The close/outcome response: the committed outcome in the lossless
/// `fl_auction::serial` encoding, or the explicit abort.
fn close_resp(result: &CloseResult) -> String {
    match result {
        CloseResult::Committed(outcome) => json::object(&[
            ("ok".into(), "true".into()),
            ("status".into(), json::string("committed")),
            ("outcome".into(), serial::outcome_to_json(outcome)),
        ]),
        CloseResult::Aborted(reason) => json::object(&[
            ("ok".into(), "true".into()),
            ("status".into(), json::string("aborted")),
            ("reason".into(), json::string(reason)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use fl_telemetry::json::Json;

    fn core(dir: &TempDir, limits: Limits) -> ServerCore {
        ServerCore::recover(
            &dir.path().join("wal.jsonl"),
            Durability::Strict,
            None,
            limits,
        )
        .unwrap()
        .0
    }

    fn reply(core: &ServerCore, req: &str) -> Json {
        match core.handle(req) {
            HandleResult::Reply(text) => json::parse(&text).unwrap(),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    fn ok(doc: &Json) -> bool {
        doc.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn drive_session(core: &ServerCore) -> String {
        let open = reply(core, r#"{"op":"open","nonce":1,"t":6,"k":2,"t_max":60}"#);
        assert!(ok(&open), "{open:?}");
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let mut seq = 0u64;
        for i in 0..4 {
            seq += 1;
            let r = reply(
                core,
                &format!(r#"{{"op":"client","session":"{sid}","seq":{seq},"t_cmp":2,"t_com":5}}"#),
            );
            assert!(ok(&r), "{r:?}");
            seq += 1;
            let r = reply(
                core,
                &format!(
                    r#"{{"op":"bid","session":"{sid}","seq":{seq},"client":{i},"price":{},"theta":0.55,"a":1,"d":6,"c":6}}"#,
                    2.0 + i as f64
                ),
            );
            assert!(ok(&r), "{r:?}");
        }
        sid
    }

    #[test]
    fn lifecycle_and_idempotent_replay() {
        let dir = TempDir::new("core-lifecycle");
        let core = core(&dir, Limits::default());
        let sid = drive_session(&core);

        // Duplicate bid seq replays the stored response, applying nothing.
        let dup = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":8,"client":3,"price":5,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        assert_eq!(dup.get("bid").and_then(Json::as_u64), Some(0));

        // Stale seq is a fatal conflict.
        let stale = reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":3,"t_cmp":2,"t_com":5}}"#),
        );
        assert_eq!(stale.get("code").and_then(Json::as_str), Some("conflict"));

        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
        // Close replay and the outcome query return the same decision.
        // Each request carries its own server-assigned trace, so compare
        // with the trace member stripped.
        let sans_trace = |doc: &Json| match doc {
            Json::Obj(members) => format!(
                "{:?}",
                members
                    .iter()
                    .filter(|(k, _)| k != "trace")
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        let again = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(sans_trace(&close), sans_trace(&again));
        let queried = reply(&core, &format!(r#"{{"op":"outcome","session":"{sid}"}}"#));
        assert_eq!(sans_trace(&close), sans_trace(&queried));

        // Mutations after close are conflicts.
        let late = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":10,"client":0,"price":5,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        assert_eq!(late.get("code").and_then(Json::as_str), Some("conflict"));
    }

    #[test]
    fn open_is_idempotent_by_nonce() {
        let dir = TempDir::new("core-nonce");
        let core = core(&dir, Limits::default());
        let a = reply(&core, r#"{"op":"open","nonce":77,"t":6,"k":2,"t_max":60}"#);
        let b = reply(&core, r#"{"op":"open","nonce":77,"t":6,"k":2,"t_max":60}"#);
        assert_eq!(
            a.get("session").and_then(Json::as_str),
            b.get("session").and_then(Json::as_str)
        );
        let c = reply(&core, r#"{"op":"open","nonce":78,"t":6,"k":2,"t_max":60}"#);
        assert_ne!(
            a.get("session").and_then(Json::as_str),
            c.get("session").and_then(Json::as_str)
        );
    }

    #[test]
    fn open_refuses_a_horizon_above_the_limit() {
        let dir = TempDir::new("core-max-t");
        let core = core(&dir, Limits::default());
        let huge = reply(
            &core,
            r#"{"op":"open","nonce":1,"t":4000000000,"k":2,"t_max":60}"#,
        );
        assert_eq!(huge.get("code").and_then(Json::as_str), Some("bad_request"));
        let at_limit = reply(
            &core,
            &format!(
                r#"{{"op":"open","nonce":2,"t":{},"k":2,"t_max":60}}"#,
                wire::MAX_T
            ),
        );
        assert!(ok(&at_limit), "{at_limit:?}");
    }

    /// An `open` request and journal record as older clients and daemons
    /// wrote them, with a `"threads"` member: both parse, the journal
    /// recovers, and retries replay the stored replies byte for byte.
    #[test]
    fn legacy_threads_member_parses_recovers_and_replays() {
        let dir = TempDir::new("core-legacy-threads");
        let path = dir.path().join("wal.jsonl");
        let recover =
            || ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        let text = |core: &ServerCore, req: &str| match core.handle(req) {
            HandleResult::Reply(text) => text,
            other => panic!("expected reply, got {other:?}"),
        };
        let requests = [
            r#"{"op":"open","trace":"t-1","nonce":9,"t":6,"k":1,"t_max":60,"threads":4}"#,
            r#"{"op":"client","trace":"t-2","session":"s-1","seq":1,"t_cmp":2,"t_com":5}"#,
            r#"{"op":"bid","trace":"t-3","session":"s-1","seq":2,"client":0,"price":3,"theta":0.55,"a":1,"d":6,"c":6}"#,
            r#"{"op":"close","trace":"t-4","session":"s-1","seq":3}"#,
        ];
        let replies: Vec<String> = {
            let (core, _) = recover();
            requests.iter().map(|r| text(&core, r)).collect()
        };
        assert!(
            replies[3].contains(r#""status":"committed""#),
            "{}",
            replies[3]
        );

        // Rewrite the open record as older daemons wrote it; re-encoding
        // the parsed record drops the member again.
        let bytes = std::fs::read(&path).unwrap();
        let mut legacy = Vec::new();
        for rec in crate::journal::scan_bytes(&bytes).records {
            let mut line = rec.to_json();
            if let Record::Open { .. } = rec {
                line = line.replace(r#""qualify":"intent""#, r#""qualify":"intent","threads":4"#);
                assert!(line.contains(r#""threads":4"#), "{line}");
                assert_eq!(Record::from_json(&line).unwrap().to_json(), rec.to_json());
            }
            fl_telemetry::frame::write_frame(&mut legacy, &line).unwrap();
        }
        std::fs::write(&path, legacy).unwrap();

        let (core, report) = recover();
        assert_eq!((report.sessions, report.anomalies), (1, 0));
        assert_eq!(text(&core, requests[0]), replies[0]);
        assert_eq!(text(&core, requests[3]), replies[3]);
        let (_, req) = wire::parse_request(requests[0]).unwrap();
        assert!(!wire::request_to_json(1, &req).contains("threads"));
    }

    #[test]
    fn capacity_limits_shed_with_retryable_codes() {
        let dir = TempDir::new("core-capacity");
        let core = core(
            &dir,
            Limits {
                max_sessions: 1,
                max_inflight_close: 0,
            },
        );
        assert!(ok(&reply(
            &core,
            r#"{"op":"open","nonce":1,"t":6,"k":2,"t_max":60}"#
        )));
        let shed = reply(&core, r#"{"op":"open","nonce":2,"t":6,"k":2,"t_max":60}"#);
        assert_eq!(shed.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(shed.get("retryable").and_then(Json::as_bool), Some(true));

        // Zero close slots: every close is backlogged (and retryable).
        let backlog = reply(&core, r#"{"op":"close","session":"s-1","seq":1}"#);
        assert_eq!(backlog.get("code").and_then(Json::as_str), Some("backlog"));
        assert_eq!(backlog.get("retryable").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn recovery_without_close_rebuilds_collecting_sessions() {
        let dir = TempDir::new("core-reopen");
        let path = dir.path().join("wal.jsonl");
        let sid;
        {
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
            sid = drive_session(&core);
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.anomalies, 0);
        // The rebuilt session accepts the close and commits.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
    }

    fn submit_frame(
        sid: &str,
        seq: u64,
        client: u32,
        price: f64,
        a: u32,
        d: u32,
        c: u32,
    ) -> String {
        format!(
            r#"{{"op":"submit","session":"{sid}","seq":{seq},"client":{client},"price":{price},"theta":0.55,"a":{a},"d":{d},"c":{c}}}"#
        )
    }

    /// Drives a streaming session: K = 1, T = 4, B = 40 → π = 10/round.
    fn drive_streaming(core: &ServerCore) -> String {
        let open = reply(
            core,
            r#"{"op":"open","nonce":5,"t":4,"k":1,"t_max":60,"budget":40}"#,
        );
        assert!(ok(&open), "{open:?}");
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let r = reply(
            core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        assert!(ok(&r), "{r:?}");
        sid
    }

    #[test]
    fn streaming_session_decides_on_arrival_and_closes_with_the_committed_set() {
        let dir = TempDir::new("core-streaming");
        let core = core(&dir, Limits::default());
        let sid = drive_streaming(&core);

        // Fits the posted offer (4 rounds x pi = 40 >= 25): committed.
        let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
        assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
        assert_eq!(d1.get("reason").and_then(Json::as_str), Some("committed"));
        assert_eq!(d1.get("payment").and_then(Json::as_f64), Some(40.0));

        // Coverage is saturated: rejected, and the decision is explicit.
        let d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(d2.get("committed").and_then(Json::as_bool), Some(false));
        assert_eq!(d2.get("reason").and_then(Json::as_str), Some("no_capacity"));

        // An identical re-submission under a NEW seq is a duplicate:
        // replays the original verdict, moves nothing.
        let dup = reply(&core, &submit_frame(&sid, 4, 0, 25.0, 1, 4, 4));
        assert_eq!(dup.get("committed").and_then(Json::as_bool), Some(true));
        assert_eq!(dup.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(dup.get("payment").and_then(Json::as_f64), Some(40.0));

        // The batch op on a streaming session is a conflict, not a panic.
        let wrong = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":5,"client":0,"price":1,"theta":0.55,"a":1,"d":4,"c":1}}"#
            ),
        );
        assert_eq!(wrong.get("code").and_then(Json::as_str), Some("conflict"));

        // Close commits exactly the on-arrival committed set.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":6}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
        let outcome = close.get("outcome").expect("committed close has outcome");
        let back = serial::outcome_from_value(outcome).unwrap();
        assert_eq!(back.solution().winners().len(), 1);
        assert!((back.solution().winners()[0].payment - 40.0).abs() < 1e-12);
    }

    #[test]
    fn submit_on_a_batch_session_is_a_conflict() {
        let dir = TempDir::new("core-submit-batch");
        let core = core(&dir, Limits::default());
        let sid = drive_session(&core);
        let wrong = reply(&core, &submit_frame(&sid, 9, 0, 1.0, 1, 6, 1));
        assert_eq!(wrong.get("code").and_then(Json::as_str), Some("conflict"));
    }

    #[test]
    fn streaming_recovery_replays_decisions_bit_identically() {
        let dir = TempDir::new("core-streaming-recover");
        let path = dir.path().join("wal.jsonl");
        let sid;
        let d2;
        {
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
            sid = drive_streaming(&core);
            let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
            assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
            d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.anomalies, 0, "re-derived decisions must match");
        // Replayed idempotency: retrying the last journaled seq returns
        // the stored verdict (modulo per-request trace ids).
        let strip = |doc: &Json| match doc {
            Json::Obj(members) => format!(
                "{:?}",
                members
                    .iter()
                    .filter(|(k, _)| k != "trace" && k != "id")
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        let r2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(strip(&d2), strip(&r2));
        // The stream continues where it left off.
        let d3 = reply(&core, &submit_frame(&sid, 4, 0, 2.0, 1, 4, 1));
        assert_eq!(d3.get("reason").and_then(Json::as_str), Some("no_capacity"));
    }

    #[test]
    fn crash_on_a_decision_record_recovers_without_the_lost_arrival() {
        use crate::faults::FaultPlan;
        let dir = TempDir::new("core-decision-crash");
        let path = dir.path().join("wal.jsonl");
        let sid;
        {
            let plan = FaultPlan::parse("crash=decision:2:0.5").unwrap();
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, Some(plan), Limits::default())
                    .unwrap();
            sid = drive_streaming(&core);
            let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
            assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
            // The second decision dies mid-append: no ack, core dead.
            match core.handle(&submit_frame(&sid, 3, 0, 1.0, 1, 4, 4)) {
                HandleResult::Crashed => {}
                other => panic!("expected crash, got {other:?}"),
            }
            assert!(core.crashed());
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.anomalies, 0);
        // The first (acknowledged) decision survived; the torn second one
        // was truncated away, so its seq applies fresh — with the same
        // deterministic verdict the dead daemon would have taken.
        assert!(report.truncated_bytes > 0);
        let d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(d2.get("committed").and_then(Json::as_bool), Some(false));
        assert_eq!(d2.get("reason").and_then(Json::as_str), Some("no_capacity"));
    }

    #[test]
    fn duplicate_batch_bids_are_idempotent_under_fresh_seqs() {
        let dir = TempDir::new("core-dup-bid");
        let core = core(&dir, Limits::default());
        let open = reply(&core, r#"{"op":"open","nonce":1,"t":6,"k":1,"t_max":60}"#);
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        let bid_frame = |seq: u64, price: f64| {
            format!(
                r#"{{"op":"bid","session":"{sid}","seq":{seq},"client":0,"price":{price},"theta":0.55,"a":1,"d":6,"c":6}}"#
            )
        };
        let first = reply(&core, &bid_frame(2, 3.0));
        assert_eq!(first.get("bid").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("duplicate"), None);
        // Same bid, fresh seq: replays index 0 instead of double-adding.
        let dup = reply(&core, &bid_frame(3, 3.0));
        assert_eq!(dup.get("bid").and_then(Json::as_u64), Some(0));
        assert_eq!(dup.get("duplicate").and_then(Json::as_bool), Some(true));
        // A different price is a genuinely new bid.
        let fresh = reply(&core, &bid_frame(4, 4.0));
        assert_eq!(fresh.get("bid").and_then(Json::as_u64), Some(1));
        // The instance holds exactly two bids: the close sees no phantom.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":5}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
    }

    #[test]
    fn infeasible_close_aborts_explicitly() {
        let dir = TempDir::new("core-infeasible");
        let core = core(&dir, Limits::default());
        let open = reply(&core, r#"{"op":"open","nonce":1,"t":6,"k":5,"t_max":60}"#);
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // One client cannot satisfy K=5.
        reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":2,"client":0,"price":2,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":3}}"#),
        );
        assert_eq!(close.get("status").and_then(Json::as_str), Some("aborted"));
        assert_eq!(
            close.get("reason").and_then(Json::as_str),
            Some("infeasible")
        );
        // Payments on an aborted epoch are explicit about it.
        let pay = reply(
            &core,
            &format!(r#"{{"op":"payment","session":"{sid}","client":0}}"#),
        );
        assert_eq!(pay.get("status").and_then(Json::as_str), Some("aborted"));
    }
}
