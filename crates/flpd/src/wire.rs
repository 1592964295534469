//! The request side of the flpd wire protocol.
//!
//! Every request is one framed JSON object (see `fl_telemetry::frame`)
//! with an `"op"` discriminator, an optional `"id"` echo token, and — for
//! mutating operations — a `"session"` handle plus a client-chosen
//! `"seq"` number that makes retries idempotent: the daemon remembers the
//! highest applied `seq` per session and replays the stored response when
//! it sees the same `seq` again, so a client whose ack was lost can
//! resend without double-applying a bid.
//!
//! ```text
//! {"op":"open","id":1,"nonce":7,"t":6,"k":2,"t_max":60}
//! {"op":"client","id":2,"session":"s-1","seq":1,"t_cmp":2.0,"t_com":5.0}
//! {"op":"bid","id":3,"session":"s-1","seq":2,"client":0,
//!  "price":3.0,"theta":0.55,"a":1,"d":6,"c":6}
//! {"op":"close","id":4,"session":"s-1","seq":3}
//! {"op":"outcome","id":5,"session":"s-1"}
//! {"op":"payment","id":6,"session":"s-1","client":0}
//! ```
//!
//! An `open` carrying a `"budget"` member creates a *streaming* session:
//! its bids arrive via the `submit` op (same body as `bid`) and each one
//! is committed or rejected irrevocably on arrival by the online
//! mechanism (`fl_auction::OnlineAuction`); the response carries the
//! verdict, the posted payment, and the committed schedule.
//!
//! ```text
//! {"op":"open","id":1,"nonce":7,"t":6,"k":2,"t_max":60,"budget":120}
//! {"op":"submit","id":2,"session":"s-1","seq":1,"client":0,
//!  "price":3.0,"theta":0.55,"a":1,"d":6,"c":6}
//! ```
//!
//! Responses always carry `"ok"` and echo `"id"` when the request had
//! one; failures add `"code"`, `"retryable"` and `"detail"` from the
//! [`crate::error`] taxonomy.
//!
//! An `open` whose `"t"` exceeds [`MAX_T`] is refused with `bad_request`:
//! a batch close visits every horizon up to `T` and a streaming session
//! sizes its coverage by `T`. The limit is checked when a session is
//! opened, not when the journal is replayed, so sessions recorded before
//! it existed still recover.
//!
//! Members the daemon does not know are ignored. Older clients and
//! journals carry a `"threads"` member in `open`; it is read past and
//! never written back.
//!
//! Requests may additionally carry a `"trace"` string — an end-to-end
//! trace id the daemon echoes on the response, stamps on its journal
//! records and flight-recorder events, and invents (`srv-<n>`) when the
//! client sent none. A trace id longer than [`MAX_TRACE`] bytes is
//! refused with `bad_request`: the daemon copies the id into the reply,
//! two flight events and the journal. Like [`MAX_T`], the limit is
//! checked on requests only, not on journal replay.
//!
//! The admin plane adds three read-only ops: `stats` (merged
//! live-metrics snapshot), `health` (cheap liveness probe) and `flight`
//! (flight-recorder dump).

use fl_auction::{AuctionConfig, LocalIterationModel, QualifyMode};
use fl_telemetry::json::{self, Json};

use crate::error::{ErrCode, ServiceError};

/// The largest horizon `T` an `open` may ask for. Every `t` the
/// repository's clients send is at most 16.
pub const MAX_T: u32 = 4_096;

/// The longest `"trace"` id a request may carry, in bytes. The client's
/// `cli-<seed>-<n>` ids are at most 45 bytes.
pub const MAX_TRACE: usize = 128;

/// Parameters of an `open` request.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenParams {
    /// Client-chosen idempotency token: reopening with the same nonce
    /// returns the existing session instead of creating a twin.
    pub nonce: u64,
    /// Maximum number of global iterations `T`.
    pub t: u32,
    /// Clients required per round `K`.
    pub k: u32,
    /// Per-round wall-clock limit `t_max`.
    pub t_max: f64,
    /// Local-iteration model: `"linear"` or `"log"`.
    pub model: String,
    /// The model's parameter (scale for linear, eta for log).
    pub param: f64,
    /// Qualification mode: `"intent"` or `"literal"`.
    pub qualify: String,
    /// Streaming-mode remuneration budget `B`: `Some` opens an online
    /// session whose bids arrive via `submit` and are decided on arrival
    /// under this budget; `None` (the default) opens a batch session.
    pub budget: Option<f64>,
}

impl OpenParams {
    /// A small default configuration (linear model, intent
    /// qualification, batch mode).
    pub fn new(nonce: u64, t: u32, k: u32, t_max: f64) -> OpenParams {
        OpenParams {
            nonce,
            t,
            k,
            t_max,
            model: "linear".into(),
            param: 1.0,
            qualify: "intent".into(),
            budget: None,
        }
    }

    /// The same defaults opened in streaming mode under `budget`.
    pub fn streaming(nonce: u64, t: u32, k: u32, t_max: f64, budget: f64) -> OpenParams {
        OpenParams {
            budget: Some(budget),
            ..OpenParams::new(nonce, t, k, t_max)
        }
    }

    /// Builds the auction configuration these parameters describe.
    ///
    /// # Errors
    ///
    /// `BadRequest` on unknown model/qualify names or configuration
    /// values `AuctionConfig` rejects.
    pub fn to_config(&self) -> Result<AuctionConfig, ServiceError> {
        let model = match self.model.as_str() {
            "linear" => LocalIterationModel::Linear { scale: self.param },
            "log" => LocalIterationModel::LogInverse { eta: self.param },
            other => {
                return Err(ServiceError::new(
                    ErrCode::BadRequest,
                    format!("unknown model {other:?} (expected \"linear\" or \"log\")"),
                ))
            }
        };
        let qualify = match self.qualify.as_str() {
            "intent" => QualifyMode::Intent,
            "literal" => QualifyMode::Literal,
            other => {
                return Err(ServiceError::new(
                    ErrCode::BadRequest,
                    format!("unknown qualify mode {other:?}"),
                ))
            }
        };
        AuctionConfig::builder()
            .max_rounds(self.t)
            .clients_per_round(self.k)
            .round_time_limit(self.t_max)
            .local_model(model)
            .qualify_mode(qualify)
            .build()
            .map_err(|e| ServiceError::new(ErrCode::BadRequest, e.to_string()))
    }

    /// Serialises the parameter fields (shared by the wire request and
    /// the journal's `open` record).
    pub fn json_members(&self) -> Vec<(String, String)> {
        let mut members = vec![
            ("nonce".into(), self.nonce.to_string()),
            ("t".into(), self.t.to_string()),
            ("k".into(), self.k.to_string()),
            ("t_max".into(), json::number(self.t_max)),
            ("model".into(), json::string(&self.model)),
            ("param".into(), json::number(self.param)),
            ("qualify".into(), json::string(&self.qualify)),
        ];
        if let Some(budget) = self.budget {
            members.push(("budget".into(), json::number(budget)));
        }
        members
    }

    /// Reads the parameter fields back from a parsed document.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_value(doc: &Json) -> Result<OpenParams, String> {
        Ok(OpenParams {
            nonce: get_u64(doc, "nonce")?,
            t: get_u32(doc, "t")?,
            k: get_u32(doc, "k")?,
            t_max: get_f64(doc, "t_max")?,
            model: opt_str(doc, "model").unwrap_or("linear").to_string(),
            param: opt_f64(doc, "param")?.unwrap_or(1.0),
            qualify: opt_str(doc, "qualify").unwrap_or("intent").to_string(),
            budget: opt_f64(doc, "budget")?,
        })
    }
}

/// Parameters of a `bid` request (mirrors `fl_auction::Bid` plus the
/// owning client index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidParams {
    /// Index of the client that owns the bid.
    pub client: u32,
    /// Claimed cost `b_ij`.
    pub price: f64,
    /// Local accuracy `theta_ij`.
    pub theta: f64,
    /// Availability window start round.
    pub a: u32,
    /// Availability window end round.
    pub d: u32,
    /// Battery-limited participation rounds `c_ij`.
    pub c: u32,
}

/// Request envelope fields that are not the operation itself: the echo
/// id and the propagated trace id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReqMeta {
    /// Client echo token, stamped back on the response.
    pub id: Option<u64>,
    /// End-to-end trace id, echoed on the response and stamped on
    /// journal records and flight events.
    pub trace: Option<String>,
}

impl ReqMeta {
    /// Meta carrying only an echo id (the common client case before
    /// tracing).
    pub fn with_id(id: u64) -> ReqMeta {
        ReqMeta {
            id: Some(id),
            trace: None,
        }
    }
}

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Merged live-metrics snapshot (admin plane).
    Stats,
    /// Cheap liveness + overload state (admin plane).
    Health,
    /// Flight-recorder dump (admin plane).
    Flight,
    /// Graceful daemon shutdown.
    Shutdown,
    /// Create (or idempotently re-fetch) a session.
    Open(OpenParams),
    /// Register a client profile in a session.
    Client {
        /// Session handle.
        session: String,
        /// Idempotency sequence number.
        seq: u64,
        /// Per-round computation time.
        t_cmp: f64,
        /// Per-round communication time.
        t_com: f64,
    },
    /// Submit a bid.
    Bid {
        /// Session handle.
        session: String,
        /// Idempotency sequence number.
        seq: u64,
        /// The bid body.
        bid: BidParams,
    },
    /// Submit a streaming bid for an irrevocable on-arrival decision
    /// (streaming sessions only).
    Submit {
        /// Session handle.
        session: String,
        /// Idempotency sequence number.
        seq: u64,
        /// The bid body.
        bid: BidParams,
    },
    /// Close the epoch: run the auction and commit the outcome.
    Close {
        /// Session handle.
        session: String,
        /// Idempotency sequence number.
        seq: u64,
    },
    /// Query the committed outcome of a closed session.
    Outcome {
        /// Session handle.
        session: String,
    },
    /// Query the payments owed to one client of a closed session.
    Payment {
        /// Session handle.
        session: String,
        /// Client index.
        client: u32,
    },
}

fn get<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    get(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} not an unsigned integer"))
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(doc, key)?).map_err(|_| format!("{key:?} exceeds u32"))
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    get(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} not a number"))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    get(doc, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} not a string"))
}

fn opt_str<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn opt_f64(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} not a number")),
    }
}

/// Parses one request frame into its envelope meta and operation.
///
/// # Errors
///
/// `BadRequest` with the parse reason — the daemon answers these with an
/// error frame and keeps the connection.
pub fn parse_request(text: &str) -> Result<(ReqMeta, Request), ServiceError> {
    let bad = |why: String| ServiceError::new(ErrCode::BadRequest, why);
    let doc = json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let trace = opt_str(&doc, "trace");
    if trace.is_some_and(|t| t.len() > MAX_TRACE) {
        return Err(bad(format!("trace id longer than {MAX_TRACE} bytes")));
    }
    let meta = ReqMeta {
        id: doc.get("id").and_then(Json::as_u64),
        trace: trace.map(str::to_string),
    };
    let op = get_str(&doc, "op").map_err(bad)?;
    let req = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "health" => Request::Health,
        "flight" => Request::Flight,
        "shutdown" => Request::Shutdown,
        "open" => Request::Open(OpenParams::from_value(&doc).map_err(bad)?),
        "client" => Request::Client {
            session: get_str(&doc, "session").map_err(bad)?.to_string(),
            seq: get_u64(&doc, "seq").map_err(bad)?,
            t_cmp: get_f64(&doc, "t_cmp").map_err(bad)?,
            t_com: get_f64(&doc, "t_com").map_err(bad)?,
        },
        "bid" | "submit" => {
            let session = get_str(&doc, "session").map_err(bad)?.to_string();
            let seq = get_u64(&doc, "seq").map_err(bad)?;
            let bid = BidParams {
                client: get_u32(&doc, "client").map_err(bad)?,
                price: get_f64(&doc, "price").map_err(bad)?,
                theta: get_f64(&doc, "theta").map_err(bad)?,
                a: get_u32(&doc, "a").map_err(bad)?,
                d: get_u32(&doc, "d").map_err(bad)?,
                c: get_u32(&doc, "c").map_err(bad)?,
            };
            if op == "bid" {
                Request::Bid { session, seq, bid }
            } else {
                Request::Submit { session, seq, bid }
            }
        }
        "close" => Request::Close {
            session: get_str(&doc, "session").map_err(bad)?.to_string(),
            seq: get_u64(&doc, "seq").map_err(bad)?,
        },
        "outcome" => Request::Outcome {
            session: get_str(&doc, "session").map_err(bad)?.to_string(),
        },
        "payment" => Request::Payment {
            session: get_str(&doc, "session").map_err(bad)?.to_string(),
            client: get_u32(&doc, "client").map_err(bad)?,
        },
        other => return Err(bad(format!("unknown op {other:?}"))),
    };
    Ok((meta, req))
}

/// Serialises a request. `id` is the echo token the response will carry.
pub fn request_to_json(id: u64, req: &Request) -> String {
    request_with_trace(id, None, req)
}

/// Serialises a request carrying a trace id for end-to-end propagation.
pub fn request_with_trace(id: u64, trace: Option<&str>, req: &Request) -> String {
    let mut members = vec![("op".into(), json::string(op_name(req)))];
    members.push(("id".into(), id.to_string()));
    if let Some(trace) = trace {
        members.push(("trace".into(), json::string(trace)));
    }
    match req {
        Request::Ping | Request::Stats | Request::Health | Request::Flight | Request::Shutdown => {}
        Request::Open(p) => members.extend(p.json_members()),
        Request::Client {
            session,
            seq,
            t_cmp,
            t_com,
        } => {
            members.push(("session".into(), json::string(session)));
            members.push(("seq".into(), seq.to_string()));
            members.push(("t_cmp".into(), json::number(*t_cmp)));
            members.push(("t_com".into(), json::number(*t_com)));
        }
        Request::Bid { session, seq, bid } | Request::Submit { session, seq, bid } => {
            members.push(("session".into(), json::string(session)));
            members.push(("seq".into(), seq.to_string()));
            members.push(("client".into(), bid.client.to_string()));
            members.push(("price".into(), json::number(bid.price)));
            members.push(("theta".into(), json::number(bid.theta)));
            members.push(("a".into(), bid.a.to_string()));
            members.push(("d".into(), bid.d.to_string()));
            members.push(("c".into(), bid.c.to_string()));
        }
        Request::Close { session, seq } => {
            members.push(("session".into(), json::string(session)));
            members.push(("seq".into(), seq.to_string()));
        }
        Request::Outcome { session } => {
            members.push(("session".into(), json::string(session)));
        }
        Request::Payment { session, client } => {
            members.push(("session".into(), json::string(session)));
            members.push(("client".into(), client.to_string()));
        }
    }
    json::object(&members)
}

/// The wire discriminator of a request — also the suffix of the daemon's
/// per-command `service.cmd.<op>` latency histograms.
pub fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Health => "health",
        Request::Flight => "flight",
        Request::Shutdown => "shutdown",
        Request::Open(_) => "open",
        Request::Client { .. } => "client",
        Request::Bid { .. } => "bid",
        Request::Submit { .. } => "submit",
        Request::Close { .. } => "close",
        Request::Outcome { .. } => "outcome",
        Request::Payment { .. } => "payment",
    }
}

/// Serialises an error response (without an id; see [`with_id`]).
pub fn error_response(err: &ServiceError) -> String {
    json::object(&[
        ("ok".into(), "false".into()),
        ("code".into(), json::string(err.code.as_str())),
        ("retryable".into(), err.retryable().to_string()),
        ("detail".into(), json::string(&err.detail)),
    ])
}

/// Splices the echo id into an already-serialised response object. The
/// daemon stores per-seq replay responses *without* ids, then stamps the
/// current request's id on the way out, so a retry with a fresh id still
/// matches at the client.
pub fn with_id(resp: &str, id: Option<u64>) -> String {
    match id {
        None => resp.to_string(),
        Some(id) => {
            debug_assert!(resp.starts_with('{') && resp.len() > 2);
            format!("{{\"id\":{id},{}", &resp[1..])
        }
    }
}

/// Splices the echo id *and* trace id into an already-serialised
/// response object — the trace-aware [`with_id`]. Replay responses are
/// stored bare, so a retried request gets its own current meta stamped.
pub fn with_meta(resp: &str, meta: &ReqMeta) -> String {
    let resp = match &meta.trace {
        None => return with_id(resp, meta.id),
        Some(trace) => {
            debug_assert!(resp.starts_with('{') && resp.len() > 2);
            format!("{{\"trace\":{},{}", json::string(trace), &resp[1..])
        }
    };
    with_id(&resp, meta.id)
}

/// Reads an error response back into [`ServiceError`], if the document
/// is one (`"ok": false`).
pub fn error_from_value(doc: &Json) -> Option<ServiceError> {
    if doc.get("ok").and_then(Json::as_bool) == Some(false) {
        let code = doc
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrCode::parse_str)
            .unwrap_or(ErrCode::Internal);
        let detail = doc
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        Some(ServiceError { code, detail })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Health,
            Request::Flight,
            Request::Open(OpenParams::new(7, 6, 2, 60.0)),
            Request::Client {
                session: "s-1".into(),
                seq: 1,
                t_cmp: 2.5,
                t_com: 5.0,
            },
            Request::Bid {
                session: "s-1".into(),
                seq: 2,
                bid: BidParams {
                    client: 0,
                    price: 3.25,
                    theta: 0.55,
                    a: 1,
                    d: 6,
                    c: 6,
                },
            },
            Request::Submit {
                session: "s-2".into(),
                seq: 1,
                bid: BidParams {
                    client: 1,
                    price: 2.0,
                    theta: 0.6,
                    a: 2,
                    d: 5,
                    c: 3,
                },
            },
            Request::Open(OpenParams::streaming(8, 6, 2, 60.0, 120.0)),
            Request::Close {
                session: "s-1".into(),
                seq: 3,
            },
            Request::Outcome {
                session: "s-1".into(),
            },
            Request::Payment {
                session: "s-1".into(),
                client: 0,
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let text = request_to_json(i as u64, req);
            let (meta, back) = parse_request(&text).unwrap();
            assert_eq!(meta.id, Some(i as u64), "{text}");
            assert_eq!(meta.trace, None, "{text}");
            assert_eq!(&back, req, "{text}");
        }
    }

    #[test]
    fn trace_ids_round_trip_and_splice() {
        let text = request_with_trace(9, Some("c-7-3"), &Request::Ping);
        let (meta, req) = parse_request(&text).unwrap();
        assert_eq!(meta.id, Some(9));
        assert_eq!(meta.trace.as_deref(), Some("c-7-3"));
        assert_eq!(req, Request::Ping);

        let stamped = with_meta(r#"{"ok":true}"#, &meta);
        let doc = json::parse(&stamped).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("trace").and_then(Json::as_str), Some("c-7-3"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

        // No trace ⇒ byte-identical to the id-only splice.
        let meta = ReqMeta::with_id(4);
        assert_eq!(
            with_meta(r#"{"ok":true}"#, &meta),
            with_id(r#"{"ok":true}"#, Some(4))
        );
    }

    #[test]
    fn trace_ids_past_the_limit_are_bad_request() {
        let at_limit = "t".repeat(MAX_TRACE);
        let (meta, _) = parse_request(&request_with_trace(1, Some(&at_limit), &Request::Ping))
            .expect("a trace id at the limit parses");
        assert_eq!(meta.trace.as_deref(), Some(at_limit.as_str()));
        let over = "t".repeat(MAX_TRACE + 1);
        let err = parse_request(&request_with_trace(1, Some(&over), &Request::Ping)).unwrap_err();
        assert_eq!(err.code, ErrCode::BadRequest);
    }

    #[test]
    fn open_defaults_apply() {
        let (_, req) = parse_request(r#"{"op":"open","nonce":1,"t":5,"k":2,"t_max":30}"#).unwrap();
        match req {
            Request::Open(p) => {
                assert_eq!(p.model, "linear");
                assert_eq!(p.qualify, "intent");
                assert_eq!(p.budget, None, "no budget member means batch mode");
                p.to_config().unwrap();
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn open_with_budget_parses_as_streaming() {
        let (_, req) =
            parse_request(r#"{"op":"open","nonce":1,"t":5,"k":2,"t_max":30,"budget":42.5}"#)
                .unwrap();
        match req {
            Request::Open(p) => assert_eq!(p.budget, Some(42.5)),
            other => panic!("{other:?}"),
        }
        // A mistyped budget is a parse error, not a silent batch session.
        let err =
            parse_request(r#"{"op":"open","nonce":1,"t":5,"k":2,"t_max":30,"budget":"lots"}"#)
                .unwrap_err();
        assert_eq!(err.code, ErrCode::BadRequest);
    }

    #[test]
    fn malformed_requests_are_bad_request_not_panic() {
        for bad in [
            "@garbage",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"bid","session":"s-1"}"#,
            r#"{"op":"open","nonce":1,"t":-4,"k":2,"t_max":30}"#,
            r#"{"op":"client","session":"s-1","seq":1,"t_cmp":"x","t_com":1}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn bad_config_names_are_rejected() {
        let mut p = OpenParams::new(1, 5, 2, 30.0);
        p.model = "quadratic".into();
        assert_eq!(p.to_config().unwrap_err().code, ErrCode::BadRequest);
        let mut p = OpenParams::new(1, 5, 2, 30.0);
        p.qualify = "vibes".into();
        assert_eq!(p.to_config().unwrap_err().code, ErrCode::BadRequest);
    }

    #[test]
    fn id_splice_produces_valid_json() {
        let resp = error_response(&ServiceError::new(ErrCode::Overloaded, "full"));
        let stamped = with_id(&resp, Some(42));
        let doc = json::parse(&stamped).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(42));
        let err = error_from_value(&doc).unwrap();
        assert_eq!(err.code, ErrCode::Overloaded);
        assert!(err.retryable());
    }
}
