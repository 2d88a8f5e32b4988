//! The serve wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line on stdin, one response per line on stdout:
//!
//! ```json
//! {"question": "What is the miss rate of mcf under LRU?", "session": 3}
//! {"session": 3, "turn": 2, "answer": "...", "verdict": "Number(41.2)", "micros": 512}
//! ```
//!
//! `session` is optional in requests — omitting it (or sending `null`)
//! opens a fresh session and the response carries the assigned id. Errors
//! come back in-band as `{"session": ..., "error": "...", "error_kind":
//! "..."}` so every request line yields exactly one response line;
//! `error_kind` is a stable machine-matchable discriminator
//! (`invalid_json` | `bad_request` | `unknown_session` | `overloaded` |
//! `line_too_long`). A line longer than [`MAX_LINE_BYTES`] is answered
//! once with `line_too_long` and skipped up to its newline, on both
//! transports.
//!
//! # Protocol v2: scenario-scoped asks
//!
//! A request may carry `"protocol_version": 2` and a `"scenario"` field —
//! a [`ScenarioSelector`] in its canonical text form
//! (`workload@machine+prefetcher/policy`, all components optional):
//!
//! ```json
//! {"question": "What is the estimated IPC for mcf?", "scenario": "@table2/lru", "protocol_version": 2}
//! ```
//!
//! The scenario scopes that request's retrieval; when the request *opens*
//! a session (no `session` field), the scenario is also pinned as the
//! session's default scope for later turns. Sending `scenario` implies
//! v2. Plain v1 requests remain valid and answer byte-identically to the
//! pre-v2 protocol. Responses to scenario-scoped requests cite the
//! canonical `machine` label — and, when the grounded evidence names one,
//! the `prefetcher` label — the answer was grounded in.
//!
//! # Session lifecycle: `open` and `close`
//!
//! A `{"open": true}` line opens a session *without asking a question* —
//! the response carries the assigned id at `"turn": 0` and, when the
//! request pinned one, the session's `scenario` in canonical text form:
//!
//! ```json
//! {"open": true, "scenario": "@table2+stride4"}
//! {"session": 4, "turn": 0, "scenario": "@table2+stride4"}
//! ```
//!
//! With a `session` field, `open` instead *echoes* an existing session's
//! pinned scenario and turn count — a status probe that never burns a
//! question (re-pinning is rejected: `scenario` is only valid on a fresh
//! open).
//!
//! A `{"close": true, "session": N}` line closes a session, removing it
//! (and its conversation memory) from the engine's session map — without
//! it the map only grows. The response echoes the session and reports
//! `"closed": true` plus the number of turns the session answered;
//! closing an unknown session fails in-band with
//! `"error_kind": "unknown_session"`, and a closed id is thereafter
//! unknown. Servers may also reap idle sessions themselves (see
//! `--max-idle-rounds`), after which the id fails the same way.
//!
//! # In-band telemetry: `stats`
//!
//! A `{"stats": true}` line returns the server's versioned metrics
//! snapshot — sessions open/opened/closed/reaped, requests by kind,
//! per-`error_kind` counts, the whole-answer cache's entry/hit/miss
//! counts, and the full latency histograms — as one JSON object with
//! `"stats_version": 2` ([`STATS_VERSION`]). Stats requests
//! are pure reads: they never touch a session, and the snapshot is taken
//! *before* the stats request itself is counted, so after driving N asks
//! the first stats response reports exactly N requests.
//!
//! # Transport control: `shutdown`
//!
//! A `{"shutdown": true}` line asks the server to shut down gracefully:
//! stop accepting connections, drain every in-flight request, flush all
//! writers, then exit. It is acknowledged in-band with
//! `{"shutdown":true}` but is a *transport-level* control message — it is
//! never counted as a request, so a stats snapshot is unaffected by how
//! the run was stopped. See `docs/PROTOCOL.md` for the full wire-protocol
//! specification (including the TCP transport) and
//! `docs/OBSERVABILITY.md` for the metric taxonomy.

use cachemind_tracedb::ScenarioSelector;
use serde_json::Value;

/// The current protocol version ([`AskRequest::protocol_version`]).
pub const PROTOCOL_V2: u64 = 2;
/// The legacy, selector-free protocol version.
pub const PROTOCOL_V1: u64 = 1;
/// Version stamp of the `stats` response shape (the `stats_version`
/// field), bumped whenever the stats object's layout changes. Version 2
/// added the `cache` object (whole-answer cache entries/hits/misses).
pub const STATS_VERSION: u64 = 2;

/// The longest request line either transport accepts, in bytes, not
/// counting the newline. A longer line is answered once in-band with
/// [`ProtocolError::LineTooLong`], and its bytes are discarded up to the
/// next newline, so a client that never sends one cannot grow the
/// server's buffers without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A protocol-level failure, reported in-band per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was not valid JSON.
    InvalidJson(String),
    /// The request was valid JSON but not a valid request object.
    BadRequest(String),
    /// The named session does not exist.
    UnknownSession(u64),
    /// The server refused the request for capacity reasons (connection
    /// table or pending-request queue full). The request was *not*
    /// processed; retrying after a drain is safe. Only the TCP transport
    /// emits this — stdin mode is inherently paced by its single reader.
    Overloaded(String),
    /// The request line ran past [`MAX_LINE_BYTES`] without a newline.
    /// It was not processed; the transport discarded it up to its newline.
    LineTooLong,
}

impl ProtocolError {
    /// The stable machine-matchable discriminator carried in responses as
    /// `error_kind` — the in-band error shape is uniform across parse
    /// failures, session failures, and admission-control rejections.
    pub const fn kind(&self) -> &'static str {
        match self {
            ProtocolError::InvalidJson(_) => "invalid_json",
            ProtocolError::BadRequest(_) => "bad_request",
            ProtocolError::UnknownSession(_) => "unknown_session",
            ProtocolError::Overloaded(_) => "overloaded",
            ProtocolError::LineTooLong => "line_too_long",
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::InvalidJson(detail) => write!(f, "invalid JSON: {detail}"),
            ProtocolError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ProtocolError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ProtocolError::Overloaded(detail) => write!(f, "overloaded: {detail}"),
            ProtocolError::LineTooLong => {
                write!(f, "line too long: over {MAX_LINE_BYTES} bytes without a newline")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Decodes one protocol line. A line nested past the parser's depth limit
/// is refused as a `bad_request`: it may be well-formed JSON, just not a
/// request this server accepts.
fn parse_line(line: &str) -> Result<Value, ProtocolError> {
    serde_json::from_str(line).map_err(|e| {
        if e.is_too_deep() {
            ProtocolError::BadRequest(e.to_string())
        } else {
            ProtocolError::InvalidJson(e.to_string())
        }
    })
}

/// A question addressed to one chat session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AskRequest {
    /// The target session; `None` opens a new one.
    pub session: Option<u64>,
    /// The natural-language question.
    pub question: String,
    /// The scenario scope of this request (v2). On a session-opening
    /// request the scope is also pinned as the session default.
    pub scenario: Option<ScenarioSelector>,
    /// Protocol version: [`PROTOCOL_V1`] for legacy requests,
    /// [`PROTOCOL_V2`] when scenario-scoped.
    pub protocol_version: u64,
}

impl AskRequest {
    /// A v1 request opening a fresh session.
    pub fn new(question: impl Into<String>) -> Self {
        AskRequest {
            session: None,
            question: question.into(),
            scenario: None,
            protocol_version: PROTOCOL_V1,
        }
    }

    /// A v1 request against an existing session.
    pub fn in_session(session: u64, question: impl Into<String>) -> Self {
        AskRequest { session: Some(session), ..AskRequest::new(question) }
    }

    /// Upgrades the request to v2 with a scenario scope.
    pub fn with_scenario(mut self, scenario: ScenarioSelector) -> Self {
        self.scenario = Some(scenario);
        self.protocol_version = PROTOCOL_V2;
        self
    }

    /// Parses one request line (v1 or v2).
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        let value = parse_line(line)?;
        Self::from_value(&value)
    }

    /// Parses an already-decoded request object (the shared half of
    /// [`AskRequest::from_json`] and [`Request::from_json`]).
    fn from_value(value: &Value) -> Result<Self, ProtocolError> {
        let question = value
            .get("question")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtocolError::BadRequest("missing string field 'question'".into()))?
            .to_owned();
        if question.trim().is_empty() {
            return Err(ProtocolError::BadRequest("'question' must be non-empty".into()));
        }
        let session = session_field(value)?;
        let scenario = scenario_field(value)?;
        let protocol_version = match value.get("protocol_version") {
            None => {
                // Sending a scenario implies v2.
                if scenario.is_some() {
                    PROTOCOL_V2
                } else {
                    PROTOCOL_V1
                }
            }
            Some(v) => match v.as_u64() {
                Some(n @ (PROTOCOL_V1 | PROTOCOL_V2)) => n,
                _ => {
                    return Err(ProtocolError::BadRequest(format!(
                        "unsupported 'protocol_version' {v} (expected 1 or 2)"
                    )))
                }
            },
        };
        if protocol_version == PROTOCOL_V1 && scenario.is_some() {
            return Err(ProtocolError::BadRequest("'scenario' requires protocol_version 2".into()));
        }
        Ok(AskRequest { session, question, scenario, protocol_version })
    }

    /// Renders the request as a compact JSON line. v1 requests render the
    /// legacy shape exactly; v2 requests add `scenario` (canonical text
    /// form) and `protocol_version`.
    pub fn to_json(&self) -> String {
        let mut obj = Value::object();
        obj.insert("question", Value::from(self.question.as_str()));
        if let Some(id) = self.session {
            obj.insert("session", Value::from(id));
        }
        if let Some(scenario) = &self.scenario {
            obj.insert("scenario", Value::from(scenario.to_string().as_str()));
        }
        if self.protocol_version != PROTOCOL_V1 {
            obj.insert("protocol_version", Value::from(self.protocol_version));
        }
        obj.to_string()
    }
}

/// Any request line the serve event loop accepts: a question for a
/// session, or a session-lifecycle `open` / `close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A question ([`AskRequest`], v1 or v2).
    Ask(AskRequest),
    /// `{"open": true}` — open a session (optionally pinning a scenario)
    /// or, with a `session` field, echo an existing session's pin and
    /// turn count. Never burns a question.
    Open {
        /// An existing session to probe; `None` opens a fresh one.
        session: Option<u64>,
        /// The scenario to pin on a fresh open (invalid with `session`).
        scenario: Option<ScenarioSelector>,
    },
    /// `{"close": true, "session": N}` — close the named session,
    /// removing it and its conversation memory from the engine.
    Close {
        /// The session to close.
        session: u64,
    },
    /// `{"stats": true}` — return the server's versioned metrics snapshot.
    /// A pure read: touches no session and burns no question.
    Stats,
    /// `{"shutdown": true}` — ask the server to shut down gracefully
    /// (stop accepting, drain in-flight requests, flush writers, exit).
    /// A transport-level control message: it is acknowledged in-band but
    /// never counted as a request, so stats bytes are unaffected by how a
    /// run was stopped.
    Shutdown,
}

/// The optional `session` field of an ask or open request: absent or
/// `null` is `None`.
fn session_field(value: &Value) -> Result<Option<u64>, ProtocolError> {
    match value.get("session") {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::BadRequest("'session' must be a non-negative integer".into())
        }),
    }
}

/// The optional `scenario` field of an ask or open request, parsed as a
/// selector: absent or `null` is `None`.
fn scenario_field(value: &Value) -> Result<Option<ScenarioSelector>, ProtocolError> {
    match value.get("scenario") {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => {
            let text = v.as_str().ok_or_else(|| {
                ProtocolError::BadRequest("'scenario' must be a selector string".into())
            })?;
            ScenarioSelector::parse(text)
                .map(Some)
                .map_err(|e| ProtocolError::BadRequest(e.to_string()))
        }
    }
}

impl Request {
    /// Parses one request line: an `open` when the object carries
    /// `"open": true`, a `close` when it carries `"close": true`, a
    /// `stats` when it carries `"stats": true`, a `shutdown` when it
    /// carries `"shutdown": true`, an [`AskRequest`] otherwise.
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        let value = parse_line(line)?;
        if let Some(flag) = value.get("open") {
            if flag.as_bool() != Some(true) {
                return Err(ProtocolError::BadRequest("'open' must be the boolean true".into()));
            }
            let session = session_field(&value)?;
            let scenario = scenario_field(&value)?;
            if session.is_some() && scenario.is_some() {
                return Err(ProtocolError::BadRequest(
                    "'scenario' is only valid when opening a fresh session (omit 'session')".into(),
                ));
            }
            return Ok(Request::Open { session, scenario });
        }
        if let Some(flag) = value.get("stats") {
            if flag.as_bool() != Some(true) {
                return Err(ProtocolError::BadRequest("'stats' must be the boolean true".into()));
            }
            return Ok(Request::Stats);
        }
        if let Some(flag) = value.get("shutdown") {
            if flag.as_bool() != Some(true) {
                return Err(ProtocolError::BadRequest(
                    "'shutdown' must be the boolean true".into(),
                ));
            }
            return Ok(Request::Shutdown);
        }
        match value.get("close") {
            None => Ok(Request::Ask(AskRequest::from_value(&value)?)),
            Some(flag) => {
                if flag.as_bool() != Some(true) {
                    return Err(ProtocolError::BadRequest(
                        "'close' must be the boolean true".into(),
                    ));
                }
                let session = value.get("session").and_then(Value::as_u64).ok_or_else(|| {
                    ProtocolError::BadRequest("close requests require a 'session' integer".into())
                })?;
                Ok(Request::Close { session })
            }
        }
    }

    /// Renders the request as a compact JSON line.
    pub fn to_json(&self) -> String {
        match self {
            Request::Ask(ask) => ask.to_json(),
            Request::Open { session, scenario } => {
                let mut obj = Value::object();
                obj.insert("open", Value::from(true));
                if let Some(id) = session {
                    obj.insert("session", Value::from(*id));
                }
                if let Some(scenario) = scenario {
                    obj.insert("scenario", Value::from(scenario.to_string().as_str()));
                }
                obj.to_string()
            }
            Request::Close { session } => {
                let mut obj = Value::object();
                obj.insert("close", Value::from(true));
                obj.insert("session", Value::from(*session));
                obj.to_string()
            }
            Request::Stats => {
                let mut obj = Value::object();
                obj.insert("stats", Value::from(true));
                obj.to_string()
            }
            Request::Shutdown => {
                let mut obj = Value::object();
                obj.insert("shutdown", Value::from(true));
                obj.to_string()
            }
        }
    }
}

/// The reply to any [`Request`]: an [`AskResponse`] for asks, opens and
/// closes, or the versioned metrics object for `stats`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An answer, acknowledgement or in-band failure.
    Ask(AskResponse),
    /// The stats object answering `{"stats": true}` (carries
    /// `"stats_version"`: [`STATS_VERSION`]).
    Stats(Value),
    /// The acknowledgement for `{"shutdown": true}` — echoed back as
    /// `{"shutdown":true}` before the transport drains and exits.
    Shutdown,
}

impl Response {
    /// Whether the request succeeded (stats and shutdown requests always
    /// do).
    pub fn is_ok(&self) -> bool {
        match self {
            Response::Ask(response) => response.is_ok(),
            Response::Stats(_) | Response::Shutdown => true,
        }
    }

    /// The inner [`AskResponse`].
    ///
    /// # Panics
    ///
    /// Panics when the response is a stats object or a shutdown
    /// acknowledgement.
    pub fn expect_ask(self) -> AskResponse {
        match self {
            Response::Ask(response) => response,
            Response::Stats(_) => panic!("expected an ask response, got a stats response"),
            Response::Shutdown => panic!("expected an ask response, got a shutdown ack"),
        }
    }

    /// Renders the response as a compact JSON line. `with_timing` gates
    /// the ask shape's wall-clock field exactly as
    /// [`AskResponse::to_json`]; stats objects are wall-clock content by
    /// definition and render unchanged, as does the fixed shutdown ack.
    pub fn to_json(&self, with_timing: bool) -> String {
        match self {
            Response::Ask(response) => response.to_json(with_timing),
            Response::Stats(value) => value.to_string(),
            Response::Shutdown => "{\"shutdown\":true}".to_owned(),
        }
    }
}

/// The answer (or error) for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct AskResponse {
    /// The session the question ran in (0 when the request never reached a
    /// session, e.g. a parse error).
    pub session: u64,
    /// 1-based turn number within the session (0 on error).
    pub turn: usize,
    /// The grounded answer text, on success.
    pub answer: Option<String>,
    /// The machine-checkable verdict, rendered (`Number(41.2)`, ...).
    pub verdict: Option<String>,
    /// The canonical machine label the answer's grounded evidence cites —
    /// set only for scenario-scoped (v2) requests, so a pinned session can
    /// verify *which machine* answered. Absent on v1 responses (bytes
    /// unchanged).
    pub machine: Option<String>,
    /// The canonical prefetcher label the answer's grounded evidence cites
    /// — set only for scenario-scoped (v2) requests whose evidence was a
    /// prefetcher-qualified trace. Absent on v1 responses and on answers
    /// grounded in baseline traces.
    pub prefetcher: Option<String>,
    /// The session's pinned scenario in canonical text form — set only on
    /// `open` acknowledgements for scoped sessions, so clients can read a
    /// pin back without burning a question. Absent everywhere else (ask
    /// and close bytes unchanged).
    pub scenario: Option<String>,
    /// Whether this response acknowledges a `close` request (the session
    /// is gone afterwards). Rendered only when true, so ask responses are
    /// byte-identical to the pre-close protocol.
    pub closed: bool,
    /// The protocol error, on failure (human-readable).
    pub error: Option<String>,
    /// The stable error discriminator, on failure
    /// ([`ProtocolError::kind`]).
    pub error_kind: Option<String>,
    /// Wall-clock time answering took, in microseconds. Excluded from
    /// deterministic renderings.
    pub micros: u64,
}

impl AskResponse {
    /// A failure response: every protocol error — parse failure or
    /// unknown session — takes this one in-band shape, with a stable
    /// `error_kind`.
    pub fn failure(session: u64, error: &ProtocolError) -> Self {
        AskResponse {
            session,
            turn: 0,
            answer: None,
            verdict: None,
            machine: None,
            prefetcher: None,
            scenario: None,
            closed: false,
            error: Some(error.to_string()),
            error_kind: Some(error.kind().to_owned()),
            micros: 0,
        }
    }

    /// The acknowledgement for a successful `close` request: `turn` echoes
    /// how many turns the session answered before closing.
    pub fn closed(session: u64, turns: usize) -> Self {
        AskResponse {
            session,
            turn: turns,
            answer: None,
            verdict: None,
            machine: None,
            prefetcher: None,
            scenario: None,
            closed: true,
            error: None,
            error_kind: None,
            micros: 0,
        }
    }

    /// The acknowledgement for a successful `open` request: `turn` echoes
    /// the turns the session has answered so far (0 on a fresh open) and
    /// `scenario` carries the pinned scope in canonical text form when the
    /// session is scoped.
    pub fn opened(session: u64, turns: usize, pinned: &ScenarioSelector) -> Self {
        AskResponse {
            session,
            turn: turns,
            answer: None,
            verdict: None,
            machine: None,
            prefetcher: None,
            scenario: (!pinned.is_unscoped()).then(|| pinned.to_string()),
            closed: false,
            error: None,
            error_kind: None,
            micros: 0,
        }
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Parses a response line back into the typed shape (the load-driver
    /// and round-trip-test counterpart of [`AskResponse::to_json`]).
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        let value = parse_line(line)?;
        let session = value
            .get("session")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::BadRequest("missing 'session'".into()))?;
        let turn = value
            .get("turn")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::BadRequest("missing 'turn'".into()))?
            as usize;
        let text = |field: &str| value.get(field).and_then(Value::as_str).map(str::to_owned);
        Ok(AskResponse {
            session,
            turn,
            answer: text("answer"),
            verdict: text("verdict"),
            machine: text("machine"),
            prefetcher: text("prefetcher"),
            scenario: text("scenario"),
            closed: value.get("closed").and_then(Value::as_bool).unwrap_or(false),
            error: text("error"),
            error_kind: text("error_kind"),
            micros: value.get("micros").and_then(Value::as_u64).unwrap_or(0),
        })
    }

    /// Renders the response as a compact JSON line. With `with_timing`
    /// false the wall-clock field is omitted, leaving only deterministic
    /// content — the form the determinism tests and CI smoke diff
    /// byte-for-byte.
    ///
    /// The fields are written in sorted key order, absent ones left out,
    /// straight into one `String` sized to the line: strings through
    /// [`serde::write_json_string`], numbers as `serde_json` prints a
    /// `u64` it holds as an `f64` (so an id above 2^53 renders rounded, as
    /// it always has).
    pub fn to_json(&self, with_timing: bool) -> String {
        let fields = [
            ("answer", self.answer.as_deref().map(Field::Text)),
            ("closed", self.closed.then_some(Field::True)),
            ("error", self.error.as_deref().map(Field::Text)),
            ("error_kind", self.error_kind.as_deref().map(Field::Text)),
            ("machine", self.machine.as_deref().map(Field::Text)),
            ("micros", with_timing.then_some(Field::Number(self.micros))),
            ("prefetcher", self.prefetcher.as_deref().map(Field::Text)),
            ("scenario", self.scenario.as_deref().map(Field::Text)),
            ("session", Some(Field::Number(self.session))),
            ("turn", Some(Field::Number(self.turn as u64))),
            ("verdict", self.verdict.as_deref().map(Field::Text)),
        ];
        let present = || fields.iter().filter_map(|(key, field)| Some((*key, (*field)?)));
        // `"key":value,` per field; the last field's comma byte holds the
        // closing brace, and the 1 the opening one.
        let len = 1 + present().map(|(key, field)| key.len() + 4 + field.len()).sum::<usize>();
        let mut out = String::with_capacity(len);
        out.push('{');
        for (i, (key, field)) in present().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            field.write(&mut out);
        }
        out.push('}');
        out
    }
}

/// One value of a rendered [`AskResponse`] field.
#[derive(Clone, Copy)]
enum Field<'a> {
    Text(&'a str),
    Number(u64),
    True,
}

impl Field<'_> {
    /// `serde_json` prints a number it holds as an `f64` without a
    /// fraction below this bound, and through `f64`'s `Display` above.
    const EXACT_BELOW: u64 = 9_000_000_000_000_000;

    /// The rendered length: exact, except at most 20 bytes for a number
    /// at or above [`Field::EXACT_BELOW`].
    fn len(self) -> usize {
        match self {
            Field::Text(text) => serde::json_string_len(text),
            Field::Number(n) if n < Self::EXACT_BELOW => {
                n.checked_ilog10().map_or(1, |d| d as usize + 1)
            }
            Field::Number(_) => 20,
            Field::True => 4,
        }
    }

    fn write(self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Field::Text(text) => serde::write_json_string(text, out),
            Field::Number(n) if n < Self::EXACT_BELOW => {
                let _ = write!(out, "{n}");
            }
            Field::Number(n) => {
                let _ = write!(out, "{}", n as f64);
            }
            Field::True => out.push_str("true"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = AskRequest::in_session(9, "What is the miss rate of mcf under LRU?");
        let parsed = AskRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(parsed, req);
        assert_eq!(parsed.protocol_version, PROTOCOL_V1);

        let fresh = AskRequest::new("hello");
        let parsed = AskRequest::from_json(&fresh.to_json()).expect("round trip");
        assert_eq!(parsed.session, None);
    }

    #[test]
    fn v1_wire_shape_is_unchanged() {
        // The legacy request renders without any v2 field — byte-for-byte
        // what the pre-v2 protocol produced.
        let req = AskRequest::in_session(3, "q");
        assert_eq!(req.to_json(), "{\"question\":\"q\",\"session\":3}");
    }

    #[test]
    fn v2_requests_round_trip_with_scenarios() {
        let scenario = ScenarioSelector::parse("mcf@table2+stride4/lru").expect("selector");
        let req =
            AskRequest::in_session(7, "What is the estimated IPC?").with_scenario(scenario.clone());
        assert_eq!(req.protocol_version, PROTOCOL_V2);
        let line = req.to_json();
        assert!(line.contains("\"scenario\":\"mcf@table2+stride4/lru\""), "{line}");
        assert!(line.contains("\"protocol_version\":2"), "{line}");
        let parsed = AskRequest::from_json(&line).expect("round trip");
        assert_eq!(parsed, req);
        assert_eq!(parsed.scenario, Some(scenario));

        // A scenario without an explicit version implies v2.
        let implied =
            AskRequest::from_json("{\"question\": \"q\", \"scenario\": \"@small\"}").unwrap();
        assert_eq!(implied.protocol_version, PROTOCOL_V2);
        assert_eq!(implied.scenario.as_ref().and_then(|s| s.machine.as_deref()), Some("small"));

        // An explicit v2 without a scenario is fine (scope-free v2).
        let bare = AskRequest::from_json("{\"question\": \"q\", \"protocol_version\": 2}").unwrap();
        assert_eq!(bare.protocol_version, PROTOCOL_V2);
        assert_eq!(bare.scenario, None);
    }

    #[test]
    fn null_session_opens_fresh() {
        let parsed = AskRequest::from_json("{\"question\": \"q\", \"session\": null}").unwrap();
        assert_eq!(parsed.session, None);
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(matches!(AskRequest::from_json("not json"), Err(ProtocolError::InvalidJson(_))));
        assert!(matches!(
            AskRequest::from_json("{\"session\": 1}"),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(
            AskRequest::from_json("{\"question\": \"  \"}"),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(
            AskRequest::from_json("{\"question\": \"q\", \"session\": -2}"),
            Err(ProtocolError::BadRequest(_))
        ));
    }

    #[test]
    fn bad_v2_requests_are_rejected() {
        // Malformed selector text.
        let err =
            AskRequest::from_json("{\"question\": \"q\", \"scenario\": \"mcf@\"}").unwrap_err();
        assert!(matches!(&err, ProtocolError::BadRequest(d) if d.contains("empty machine")));
        // Non-string scenario.
        assert!(matches!(
            AskRequest::from_json("{\"question\": \"q\", \"scenario\": 5}"),
            Err(ProtocolError::BadRequest(_))
        ));
        // Unknown protocol version.
        assert!(matches!(
            AskRequest::from_json("{\"question\": \"q\", \"protocol_version\": 3}"),
            Err(ProtocolError::BadRequest(_))
        ));
        // A scenario on an explicit v1 request is contradictory.
        assert!(matches!(
            AskRequest::from_json(
                "{\"question\": \"q\", \"scenario\": \"@small\", \"protocol_version\": 1}"
            ),
            Err(ProtocolError::BadRequest(_))
        ));
    }

    #[test]
    fn error_kinds_are_stable_and_uniform() {
        for (error, kind) in [
            (ProtocolError::InvalidJson("x".into()), "invalid_json"),
            (ProtocolError::BadRequest("x".into()), "bad_request"),
            (ProtocolError::UnknownSession(4), "unknown_session"),
            (ProtocolError::Overloaded("queue full".into()), "overloaded"),
            (ProtocolError::LineTooLong, "line_too_long"),
        ] {
            assert_eq!(error.kind(), kind);
            let resp = AskResponse::failure(0, &error);
            assert_eq!(resp.error_kind.as_deref(), Some(kind));
            assert!(!resp.is_ok());
            let line = resp.to_json(false);
            assert!(line.contains(&format!("\"error_kind\":\"{kind}\"")), "{line}");
        }
    }

    #[test]
    fn close_requests_parse_and_round_trip() {
        let req = Request::from_json("{\"close\": true, \"session\": 7}").expect("close parses");
        assert_eq!(req, Request::Close { session: 7 });
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);

        // Ask lines dispatch to the ask arm unchanged.
        let ask = Request::from_json("{\"question\": \"q\", \"session\": 3}").unwrap();
        assert_eq!(ask, Request::Ask(AskRequest::in_session(3, "q")));
        assert_eq!(ask.to_json(), "{\"question\":\"q\",\"session\":3}");

        // Close requires a session and a literal true.
        assert!(matches!(
            Request::from_json("{\"close\": true}"),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(
            Request::from_json("{\"close\": 1, \"session\": 2}"),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(Request::from_json("not json"), Err(ProtocolError::InvalidJson(_))));
    }

    #[test]
    fn open_requests_parse_and_round_trip() {
        // A bare open: fresh unscoped session.
        let req = Request::from_json("{\"open\": true}").expect("open parses");
        assert_eq!(req, Request::Open { session: None, scenario: None });
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);

        // A scoped open pins the scenario.
        let req = Request::from_json("{\"open\": true, \"scenario\": \"@table2+stride4\"}")
            .expect("scoped open parses");
        let Request::Open { session: None, scenario: Some(scenario) } = &req else {
            panic!("expected a scoped open, got {req:?}");
        };
        assert_eq!(scenario.machine.as_deref(), Some("table2"));
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);

        // An open against an existing session is a status probe.
        let req = Request::from_json("{\"open\": true, \"session\": 5}").expect("probe parses");
        assert_eq!(req, Request::Open { session: Some(5), scenario: None });

        // Re-pinning an existing session is rejected.
        let err = Request::from_json("{\"open\": true, \"session\": 5, \"scenario\": \"@small\"}")
            .unwrap_err();
        assert!(matches!(&err, ProtocolError::BadRequest(d) if d.contains("fresh session")));

        // `open` must be the literal true; bad selectors are rejected.
        assert!(matches!(Request::from_json("{\"open\": 1}"), Err(ProtocolError::BadRequest(_))));
        assert!(matches!(
            Request::from_json("{\"open\": true, \"scenario\": \"mcf@\"}"),
            Err(ProtocolError::BadRequest(_))
        ));
    }

    #[test]
    fn stats_requests_parse_and_round_trip() {
        let req = Request::from_json("{\"stats\": true}").expect("stats parses");
        assert_eq!(req, Request::Stats);
        assert_eq!(req.to_json(), "{\"stats\":true}");
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);

        // `stats` must be the literal true.
        assert!(matches!(Request::from_json("{\"stats\": 1}"), Err(ProtocolError::BadRequest(_))));
        assert!(matches!(
            Request::from_json("{\"stats\": false}"),
            Err(ProtocolError::BadRequest(_))
        ));

        // The other flags still win their own shapes.
        assert!(matches!(Request::from_json("{\"open\": true}"), Ok(Request::Open { .. })));
        assert!(matches!(
            Request::from_json("{\"close\": true, \"session\": 1}"),
            Ok(Request::Close { .. })
        ));
    }

    #[test]
    fn shutdown_requests_parse_and_round_trip() {
        let req = Request::from_json("{\"shutdown\": true}").expect("shutdown parses");
        assert_eq!(req, Request::Shutdown);
        assert_eq!(req.to_json(), "{\"shutdown\":true}");
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);

        // `shutdown` must be the literal true.
        assert!(matches!(
            Request::from_json("{\"shutdown\": 1}"),
            Err(ProtocolError::BadRequest(_))
        ));
        assert!(matches!(
            Request::from_json("{\"shutdown\": false}"),
            Err(ProtocolError::BadRequest(_))
        ));

        // The ack renders one fixed line, timing-independent.
        let ack = Response::Shutdown;
        assert!(ack.is_ok());
        assert_eq!(ack.to_json(false), "{\"shutdown\":true}");
        assert_eq!(ack.to_json(true), ack.to_json(false));
    }

    #[test]
    fn overloaded_failures_take_the_uniform_error_shape() {
        let error = ProtocolError::Overloaded("pending-request queue full (capacity 2)".into());
        let resp = AskResponse::failure(0, &error);
        assert!(!resp.is_ok());
        let line = resp.to_json(false);
        assert!(line.contains("\"error_kind\":\"overloaded\""), "{line}");
        assert!(line.contains("queue full"), "{line}");
        let back = AskResponse::from_json(&line).expect("round trip");
        assert_eq!(back.error_kind.as_deref(), Some("overloaded"));
    }

    #[test]
    fn response_wrapper_dispatches_by_shape() {
        let ask = Response::Ask(AskResponse::closed(5, 3));
        assert!(ask.is_ok());
        assert_eq!(ask.to_json(false), AskResponse::closed(5, 3).to_json(false));
        assert_eq!(ask.expect_ask(), AskResponse::closed(5, 3));

        let mut obj = Value::object();
        obj.insert("stats_version", Value::from(STATS_VERSION));
        let stats = Response::Stats(obj);
        assert!(stats.is_ok());
        assert_eq!(stats.to_json(false), "{\"stats_version\":2}");
        // Timing gating never alters a stats object.
        assert_eq!(stats.to_json(true), stats.to_json(false));

        let failure = Response::Ask(AskResponse::failure(0, &ProtocolError::UnknownSession(0)));
        assert!(!failure.is_ok());
    }

    #[test]
    fn opened_responses_render_and_round_trip() {
        let pin = ScenarioSelector::parse("@table2+stride4").expect("selector");
        let resp = AskResponse::opened(4, 0, &pin);
        assert!(resp.is_ok());
        assert!(!resp.closed);
        let line = resp.to_json(false);
        assert!(line.contains("\"scenario\":\"@table2+stride4\""), "{line}");
        assert!(line.contains("\"turn\":0"), "{line}");
        assert!(!line.contains("answer"), "{line}");
        assert_eq!(AskResponse::from_json(&line).unwrap(), resp);

        // Unscoped sessions acknowledge without a scenario field at all.
        let bare = AskResponse::opened(7, 3, &ScenarioSelector::all());
        assert_eq!(bare.scenario, None);
        assert!(!bare.to_json(false).contains("scenario"));
        assert_eq!(bare.turn, 3, "probes echo the turns answered so far");
    }

    #[test]
    fn closed_responses_render_and_round_trip() {
        let resp = AskResponse::closed(5, 3);
        assert!(resp.is_ok());
        let line = resp.to_json(false);
        assert!(line.contains("\"closed\":true"), "{line}");
        assert!(!line.contains("answer"), "{line}");
        assert_eq!(AskResponse::from_json(&line).unwrap(), resp);
        // Ordinary responses never carry the field.
        assert!(!AskResponse::failure(0, &ProtocolError::UnknownSession(0))
            .to_json(false)
            .contains("closed"));
    }

    #[test]
    fn prefetcher_citing_responses_round_trip() {
        let resp = AskResponse {
            session: 2,
            turn: 1,
            answer: Some("The answer is 0.81.".into()),
            verdict: Some("Number(0.81)".into()),
            machine: Some("table2@llc2048x16+dram160".into()),
            prefetcher: Some("stride4".into()),
            scenario: None,
            closed: false,
            error: None,
            error_kind: None,
            micros: 9,
        };
        let line = resp.to_json(false);
        assert!(line.contains("\"prefetcher\":\"stride4\""), "{line}");
        let back = AskResponse::from_json(&line).expect("round trip");
        assert_eq!(back.prefetcher.as_deref(), Some("stride4"));
        assert_eq!(back.machine, resp.machine);
    }

    #[test]
    fn responses_round_trip() {
        let resp = AskResponse {
            session: 2,
            turn: 1,
            answer: Some("yes".into()),
            verdict: Some("HitMiss(false)".into()),
            machine: None,
            prefetcher: None,
            scenario: None,
            closed: false,
            error: None,
            error_kind: None,
            micros: 1234,
        };
        let back = AskResponse::from_json(&resp.to_json(true)).expect("round trip");
        assert_eq!(back, resp);
        // Without timing the micros default to zero on re-parse.
        let back = AskResponse::from_json(&resp.to_json(false)).expect("round trip");
        assert_eq!(back.micros, 0);
        assert_eq!(back.answer, resp.answer);

        let failure = AskResponse::failure(7, &ProtocolError::UnknownSession(7));
        let back = AskResponse::from_json(&failure.to_json(true)).expect("round trip");
        assert_eq!(back, failure);
    }

    #[test]
    fn response_rendering_controls_timing() {
        let resp = AskResponse {
            session: 2,
            turn: 1,
            answer: Some("yes".into()),
            verdict: Some("HitMiss(false)".into()),
            machine: None,
            prefetcher: None,
            scenario: None,
            closed: false,
            error: None,
            error_kind: None,
            micros: 1234,
        };
        assert!(resp.to_json(true).contains("\"micros\":1234"));
        assert!(!resp.to_json(false).contains("micros"));
    }
}
