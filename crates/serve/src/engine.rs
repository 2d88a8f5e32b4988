//! [`ServeEngine`] — the multi-session query-serving front-end.
//!
//! One engine owns many concurrent sessions over a single shared (`Arc`)
//! trace database; a session is its exchange log
//! ([`ConversationMemory`]) plus its pinned scenario. Every transport
//! serves one protocol line at a time through
//! [`ServeEngine::serve_line`]: parse, dispatch, render. An ask resolves
//! its session under the session lock, is answered outside it — from the
//! engine's answer cache, else through the stateless CacheMind pipeline —
//! and is logged into the session's exchange log under the lock again,
//! so concurrent callers (the TCP worker pool) only serialize on
//! bookkeeping.
//!
//! Determinism contract: answering is a pure function of `(store,
//! question)`, and each session's turns are logged in the order its
//! client sent them — so every response and exchange log is
//! byte-identical however many threads drive the engine.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cachemind_core::cache::AnswerCache;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_lang::context::Fact;
use cachemind_lang::memory::ConversationMemory;
use cachemind_lang::profiles::BackendKind;
use cachemind_obs::{names, Counter, HistogramHandle, MetricsRegistry};
use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_tracedb::database::{BuildError, TraceDatabase};
use cachemind_tracedb::snapshot::{SnapshotError, VerifiedSnapshot};
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::{ScenarioSelector, TraceDatabaseBuilder};
use cachemind_workloads::workload::Scale;

use crate::protocol::{
    AskRequest, AskResponse, ProtocolError, Response, MAX_LINE_BYTES, STATS_VERSION,
};
use serde_json::Value;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Retriever every session routes through ([`RetrieverKind::Dense`] is
    /// not servable: its per-session index build is a benchmark artefact,
    /// not a serving path).
    pub retriever: RetrieverKind,
    /// Generator backend.
    pub backend: BackendKind,
    /// Trace-database scale.
    pub scale: Scale,
    /// TCP worker threads; `None` reads `SERVE_NUM_THREADS`, falling back
    /// to the machine's available parallelism.
    pub threads: Option<usize>,
    /// Extra [`MachineConfig`] preset names (`"table2"`, `"small"`) to
    /// build machine-qualified traces for, on top of the primary machine —
    /// the database behind scenario-pinned (protocol v2) sessions.
    pub machines: Vec<String>,
    /// Extra prefetcher names (`"nextline"`, `"stride4"`; see
    /// [`PrefetcherKind::parse`]) to build prefetcher-qualified traces
    /// for, on top of the no-prefetch baseline — so sessions pinned to
    /// `+stride4` selectors answer from real transformed-stream traces.
    pub prefetchers: Vec<String>,
    /// Reap sessions left untouched for this many consecutive rounds — the
    /// round clock ticks once per ask or open line (a reaped id is
    /// thereafter an unknown session, exactly as if the client had closed
    /// it). `None` disables reaping — sessions then
    /// live until closed, the pre-reaping behaviour. A value of 0 is
    /// clamped to 1.
    pub max_idle_rounds: Option<u64>,
    /// Whether the engine keeps a whole-answer cache (served replies keyed
    /// by db fingerprint + canonical selector + question). Answering is
    /// deterministic, so the cache never changes a byte of any response —
    /// on by default; `--no-answer-cache` turns it off for A/B
    /// measurement.
    pub answer_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            retriever: RetrieverKind::Sieve,
            backend: BackendKind::Gpt4o,
            scale: Scale::Tiny,
            threads: None,
            machines: Vec::new(),
            prefetchers: Vec::new(),
            max_idle_rounds: None,
            answer_cache: true,
        }
    }
}

impl ServeConfig {
    /// Resolves the TCP worker count: explicit setting, then the
    /// `SERVE_NUM_THREADS` environment variable, then available
    /// parallelism.
    pub fn num_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        match std::env::var("SERVE_NUM_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        }
    }
}

/// One served session: its exchange log plus its pinned scenario scope.
#[derive(Debug)]
struct SessionState {
    memory: ConversationMemory,
    /// The session's default scenario scope, pinned at open (unscoped for
    /// v1 sessions). A request-level `scenario` overrides it per turn.
    pinned: ScenarioSelector,
    /// The last round that touched this session (opened it, probed it,
    /// or asked through it) — the idle clock
    /// [`ServeConfig::max_idle_rounds`] reaps against.
    last_active_round: u64,
}

/// The session map plus the engine's round clock, guarded by one mutex so
/// activity stamps and reaping are atomic with session bookkeeping.
#[derive(Debug, Default)]
struct SessionTable {
    sessions: BTreeMap<u64, SessionState>,
    /// Round counter: incremented once per ask and once per `open`,
    /// serially under the lock — the deterministic clock idle reaping
    /// measures against (wall time would break byte-stability across
    /// thread counts).
    round: u64,
    /// The last session id assigned: ids run 1, 2, 3, ... in open order
    /// and are never reused.
    last_id: u64,
}

/// The engine's pre-registered metric handles: looked up once at
/// construction so the per-request hot path is atomic increments only
/// (the error path looks its per-kind counter up dynamically — errors
/// are off the hot path by definition).
#[derive(Debug, Clone)]
struct EngineMetrics {
    registry: MetricsRegistry,
    requests_ask: Counter,
    requests_open: Counter,
    requests_close: Counter,
    requests_stats: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    sessions_reaped: Counter,
    ask_latency: HistogramHandle,
    parse: HistogramHandle,
    respond: HistogramHandle,
}

impl EngineMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        EngineMetrics {
            requests_ask: registry.counter(names::SERVE_REQUESTS_ASK),
            requests_open: registry.counter(names::SERVE_REQUESTS_OPEN),
            requests_close: registry.counter(names::SERVE_REQUESTS_CLOSE),
            requests_stats: registry.counter(names::SERVE_REQUESTS_STATS),
            sessions_opened: registry.counter(names::SERVE_SESSIONS_OPENED),
            sessions_closed: registry.counter(names::SERVE_SESSIONS_CLOSED),
            sessions_reaped: registry.counter(names::SERVE_SESSIONS_REAPED),
            ask_latency: registry.histogram(names::SERVE_ASK),
            parse: registry.histogram(names::SERVE_PARSE),
            respond: registry.histogram(names::SERVE_RESPOND),
            registry,
        }
    }

    /// Counts one in-band error under its stable `error_kind`.
    fn error(&self, kind: &str) {
        self.registry.counter(&format!("{}{kind}", names::SERVE_ERRORS_PREFIX)).inc();
    }
}

/// What the answer cache stores per key: exactly the fields of an ask
/// response that come from answering, computed once on a miss. The
/// retrieved facts stay out — serve reads them only to find the cited
/// labels — and no prompt is ever rendered: serve asks through
/// `CacheMind::answer`, the pipeline without the prompt render.
#[derive(Debug, Clone)]
struct Reply {
    text: String,
    /// The `{:?}` rendering of the answer's verdict.
    verdict: String,
    /// The machine label a scoped answer's evidence cites.
    machine: Option<String>,
    /// The prefetcher label a scoped answer's evidence cites.
    prefetcher: Option<String>,
}

/// What serving one protocol line did, beyond the rendered response —
/// the session-lifecycle side effects a connection-scoped transport
/// tracks (see [`ServeEngine::serve_line`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineOutcome {
    /// The response, rendered as one compact JSON line.
    pub rendered: String,
    /// The session this line opened (a session-less ask or a fresh
    /// `open`), when it succeeded.
    pub opened_session: Option<u64>,
    /// The session this line closed (a successful `close`).
    pub closed_session: Option<u64>,
    /// Whether the line was a `{"shutdown": true}` control message the
    /// transport must act on after writing the response.
    pub shutdown: bool,
}

/// Why [`ServeEngine::serve_stdio`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StdioEnd {
    /// The input ended (or failed to read).
    Eof,
    /// An `exit` / `quit` line or a `{"shutdown": true}` request.
    Stopped,
}

/// The serving front-end: session manager + the one protocol-line path.
#[derive(Debug)]
pub struct ServeEngine {
    mind: CacheMind,
    /// The whole-answer cache in front of `mind`, when enabled.
    answers: Option<AnswerCache<Reply>>,
    sessions: Mutex<SessionTable>,
    config: ServeConfig,
    /// This engine's own metric handles — per-engine (not process-global),
    /// so a server's `stats` snapshot counts exactly its own traffic.
    metrics: EngineMetrics,
    /// The store's canonical machine labels, read once at startup (the
    /// store is immutable for the engine's lifetime): used to canonicalize
    /// preset-name scopes into keyed lookups and to resolve the machine a
    /// scoped answer cites. Reading them decodes no trace rows.
    machine_labels: Vec<String>,
    /// The store's canonical prefetcher labels, read like
    /// `machine_labels`: used to resolve the prefetcher a scoped answer's
    /// grounded evidence cites.
    prefetcher_labels: Vec<String>,
}

impl ServeEngine {
    /// Builds the trace database described by `config` and starts
    /// an engine over it. `config.machines` preset names add
    /// machine-qualified traces to the build and `config.prefetchers`
    /// prefetcher names add prefetcher-qualified (transformed-stream)
    /// traces, so scenario-pinned sessions have per-machine,
    /// per-prefetcher entries to answer from.
    ///
    /// Unknown workload/policy/machine-preset/prefetcher names surface as
    /// a clean [`BuildError`] — validation happens before any build worker
    /// runs.
    ///
    /// The build also lands in this engine's registry as a
    /// `tracedb.build` span (the library records it globally), so a
    /// server's own stats carry its startup cost, as a snapshot-backed
    /// engine's carry `tracedb.snapshot_verify`.
    pub fn build(config: ServeConfig) -> Result<Self, BuildError> {
        let registry = MetricsRegistry::new();
        let build_span = registry.span(names::TRACEDB_BUILD);
        let db = build_database(&config)?;
        build_span.finish();
        Ok(Self::over_registry(Arc::new(db), config, registry))
    }

    /// Starts an engine over a database loaded from a snapshot file
    /// written by [`TraceDatabase::save`] (see
    /// `cachemind_tracedb::snapshot`) — the instant-startup path: no
    /// simulation runs.
    ///
    /// `config.scale`, `machines` and `prefetchers` describe *builds*, so
    /// they are ignored here beyond being echoed in [`ServeEngine::config`];
    /// the snapshot determines which traces exist.
    /// The snapshot is checksum-verified in full and every entry header is
    /// decoded before this returns (any corruption, a forged entry header
    /// included, is a startup error, never a mid-round surprise), but each
    /// trace's rows decode only when a query first reads them — the ready
    /// banner and the listen loop come up without paying the row decode.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        config: ServeConfig,
    ) -> Result<Self, SnapshotError> {
        let registry = MetricsRegistry::new();
        // The open/verify span also lands in this engine's registry (the
        // library records it globally), so a server's own stats carry its
        // startup cost.
        let verify_span = registry.span(names::TRACEDB_SNAPSHOT_VERIFY);
        let snapshot = VerifiedSnapshot::open(path)?;
        verify_span.finish();
        let db = snapshot.into_database(&registry)?;
        Ok(Self::over_registry(Arc::new(db), config, registry))
    }

    /// Starts an engine over an already-built database.
    ///
    /// # Panics
    ///
    /// Panics if `config.retriever` is [`RetrieverKind::Dense`] (not a
    /// serving retriever; see [`ServeConfig::retriever`]).
    pub fn over(db: TraceDatabase, config: ServeConfig) -> Self {
        Self::over_registry(Arc::new(db), config, MetricsRegistry::new())
    }

    /// The common tail of every constructor, with an explicit metrics
    /// registry — [`ServeEngine::from_snapshot`] passes the registry its
    /// store's frames already record decodes into, so decode telemetry and
    /// request telemetry land in one snapshot. `config` is recorded as
    /// given.
    fn over_registry(
        store: Arc<TraceDatabase>,
        config: ServeConfig,
        registry: MetricsRegistry,
    ) -> Self {
        assert!(
            config.retriever != RetrieverKind::Dense,
            "the dense baseline is not servable; use Sieve or Ranger"
        );
        let machine_labels = store.machines();
        let prefetcher_labels = store.prefetchers();
        let mind = CacheMind::shared(store)
            .with_metrics(&registry)
            .with_retriever(config.retriever)
            .with_backend(config.backend);
        let answers = config.answer_cache.then(|| AnswerCache::in_registry(&registry));
        ServeEngine {
            mind,
            answers,
            sessions: Mutex::new(SessionTable::default()),
            config,
            metrics: EngineMetrics::new(registry),
            machine_labels,
            prefetcher_labels,
        }
    }

    /// This engine's metrics registry — every counter, gauge and span the
    /// engine (and the pipeline layers it owns) records. Snapshot it for
    /// reports, or read the serialized form via [`ServeEngine::stats_value`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Rewrites a scope's machine from a preset *name* (`table2`) to the
    /// store's canonical *label* (`table2@llc2048x16+dram160`), resolved
    /// once per request against the engine's label snapshot — so every
    /// scoped trace lookup downstream takes the keyed fast path instead
    /// of a linear store scan. Labels already canonical (or unknown
    /// machines, which must keep matching nothing) pass through
    /// unchanged; a name matching several labels resolves to the first in
    /// sorted order, the same entry the unresolved scan would have found.
    fn canonicalize(&self, selector: ScenarioSelector) -> ScenarioSelector {
        match &selector.machine {
            Some(machine) if !self.machine_labels.iter().any(|l| l == machine) => {
                match self.machine_labels.iter().find(|l| selector.matches_machine(l)) {
                    Some(label) => {
                        let label = label.clone();
                        selector.with_machine(label)
                    }
                    None => selector,
                }
            }
            _ => selector,
        }
    }

    /// The shared trace store.
    pub fn store(&self) -> &dyn TraceStore {
        self.mind.database()
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resolved TCP worker-pool width.
    pub fn num_threads(&self) -> usize {
        self.config.num_threads()
    }

    /// The session table, recovered if a request panicked while holding
    /// its lock. Such a request can leave at most its own session half
    /// updated; refusing the table would take every other session down
    /// with it.
    fn lock_sessions(&self) -> MutexGuard<'_, SessionTable> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.lock_sessions().sessions.len()
    }

    /// Inserts a fresh session with a pinned scenario scope and an empty
    /// exchange log, stamped active at the table's current round, and
    /// returns its id.
    fn insert_session(&self, table: &mut SessionTable, pinned: ScenarioSelector) -> u64 {
        self.metrics.sessions_opened.inc();
        table.last_id += 1;
        let memory = ConversationMemory::new();
        table
            .sessions
            .insert(table.last_id, SessionState { memory, pinned, last_active_round: table.round });
        table.last_id
    }

    /// Opens a fresh unscoped chat session sharing the engine's database,
    /// returning its id. Ids are assigned 1, 2, 3, ... in open order.
    ///
    /// Unlike an `{"open": true}` line, this neither ticks the round clock
    /// nor counts as a request.
    pub fn open_session(&self) -> u64 {
        self.insert_session(&mut self.lock_sessions(), ScenarioSelector::all())
    }

    /// The scenario scope a session pinned at open (unscoped for v1
    /// sessions); `None` for unknown sessions.
    pub fn pinned_scenario(&self, session: u64) -> Option<ScenarioSelector> {
        self.lock_sessions().sessions.get(&session).map(|s| s.pinned.clone())
    }

    /// The kept `(question, answer)` transcript of a session (its last
    /// [`MAX_KEPT_EXCHANGES`](cachemind_lang::memory::MAX_KEPT_EXCHANGES)
    /// exchanges).
    pub fn transcript(&self, session: u64) -> Option<Vec<(String, String)>> {
        self.lock_sessions().sessions.get(&session).map(|s| s.memory.exchanges().cloned().collect())
    }

    /// Vector-memory recall within one session (for isolation checks and
    /// the chat tooling).
    pub fn recall(&self, session: u64, query: &str, k: usize) -> Option<Vec<String>> {
        self.lock_sessions().sessions.get(&session).map(|s| s.memory.recall(query, k))
    }

    /// Closes a session, removing it (and its conversation memory) from
    /// the session map — the lifecycle half of the protocol, without which
    /// the map only grows. Returns the number of turns the session
    /// answered; closing an unknown (or already-closed) session is an
    /// [`ProtocolError::UnknownSession`].
    pub fn close_session(&self, session: u64) -> Result<usize, ProtocolError> {
        self.lock_sessions()
            .sessions
            .remove(&session)
            .map(|state| {
                self.metrics.sessions_closed.inc();
                state.memory.turns()
            })
            .ok_or(ProtocolError::UnknownSession(session))
    }

    /// Reaps sessions idle past the configured `--max-idle-rounds`
    /// horizon — the shared tail of every round-clock tick (an ask or an
    /// `open`). Measured against the table's *current* round (which
    /// concurrent requests may have advanced), so a session is only reaped
    /// when no tick has touched it for the full window. A no-op when no
    /// horizon is configured.
    fn reap_idle(&self, table: &mut SessionTable) {
        if let Some(max_idle) = self.config.max_idle_rounds {
            let limit = max_idle.max(1);
            let current = table.round;
            let before = table.sessions.len();
            table.sessions.retain(|_, s| current.saturating_sub(s.last_active_round) < limit);
            let reaped = before - table.sessions.len();
            if reaped > 0 {
                self.metrics.sessions_reaped.add(reaped as u64);
            }
        }
    }

    /// Opens a session (or probes an existing one) without asking a
    /// question — the engine half of the protocol's `open` request.
    ///
    /// With `session: None`, opens a fresh session pinned to `scenario`
    /// (unscoped when absent) and acknowledges at turn 0. With a session
    /// id, echoes the existing pin and turn count, refreshing the
    /// session's idle clock; unknown ids fail in-band.
    ///
    /// Like an ask, an `open` ticks the round clock and reaps sessions
    /// idle past the `--max-idle-rounds` horizon — so a globally scoped
    /// TCP server whose traffic is opens and probes still retires
    /// abandoned sessions. The session being opened or probed is stamped
    /// with the new round first, so it is never reaped by its own request.
    fn open_request(
        &self,
        session: Option<u64>,
        scenario: Option<ScenarioSelector>,
    ) -> AskResponse {
        let mut table = self.lock_sessions();
        table.round += 1;
        let round = table.round;
        let response = match session {
            None => {
                let pinned = scenario.unwrap_or_default();
                let id = self.insert_session(&mut table, pinned.clone());
                AskResponse::opened(id, 0, &pinned)
            }
            Some(id) => match table.sessions.get_mut(&id) {
                Some(state) => {
                    state.last_active_round = round;
                    AskResponse::opened(id, state.memory.turns(), &state.pinned)
                }
                None => self.unknown_session(id),
            },
        };
        self.reap_idle(&mut table);
        response
    }

    /// Dispatches any protocol [`Request`](crate::protocol::Request) —
    /// the step of [`ServeEngine::serve_line`] between parse and render:
    /// asks run [`ServeEngine::ask`], opens run
    /// [`ServeEngine::open_request`], closes run
    /// [`ServeEngine::close_session`], stats return
    /// [`ServeEngine::stats_value`] — all answer in-band.
    fn handle_request(&self, request: &crate::protocol::Request) -> Response {
        use crate::protocol::Request;
        match request {
            Request::Ask(ask) => Response::Ask(self.ask(ask)),
            Request::Open { session, scenario } => {
                self.metrics.requests_open.inc();
                Response::Ask(self.open_request(*session, scenario.clone()))
            }
            Request::Close { session } => {
                self.metrics.requests_close.inc();
                Response::Ask(match self.close_session(*session) {
                    Ok(turns) => AskResponse::closed(*session, turns),
                    Err(error) => {
                        self.metrics.error(error.kind());
                        AskResponse::failure(*session, &error)
                    }
                })
            }
            Request::Stats => {
                // Snapshot first, count after: the response never counts
                // itself, so after driving N requests the first stats
                // response reports exactly N.
                let stats = self.stats_value();
                self.metrics.requests_stats.inc();
                Response::Stats(stats)
            }
            // A transport-level control message: acknowledged in-band but
            // never counted, so stats bytes are unaffected by how a run
            // was stopped. The *transport* (TCP server, stdin loop) acts
            // on the flag in the returned LineOutcome; the engine itself
            // has nothing to stop.
            Request::Shutdown => Response::Shutdown,
        }
    }

    /// Serves one raw protocol line on behalf of a named transport: parse,
    /// dispatch, render — the one request path behind both the stdin loop
    /// (`"stdin"`) and the TCP workers (`"tcp"`, via `crate::net`), with
    /// the `serve.parse` / `serve.respond` spans and per-`error_kind`
    /// counters recorded on the way through. Parse failures answer
    /// in-band.
    ///
    /// The transport tag and the optional per-connection context surface
    /// in `stats` responses only (wall-clock side-channel content); every
    /// other response renders byte-identically across transports, which
    /// is what makes the TCP determinism tests able to `cmp` against
    /// stdin output. The returned [`LineOutcome`] additionally reports
    /// the session-lifecycle side effects of the line, so a connection-
    /// scoped transport can track which sessions it owns, and whether the
    /// line was a graceful-shutdown request the transport must act on.
    pub fn serve_line(
        &self,
        line: &str,
        with_timing: bool,
        transport: &str,
        connection: Option<Value>,
    ) -> LineOutcome {
        use crate::protocol::Request;

        let parse_span = self.metrics.parse.start_span();
        let parsed = Request::from_json(line);
        parse_span.finish();
        let mut outcome = LineOutcome {
            rendered: String::new(),
            opened_session: None,
            closed_session: None,
            shutdown: false,
        };
        let response = match parsed {
            Ok(request) => {
                let response = self.handle_request(&request);
                match (&request, &response) {
                    (Request::Ask(ask), Response::Ask(resp))
                        if ask.session.is_none() && resp.is_ok() =>
                    {
                        outcome.opened_session = Some(resp.session);
                    }
                    (Request::Open { session: None, .. }, Response::Ask(resp)) if resp.is_ok() => {
                        outcome.opened_session = Some(resp.session);
                    }
                    (Request::Close { session }, Response::Ask(resp)) if resp.is_ok() => {
                        outcome.closed_session = Some(*session);
                    }
                    (Request::Shutdown, _) => outcome.shutdown = true,
                    _ => {}
                }
                match response {
                    Response::Stats(mut value) => {
                        value.insert("transport", Value::from(transport));
                        if let Some(connection) = connection {
                            value.insert("connection", connection);
                        }
                        Response::Stats(value)
                    }
                    other => other,
                }
            }
            Err(error) => {
                self.metrics.error(error.kind());
                Response::Ask(AskResponse::failure(0, &error))
            }
        };
        let respond_span = self.metrics.respond.start_span();
        outcome.rendered = response.to_json(with_timing);
        respond_span.finish();
        outcome
    }

    /// Serves newline-delimited protocol lines from `input` to `output` on
    /// the stdin transport until the input ends or asks to stop — the
    /// loop behind `cachemind-serve`'s stdin server and the control
    /// channel of its TCP mode.
    ///
    /// Lines are framed the way the TCP reader frames them: split on
    /// `\n`, decoded lossily (a line of invalid UTF-8 answers in-band as
    /// `invalid_json` rather than ending the stream), trimmed, and skipped
    /// when blank. A line longer than [`MAX_LINE_BYTES`] is answered once
    /// as `line_too_long` and skipped up to its newline, so at most
    /// `MAX_LINE_BYTES + 1` bytes are ever buffered. `exit` or `quit` stop
    /// without a response; a `{"shutdown": true}` line stops after its
    /// acknowledgement. A read error ends the input like EOF.
    pub fn serve_stdio(&self, mut input: impl BufRead, mut output: impl Write) -> StdioEnd {
        // One byte past the cap tells an over-long line from one that fits.
        let limit = MAX_LINE_BYTES as u64 + 1;
        let mut buffer = Vec::new();
        loop {
            buffer.clear();
            let read = std::io::Read::take(&mut input, limit).read_until(b'\n', &mut buffer);
            if matches!(read, Ok(0) | Err(_)) {
                return StdioEnd::Eof;
            }
            if buffer.len() as u64 == limit && buffer.last() != Some(&b'\n') {
                let _ = writeln!(output, "{}", self.refuse_long_line());
                let _ = output.flush();
                let _ = input.skip_until(b'\n');
                continue;
            }
            let line = String::from_utf8_lossy(&buffer);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "exit" || line == "quit" {
                return StdioEnd::Stopped;
            }
            let outcome = self.serve_line(line, true, "stdin", None);
            let _ = writeln!(output, "{}", outcome.rendered);
            let _ = output.flush();
            if outcome.shutdown {
                return StdioEnd::Stopped;
            }
        }
    }

    /// The one in-band answer to a request line longer than
    /// [`MAX_LINE_BYTES`], counted under `line_too_long` like any other
    /// error. Both transports call it once per over-long line, without
    /// parsing the line.
    pub(crate) fn refuse_long_line(&self) -> String {
        let error = ProtocolError::LineTooLong;
        self.metrics.error(error.kind());
        AskResponse::failure(0, &error).to_json(true)
    }

    /// The versioned stats object answering `{"stats": true}`: session
    /// lifecycle counts, requests by kind, per-`error_kind` counts, and
    /// the full metrics snapshot (histograms included). A pure read — it
    /// counts nothing, so callers control whether the read itself is
    /// recorded (the protocol path counts it *after* snapshotting).
    pub fn stats_value(&self) -> Value {
        let open_now = self.session_count();
        self.metrics.registry.gauge(names::SERVE_SESSIONS_OPEN).set(open_now as i64);
        let snap = self.metrics.registry.snapshot();

        let mut sessions = Value::object();
        sessions.insert("open", Value::from(open_now as u64));
        sessions.insert("opened", Value::from(snap.counter(names::SERVE_SESSIONS_OPENED)));
        sessions.insert("closed", Value::from(snap.counter(names::SERVE_SESSIONS_CLOSED)));
        sessions.insert("reaped", Value::from(snap.counter(names::SERVE_SESSIONS_REAPED)));

        let by_kind_counts = snap.counters_with_prefix(names::SERVE_ERRORS_PREFIX);
        let mut errors_total = 0u64;
        let mut by_kind = Value::object();
        for (name, count) in &by_kind_counts {
            errors_total += count;
            by_kind.insert(&name[names::SERVE_ERRORS_PREFIX.len()..], Value::from(*count));
        }
        let mut errors = Value::object();
        errors.insert("total", Value::from(errors_total));
        errors.insert("by_kind", by_kind);

        let ask = snap.counter(names::SERVE_REQUESTS_ASK);
        let open = snap.counter(names::SERVE_REQUESTS_OPEN);
        let close = snap.counter(names::SERVE_REQUESTS_CLOSE);
        let stats = snap.counter(names::SERVE_REQUESTS_STATS);
        let mut requests = Value::object();
        requests.insert("ask", Value::from(ask));
        requests.insert("open", Value::from(open));
        requests.insert("close", Value::from(close));
        requests.insert("stats", Value::from(stats));
        requests.insert("total", Value::from(ask + open + close + stats));

        // The whole-answer cache (stats v2): entry count plus the
        // `retrieval.cache.*` counters, read from the cache's own handles
        // so a `--no-answer-cache` server reports `enabled: false` and
        // nothing else.
        let mut cache = Value::object();
        match &self.answers {
            Some(answers) => {
                cache.insert("enabled", Value::from(true));
                cache.insert("entries", Value::from(answers.len() as u64));
                cache.insert("hits", Value::from(answers.hits()));
                cache.insert("misses", Value::from(answers.misses()));
                cache.insert("inserts", Value::from(answers.inserts()));
            }
            None => {
                cache.insert("enabled", Value::from(false));
            }
        }

        let mut root = Value::object();
        root.insert("stats_version", Value::from(STATS_VERSION));
        root.insert("sessions", sessions);
        root.insert("requests", requests);
        root.insert("errors", errors);
        root.insert("cache", cache);
        root.insert("metrics", snap.to_value());
        root
    }

    /// [`ServeEngine::stats_value`] plus the `transport` tag the protocol
    /// path stamps on stats responses — for out-of-band consumers (the
    /// binary's `--stats-json` writer) that want the same shape a
    /// `{"stats": true}` line would have answered with on that transport.
    pub fn stats_value_tagged(&self, transport: &str) -> Value {
        let mut value = self.stats_value();
        value.insert("transport", Value::from(transport));
        value
    }

    /// Answers one ask — the `question` arm of [`ServeEngine::serve_line`].
    ///
    /// A request without a session id opens a new one, pinned to the
    /// request's scenario. An unknown session fails in-band. Every ask
    /// ticks the round clock and reaps idle sessions, whether it succeeds
    /// or not.
    fn ask(&self, request: &AskRequest) -> AskResponse {
        self.metrics.requests_ask.inc();
        // Phase 0 (locked): resolve or open the session, and resolve the
        // ask's scenario scope — its own `scenario` field, else the
        // session's pinned default.
        let (session_id, round, selector) = {
            let mut table = self.lock_sessions();
            table.round += 1;
            let round = table.round;
            match request.session {
                Some(id) => match table.sessions.get_mut(&id) {
                    Some(session) => {
                        session.last_active_round = round;
                        let selector =
                            request.scenario.clone().unwrap_or_else(|| session.pinned.clone());
                        (id, round, selector)
                    }
                    None => {
                        self.reap_idle(&mut table);
                        return self.unknown_session(id);
                    }
                },
                None => {
                    let pinned = request.scenario.clone().unwrap_or_default();
                    (self.insert_session(&mut table, pinned.clone()), round, pinned)
                }
            }
        };

        // Phase 1 (unlocked): reply from the answer cache or the shared
        // stateless pipeline.
        let query = Query::scoped(request.question.clone(), self.canonicalize(selector));
        let span = self.metrics.ask_latency.start_span();
        let reply = self.reply(&query);
        let micros = span.finish();

        // Phase 2 (locked): log the turn into the session and reap.
        let mut table = self.lock_sessions();
        // Another thread may have closed the session while the answer was
        // computed outside the lock. That is an in-band unknown-session
        // failure, not a panic.
        let response = match table.sessions.get_mut(&session_id) {
            Some(session) => {
                // Stamp with max: a concurrent later ask may already have
                // moved this session's clock past ours.
                session.last_active_round = session.last_active_round.max(round);
                session.memory.push(&query.text, &reply.text);
                AskResponse {
                    session: session_id,
                    turn: session.memory.turns(),
                    answer: Some(reply.text),
                    verdict: Some(reply.verdict),
                    machine: reply.machine,
                    prefetcher: reply.prefetcher,
                    scenario: None,
                    closed: false,
                    error: None,
                    error_kind: None,
                    micros,
                }
            }
            None => self.unknown_session(session_id),
        };
        self.reap_idle(&mut table);
        response
    }

    /// The reply to `query`: with the answer cache on, a hit replays the
    /// stored reply and a miss answers, then stores.
    fn reply(&self, query: &Query) -> Reply {
        let Some(cache) = &self.answers else {
            return self.answer(query);
        };
        let key = cache.key(self.mind.database(), query);
        if let Some(hit) = cache.get(&key) {
            return hit;
        }
        let reply = self.answer(query);
        cache.insert(key, reply.clone());
        reply
    }

    /// Answers `query` through the pipeline. Scoped (v2) asks also report
    /// the machine and prefetcher labels their grounded evidence cites;
    /// v1 responses keep the legacy bytes exactly.
    fn answer(&self, query: &Query) -> Reply {
        let answer = self.mind.answer(query);
        let (machine, prefetcher) = if query.selector.machine_scope().is_unscoped() {
            (None, None)
        } else {
            let facts: Vec<String> = answer.context.facts.iter().map(Fact::render).collect();
            (
                cited_machine(&self.machine_labels, &facts),
                cited_prefetcher(&self.prefetcher_labels, &facts),
            )
        };
        Reply { text: answer.text, verdict: format!("{:?}", answer.verdict), machine, prefetcher }
    }

    /// The in-band failure for a session that does not exist (never
    /// opened, closed, or reaped), counted under its `error_kind`.
    fn unknown_session(&self, id: u64) -> AskResponse {
        let error = ProtocolError::UnknownSession(id);
        self.metrics.error(error.kind());
        AskResponse::failure(id, &error)
    }
}

/// Builds the trace database a [`ServeConfig`] describes — the
/// shared build path behind [`ServeEngine::build`], the
/// `cachemind-serve --build-db` offline mode, and the snapshot benches.
/// Unknown machine-preset/prefetcher names surface as a clean
/// [`BuildError`] before any build worker runs.
pub fn build_database(config: &ServeConfig) -> Result<TraceDatabase, BuildError> {
    let mut machines = Vec::with_capacity(config.machines.len());
    for name in &config.machines {
        machines.push(
            MachineConfig::preset(name).ok_or_else(|| BuildError::UnknownMachine(name.clone()))?,
        );
    }
    let mut prefetchers = Vec::with_capacity(config.prefetchers.len());
    for name in &config.prefetchers {
        prefetchers.push(
            PrefetcherKind::parse(name)
                .ok_or_else(|| BuildError::UnknownPrefetcher(name.clone()))?,
        );
    }
    TraceDatabaseBuilder::new()
        .scale(config.scale)
        .machines(machines)
        .prefetchers(prefetchers)
        .try_build()
}

/// The canonical machine label a scoped answer's grounded evidence cites:
/// the store label that appears in one of the rendered `facts`. `None`
/// when the evidence cites no machine (e.g. a hit/miss lookup, whose
/// facts carry no scenario sentence). Of the labels that match, the
/// *longest* wins — one canonical label can be a prefix of another
/// (`...dram160` / `...dram1600`), and substring containment alone would
/// report the shorter one.
fn cited_machine(labels: &[String], facts: &[String]) -> Option<String> {
    labels
        .iter()
        .filter(|label| facts.iter().any(|f| f.contains(label.as_str())))
        .max_by_key(|&label| (label.len(), label.as_str()))
        .cloned()
}

/// The canonical prefetcher label a scoped answer's grounded evidence
/// cites: a store label that appears as `prefetcher <label>` in one of the
/// rendered `facts` — the phrase owned by
/// `cachemind_tracedb::meta::ipc_citation` /
/// `meta::scenario_citation_suffix` and the metadata's prefetcher
/// sentence, so the match target has one definition. `None` when the
/// evidence names no prefetcher — baseline traces never do, so unscoped
/// and v1 traffic is unaffected. Longest label wins, mirroring
/// [`cited_machine`] (`stride4` vs a hypothetical `stride42`).
fn cited_prefetcher(labels: &[String], facts: &[String]) -> Option<String> {
    const PHRASE: &str = "prefetcher ";
    labels
        .iter()
        .filter(|label| label.as_str() != "none")
        .filter(|label| {
            facts.iter().any(|f| {
                f.match_indices(PHRASE)
                    .any(|(at, _)| f[at + PHRASE.len()..].starts_with(label.as_str()))
            })
        })
        .max_by_key(|&label| (label.len(), label.as_str()))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn engine(threads: usize) -> ServeEngine {
        let config = ServeConfig { threads: Some(threads), ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        ServeEngine::over(db, config)
    }

    /// Serves one protocol line and parses its ask-shaped response.
    fn serve(engine: &ServeEngine, request: &Request) -> AskResponse {
        let rendered = engine.serve_line(&request.to_json(), true, "stdin", None).rendered;
        AskResponse::from_json(&rendered).expect("an ask-shaped response")
    }

    fn ask(engine: &ServeEngine, request: AskRequest) -> AskResponse {
        serve(engine, &Request::Ask(request))
    }

    /// Opens a fresh session over the protocol, optionally pinned.
    fn open(engine: &ServeEngine, scenario: Option<ScenarioSelector>) -> AskResponse {
        serve(engine, &Request::Open { session: None, scenario })
    }

    fn probe(engine: &ServeEngine, session: u64) -> AskResponse {
        serve(engine, &Request::Open { session: Some(session), scenario: None })
    }

    fn close(engine: &ServeEngine, session: u64) -> AskResponse {
        serve(engine, &Request::Close { session })
    }

    #[test]
    fn fresh_requests_open_sessions_in_order() {
        let engine = engine(2);
        let responses = [
            ask(
                &engine,
                AskRequest::new("What is the overall miss rate of the mcf workload under LRU?"),
            ),
            ask(
                &engine,
                AskRequest::new("What is the overall miss rate of the lbm workload under LRU?"),
            ),
        ];
        assert_eq!(responses[0].session, 1);
        assert_eq!(responses[1].session, 2);
        assert_eq!(engine.session_count(), 2);
        assert!(responses.iter().all(AskResponse::is_ok));
        assert_eq!(responses[0].turn, 1);
    }

    #[test]
    fn unknown_sessions_fail_in_band() {
        let engine = engine(1);
        let response = ask(&engine, AskRequest::in_session(42, "hello?"));
        assert!(!response.is_ok());
        assert!(response.error.as_deref().unwrap().contains("unknown session 42"));
        // The unified in-band error shape: same fields as a parse failure,
        // discriminated by the stable error_kind.
        assert_eq!(response.error_kind.as_deref(), Some("unknown_session"));
        assert_eq!(response.turn, 0);
        let parse_failure = AskResponse::failure(0, &ProtocolError::BadRequest("x".into()));
        assert_eq!(parse_failure.error_kind.as_deref(), Some("bad_request"));
        assert_eq!(parse_failure.turn, response.turn, "both error shapes agree");
    }

    #[test]
    fn pinned_sessions_scope_every_turn_to_their_machine() {
        let config = ServeConfig {
            threads: Some(2),
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into(), "small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets are valid");
        let a = open(&engine, Some(ScenarioSelector::all().with_machine("table2"))).session;
        let b = open(&engine, Some(ScenarioSelector::all().with_machine("small"))).session;
        assert_eq!(
            engine.pinned_scenario(a).unwrap().machine.as_deref(),
            Some("table2"),
            "pin recorded"
        );

        let q = "What is the estimated IPC for mcf under LRU?";
        let responses = [
            ask(&engine, AskRequest::in_session(a, q)),
            ask(&engine, AskRequest::in_session(b, q)),
        ];
        assert!(responses.iter().all(AskResponse::is_ok));
        let on_a = responses[0].machine.as_deref().expect("scoped response cites its machine");
        let on_b = responses[1].machine.as_deref().expect("scoped response cites its machine");
        assert!(on_a.starts_with("table2@"), "session a answered from {on_a}");
        assert!(on_b.starts_with("small@"), "session b answered from {on_b}");

        // A request-level scenario overrides the session pin for one turn.
        let scoped = AskRequest::in_session(a, q)
            .with_scenario(ScenarioSelector::all().with_machine("small"));
        let overridden = ask(&engine, scoped);
        assert_eq!(
            overridden.machine.as_deref(),
            Some(on_b),
            "override answers from session b's machine"
        );
        assert_eq!(overridden.answer, responses[1].answer);
        // ... and the pin is untouched afterwards.
        assert_eq!(engine.pinned_scenario(a).unwrap().machine.as_deref(), Some("table2"));
    }

    #[test]
    fn v2_opening_requests_pin_their_scenario() {
        let config =
            ServeConfig { threads: Some(1), machines: vec!["small".into()], ..Default::default() };
        let engine = ServeEngine::build(config).expect("preset is valid");
        let opening = AskRequest::new("What is the estimated IPC for mcf under LRU?")
            .with_scenario(ScenarioSelector::all().with_machine("small"));
        let response = ask(&engine, opening);
        assert!(response.is_ok());
        let pinned = engine.pinned_scenario(response.session).expect("session opened");
        assert_eq!(pinned.machine.as_deref(), Some("small"), "opening scenario becomes the pin");
    }

    #[test]
    fn unknown_machine_presets_fail_the_build_cleanly() {
        let config = ServeConfig { machines: vec!["cray-1".into()], ..Default::default() };
        let err = ServeEngine::build(config).expect_err("unknown preset");
        assert_eq!(err, BuildError::UnknownMachine("cray-1".into()));
        assert!(err.to_string().contains("cray-1"));
    }

    #[test]
    fn rounds_record_turns_into_the_right_sessions() {
        let engine = engine(4);
        let a = engine.open_session();
        let b = engine.open_session();
        let responses = [
            ask(
                &engine,
                AskRequest::in_session(
                    a,
                    "What is the overall miss rate of the mcf workload under LRU?",
                ),
            ),
            ask(
                &engine,
                AskRequest::in_session(b, "Which policy has the lowest miss rate in astar?"),
            ),
            ask(
                &engine,
                AskRequest::in_session(a, "List all unique PCs in the mcf trace under LRU."),
            ),
        ];
        assert_eq!(responses[0].turn, 1);
        assert_eq!(responses[1].turn, 1);
        assert_eq!(responses[2].turn, 2, "second question to session a is its turn 2");
        let ta = engine.transcript(a).unwrap();
        assert_eq!(ta.len(), 2);
        assert!(ta[1].0.contains("unique PCs"));
        assert_eq!(engine.transcript(b).unwrap().len(), 1);
    }

    #[test]
    fn close_removes_the_session_from_the_map() {
        let engine = engine(2);
        let a = engine.open_session();
        let b = engine.open_session();
        ask(
            &engine,
            AskRequest::in_session(
                a,
                "What is the overall miss rate of the mcf workload under LRU?",
            ),
        );
        assert_eq!(engine.session_count(), 2);

        let response = close(&engine, a);
        assert!(response.is_ok());
        assert!(response.closed);
        assert_eq!(response.turn, 1, "echoes the turns the session answered");
        assert_eq!(engine.session_count(), 1);
        assert_eq!(engine.transcript(a), None, "state is gone");
        assert_eq!(engine.pinned_scenario(a), None);

        // A closed id is thereafter unknown, to asks and closes alike.
        let again = close(&engine, a);
        assert_eq!(again.error_kind.as_deref(), Some("unknown_session"));
        assert!(!again.closed);
        let asked = ask(&engine, AskRequest::in_session(a, "hello?"));
        assert_eq!(asked.error_kind.as_deref(), Some("unknown_session"));

        // Ids are never reused: the next open continues the sequence.
        let c = engine.open_session();
        assert!(c > b, "ids must stay monotonic after a close");
    }

    #[test]
    fn turns_count_past_the_kept_transcript() {
        use cachemind_lang::memory::MAX_KEPT_EXCHANGES;
        use cachemind_lang::vector::VectorStore;
        let engine = engine(1);
        let id = engine.open_session();
        let questions = [
            "What is the overall miss rate of the mcf workload under LRU?",
            "Which policy has the lowest miss rate on astar?",
            "List all unique PCs in the mcf trace under LRU.",
        ];
        let mut exchanges = Vec::new();
        let mut last = None;
        for i in 0..=MAX_KEPT_EXCHANGES {
            let question = questions[i % questions.len()];
            let response = ask(&engine, AskRequest::in_session(id, question));
            assert!(response.is_ok());
            exchanges.push((question.to_owned(), response.answer.clone().expect("an answer")));
            last = Some(response);
        }
        let last = last.expect("asked");
        assert_eq!(last.turn, MAX_KEPT_EXCHANGES + 1, "turns keep counting past the cap");
        let kept = &exchanges[1..];
        assert_eq!(engine.transcript(id).unwrap(), kept, "the oldest exchange is dropped");
        assert_eq!(probe(&engine, id).turn, MAX_KEPT_EXCHANGES + 1);

        // Recall is a store filled eagerly with the kept exchanges,
        // question then answer, oldest first.
        let mut eager = VectorStore::new(64);
        for (i, text) in kept.iter().flat_map(|(q, a)| [q, a]).enumerate() {
            eager.add(&format!("turn-{i}"), text);
        }
        for query in ["miss rate of mcf", "lowest miss rate policy", "unique PCs", "0x401"] {
            for k in [0, 1, 5, 2 * MAX_KEPT_EXCHANGES + 2] {
                let expected: Vec<String> = eager
                    .search(query, k)
                    .into_iter()
                    .map(|hit| eager.text(hit.index).to_owned())
                    .collect();
                assert_eq!(engine.recall(id, query, k).unwrap(), expected, "{query:?}, k {k}");
            }
        }
        let closed = close(&engine, id);
        assert!(closed.closed);
        assert_eq!(closed.turn, MAX_KEPT_EXCHANGES + 1, "close acknowledges every turn");
    }

    #[test]
    fn prefetcher_pinned_sessions_answer_from_qualified_traces() {
        let config = ServeConfig {
            threads: Some(2),
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into()],
            prefetchers: vec!["stride4".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets and prefetchers valid");
        let pin = ScenarioSelector::parse("astar@table2+stride4/lru").expect("selector");
        let response =
            ask(&engine, AskRequest::new("What is the estimated IPC?").with_scenario(pin.clone()));
        assert!(response.is_ok(), "{:?}", response.error);
        assert_eq!(engine.pinned_scenario(response.session), Some(pin));
        let machine = response.machine.as_deref().expect("scoped response cites its machine");
        assert!(machine.starts_with("table2@"), "{machine}");
        assert_eq!(
            response.prefetcher.as_deref(),
            Some("stride4"),
            "scoped response cites the grounded prefetcher"
        );

        // The same session's baseline override drops the citation.
        let baseline = AskRequest::in_session(response.session, "What is the estimated IPC?")
            .with_scenario(ScenarioSelector::parse("astar@table2/lru").unwrap());
        let overridden = ask(&engine, baseline);
        assert_eq!(overridden.prefetcher, None, "baseline evidence cites no prefetcher");
        assert_ne!(overridden.answer, response.answer, "prefetch-aware IPC must differ");
    }

    #[test]
    fn unknown_prefetchers_fail_the_build_cleanly() {
        let config = ServeConfig { prefetchers: vec!["markov".into()], ..Default::default() };
        let err = ServeEngine::build(config).expect_err("unknown prefetcher");
        assert_eq!(err, BuildError::UnknownPrefetcher("markov".into()));
        assert!(err.to_string().contains("markov"));
    }

    #[test]
    fn from_snapshot_answers_like_a_fresh_build() {
        let config = ServeConfig { threads: Some(2), ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        let path =
            std::env::temp_dir().join(format!("cachemind_engine_{}.snap", std::process::id()));
        db.save(&path).expect("save snapshot");
        let fresh = ServeEngine::over(db, config.clone());
        let loaded = ServeEngine::from_snapshot(&path, config).expect("snapshot loads");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.store().shard_count(), 3, "the snapshot records the shard count");
        assert_eq!(loaded.store().len(), fresh.store().len());
        let q = "What is the overall miss rate of the mcf workload under LRU?";
        let a = ask(&fresh, AskRequest::new(q));
        let b = ask(&loaded, AskRequest::new(q));
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.answer, b.answer, "snapshot-backed answers are byte-identical");
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn missing_snapshots_fail_the_engine_cleanly() {
        let err = ServeEngine::from_snapshot("/nonexistent/engine.snap", ServeConfig::default())
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
    }

    #[test]
    fn idle_sessions_are_reaped_after_the_configured_rounds() {
        let config =
            ServeConfig { threads: Some(1), max_idle_rounds: Some(2), ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        let engine = ServeEngine::over(db, config);
        let active = engine.open_session();
        let idle = engine.open_session();
        assert_eq!(engine.session_count(), 2);

        let q = "What is the overall miss rate of the mcf workload under LRU?";
        // Round 1 touches only `active`; `idle` has sat out one round —
        // still within the two-round window.
        ask(&engine, AskRequest::in_session(active, q));
        assert_eq!(engine.session_count(), 2, "one idle round survives a window of two");
        // Round 2: `idle` has now sat out two full rounds — reaped.
        ask(&engine, AskRequest::in_session(active, q));
        assert_eq!(engine.session_count(), 1);
        assert_eq!(engine.transcript(idle), None, "reaped state is gone");
        let resp = ask(&engine, AskRequest::in_session(idle, q));
        assert_eq!(
            resp.error_kind.as_deref(),
            Some("unknown_session"),
            "a reaped id fails exactly like a closed one"
        );

        // An `open` probe counts as activity: it resets the idle clock.
        let probed = engine.open_session();
        ask(&engine, AskRequest::in_session(active, q));
        probe(&engine, probed);
        ask(&engine, AskRequest::in_session(active, q));
        assert!(engine.transcript(probed).is_some(), "probe refreshed the idle clock");
    }

    #[test]
    fn open_requests_tick_the_round_clock_and_reap_idle_sessions() {
        let config =
            ServeConfig { threads: Some(1), max_idle_rounds: Some(2), ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        let engine = ServeEngine::over(db, config);

        // A session abandoned at round 0; all later traffic is opens and
        // probes only — the TCP-global-scope shape where no ask ever
        // runs.
        let abandoned = engine.open_session();
        let first = open(&engine, None); // round 1
        assert!(first.is_ok());
        assert_eq!(engine.session_count(), 2, "one idle round survives a window of two");
        let second = open(&engine, None); // round 2: abandoned is 2 rounds idle
        assert!(second.is_ok());
        assert_eq!(engine.session_count(), 2, "opens-only traffic reaped the abandoned session");
        assert!(engine.transcript(abandoned).is_none(), "reaped state is gone");

        // A probe stamps its own session before reaping, so it is never
        // reaped by its own request.
        let probed = probe(&engine, first.session); // round 3
        assert!(probed.is_ok());
        assert_eq!(probed.session, first.session);
        assert_eq!(engine.session_count(), 2);

        // Even a failed probe ticks the clock and reaps: `second` (last
        // active at round 2) falls to this round-4 tick.
        let missing = probe(&engine, 999); // round 4
        assert_eq!(missing.error_kind.as_deref(), Some("unknown_session"));
        assert_eq!(engine.session_count(), 1);
        assert!(engine.transcript(first.session).is_some(), "the probed session survived");
        assert!(engine.transcript(second.session).is_none());

        let stats = engine.stats_value();
        let reaped = stats.get("sessions").and_then(|s| s.get("reaped")).and_then(Value::as_u64);
        assert_eq!(reaped, Some(2), "both reaps counted");
    }

    #[test]
    fn stats_report_the_answer_cache() {
        let engine = engine(1);
        let q = "What is the overall miss rate of the mcf workload under LRU?";
        ask(&engine, AskRequest::new(q));
        ask(&engine, AskRequest::new(q));
        let stats = engine.stats_value();
        let cache = stats.get("cache").expect("stats v2 carries the cache object");
        let count = |key: &str| cache.get(key).and_then(Value::as_u64);
        assert_eq!(cache.get("enabled").and_then(Value::as_bool), Some(true));
        assert_eq!(count("entries"), Some(1), "one distinct question");
        assert_eq!(count("hits"), Some(1), "the repeat replayed the stored answer");
        assert_eq!(count("misses"), Some(1));
        assert_eq!(count("inserts"), Some(1));

        // A cache-off engine reports only the flag.
        let config = ServeConfig { threads: Some(1), answer_cache: false, ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        let off = ServeEngine::over(db, config);
        ask(&off, AskRequest::new(q));
        let stats = off.stats_value();
        let cache = stats.get("cache").expect("cache object present even when disabled");
        assert_eq!(cache.get("enabled").and_then(Value::as_bool), Some(false));
        assert!(cache.get("hits").is_none(), "no counters for a disabled cache");
    }

    /// A Ranger engine over the demo store, with or without the answer
    /// cache.
    fn ranger_engine(answer_cache: bool) -> ServeEngine {
        let config = ServeConfig {
            threads: Some(1),
            retriever: RetrieverKind::Ranger,
            answer_cache,
            ..Default::default()
        };
        ServeEngine::over(TraceDatabaseBuilder::quick_demo().build(), config)
    }

    /// The engine's `retrieval.cache.*` hits, misses and inserts, and its
    /// stored entry count.
    fn cache_counts(engine: &ServeEngine) -> (u64, u64, u64, usize) {
        let snap = engine.metrics().snapshot();
        let entries = engine.answers.as_ref().map_or(0, AnswerCache::len);
        (
            snap.counter(names::RETRIEVAL_CACHE_HITS),
            snap.counter(names::RETRIEVAL_CACHE_MISSES),
            snap.counter(names::RETRIEVAL_CACHE_INSERTS),
            entries,
        )
    }

    /// Serves one line without timing: the bytes a client reads.
    fn served(engine: &ServeEngine, request: AskRequest) -> String {
        engine.serve_line(&Request::Ask(request).to_json(), false, "stdin", None).rendered
    }

    #[test]
    fn repeated_questions_hit_and_replay_identical_answers() {
        let engine = ranger_engine(true);
        let q = "What is the overall miss rate of the lbm workload under LRU?";
        let session = engine.open_session();
        let first = ask(&engine, AskRequest::in_session(session, q));
        assert_eq!(cache_counts(&engine), (0, 1, 1, 1), "one miss, then one insert");
        let second = ask(&engine, AskRequest::in_session(session, q));
        assert_eq!(cache_counts(&engine), (1, 1, 1, 1), "the repeat replayed the stored reply");
        assert_eq!(second.turn, 2, "a replayed reply still logs its turn");
        assert_eq!(first.answer, second.answer);
        assert_eq!(first.verdict, second.verdict);
        assert!(first.verdict.as_deref().is_some_and(|v| v.starts_with("Number(")));
    }

    #[test]
    fn distinct_selectors_never_alias() {
        let engine = ranger_engine(true);
        let q = "What is the estimated IPC for mcf under LRU?";
        let unscoped = ask(&engine, AskRequest::new(q));
        let scope = ScenarioSelector::all().with_machine(engine.machine_labels[0].clone());
        let scoped = ask(&engine, AskRequest::new(q).with_scenario(scope));
        assert_eq!(
            cache_counts(&engine),
            (0, 2, 2, 2),
            "scoped and unscoped asks use distinct keys"
        );
        assert_eq!(unscoped.machine, None, "an unscoped reply cites no machine");
        assert_eq!(
            scoped.machine.as_ref(),
            Some(&engine.machine_labels[0]),
            "a scoped reply cites its machine"
        );
    }

    #[test]
    fn cached_answers_match_uncached_byte_for_byte() {
        let cached = ranger_engine(true);
        let plain = ranger_engine(false);
        let scope = ScenarioSelector::all().with_machine(cached.machine_labels[0].clone());
        let requests = [
            AskRequest::new("What is the overall miss rate of the lbm workload under LRU?"),
            AskRequest::new("Which policy gives the highest IPC on mcf?"),
            AskRequest::new("List all unique PCs in the mcf trace under LRU."),
            AskRequest::new("What is the estimated IPC for mcf under LRU?")
                .with_scenario(scope.clone()),
            AskRequest::new("What is the overall miss rate of the lbm workload under LRU?"),
            AskRequest::new("What is the estimated IPC for mcf under LRU?").with_scenario(scope),
        ];
        for request in requests {
            let line = request.to_json();
            assert_eq!(served(&cached, request.clone()), served(&plain, request), "{line}");
        }
        assert_eq!(cache_counts(&cached), (2, 4, 4, 4), "the two duplicates hit");
        assert_eq!(cache_counts(&plain), (0, 0, 0, 0), "a cache-off engine counts nothing");
    }

    #[test]
    fn open_requests_acknowledge_without_burning_a_question() {
        let config =
            ServeConfig { threads: Some(1), machines: vec!["small".into()], ..Default::default() };
        let engine = ServeEngine::build(config).expect("preset is valid");
        let pin = ScenarioSelector::all().with_machine("small");
        let resp = open(&engine, Some(pin.clone()));
        assert!(resp.is_ok());
        assert_eq!(resp.turn, 0, "fresh opens acknowledge at turn 0");
        assert_eq!(resp.scenario.as_deref(), Some("@small"), "the pin comes back");
        assert_eq!(engine.pinned_scenario(resp.session), Some(pin));
        assert_eq!(engine.transcript(resp.session).unwrap().len(), 0, "no question burned");

        // After a turn, a probe echoes the pin and the turn count.
        let q = "What is the estimated IPC for mcf under LRU?";
        ask(&engine, AskRequest::in_session(resp.session, q));
        let probed = probe(&engine, resp.session);
        assert!(probed.is_ok());
        assert_eq!(probed.session, resp.session);
        assert_eq!(probed.turn, 1);
        assert_eq!(probed.scenario.as_deref(), Some("@small"));
        assert_eq!(engine.transcript(resp.session).unwrap().len(), 1, "probe burned nothing");

        // Probing an unknown session fails in-band.
        let missing = probe(&engine, 999);
        assert_eq!(missing.error_kind.as_deref(), Some("unknown_session"));
    }

    #[test]
    fn concurrent_closes_never_poison_the_engine() {
        let engine = engine(2);
        let ids: Vec<u64> = (0..6).map(|_| engine.open_session()).collect();
        let q = "What is the overall miss rate of the mcf workload under LRU?";

        std::thread::scope(|scope| {
            let closer = scope.spawn(|| {
                for id in &ids {
                    let _ = engine.close_session(*id);
                }
            });
            // Asks race the closer: every response must be either a real
            // answer or an in-band unknown-session failure — never a panic
            // or a poisoned lock.
            for _ in 0..3 {
                for id in &ids {
                    let response = ask(&engine, AskRequest::in_session(*id, q));
                    assert!(
                        response.is_ok()
                            || response.error_kind.as_deref() == Some("unknown_session"),
                        "unexpected response shape: {response:?}"
                    );
                }
            }
            closer.join().expect("closer thread");
        });

        // The engine still serves fresh sessions after the churn.
        let after = ask(&engine, AskRequest::new(q));
        assert!(after.is_ok());
    }

    #[test]
    fn serve_line_reports_lifecycle_outcomes() {
        let engine = engine(1);
        let q = "What is the overall miss rate of the mcf workload under LRU?";

        // A session-less ask opens a session.
        let asked = engine.serve_line(&format!("{{\"question\": \"{q}\"}}"), false, "tcp", None);
        assert_eq!(asked.opened_session, Some(1));
        assert_eq!(asked.closed_session, None);
        assert!(!asked.shutdown);

        // A fresh open opens one; a probe of it does not.
        let opened = engine.serve_line("{\"open\": true}", false, "tcp", None);
        assert_eq!(opened.opened_session, Some(2));
        let probed = engine.serve_line("{\"open\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(probed.opened_session, None);

        // A successful close reports the closed session; a failed one
        // reports nothing.
        let closed = engine.serve_line("{\"close\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(closed.closed_session, Some(2));
        let refused = engine.serve_line("{\"close\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(refused.closed_session, None);
        assert!(refused.rendered.contains("unknown_session"), "{}", refused.rendered);

        // A shutdown line raises the flag and acknowledges in-band,
        // without counting as a request.
        let before = engine.stats_value();
        let shutdown = engine.serve_line("{\"shutdown\": true}", false, "tcp", None);
        assert!(shutdown.shutdown);
        assert_eq!(shutdown.rendered, "{\"shutdown\":true}");
        let after = engine.stats_value();
        assert_eq!(
            before.get("requests").unwrap().to_string(),
            after.get("requests").unwrap().to_string(),
            "shutdown is a transport control message, not a request"
        );
    }

    #[test]
    fn a_poisoned_session_map_keeps_serving() {
        let engine = engine(1);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _table = engine.sessions.lock();
                    panic!("a request panics while holding the session map");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(engine.sessions.is_poisoned());

        let q = "What is the overall miss rate of the mcf workload under LRU?";
        let asked = engine.serve_line(&format!("{{\"question\": \"{q}\"}}"), false, "tcp", None);
        assert!(!asked.rendered.contains("error"), "{}", asked.rendered);
        let session = asked.opened_session.expect("the ask opens a session");
        let close = format!("{{\"close\": true, \"session\": {session}}}");
        let closed = engine.serve_line(&close, false, "tcp", None);
        assert_eq!(closed.closed_session, Some(session), "{}", closed.rendered);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn a_too_deeply_nested_line_is_one_bad_request_and_the_engine_serves_on() {
        let engine = engine(1);
        let refused = engine.serve_line(&"[".repeat(200_000), false, "stdin", None);
        assert_eq!(refused.rendered.lines().count(), 1, "{}", refused.rendered);
        let response = serde_json::from_str(&refused.rendered).expect("a JSON response");
        assert_eq!(response.get("error_kind").and_then(Value::as_str), Some("bad_request"));
        let errors = engine.stats_value();
        assert_eq!(
            errors.get("errors").and_then(|e| e.get("total")).and_then(Value::as_u64),
            Some(1)
        );

        let q = "{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}";
        let answered = engine.serve_line(q, false, "stdin", None);
        let response = serde_json::from_str(&answered.rendered).expect("a JSON response");
        assert!(response.get("error_kind").is_none(), "{}", answered.rendered);
        assert_eq!(answered.opened_session, Some(1));
    }

    #[test]
    fn stats_lines_carry_their_transport_and_connection_context() {
        let engine = engine(1);
        let stdin = engine.serve_line("{\"stats\": true}", true, "stdin", None).rendered;
        assert!(stdin.contains("\"transport\":\"stdin\""), "{stdin}");
        assert!(!stdin.contains("\"connection\""), "{stdin}");

        let mut conn = Value::object();
        conn.insert("id", Value::from(7u64));
        let tcp = engine.serve_line("{\"stats\": true}", true, "tcp", Some(conn));
        assert!(tcp.rendered.contains("\"transport\":\"tcp\""), "{}", tcp.rendered);
        assert!(tcp.rendered.contains("\"connection\":{\"id\":7}"), "{}", tcp.rendered);

        // Non-stats responses never carry the tag: ask bytes stay
        // transport-independent (the cross-transport determinism
        // contract).
        let q = "{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}";
        let over_tcp = engine.serve_line(q, false, "tcp", None).rendered;
        assert!(!over_tcp.contains("transport"), "{over_tcp}");

        // The out-of-band writer shape matches the in-band one.
        let tagged = engine.stats_value_tagged("tcp");
        assert_eq!(tagged.get("transport").and_then(Value::as_str), Some("tcp"));
    }

    #[test]
    fn a_non_utf8_line_answers_in_band_and_the_stdio_loop_serves_on() {
        let engine = engine(1);
        let mut output = Vec::new();
        let input = std::io::Cursor::new(b"\xff\n{\"stats\": true}\n".to_vec());
        assert_eq!(engine.serve_stdio(input, &mut output), StdioEnd::Eof);
        let output = String::from_utf8(output).expect("responses are UTF-8");
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2, "{output}");
        let refused = serde_json::from_str(lines[0]).expect("a JSON response");
        assert_eq!(refused.get("error_kind").and_then(Value::as_str), Some("invalid_json"));
        let stats = serde_json::from_str(lines[1]).expect("a JSON response");
        assert!(stats.get("stats_version").is_some(), "{output}");

        // `exit` stops the loop before the line behind it.
        let mut output = Vec::new();
        let input = std::io::Cursor::new(b"exit\n{\"stats\": true}\n".to_vec());
        assert_eq!(engine.serve_stdio(input, &mut output), StdioEnd::Stopped);
        assert!(output.is_empty());
    }

    #[test]
    fn an_over_long_stdin_line_is_one_error_and_the_loop_serves_on() {
        let engine = engine(1);
        let q = "{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}";
        let mut input = vec![b'x'; 2 << 20];
        input.push(b'\n');
        input.extend_from_slice(format!("{q}\n{{\"stats\": true}}\n").as_bytes());
        let mut output = Vec::new();
        assert_eq!(engine.serve_stdio(std::io::Cursor::new(input), &mut output), StdioEnd::Eof);
        let output = String::from_utf8(output).expect("responses are UTF-8");
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 3, "{output}");
        let refused = serde_json::from_str(lines[0]).expect("a JSON response");
        assert_eq!(refused.get("error_kind").and_then(Value::as_str), Some("line_too_long"));
        let answered = serde_json::from_str(lines[1]).expect("a JSON response");
        assert!(answered.get("error_kind").is_none(), "{output}");
        assert!(answered.get("answer").and_then(Value::as_str).is_some_and(|a| !a.is_empty()));
        let stats = serde_json::from_str(lines[2]).expect("a JSON response");
        let errors = stats.get("errors").expect("stats carry errors");
        assert_eq!(errors.get("total").and_then(Value::as_u64), Some(1), "{output}");
        let by_kind = errors.get("by_kind").and_then(|k| k.get("line_too_long"));
        assert_eq!(by_kind.and_then(Value::as_u64), Some(1), "{output}");

        // A line of exactly the cap is served, not refused.
        let mut input = vec![b' '; MAX_LINE_BYTES - q.len()];
        input.extend_from_slice(q.as_bytes());
        input.push(b'\n');
        let mut output = Vec::new();
        engine.serve_stdio(std::io::Cursor::new(input), &mut output);
        let output = String::from_utf8(output).expect("responses are UTF-8");
        assert!(!output.contains("error_kind"), "{output}");
    }
}
