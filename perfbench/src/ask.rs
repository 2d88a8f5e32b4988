//! The two ask workloads over one Tiny serve snapshot.
//!
//! * `ask-distinct`: two client threads call `ServeEngine::serve_line` in
//!   process; no ask repeats, so every ask takes the answer-cache miss
//!   path (intent, retrieval, store reads, generation, one cache insert).
//! * `ask-hot-tcp`: the same engine behind `TcpServer` with two workers,
//!   driven over two loopback connections from a 64-question pool that a
//!   warm-up pass has already cached, so every timed ask is a cache hit
//!   and framing, queueing, protocol handling and lookups do the work.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cachemind_benchsuite::catalog::Catalog;
use cachemind_benchsuite::scoring::score;
use cachemind_core::cache::AnswerCache;
use cachemind_core::chat::ChatSession;
use cachemind_core::system::{Answer, CacheMind, Query, RetrieverKind};
use cachemind_lang::generator::GeneratorAnswer;
use cachemind_lang::intent::{QueryCategory, Tier};
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_serve::net::{NetConfig, TcpServer};
use cachemind_serve::protocol::{AskResponse, Request, Response};
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::{BuildError, TraceDatabase};
use cachemind_tracedb::shard::ShardedTraceDatabase;
use cachemind_tracedb::snapshot::{read_snapshot, write_snapshot, VerifiedSnapshot};
use cachemind_tracedb::store::TraceStore;
use serde_json::Value;

use crate::inputs::{self, Ask, Category, SESSION_ASKS};
use crate::measure::{self, median, Latencies, Tracer};
use crate::pipeline::Rebuilt;
use crate::{Args, Outcome, SETUP_REPS, WORKERS};

/// Asks per second of `--seconds` for each workload, near what a 2-vCPU
/// box completes: the op count is fixed by the arguments, never by wall
/// time, so the answer cache and session memory grow the same in every
/// run with the same arguments.
const DISTINCT_OPS_PER_SECOND: usize = 4_000;
const HOT_OPS_PER_SECOND: usize = 15_000;

/// Cold starts timed on top of the ones inside the set-ups.
const COLD_REPS: usize = 20;

/// Sessions each `ask-hot-tcp` connection carries, one ask in flight each.
const SESSIONS_PER_CONN: usize = 8;

/// The cold-start ask: answered once per set-up, and never part of a
/// generated sequence (no template words it this way).
const COLD_QUESTION: &str = "What is the overall miss rate of the mcf workload under LRU?";

/// The serve engine both workloads run: Ranger retrieval, default
/// backend and answer cache, two workers, over a Tiny store with the
/// table2 and small machines and the stride4 prefetcher (72 traces).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        retriever: RetrieverKind::Ranger,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        threads: Some(WORKERS),
        ..ServeConfig::default()
    }
}

pub fn build_store() -> Result<ShardedTraceDatabase, BuildError> {
    build_database(&serve_config())
}

/// A store built separately from the served snapshot, and a cache-off
/// Ranger `CacheMind` over it: the oracle every served answer must match.
pub struct Reference {
    pub db: Arc<TraceDatabase>,
    mind: CacheMind,
}

impl Reference {
    pub fn build() -> Reference {
        let db = Arc::new(build_store().expect("serve store builds").into_unified());
        let store: Arc<dyn TraceStore> = db.clone();
        Reference { db, mind: CacheMind::shared(store).with_retriever(RetrieverKind::Ranger) }
    }

    pub fn answer(&self, ask: &Ask) -> Answer {
        self.mind.ask_query(&Query::scoped(ask.text.clone(), selector(ask)))
    }

    /// CacheMindBench points ÷ max points over the 100-question catalog
    /// generated from the store, answered by the Ranger `CacheMind`; also
    /// the same share over the trace-grounded tier alone.
    pub fn accuracy(&self) -> (f64, f64) {
        let catalog = Catalog::generate(&self.db);
        let (mut points, mut max, mut tg_points, mut tg_max) = (0.0, 0.0, 0.0, 0.0);
        for q in catalog.questions() {
            let a = self.mind.ask_query(&Query::new(q.text.clone()));
            let got = score(q, &GeneratorAnswer { text: a.text, verdict: a.verdict });
            points += got;
            max += q.max_points();
            if q.tier() == Tier::TraceGrounded {
                tg_points += got;
                tg_max += q.max_points();
            }
        }
        (points / max, tg_points / tg_max)
    }

    /// Sets `answer_accuracy` and notes the trace-grounded share.
    pub fn report_accuracy(&self, out: &mut Outcome) {
        let (all, grounded) = self.accuracy();
        out.set("answer_accuracy", all);
        out.note(format!(
            "answer_accuracy {all:.3} overall, {grounded:.3} on the trace-grounded tier"
        ));
    }
}

fn selector(ask: &Ask) -> ScenarioSelector {
    match &ask.scenario {
        Some(s) => ScenarioSelector::parse(s).expect("generated scopes parse"),
        None => ScenarioSelector::all(),
    }
}

/// The bytes a served answer must carry: answer text and verdict.
fn expected(answer: &Answer) -> (String, String) {
    (answer.text.clone(), format!("{:?}", answer.verdict))
}

fn close_line(session: u64) -> String {
    Request::Close { session }.to_json()
}

fn stats_in_process(engine: &ServeEngine) -> Value {
    let line = engine.serve_line(&Request::Stats.to_json(), false, "stdin", None).rendered;
    serde_json::from_str(&line).expect("stats response is JSON")
}

fn path_u64(value: &Value, path: &[&str]) -> u64 {
    let mut v = value;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().or_else(|| v.as_f64().map(|f| f as u64)).unwrap_or(0)
}

fn histogram(stats: &Value, name: &str, field: &str) -> u64 {
    path_u64(stats, &["metrics", "histograms", name, field])
}

fn counter(stats: &Value, name: &str) -> u64 {
    path_u64(stats, &["metrics", "counters", name])
}

/// Cache hits ÷ lookups between two stats snapshots.
fn hit_share(before: &Value, after: &Value) -> f64 {
    let d = |k: &str| (path_u64(after, &["cache", k]) - path_u64(before, &["cache", k])) as f64;
    let lookups = d("hits") + d("misses");
    if lookups == 0.0 {
        0.0
    } else {
        d("hits") / lookups
    }
}

/// Set-up, [`SETUP_REPS`] times: build the sharded store in process,
/// write the snapshot, then the cold start — `ServeEngine::from_snapshot`
/// (checksum verify) plus the first answered `serve_line` (lazy decode).
/// `warm` runs last in each repetition. Returns the last engine.
fn setup(
    out: &mut Outcome,
    tracer: &Tracer,
    snapshot: &Path,
    warm: impl Fn(&ServeEngine),
) -> ServeEngine {
    let (mut setup, mut cold) = (Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let started = Instant::now();
        let db = tracer.time("tracedb.build", 0, None, || build_store().expect("store builds"));
        let bytes = tracer.time("tracedb.snapshot_write", 0, None, || {
            let bytes = write_snapshot(&db);
            std::fs::write(snapshot, &bytes).expect("snapshot written");
            bytes.len()
        });
        drop(db);
        let restart = Instant::now();
        let served = ServeEngine::from_snapshot(snapshot, serve_config()).expect("snapshot loads");
        let first = served.serve_line(&Ask::cold().line(None), false, "stdin", None);
        cold.push(restart.elapsed().as_secs_f64() * 1e3);
        out.check(AskResponse::from_json(&first.rendered).is_ok_and(|r| r.is_ok()));
        let session = first.opened_session.expect("the cold ask opens a session");
        served.serve_line(&close_line(session), false, "stdin", None);
        warm(&served);
        setup.push(started.elapsed().as_secs_f64());
        out.layer("tracedb.snapshot_mb", bytes as f64 / (1024.0 * 1024.0));
        engine = Some(served);
    }
    // More cold starts over the last snapshot, so the median of this
    // short, noisy step holds still from run to run.
    for _ in 0..COLD_REPS {
        let restart = Instant::now();
        let served = ServeEngine::from_snapshot(snapshot, serve_config()).expect("snapshot loads");
        let first = served.serve_line(&Ask::cold().line(None), false, "stdin", None);
        cold.push(restart.elapsed().as_secs_f64() * 1e3);
        out.check(AskResponse::from_json(&first.rendered).is_ok_and(|r| r.is_ok()));
    }
    out.set("setup_s", median(&setup));
    out.set("cold_start_ms", median(&cold));
    if tracer.enabled() {
        trace_storage(out, tracer, snapshot);
    }
    engine.expect("at least one set-up")
}

/// Traced run only: the storage layers of the cold start, timed one call
/// at a time on the snapshot the set-up wrote.
fn trace_storage(out: &mut Outcome, tracer: &Tracer, snapshot: &Path) {
    let bytes = std::fs::read(snapshot).expect("snapshot readable");
    for _ in 0..SETUP_REPS {
        tracer.time("tracedb.snapshot_verify", 0, None, || {
            VerifiedSnapshot::verify(bytes.clone()).expect("snapshot verifies")
        });
        let db = tracer.time("tracedb.decode", 0, None, || read_snapshot(&bytes).expect("decodes"));
        tracer.time("core.fingerprint", 0, None, || {
            AnswerCache::new(&cachemind_obs::MetricsRegistry::new()).fingerprint(&db)
        });
    }
    let per_rep = |name: &str| tracer.sum_ms(name) / SETUP_REPS as f64;
    for name in [
        "tracedb.build",
        "tracedb.snapshot_write",
        "tracedb.snapshot_verify",
        "tracedb.decode",
        "core.fingerprint",
    ] {
        out.layer(&format!("{name}_ms"), per_rep(name));
    }
}

impl Ask {
    fn cold() -> Ask {
        Ask {
            text: COLD_QUESTION.to_owned(),
            scenario: None,
            category: Category::Table1(QueryCategory::MissRate),
        }
    }
}

/// The answer-cache key `CacheMind` uses: store fingerprint, scope,
/// exploration flag and question text.
fn cache_key(fingerprint: u64, ask: &Ask) -> String {
    format!("{fingerprint:016x}|{}|1|{}", selector(ask), ask.text)
}

fn category_span(category: Category) -> &'static str {
    use QueryCategory as Q;
    match category {
        Category::Table1(Q::HitMiss) => "core.ask.hitmiss",
        Category::Table1(Q::MissRate) => "core.ask.missrate",
        Category::Table1(Q::PolicyComparison) => "core.ask.policycomparison",
        Category::Table1(Q::Count) => "core.ask.count",
        Category::Table1(Q::Arithmetic) => "core.ask.arithmetic",
        Category::Table1(Q::Trick) => "core.ask.trick",
        Category::Table1(Q::Concepts) => "core.ask.concepts",
        Category::Table1(Q::CodeGen) => "core.ask.codegen",
        Category::Table1(Q::PolicyAnalysis) => "core.ask.policyanalysis",
        Category::Table1(Q::WorkloadAnalysis) => "core.ask.workloadanalysis",
        Category::Table1(Q::SemanticAnalysis) => "core.ask.semanticanalysis",
        Category::Exploration => "core.ask.exploration",
    }
}

/// Every category span name, for reporting.
pub fn category_spans() -> Vec<&'static str> {
    inputs::CATEGORY_WEIGHTS.iter().map(|(c, _)| category_span(*c)).collect()
}

/// A benchmark-owned chat session: the memory layer the engine logs
/// every answered turn into.
fn chat_session() -> ChatSession {
    let empty: Arc<dyn TraceStore> = Arc::new(TraceDatabase::new());
    ChatSession::new(CacheMind::shared(empty))
}

/// Times `ChatSession::log` and counts the heap bytes the turn kept.
fn log_turn(tracer: &Tracer, op: u64, chat: &mut ChatSession, question: &str, answer: &str) {
    let open = tracer.open("lang.memory_log", op, None);
    let kept = measure::allocated_by(|| chat.log(question, answer));
    tracer.close(open);
    tracer.count("lang.memory_bytes", kept as f64);
    tracer.count("lang.memory_turns", 1.0);
}

/// Times an in-process open and close of one session.
fn time_session_lifecycle(tracer: &Tracer, engine: &ServeEngine, op: u64) {
    let id = tracer.time("serve.session_open", op, None, || engine.open_session());
    tracer.time("serve.session_close", op, None, || engine.close_session(id)).expect("closes");
}

/// What one ask-distinct client recorded: latencies, and for each ask its
/// index in the stream with the served answer (or `None` on failure).
#[derive(Default)]
struct ClientLog {
    latencies: Latencies,
    answers: Vec<(usize, Served)>,
    protocol_ok: bool,
}

/// A served answer and verdict; `None` when the response was an error.
type Served = Option<(String, String)>;

fn served_answer(rendered: &str) -> Served {
    let response = AskResponse::from_json(rendered).ok()?;
    if !response.is_ok() {
        return None;
    }
    Some((response.answer?, response.verdict?))
}

/// One ask-distinct client: asks `stream[range]` in sessions of
/// [`SESSION_ASKS`], closing each. On a traced run every other ask goes
/// through the rebuilt pipeline instead of `serve_line`.
fn distinct_client(
    engine: &ServeEngine,
    stream: &[Ask],
    range: std::ops::Range<usize>,
    traced: Option<(&Tracer, &Rebuilt, &AnswerCache, u64)>,
    phase_start: Instant,
) -> ClientLog {
    let mut log = ClientLog { protocol_ok: true, ..ClientLog::default() };
    let mut rendered = Vec::with_capacity(range.len());
    let mut session: Option<u64> = None;
    let mut chat = chat_session();
    let mut turn = 0usize;
    let last = range.end;
    for i in range {
        let ask = &stream[i];
        let line = ask.line(session);
        let op = i as u64;
        match traced {
            // Odd turns, so the opening ask of every session is served.
            Some((tracer, rebuilt, cache, fingerprint)) if turn % 2 == 1 => {
                let started = Instant::now();
                let answer = rebuilt_line(
                    tracer,
                    rebuilt,
                    cache,
                    fingerprint,
                    op,
                    ask,
                    &line,
                    &mut chat,
                    turn + 1,
                );
                log.latencies.push(phase_start, started.elapsed().as_nanos() as u64);
                log.answers.push((i, Some(answer)));
            }
            _ => {
                let started = Instant::now();
                let outcome = match traced {
                    Some((tracer, ..)) => tracer.time("serve.line", op, None, || {
                        engine.serve_line(&line, false, "stdin", None)
                    }),
                    None => engine.serve_line(&line, false, "stdin", None),
                };
                log.latencies.push(phase_start, started.elapsed().as_nanos() as u64);
                if let Some(id) = outcome.opened_session {
                    session = Some(id);
                }
                rendered.push((i, outcome.rendered));
            }
        }
        turn += 1;
        if turn == SESSION_ASKS || i + 1 == last {
            if let Some(id) = session.take() {
                let closed = engine.serve_line(&close_line(id), false, "stdin", None);
                log.protocol_ok &= closed.closed_session == Some(id);
            }
            if let Some((tracer, ..)) = traced {
                time_session_lifecycle(tracer, engine, op);
            }
            chat = chat_session();
            turn = 0;
        }
    }
    log.answers.extend(rendered.into_iter().map(|(i, r)| (i, served_answer(&r))));
    log
}

/// One ask through public calls, each inside a span: protocol parse, the
/// rebuilt cache-off ask, the answer-cache lookup and insert, the memory
/// log and the response render.
#[allow(clippy::too_many_arguments)]
fn rebuilt_line(
    tracer: &Tracer,
    rebuilt: &Rebuilt,
    cache: &AnswerCache,
    fingerprint: u64,
    op: u64,
    ask: &Ask,
    line: &str,
    chat: &mut ChatSession,
    turn: usize,
) -> (String, String) {
    let request = tracer.time("serve.parse", op, None, || Request::from_json(line));
    let Ok(Request::Ask(request)) = request else { panic!("generated lines parse: {line}") };
    let key = cache_key(fingerprint, ask);
    let hit = tracer.time("core.cache_get", op, None, || cache.get(&key));
    assert!(hit.is_none(), "ask-distinct never repeats an ask");
    let selector = request.scenario.clone().unwrap_or_default();
    let open = tracer.open("core.ask", op, None);
    let by_category = tracer.open(category_span(ask.category), op, open.id());
    let answer = rebuilt.ask(tracer, op, by_category.id(), &request.question, &selector);
    tracer.close(by_category);
    tracer.close(open);
    tracer.count("retrieval.facts", answer.context.facts.len() as f64);
    tracer.count("core.asks", 1.0);
    tracer.time("core.cache_insert", op, None, || cache.insert(key, answer.clone()));
    log_turn(tracer, op, chat, &request.question, &answer.text);
    let verdict = format!("{:?}", answer.verdict);
    let response = Response::Ask(AskResponse {
        session: request.session.unwrap_or(0),
        turn,
        answer: Some(answer.text.clone()),
        verdict: Some(verdict.clone()),
        machine: None,
        prefetcher: None,
        scenario: None,
        closed: false,
        error: None,
        error_kind: None,
        micros: 0,
    });
    tracer.time("serve.render", op, None, || response.to_json(false));
    (answer.text, verdict)
}

#[derive(Clone, Copy)]
enum Half {
    All,
    First,
    Second,
}

impl Half {
    /// The half of a stream of `len` asks; the split falls on a session
    /// boundary, so every session opens with an unscoped ask.
    fn of(self, len: usize) -> std::ops::Range<usize> {
        let split = len / 2 / SESSION_ASKS * SESSION_ASKS;
        match self {
            Half::All => 0..len,
            Half::First => 0..split,
            Half::Second => split..len,
        }
    }
}

pub fn run_distinct(args: &Args, tracer: &Tracer, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let snapshot = dir.join("serve.snapshot");
    let engine = setup(&mut out, tracer, &snapshot, |_| {});
    let total = (args.seconds as usize * DISTINCT_OPS_PER_SECOND).max(2 * SESSION_ASKS);
    let streams = inputs::distinct_sequence(engine.store(), args.seed, total, WORKERS);

    // The rebuilt pipeline of the traced run reads its own decode of the
    // served snapshot through the counting store.
    let traced = tracer.enabled().then(|| {
        let bytes = std::fs::read(&snapshot).expect("snapshot readable");
        let rebuilt = Rebuilt::new(read_snapshot(&bytes).expect("snapshot decodes"));
        let cache = AnswerCache::new(&cachemind_obs::MetricsRegistry::new());
        let fingerprint = cache.fingerprint(&rebuilt.store);
        (rebuilt, cache, fingerprint)
    });

    // A traced run asks the first half of each stream untraced and the
    // second half traced.
    let phases: &[(bool, Half)] = if tracer.enabled() {
        &[(false, Half::First), (true, Half::Second)]
    } else {
        &[(false, Half::All)]
    };
    let stats_before = stats_in_process(&engine);
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut untraced_per_s = 0.0;
    for &(is_traced, half) in phases {
        let cpu_before = measure::cpu_ms();
        let started = Instant::now();
        let phase_logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let range = half.of(stream.len());
                    let engine = &engine;
                    let traced =
                        traced.as_ref().filter(|_| is_traced).map(|(r, c, f)| (tracer, r, c, *f));
                    scope.spawn(move || distinct_client(engine, stream, range, traced, started))
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread")).collect()
        });
        let cpu = measure::cpu_ms() - cpu_before;
        let mut latencies = Latencies::default();
        for log in &phase_logs {
            latencies.extend(log.latencies.clone());
        }
        let ops = latencies.len();
        if is_traced {
            let per_s = latencies.summary().ops_per_s;
            out.layer("trace.overhead_share", 1.0 - per_s / untraced_per_s);
        } else {
            untraced_per_s = out.set_phase(&latencies).ops_per_s;
            out.layer("host.cpu_ms_per_op", cpu / ops as f64);
        }
        logs.extend(phase_logs);
    }
    let stats_after = stats_in_process(&engine);
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.layer("core.cache_hit_share", hit_share(&stats_before, &stats_after));
    out.layer("core.cache_entries", path_u64(&stats_after, &["cache", "entries"]) as f64);
    if let Some((rebuilt, _, _)) = &traced {
        report_ask_layers(&mut out, tracer, rebuilt);
    }
    drop(engine);
    let _ = std::fs::remove_file(&snapshot);

    // Checks, untimed: every served and every rebuilt answer is byte-equal
    // to the cache-off reference over a separately built store.
    let reference = Reference::build();
    let flat: Vec<(usize, usize, Served)> = logs
        .into_iter()
        .enumerate()
        .flat_map(|(c, log)| {
            let client = c % streams.len();
            out.check(log.protocol_ok);
            log.answers.into_iter().map(move |(i, a)| (client, i, a))
        })
        .collect();
    let verdicts = crate::par_map(&flat, |(client, i, served)| {
        let ask = &streams[*client][*i];
        let want = expected(&reference.answer(ask));
        let ok = served.as_ref() == Some(&want);
        if !ok {
            eprintln!(
                "perfbench: wrong answer to {ask:?}\n  served {served:?}\n  expected {want:?}"
            );
        }
        ok
    });
    for ok in verdicts {
        out.op(ok);
    }
    reference.report_accuracy(&mut out);
    out
}

/// The per-layer metrics of the rebuilt asks of a traced run.
fn report_ask_layers(out: &mut Outcome, tracer: &Tracer, rebuilt: &Rebuilt) {
    let asks = tracer.count_of("core.asks").max(1.0);
    for name in [
        "serve.parse",
        "serve.render",
        "serve.line",
        "serve.session_open",
        "serve.session_close",
        "lang.intent",
        "lang.prompt",
        "lang.generate",
        "lang.memory_log",
        "retrieval.compile",
        "retrieval.optimize",
        "retrieval.retrieve",
        "core.ask",
        "core.cache_get",
        "core.cache_insert",
    ] {
        out.layer(&format!("{name}_us"), tracer.mean_us(name));
    }
    // Plan runs per ask, so exploration asks (whose plan runs outside
    // retrieval) count too.
    out.layer("retrieval.plan_run_us", tracer.sum_ms("retrieval.plan_run") * 1e3 / asks);
    for span in category_spans() {
        out.layer(&format!("{span}_us"), tracer.mean_us(span));
    }
    out.layer("retrieval.facts_per_ask", tracer.count_of("retrieval.facts") / asks);
    let (calls, nanos) = rebuilt.store.totals();
    out.layer("tracedb.store_calls_per_ask", calls as f64 / asks);
    out.layer("tracedb.store_us_per_ask", nanos as f64 / 1e3 / asks);
    memory_per_turn(out, tracer);
    let line = tracer.mean_us("serve.line");
    let staged: f64 = [
        "serve.parse",
        "core.ask",
        "core.cache_get",
        "core.cache_insert",
        "lang.memory_log",
        "serve.render",
    ]
    .iter()
    .map(|s| tracer.mean_us(s))
    .sum();
    out.layer("serve.unattributed_share", (line - staged) / line);
}

fn memory_per_turn(out: &mut Outcome, tracer: &Tracer) {
    let turns = tracer.count_of("lang.memory_turns").max(1.0);
    out.layer("lang.memory_bytes_per_turn", tracer.count_of("lang.memory_bytes") / turns);
}

/// One `ask-hot-tcp` connection's record.
#[derive(Default)]
struct ConnLog {
    latencies: Latencies,
    /// `(pool index, answer)` per ask, `None` for a failed response.
    answers: Vec<(usize, Served)>,
    protocol_ok: bool,
}

/// One in-flight request on an `ask-hot-tcp` connection.
#[derive(Clone, Copy)]
enum Sent {
    Ask { slot: usize, pool: usize, at: Instant },
    Close { slot: usize },
}

/// One session slot of a connection.
struct Slot {
    session: Option<u64>,
    asked: usize,
    chat: ChatSession,
}

/// The sending half of an `ask-hot-tcp` connection.
struct Sender<'a> {
    writer: TcpStream,
    pool: &'a [Ask],
    unscoped: Vec<usize>,
    rng: inputs::Rng,
    in_flight: VecDeque<Sent>,
    asks_left: usize,
}

impl Sender<'_> {
    /// Sends the slot's next ask, if any are left: a pool question in a
    /// seeded order, always an unscoped one when it opens the session.
    fn ask(&mut self, slots: &[Slot], slot: usize) -> std::io::Result<()> {
        if self.asks_left == 0 {
            return Ok(());
        }
        self.asks_left -= 1;
        let session = slots[slot].session;
        let index = match session {
            None => self.unscoped[self.rng.below(self.unscoped.len())],
            Some(_) => self.rng.below(self.pool.len()),
        };
        let mut line = self.pool[index].line(session);
        line.push('\n');
        self.in_flight.push_back(Sent::Ask { slot, pool: index, at: Instant::now() });
        self.writer.write_all(line.as_bytes())
    }

    fn close(&mut self, slot: usize, session: u64) -> std::io::Result<()> {
        self.in_flight.push_back(Sent::Close { slot });
        self.writer.write_all(format!("{}\n", close_line(session)).as_bytes())
    }
}

/// Drives `asks` asks over one connection: [`SESSIONS_PER_CONN`] sessions
/// with one ask in flight each; every session asks [`SESSION_ASKS`]
/// questions and closes.
fn hot_connection(
    addr: std::net::SocketAddr,
    pool: &[Ask],
    seed: u64,
    asks: usize,
    traced: Option<(&Tracer, &AnswerCache, u64)>,
    phase_start: Instant,
    done: &std::sync::Barrier,
) -> std::io::Result<ConnLog> {
    let stream = TcpStream::connect(addr);
    let log = match &stream {
        Ok(stream) => drive_connection(stream, pool, seed, asks, traced, phase_start),
        Err(err) => Err(std::io::Error::new(err.kind(), err.to_string())),
    };
    // Meet the driving thread twice with the connection still open, so
    // it can count threads and context switches of the loaded server.
    done.wait();
    done.wait();
    log
}

fn drive_connection(
    stream: &TcpStream,
    pool: &[Ask],
    seed: u64,
    asks: usize,
    traced: Option<(&Tracer, &AnswerCache, u64)>,
    phase_start: Instant,
) -> std::io::Result<ConnLog> {
    stream.set_nodelay(true)?;
    let mut sender = Sender {
        writer: stream.try_clone()?,
        pool,
        unscoped: (0..pool.len()).filter(|&i| pool[i].scenario.is_none()).collect(),
        rng: inputs::Rng::new(seed),
        in_flight: VecDeque::new(),
        asks_left: asks,
    };
    let mut reader = BufReader::new(stream.try_clone()?);
    let fresh = || Slot { session: None, asked: 0, chat: chat_session() };
    let mut slots: Vec<Slot> = (0..SESSIONS_PER_CONN).map(|_| fresh()).collect();
    let mut log = ConnLog { protocol_ok: true, ..ConnLog::default() };
    let mut lines: Vec<(usize, String)> = Vec::with_capacity(asks);
    for slot in 0..SESSIONS_PER_CONN {
        sender.ask(&slots, slot)?;
    }
    let mut response = String::new();
    while let Some(sent) = sender.in_flight.pop_front() {
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            log.protocol_ok = false;
            break;
        }
        match sent {
            Sent::Ask { slot, pool: index, at } => {
                log.latencies.push(phase_start, at.elapsed().as_nanos() as u64);
                let op = lines.len() as u64;
                if slots[slot].session.is_none() {
                    match AskResponse::from_json(response.trim()) {
                        Ok(r) if r.is_ok() => slots[slot].session = Some(r.session),
                        _ => log.protocol_ok = false,
                    }
                }
                if let Some((tracer, cache, fingerprint)) = traced {
                    let chat = &mut slots[slot].chat;
                    hot_hit_path(
                        tracer,
                        cache,
                        fingerprint,
                        op,
                        &pool[index],
                        response.trim(),
                        chat,
                    );
                }
                lines.push((index, response.trim().to_owned()));
                slots[slot].asked += 1;
                match slots[slot].session {
                    Some(id) if slots[slot].asked == SESSION_ASKS => sender.close(slot, id)?,
                    _ => sender.ask(&slots, slot)?,
                }
            }
            Sent::Close { slot } => {
                log.protocol_ok &= AskResponse::from_json(response.trim()).is_ok_and(|r| r.closed);
                slots[slot] = fresh();
                sender.ask(&slots, slot)?;
            }
        }
    }
    // Sessions still open when the asks ran out close here, untimed.
    for (slot, state) in slots.iter_mut().enumerate() {
        if let Some(id) = state.session.take() {
            sender.close(slot, id)?;
            response.clear();
            reader.read_line(&mut response)?;
            log.protocol_ok &= AskResponse::from_json(response.trim()).is_ok_and(|r| r.closed);
        }
    }
    log.answers = lines.into_iter().map(|(i, r)| (i, served_answer(&r))).collect();
    Ok(log)
}

/// Traced run only: the public calls the server makes on a cache hit,
/// repeated client-side on the same request and answer — protocol parse,
/// answer-cache lookup, memory log, response render.
fn hot_hit_path(
    tracer: &Tracer,
    cache: &AnswerCache,
    fingerprint: u64,
    op: u64,
    ask: &Ask,
    rendered: &str,
    chat: &mut ChatSession,
) {
    let line = ask.line(Some(1));
    tracer.time("serve.parse", op, None, || Request::from_json(&line)).expect("parses");
    let hit = tracer.time("core.cache_get", op, None, || cache.get(&cache_key(fingerprint, ask)));
    assert!(hit.is_some(), "the hot pool is cached");
    let Ok(response) = AskResponse::from_json(rendered) else { return };
    log_turn(tracer, op, chat, &ask.text, response.answer.as_deref().unwrap_or(""));
    let response = Response::Ask(response);
    tracer.time("serve.render", op, None, || response.to_json(false));
}

fn stats_over_tcp(addr: std::net::SocketAddr) -> std::io::Result<Value> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("{}\n", Request::Stats.to_json()).as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    serde_json::from_str(line.trim()).map_err(|e| std::io::Error::other(e.to_string()))
}

pub fn run_hot_tcp(args: &Args, tracer: &Tracer, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let snapshot = dir.join("serve.snapshot");
    // The pool is generated from a separately built store before set-up,
    // so set-up can warm exactly these questions into the answer cache.
    let pool = inputs::hot_pool(&build_store().expect("store builds"), args.seed);
    let engine = setup(&mut out, tracer, &snapshot, |engine| {
        for ask in &pool {
            let outcome = engine.serve_line(&ask.line(None), false, "stdin", None);
            if let Some(id) = outcome.opened_session {
                engine.serve_line(&close_line(id), false, "stdin", None);
            }
        }
    });
    let engine = Arc::new(engine);
    let server = TcpServer::start(Arc::clone(&engine), "127.0.0.1:0", NetConfig::default())
        .expect("loopback listener");
    let addr = server.local_addr();
    let total = (args.seconds as usize * HOT_OPS_PER_SECOND).max(2 * SESSION_ASKS);

    let traced = tracer.enabled().then(|| {
        let bytes = std::fs::read(&snapshot).expect("snapshot readable");
        let db: Arc<dyn TraceStore> = Arc::new(read_snapshot(&bytes).expect("decodes"));
        let mind = CacheMind::shared(db.clone()).with_retriever(RetrieverKind::Ranger);
        let cache = AnswerCache::new(&cachemind_obs::MetricsRegistry::new());
        let fingerprint = cache.fingerprint(&*db);
        for ask in &pool {
            let answer = mind.ask_query(&Query::scoped(ask.text.clone(), selector(ask)));
            cache.insert(cache_key(fingerprint, ask), answer);
        }
        (cache, fingerprint)
    });

    let phases: Vec<(bool, usize)> = if tracer.enabled() {
        vec![(false, total / 2), (true, total - total / 2)]
    } else {
        vec![(false, total)]
    };
    let stats_before = stats_over_tcp(addr).expect("stats over TCP");
    let mut logs: Vec<ConnLog> = Vec::new();
    let mut untraced_per_s = 0.0;
    let mut rtt_p50_us = 0.0;
    let (mut threads, mut switches) = (0, 0);
    for (phase, (is_traced, asks)) in phases.into_iter().enumerate() {
        let cpu_before = measure::cpu_ms();
        let switches_before = measure::context_switches();
        let started = Instant::now();
        let barrier = std::sync::Barrier::new(WORKERS + 1);
        let phase_logs: Vec<std::io::Result<ConnLog>> = std::thread::scope(|scope| {
            let conns: Vec<_> = (0..WORKERS)
                .map(|c| {
                    let pool = &pool;
                    let barrier = &barrier;
                    let traced =
                        traced.as_ref().filter(|_| is_traced).map(|(cache, f)| (tracer, cache, *f));
                    let share = asks / WORKERS + usize::from(c < asks % WORKERS);
                    let seed = args.seed ^ (((phase * WORKERS + c) as u64 + 1) << 32);
                    scope.spawn(move || {
                        hot_connection(addr, pool, seed, share, traced, started, barrier)
                    })
                })
                .collect();
            barrier.wait();
            // Every connection has finished its asks and is still open.
            threads = measure::threads();
            switches = measure::context_switches().saturating_sub(switches_before);
            barrier.wait();
            conns.into_iter().map(|c| c.join().expect("client thread")).collect()
        });
        let cpu = measure::cpu_ms() - cpu_before;
        let mut latencies = Latencies::default();
        let mut phase_ok = Vec::new();
        for log in phase_logs {
            match log {
                Ok(log) => {
                    latencies.extend(log.latencies.clone());
                    phase_ok.push(log);
                }
                Err(_) => out.check(false),
            }
        }
        let ops = latencies.len().max(1);
        if is_traced {
            let per_s = latencies.summary().ops_per_s;
            out.layer("trace.overhead_share", 1.0 - per_s / untraced_per_s);
        } else {
            let summary = out.set_phase(&latencies);
            untraced_per_s = summary.ops_per_s;
            rtt_p50_us = summary.p50_ms * 1e3;
            out.layer("host.cpu_ms_per_op", cpu / ops as f64);
            out.layer("net.threads", threads as f64);
            out.layer("net.ctx_switches_per_op", switches as f64 / ops as f64);
        }
        logs.extend(phase_ok);
    }
    let stats_after = stats_over_tcp(addr).expect("stats over TCP");
    out.set("peak_rss_mb", measure::peak_rss_mb());
    server.shutdown();
    drop(engine);
    let _ = std::fs::remove_file(&snapshot);

    let ops = logs.iter().map(|l| l.latencies.len()).sum::<usize>().max(1) as f64;
    let delta = |name: &str| {
        counter(&stats_after, name).saturating_sub(counter(&stats_before, name)) as f64
    };
    let hist_delta = |name: &str| {
        histogram(&stats_after, name, "sum").saturating_sub(histogram(&stats_before, name, "sum"))
            as f64
    };
    out.layer("core.cache_hit_share", hit_share(&stats_before, &stats_after));
    out.layer("core.cache_entries", path_u64(&stats_after, &["cache", "entries"]) as f64);
    out.layer("net.transport_us", rtt_p50_us - histogram(&stats_after, "serve.ask", "p50") as f64);
    out.layer("net.read_us_per_op", hist_delta("serve.net.read") / ops);
    out.layer("net.write_us_per_op", hist_delta("serve.net.write") / ops);
    out.layer(
        "net.bytes_per_op",
        (delta("serve.net.bytes_in") + delta("serve.net.bytes_out")) / ops,
    );
    let overloaded = delta("serve.net.queue_rejected")
        + delta("serve.net.connections_rejected")
        + path_u64(&stats_after, &["errors", "by_kind", "overloaded"]) as f64;
    out.layer("net.overloaded", overloaded);
    if tracer.enabled() {
        for name in ["serve.parse", "serve.render", "core.cache_get", "lang.memory_log"] {
            out.layer(&format!("{name}_us"), tracer.mean_us(name));
        }
        memory_per_turn(&mut out, tracer);
    }

    // Checks, untimed: every answer is byte-equal to the cache-off
    // reference for its pool question.
    let reference = Reference::build();
    let want: Vec<(String, String)> = pool.iter().map(|a| expected(&reference.answer(a))).collect();
    for log in logs {
        out.check(log.protocol_ok);
        for (index, served) in log.answers {
            out.op(served.as_ref() == Some(&want[index]));
        }
    }
    reference.report_accuracy(&mut out);
    out
}
