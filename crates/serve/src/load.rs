//! The synthetic load driver: N sessions × M questions sent as protocol
//! lines, in process or over TCP, with a deterministic JSON report.
//!
//! Question synthesis is a pure function of `(store, session, turn)` —
//! templates cycle over the store's real workloads, policies and trace
//! rows — so a run is fully reproducible. The report holds only
//! deterministic content (answers, verdicts, aggregate counters), so it is
//! byte-identical across transports and `SERVE_NUM_THREADS`. Timing is the
//! server's own business: its spans land in the engine's metrics registry
//! (`{"stats": true}`, `--stats-json`), and end-to-end numbers come from
//! perfbench.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use serde_json::Value;

use cachemind_core::system::RetrieverKind;
use cachemind_sim::hash::fnv64;
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::ScenarioSelector;

use crate::engine::ServeEngine;
use crate::protocol::{AskRequest, AskResponse, Request};

/// Load-driver shape: how many sessions, how many questions each, and —
/// for protocol-v2 runs — which scenario each session pins at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSpec {
    /// Concurrent sessions to open.
    pub sessions: usize,
    /// Questions per session.
    pub questions: usize,
    /// Scenario selectors pinned to sessions round-robin (session `s`
    /// pins `scenarios[s % len]`). Empty = the v1 driver: unscoped
    /// sessions, byte-identical to the pre-v2 run.
    pub scenarios: Vec<ScenarioSelector>,
    /// Repeated-question period (`--repeat-period`): `0` keeps every turn
    /// distinct (the classic driver, byte-identical); `N > 0` makes turn
    /// `t` re-ask the question of turn `t % N`, so a drive of `M`
    /// questions per session asks only `min(M, N)` distinct ones — the
    /// mix that exercises the whole-answer cache.
    pub repeat_period: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec { sessions: 8, questions: 4, scenarios: Vec::new(), repeat_period: 0 }
    }
}

impl LoadSpec {
    /// The scenario session `s` pins (unscoped when no scenarios are
    /// configured).
    pub fn pin_for(&self, session: usize) -> ScenarioSelector {
        if self.scenarios.is_empty() {
            ScenarioSelector::all()
        } else {
            self.scenarios[session % self.scenarios.len()].clone()
        }
    }

    /// The turn whose question turn `t` actually asks — `t` itself, or
    /// `t % repeat_period` when a repeat period is configured.
    pub fn question_turn(&self, turn: usize) -> usize {
        if self.repeat_period > 0 {
            turn % self.repeat_period
        } else {
            turn
        }
    }
}

/// The deterministic question a given `(session, turn)` asks, synthesized
/// from the store's actual vocabulary and trace rows.
pub fn synthetic_question(store: &dyn TraceStore, session: usize, turn: usize) -> String {
    let workloads = store.workloads();
    let policies = store.policies();
    assert!(!workloads.is_empty() && !policies.is_empty(), "load driver needs a populated store");
    let workload = &workloads[(session + turn) % workloads.len()];
    let policy = &policies[(session + 3 * turn) % policies.len()];
    let entry = store
        .get(&format!("{workload}_evictions_{policy}"))
        .expect("builder produced every workload x policy pair");
    let rows = entry.frame.rows();
    let row = &rows[(7 * session + 13 * turn) % rows.len()];
    match (session + 2 * turn) % 6 {
        0 => format!("What is the overall miss rate of the {workload} workload under {policy}?"),
        1 => format!("How many times did PC {} appear in {workload} under {policy}?", row.pc),
        2 => format!(
            "Does the memory access with PC {} and address {} result in a cache hit or \
             cache miss for the {workload} workload and {policy} replacement policy?",
            row.pc, row.address
        ),
        3 => format!("Which policy has the lowest miss rate for the {workload} workload?"),
        4 => format!("List all unique PCs in the {workload} trace under {policy}."),
        _ => format!("Why does belady outperform lru on PC {} in {workload}?", row.pc),
    }
}

/// The deterministic question a scenario-pinned `(session, turn)` asks.
/// Unscoped sessions fall through to [`synthetic_question`] (the v1
/// driver, byte-identical); pinned sessions rotate through an IPC-heavy
/// template set, so their answers exercise the per-machine scenario
/// sentences the pin selects.
pub fn synthetic_question_scoped(
    store: &dyn TraceStore,
    session: usize,
    turn: usize,
    pin: &ScenarioSelector,
) -> String {
    if pin.is_unscoped() {
        return synthetic_question(store, session, turn);
    }
    let workloads = store.workloads();
    let policies = store.policies();
    assert!(!workloads.is_empty() && !policies.is_empty(), "load driver needs a populated store");
    let workload = &workloads[(session + turn) % workloads.len()];
    let policy = &policies[(session + 3 * turn) % policies.len()];
    // `session + turn` (not `+ 2 * turn`): every session walks all four
    // templates, so every pinned session asks at least one IPC question.
    match (session + turn) % 4 {
        0 => format!("What is the estimated IPC for {workload} under {policy}?"),
        1 => format!("What is the overall miss rate of the {workload} workload under {policy}?"),
        2 => format!("Which policy gives the highest IPC on {workload}?"),
        _ => format!("Which policy has the lowest miss rate for the {workload} workload?"),
    }
}

/// Everything a load-driver run produced.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The driven shape.
    pub spec: LoadSpec,
    /// `questions[s][t]` — the question session `s` asked on turn `t`.
    pub questions: Vec<Vec<String>>,
    /// `responses[s][t]` — the matching response.
    pub responses: Vec<Vec<AskResponse>>,
}

impl LoadOutcome {
    /// Number of requests answered without error.
    pub fn answered(&self) -> usize {
        self.responses.iter().flatten().filter(|r| r.is_ok()).count()
    }

    /// Number of error responses.
    pub fn errors(&self) -> usize {
        self.responses.iter().flatten().filter(|r| !r.is_ok()).count()
    }

    /// Renders the report as pretty JSON: configuration echo, per-turn
    /// answers, and aggregate counters. Byte-identical across transports
    /// and `SERVE_NUM_THREADS` (no thread count, no wall-clock content).
    pub fn render(&self, engine: &ServeEngine) -> String {
        let config = engine.config();
        let mut conf = Value::object();
        conf.insert(
            "retriever",
            Value::from(match config.retriever {
                RetrieverKind::Sieve => "sieve",
                RetrieverKind::Ranger => "ranger",
                RetrieverKind::Dense => "dense",
            }),
        );
        conf.insert("backend", Value::from(config.backend.label()));
        conf.insert("scale", Value::from(format!("{:?}", config.scale).to_lowercase()));
        conf.insert("shards", Value::from(engine.store().shard_count()));
        conf.insert("traces", Value::from(engine.store().len()));

        let mut sessions = Vec::new();
        let mut answer_bytes = 0usize;
        // FNV-1a pins every answer without embedding megabytes of text
        // twice.
        let mut digest: u64 = fnv64(&[]);
        let mut verdicts: std::collections::BTreeMap<String, usize> = Default::default();
        for (s, (qs, rs)) in self.questions.iter().zip(&self.responses).enumerate() {
            let pin = self.spec.pin_for(s);
            let mut turns = Vec::new();
            for (t, (question, response)) in qs.iter().zip(rs).enumerate() {
                let mut turn = Value::object();
                turn.insert("turn", Value::from(t + 1));
                turn.insert("question", Value::from(question.as_str()));
                if let Some(answer) = &response.answer {
                    turn.insert("answer", Value::from(answer.as_str()));
                    answer_bytes += answer.len();
                    digest = fnv64(format!("{s}:{t}:{answer}:{digest:016x}").as_bytes());
                }
                if let Some(verdict) = &response.verdict {
                    turn.insert("verdict", Value::from(verdict.as_str()));
                    let kind = verdict.split(['(', ' ']).next().unwrap_or("?").to_owned();
                    *verdicts.entry(kind).or_default() += 1;
                }
                if let Some(machine) = &response.machine {
                    turn.insert("machine", Value::from(machine.as_str()));
                }
                if let Some(prefetcher) = &response.prefetcher {
                    turn.insert("prefetcher", Value::from(prefetcher.as_str()));
                }
                if let Some(error) = &response.error {
                    turn.insert("error", Value::from(error.as_str()));
                }
                turns.push(turn);
            }
            let mut sess = Value::object();
            sess.insert("id", Value::from(rs.first().map(|r| r.session).unwrap_or(0)));
            if !pin.is_unscoped() {
                // v2 runs record each session's pinned scenario; v1 runs
                // keep the legacy report bytes exactly.
                sess.insert("scenario", Value::from(pin.to_string().as_str()));
            }
            sess.insert("turns", Value::Array(turns));
            sessions.push(sess);
        }

        let mut verdict_counts = Value::object();
        for (kind, count) in verdicts {
            verdict_counts.insert(&kind, Value::from(count));
        }
        let mut aggregate = Value::object();
        aggregate.insert("sessions", Value::from(self.spec.sessions));
        aggregate.insert("questions_per_session", Value::from(self.spec.questions));
        aggregate.insert("questions", Value::from(self.spec.sessions * self.spec.questions));
        if self.spec.repeat_period > 0 {
            // Recorded only when configured, so classic (period-0) reports
            // keep their legacy bytes exactly.
            aggregate.insert("repeat_period", Value::from(self.spec.repeat_period));
        }
        aggregate.insert("answered", Value::from(self.answered()));
        aggregate.insert("errors", Value::from(self.errors()));
        aggregate.insert("answer_bytes", Value::from(answer_bytes));
        aggregate.insert("answers_fnv64", Value::from(format!("{digest:016x}")));
        aggregate.insert("verdicts", verdict_counts);

        let mut root = Value::object();
        root.insert("config", conf);
        root.insert("aggregate", aggregate);
        root.insert("sessions", Value::Array(sessions));
        serde_json::to_string_pretty(&root).expect("shim serialization is infallible")
    }
}

/// Where the load driver sends its protocol lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTarget {
    /// The driving engine itself, through [`ServeEngine::serve_line`] on
    /// the stdin transport.
    InProcess,
    /// A running `cachemind-serve --tcp` server, one connection per
    /// session. The driving engine then only synthesizes questions and
    /// supplies the report's configuration echo.
    Tcp(SocketAddr),
}

/// One session's line channel to the server under load.
enum LineClient<'a> {
    InProcess(&'a ServeEngine),
    Tcp { stream: TcpStream, reader: BufReader<TcpStream> },
}

impl LineClient<'_> {
    fn connect(engine: &ServeEngine, target: LoadTarget) -> std::io::Result<LineClient<'_>> {
        Ok(match target {
            LoadTarget::InProcess => LineClient::InProcess(engine),
            LoadTarget::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true).ok();
                let reader = BufReader::new(stream.try_clone()?);
                LineClient::Tcp { stream, reader }
            }
        })
    }

    /// Sends one protocol line and returns the response line.
    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        match self {
            LineClient::InProcess(engine) => {
                Ok(engine.serve_line(line, false, "stdin", None).rendered)
            }
            LineClient::Tcp { stream, reader } => {
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                stream.flush()?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(protocol_io_error("server closed the connection mid-drive"));
                }
                Ok(response.trim().to_string())
            }
        }
    }
}

fn protocol_io_error(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_string())
}

/// Replays `spec.sessions × spec.questions` synthetic questions as
/// protocol lines against `target`. With `spec.scenarios` set, session `s`
/// opens pinned to `scenarios[s % len]` and asks the scenario-aware
/// question set.
///
/// Both transports run this same code. Sessions open serially, in
/// session order, with `{"open": true}` lines, so a fresh engine assigns
/// ids 1..N whatever the transport. Then one thread per session asks its
/// questions in lockstep (send, await the response, repeat): every
/// session's turns arrive in order while the engine sees concurrent
/// traffic.
pub fn run_load_driver(
    engine: &ServeEngine,
    spec: LoadSpec,
    target: LoadTarget,
) -> std::io::Result<LoadOutcome> {
    let questions: Vec<Vec<String>> = (0..spec.sessions)
        .map(|s| {
            let pin = spec.pin_for(s);
            (0..spec.questions)
                .map(|t| synthetic_question_scoped(engine.store(), s, spec.question_turn(t), &pin))
                .collect()
        })
        .collect();

    // Phase 1 (serial): one client per session, opened in session order.
    let mut clients = Vec::with_capacity(spec.sessions);
    for s in 0..spec.sessions {
        let mut client = LineClient::connect(engine, target)?;
        let pin = spec.pin_for(s);
        let open = Request::Open { session: None, scenario: (!pin.is_unscoped()).then_some(pin) };
        let response = client.round_trip(&open.to_json())?;
        let opened = AskResponse::from_json(&response).map_err(protocol_io_error)?;
        if !opened.is_ok() {
            return Err(protocol_io_error(format!("open refused: {response}")));
        }
        clients.push((client, opened.session));
    }

    // Phase 2 (concurrent): every client asks its questions in lockstep,
    // all clients in flight at once.
    let responses: std::io::Result<Vec<Vec<AskResponse>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&questions)
            .map(|((mut client, session), questions)| {
                scope.spawn(move || -> std::io::Result<Vec<AskResponse>> {
                    let mut answered = Vec::with_capacity(questions.len());
                    for question in questions {
                        let request = AskRequest::in_session(session, question.clone());
                        let line = client.round_trip(&request.to_json())?;
                        answered.push(AskResponse::from_json(&line).map_err(protocol_io_error)?);
                    }
                    Ok(answered)
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread")).collect()
    });
    Ok(LoadOutcome { spec, questions, responses: responses? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn engine(threads: usize) -> ServeEngine {
        let config = ServeConfig { threads: Some(threads), ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
        ServeEngine::over(db, config)
    }

    fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
        run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
    }

    #[test]
    fn synthetic_questions_are_pure_and_varied() {
        let eng = engine(1);
        let engine = &eng;
        let a = synthetic_question(engine.store(), 2, 1);
        let b = synthetic_question(engine.store(), 2, 1);
        assert_eq!(a, b, "synthesis must be a pure function");
        let distinct: std::collections::BTreeSet<String> = (0..4)
            .flat_map(|s| (0..4).map(move |t| (s, t)))
            .map(|(s, t)| synthetic_question(engine.store(), s, t))
            .collect();
        assert!(distinct.len() >= 8, "templates should spread: {}", distinct.len());
    }

    #[test]
    fn load_driver_answers_everything() {
        let engine = engine(2);
        let outcome = drive(
            &engine,
            LoadSpec { sessions: 3, questions: 2, scenarios: vec![], repeat_period: 0 },
        );
        assert_eq!(outcome.answered(), 6);
        assert_eq!(outcome.errors(), 0);
        assert_eq!(engine.session_count(), 3);
        for (s, per_session) in outcome.responses.iter().enumerate() {
            for (t, response) in per_session.iter().enumerate() {
                assert_eq!(response.turn, t + 1, "session {s} turn {t}");
            }
        }
        let report = outcome.render(&engine);
        assert!(!report.contains("micros"));
        assert!(!report.contains("threads"));
        assert!(!report.contains("scenario"), "v1 reports carry no scenario field");
        assert!(!report.contains("transport"), "the report never names its transport");
    }

    #[test]
    fn repeat_period_recycles_questions_and_hits_the_answer_cache() {
        let engine = engine(2);
        let spec = LoadSpec { sessions: 2, questions: 6, repeat_period: 3, ..Default::default() };
        let outcome = drive(&engine, spec);
        assert_eq!(outcome.errors(), 0);
        for s in 0..2 {
            for t in 3..6 {
                assert_eq!(
                    outcome.questions[s][t],
                    outcome.questions[s][t - 3],
                    "turn {t} re-asks turn {}",
                    t - 3
                );
                assert_eq!(
                    outcome.responses[s][t].answer,
                    outcome.responses[s][t - 3].answer,
                    "repeated questions replay identical answers"
                );
            }
        }
        // The repeated half of the drive hit the engine's answer cache:
        // 2 sessions ask the same 3-question schedule offset by session,
        // so every turn past the first period is a replay.
        let snap = engine.metrics().snapshot();
        assert!(
            snap.counter(cachemind_obs::names::RETRIEVAL_CACHE_HITS) >= 6,
            "the second period replays stored answers"
        );
        // The period is recorded in the deterministic report; period-0
        // runs keep the legacy bytes.
        let report = outcome.render(&engine);
        assert!(report.contains("\"repeat_period\": 3"), "{report}");
        let plain = drive(&engine, LoadSpec { sessions: 1, questions: 1, ..Default::default() });
        assert!(!plain.render(&engine).contains("repeat_period"));
    }

    #[test]
    fn scenario_pinned_driver_cites_per_machine_answers() {
        use crate::engine::ServeConfig;
        use cachemind_core::system::RetrieverKind;

        let config = ServeConfig {
            threads: Some(2),
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into(), "small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets valid");
        let spec = LoadSpec {
            sessions: 2,
            questions: 4,
            scenarios: vec![
                ScenarioSelector::all().with_machine("table2"),
                ScenarioSelector::all().with_machine("small"),
            ],
            repeat_period: 0,
        };
        let outcome = drive(&engine, spec);
        assert_eq!(outcome.errors(), 0);

        // Find an estimated-IPC turn per session and check each response
        // cites its pinned machine's label.
        let cited: Vec<String> = (0..2)
            .map(|s| {
                let t = (0..4)
                    .find(|t| outcome.questions[s][*t].contains("estimated IPC"))
                    .expect("pinned sessions ask IPC questions");
                outcome.responses[s][t].machine.clone().expect("scoped responses cite a machine")
            })
            .collect();
        assert!(cited[0].starts_with("table2@"), "session 0 cites table2: {}", cited[0]);
        assert!(cited[1].starts_with("small@"), "session 1 cites small: {}", cited[1]);

        // The deterministic report records each session's pin.
        let report = outcome.render(&engine);
        assert!(report.contains("\"scenario\": \"@table2\""), "{report}");
        assert!(report.contains("\"scenario\": \"@small\""), "{report}");
    }
}
