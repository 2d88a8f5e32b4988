//! Serving determinism and isolation, pinned end to end:
//!
//! * the concurrent load driver produces byte-identical answers to a
//!   serial one-line-at-a-time replay;
//! * the load driver's deterministic report is byte-identical across
//!   `SERVE_NUM_THREADS` equivalents (explicit thread counts, so the tests
//!   stay parallel-safe without mutating the environment);
//! * one session's conversation memory never leaks into another session's
//!   prompt or recall.

use cachemind_core::system::{CacheMind, RetrieverKind};
use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{
    run_load_driver, synthetic_question, LoadOutcome, LoadSpec, LoadTarget,
};
use cachemind_serve::protocol::{AskRequest, AskResponse, Request};
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::{ScenarioSelector, TraceDatabaseBuilder};

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

/// Serves one protocol line and parses its ask-shaped response.
fn serve(engine: &ServeEngine, request: Request) -> AskResponse {
    let rendered = engine.serve_line(&request.to_json(), false, "stdin", None).rendered;
    AskResponse::from_json(&rendered).expect("an ask-shaped response")
}

fn ask(engine: &ServeEngine, request: AskRequest) -> AskResponse {
    serve(engine, Request::Ask(request))
}

fn engine_with(threads: usize, retriever: RetrieverKind) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), retriever, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    ServeEngine::over(db, config)
}

#[test]
fn load_driver_is_byte_identical_across_worker_counts() {
    let spec = LoadSpec { sessions: 5, questions: 3, scenarios: vec![], repeat_period: 0 };
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = engine_with(threads, RetrieverKind::Sieve);
        let outcome = drive(&engine, spec.clone());
        reports.push((threads, outcome.render(&engine)));
    }
    let (_, reference) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(
            report, reference,
            "deterministic load report diverged between 1 and {threads} workers"
        );
    }
}

#[test]
fn concurrent_driver_matches_serial_line_replay() {
    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };
    let driven_engine = engine_with(8, RetrieverKind::Ranger);
    let outcome = drive(&driven_engine, spec.clone());

    // Serial replay: a fresh 1-worker engine opens the same sessions and
    // answers the same questions one protocol line at a time, turn-major.
    let serial_engine = engine_with(1, RetrieverKind::Ranger);
    let ids: Vec<u64> = (0..spec.sessions)
        .map(|_| serve(&serial_engine, Request::Open { session: None, scenario: None }).session)
        .collect();
    for turn in 0..spec.questions {
        for (s, id) in ids.iter().enumerate() {
            let question = synthetic_question(serial_engine.store(), s, turn);
            assert_eq!(question, outcome.questions[s][turn], "question synthesis must agree");
            let serial = ask(&serial_engine, AskRequest::in_session(*id, question));
            let driven = &outcome.responses[s][turn];
            assert_eq!(serial.session, driven.session, "session {s} turn {turn}");
            assert_eq!(serial.answer, driven.answer, "session {s} turn {turn}");
            assert_eq!(serial.verdict, driven.verdict, "session {s} turn {turn}");
            assert_eq!(serial.turn, driven.turn, "session {s} turn {turn}");
        }
    }

    // Transcripts agree too (memory state is part of the contract).
    for id in &ids {
        let serial = serial_engine.transcript(*id).expect("session exists");
        let driven = driven_engine.transcript(*id).expect("session exists");
        assert_eq!(serial, driven, "transcript diverged for session {id}");
    }
}

#[test]
fn scenario_pinned_load_driver_is_byte_identical_across_worker_counts() {
    // The PR's acceptance criterion: two sessions pinned to different
    // MachineConfig presets over one shared database return
    // per-machine IPC answers citing the correct machine label, and the
    // deterministic report is byte-identical for any worker count.
    let spec = LoadSpec {
        sessions: 2,
        questions: 4,
        scenarios: vec![
            ScenarioSelector::all().with_machine("table2"),
            ScenarioSelector::all().with_machine("small"),
        ],
        repeat_period: 0,
    };
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = ServeConfig {
            threads: Some(threads),
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into(), "small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets valid");
        let outcome = drive(&engine, spec.clone());
        assert_eq!(outcome.errors(), 0, "{threads} workers");
        reports.push((threads, outcome.render(&engine)));
    }
    let (_, reference) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(report, reference, "scenario report diverged between 1 and {threads} workers");
    }
    // Both machines' canonical labels appear as cited machines in the
    // deterministic report, on different sessions.
    assert!(reference.contains("\"machine\": \"table2@"), "{reference}");
    assert!(reference.contains("\"machine\": \"small@"), "{reference}");

    // And selector-free v1 traffic over the very same multi-machine build
    // reproduces the single-machine engine's answers bit-for-bit: the
    // extra machine-qualified traces are invisible to unscoped queries.
    let multi = ServeEngine::build(ServeConfig {
        threads: Some(2),
        machines: vec!["table2".into(), "small".into()],
        ..Default::default()
    })
    .expect("presets valid");
    let plain =
        ServeEngine::build(ServeConfig { threads: Some(2), ..Default::default() }).expect("build");
    let v1 = LoadSpec { sessions: 3, questions: 3, scenarios: vec![], repeat_period: 0 };
    let a = drive(&multi, v1.clone());
    let b = drive(&plain, v1);
    for (ra, rb) in a.responses.iter().flatten().zip(b.responses.iter().flatten()) {
        assert_eq!(ra.answer, rb.answer, "v1 answers must not see the extra machines");
        assert_eq!(ra.verdict, rb.verdict);
        assert_eq!(ra.machine, None, "v1 responses carry no machine field");
    }
}

#[test]
fn prefetcher_pinned_session_is_byte_identical_across_worker_counts() {
    // The PR's acceptance criterion: a serve v2 session pinned to
    // `astar@table2+stride4/lru` answers an IPC question grounded in a
    // prefetcher-qualified trace — the response cites the grounded machine
    // AND prefetcher labels — byte-identically for any worker count.
    let pin = ScenarioSelector::parse("astar@table2+stride4/lru").expect("selector");
    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = ServeConfig {
            threads: Some(threads),
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into()],
            prefetchers: vec!["stride4".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("build");
        let open = AskRequest::new("What is the estimated IPC?").with_scenario(pin.clone());
        let response = ask(&engine, open);
        assert!(response.is_ok(), "{threads} workers: {:?}", response.error);
        outcomes.push((threads, response.to_json(false)));
    }
    let (_, reference) = &outcomes[0];
    for (threads, line) in &outcomes[1..] {
        assert_eq!(line, reference, "scoped answer diverged between 1 and {threads} workers");
    }
    assert!(reference.contains("\"machine\":\"table2@"), "{reference}");
    assert!(reference.contains("\"prefetcher\":\"stride4\""), "{reference}");
}

#[test]
fn prefetcher_axis_leaves_primary_entries_byte_identical() {
    // Primary (unqualified) entries of a prefetcher-and-machine-qualified
    // build are byte-identical to the plain build — the pin that keeps v1
    // traffic and every pre-existing key stable across this PR.
    let plain = TraceDatabaseBuilder::new()
        .scale(cachemind_workloads::Scale::Tiny)
        .shards(3)
        .try_build()
        .expect("plain build");
    let multi = ServeEngine::build(ServeConfig {
        threads: Some(2),
        machines: vec!["table2".into()],
        prefetchers: vec!["stride4".into()],
        ..Default::default()
    })
    .expect("qualified build");
    let store = multi.store();
    for key in plain.trace_keys() {
        let a = plain.get(&key).expect("plain entry");
        let b = store.get(&key).expect("primary entry survives");
        assert_eq!(a.metadata, b.metadata, "{key}");
        assert_eq!(a.description, b.description, "{key}");
        assert_eq!(a.frame.rows(), b.frame.rows(), "{key} rows diverge");
        assert_eq!(b.prefetcher, "none", "{key}");
    }
}

#[test]
fn sessions_are_isolated() {
    let engine = engine_with(4, RetrieverKind::Sieve);
    let a = engine.open_session();
    let b = engine.open_session();
    let secret = "List all unique PCs in the mcf trace under LRU.";
    let other = "What is the overall miss rate of the lbm workload under LRU?";
    ask(&engine, AskRequest::in_session(a, secret));
    ask(&engine, AskRequest::in_session(b, other));

    // Session b's memory knows nothing about session a's question.
    let recalled = engine.recall(b, "unique PCs mcf", 3).expect("session exists");
    assert!(
        recalled.iter().all(|turn| !turn.contains("unique PCs")),
        "session b recalled session a's turn: {recalled:?}"
    );
    let recalled_a = engine.recall(a, "unique PCs mcf", 3).expect("session exists");
    assert!(
        recalled_a.iter().any(|turn| turn.contains("unique PCs")),
        "session a must recall its own turn: {recalled_a:?}"
    );
    // Transcripts never cross.
    let tb = engine.transcript(b).unwrap();
    assert!(tb.iter().all(|(q, _)| !q.contains("unique PCs")));
    assert_eq!(tb.len(), 1);
}

#[test]
fn served_answers_cite_ipc_from_trace_metadata() {
    // The scenario refactor records machine label + estimated IPC in every
    // trace's metadata; an IPC question served through the engine must
    // come back as a numeric answer grounded in that sentence.
    let engine = engine_with(2, RetrieverKind::Ranger);
    let expected = engine.store().get("mcf_evictions_lru").expect("trace exists").ipc;
    let response = &ask(&engine, AskRequest::new("What is the estimated IPC for mcf under LRU?"));
    assert_eq!(response.error, None, "request must succeed");
    let verdict = response.verdict.as_deref().expect("verdict present");
    assert!(verdict.starts_with("Number("), "IPC question must ground to a number: {verdict:?}");
    assert!(!response.answer.as_deref().unwrap_or("").is_empty());
    // The metadata the answer is grounded in cites a positive IPC.
    assert!(expected > 0.0);
}

#[test]
fn session_memory_never_enters_prompts() {
    // Prompts are a pure function of (question, retrieval, shots): a mind
    // that has answered many other questions renders the same prompt as a
    // fresh one, so no conversation state can leak between sessions.
    let store = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    let shared = CacheMind::shared(std::sync::Arc::new(store));
    let poison = "List all unique PCs in the mcf trace under LRU.";
    let _ = shared.ask_query(&poison.into());
    let q = "What is the overall miss rate of the lbm workload under LRU?";
    let after_other_traffic = shared.ask_query(&q.into());
    let fresh = CacheMind::new(TraceDatabaseBuilder::quick_demo().build()).ask_query(&q.into());
    assert_eq!(after_other_traffic.prompt, fresh.prompt);
    assert!(!after_other_traffic.prompt.contains("unique PCs"));
}

#[test]
fn sharded_build_is_identical_to_serial_build_end_to_end() {
    // The acceptance criterion at the database layer, re-checked from the
    // serve crate's vantage point: the store the engine serves from is the
    // database the serial builder produces.
    let serial = TraceDatabaseBuilder::quick_demo().build_serial().expect("serial reference build");
    let engine = engine_with(2, RetrieverKind::Sieve);
    let store = engine.store();
    assert_eq!(store.len(), serial.len());
    assert_eq!(store.trace_keys(), serial.trace_keys());
    for key in store.trace_keys() {
        let sharded_entry = store.get(&key).expect("sharded entry");
        let serial_entry = serial.get(&key).expect("serial entry");
        assert_eq!(sharded_entry.metadata, serial_entry.metadata, "{key}");
        assert_eq!(sharded_entry.description, serial_entry.description, "{key}");
        assert_eq!(sharded_entry.frame.rows(), serial_entry.frame.rows(), "{key} rows diverge");
    }
}
