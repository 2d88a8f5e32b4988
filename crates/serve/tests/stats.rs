//! The in-band telemetry contract, pinned end to end:
//!
//! * after a load-driver run, the engine's stats counters equal the
//!   driver's own open/question/error totals exactly — including the
//!   `serve.ask` latency histogram's sample count;
//! * a `{"stats": true}` line answers in-band with the versioned stats
//!   object, and never counts itself (the response after driving N
//!   requests reports exactly N);
//! * protocol failures land in per-`error_kind` counters that sum to
//!   `errors.total`;
//! * metrics stay out of the deterministic report: driving load with
//!   metrics on changes no deterministic byte;
//! * a snapshot-backed engine decodes only the frames its asks read, and
//!   says so in `tracedb.lazy_decode_traces`; a Ranger row-count ask
//!   decodes none;
//! * each engine's stats carry its own startup span — `tracedb.build` for
//!   a simulated start, `tracedb.snapshot_verify` for a snapshot start —
//!   the two numbers CI's snapshot-startup gate divides.
//! * a Ranger engine's plan compile/run spans land in the engine's own
//!   registry, not in the process-global one.

use cachemind_core::system::RetrieverKind;
use cachemind_obs::names::{RETRIEVAL_PLAN_COMPILE, RETRIEVAL_PLAN_RUN};
use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
use cachemind_tracedb::{TraceDatabaseBuilder, TraceStore};
use serde_json::Value;

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

fn engine(threads: usize) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    ServeEngine::over(db, config)
}

/// Serves one protocol line on the stdin transport, keeping the rendered
/// response.
fn serve(engine: &ServeEngine, line: &str) -> String {
    engine.serve_line(line, true, "stdin", None).rendered
}

fn field<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut current = value;
    for key in path {
        current = current.get(key).unwrap_or_else(|| panic!("missing {path:?} at {key}"));
    }
    current
}

fn count(value: &Value, path: &[&str]) -> u64 {
    field(value, path).as_u64().unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

/// A counter from an in-band `{"stats": true}` response.
fn served_counter(engine: &ServeEngine, name: &str) -> u64 {
    let stats = serde_json::from_str(&serve(engine, "{\"stats\": true}")).expect("stats JSON");
    count(&stats, &["metrics", "counters", name])
}

#[test]
fn stats_counters_match_the_load_driver_totals() {
    let engine = engine(4);
    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };
    let outcome = drive(&engine, spec);
    let driven = (outcome.answered() + outcome.errors()) as u64;
    assert_eq!(driven, 12, "4 sessions x 3 questions");

    let stats = engine.stats_value();
    assert_eq!(count(&stats, &["stats_version"]), 2);
    assert_eq!(count(&stats, &["requests", "ask"]), driven, "ask counter == driven questions");
    assert_eq!(count(&stats, &["requests", "open"]), 4, "one open line per session");
    assert_eq!(count(&stats, &["requests", "total"]), 16, "nothing else was requested");
    assert_eq!(count(&stats, &["errors", "total"]), outcome.errors() as u64);
    assert_eq!(count(&stats, &["sessions", "opened"]), 4);
    assert_eq!(count(&stats, &["sessions", "open"]), 4, "driver leaves its sessions open");
    assert_eq!(count(&stats, &["sessions", "closed"]), 0);

    // The per-request latency histogram saw exactly one sample per driven
    // question.
    let ask = field(&stats, &["metrics", "histograms", "serve.ask"]);
    assert_eq!(count(ask, &["count"]), driven, "one ask-latency sample per question");
    assert_eq!(count(&stats, &["metrics", "version"]), 1, "snapshot schema is versioned");
}

#[test]
fn stats_requests_answer_in_band_and_never_count_themselves() {
    let engine = engine(2);
    let asked = serve(
        &engine,
        r#"{"question": "What is the overall miss rate of the mcf workload under LRU?"}"#,
    );
    assert!(!asked.contains("\"error\""), "{asked}");

    // First stats response: 1 ask, 0 stats — the read does not count
    // itself.
    let first = serve(&engine, "{\"stats\": true}");
    let first = serde_json::from_str(&first).expect("stats lines are valid JSON");
    assert_eq!(count(&first, &["stats_version"]), 2, "a stats object answers");
    assert_eq!(count(&first, &["requests", "ask"]), 1);
    assert_eq!(count(&first, &["requests", "stats"]), 0, "the response never counts itself");
    assert_eq!(count(&first, &["requests", "total"]), 1);

    // Second stats response sees the first one.
    let line = serve(&engine, "{\"stats\": true}");
    let second = serde_json::from_str(&line).expect("stats lines are valid JSON");
    assert_eq!(count(&second, &["requests", "stats"]), 1);
    assert_eq!(count(&second, &["requests", "total"]), 2);
}

#[test]
fn protocol_failures_land_in_per_kind_error_counters() {
    let engine = engine(2);
    // One malformed line, one structurally-bad request, two unknown
    // sessions through different paths.
    let garbage = serve(&engine, "this is not json");
    assert!(garbage.contains("\"error\""), "{garbage}");
    let bad = serve(&engine, "{\"stats\": false}");
    assert!(bad.contains("\"error\""), "{bad}");
    let _ = serve(&engine, "{\"question\": \"hi\", \"session\": 999}");
    let _ = serve(&engine, "{\"close\": true, \"session\": 998}");

    let stats = engine.stats_value();
    assert_eq!(count(&stats, &["errors", "by_kind", "invalid_json"]), 1);
    assert_eq!(count(&stats, &["errors", "by_kind", "bad_request"]), 1);
    assert_eq!(count(&stats, &["errors", "by_kind", "unknown_session"]), 2);
    assert_eq!(count(&stats, &["errors", "total"]), 4, "by_kind sums to the total");
    // The failed close still counted as a close request; the failed ask as
    // an ask. Parse failures never reach dispatch, so they count nowhere.
    assert_eq!(count(&stats, &["requests", "ask"]), 1);
    assert_eq!(count(&stats, &["requests", "close"]), 1);
    assert_eq!(count(&stats, &["requests", "total"]), 2);
}

#[test]
fn metrics_never_perturb_the_deterministic_report() {
    // Drive two identical loads — one on an engine whose metrics were
    // pre-warmed with extra traffic — and require byte-identical
    // deterministic reports: telemetry is a wall-clock side channel only.
    let spec = LoadSpec { sessions: 3, questions: 2, scenarios: vec![], repeat_period: 0 };
    let quiet = engine(2);
    let quiet_outcome = drive(&quiet, spec.clone());

    let noisy = engine(2);
    let _ = serve(&noisy, "not json at all");
    let _ = serve(&noisy, "{\"stats\": true}");
    let noisy_outcome = drive(&noisy, spec);
    // The warm-up asked nothing, so both drives see identical session ids
    // and identical questions.
    assert_eq!(
        quiet_outcome.render(&quiet),
        noisy_outcome.render(&noisy),
        "metrics traffic must not change a deterministic byte"
    );
    // But the noisy engine's own stats carry the divergent traffic.
    let noisy_stats = noisy.stats_value();
    assert_eq!(count(&noisy_stats, &["metrics", "counters", "serve.errors.invalid_json"]), 1);
}

#[test]
fn snapshot_backed_engine_decodes_only_the_frames_an_ask_reads() {
    let path =
        std::env::temp_dir().join(format!("cachemind_stats_lazy_{}.snap", std::process::id()));
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    db.save(&path).expect("save snapshot");
    let traces = TraceStore::len(&db) as u64;
    let row =
        TraceStore::get(&db, "mcf_evictions_lru").expect("mcf trace").frame.rows()[10].clone();
    drop(db);

    let engine = ServeEngine::from_snapshot(&path, ServeConfig::default()).expect("snapshot loads");
    let decoded = |engine: &ServeEngine| served_counter(engine, "tracedb.lazy_decode_traces");
    let cold = serve(
        &engine,
        r#"{"question": "What is the overall miss rate of the mcf workload under LRU?"}"#,
    );
    assert!(!cold.contains("\"error\""), "{cold}");
    assert_eq!(decoded(&engine), 0, "a metadata question decodes no frame");
    assert_eq!(served_counter(&engine, "tracedb.lazy_decode_segments"), 3, "every header read");

    let question = format!(
        "Does the access with PC {} and address {} hit or miss on mcf under LRU?",
        row.pc, row.address
    );
    let pinned = serve(&engine, &format!(r#"{{"question": "{question}"}}"#));
    assert!(!pinned.contains("\"error\""), "{pinned}");
    let after = decoded(&engine);
    assert!((1..traces).contains(&after), "decoded {after} of {traces} frames");
    std::fs::remove_file(&path).ok();
}

#[test]
fn ranger_row_count_ask_on_a_snapshot_decodes_no_frame() {
    let path = std::env::temp_dir()
        .join(format!("cachemind_stats_ranger_lazy_{}.snap", std::process::id()));
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    db.save(&path).expect("save snapshot");
    drop(db);

    let config = ServeConfig { retriever: RetrieverKind::Ranger, ..Default::default() };
    let engine = ServeEngine::from_snapshot(&path, config).expect("snapshot loads");
    let asked = serve(
        &engine,
        r#"{"question": "How many rows are in the lbm eviction trace under belady?"}"#,
    );
    assert!(!asked.contains("\"error\""), "{asked}");
    let decoded = served_counter(&engine, "tracedb.lazy_decode_traces");
    assert_eq!(decoded, 0, "a bare row count reads the stored length, not the rows");
    std::fs::remove_file(&path).ok();
}

#[test]
fn each_engine_records_its_own_startup_span() {
    let histograms =
        |engine: &ServeEngine| field(&engine.stats_value(), &["metrics", "histograms"]).clone();

    let built = ServeEngine::build(ServeConfig::default()).expect("default build");
    let stats = histograms(&built);
    let build = field(&stats, &["tracedb.build"]);
    assert_eq!(count(build, &["count"]), 1, "one span for the one build");
    assert!(count(build, &["sum"]) > 0, "a simulated build takes measurable time");
    assert!(stats.get("tracedb.snapshot_verify").is_none(), "a built engine opened no snapshot");

    let path =
        std::env::temp_dir().join(format!("cachemind_stats_startup_{}.snap", std::process::id()));
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    db.save(&path).expect("save snapshot");
    let loaded = ServeEngine::from_snapshot(&path, ServeConfig::default()).expect("snapshot loads");
    let stats = histograms(&loaded);
    assert_eq!(count(field(&stats, &["tracedb.snapshot_verify"]), &["count"]), 1);
    assert!(stats.get("tracedb.build").is_none(), "a snapshot engine simulated nothing");
    std::fs::remove_file(&path).ok();
}

#[test]
fn ranger_plan_spans_land_in_the_engine_registry() {
    let config = ServeConfig { retriever: RetrieverKind::Ranger, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    let ranger = ServeEngine::over(db, config);
    let sieve = engine(1);
    for question in [
        "What is the overall miss rate of the mcf workload under LRU?",
        "Which policy has the lowest miss rate in astar?",
        "What is the overall miss rate of the lbm workload under Belady?",
    ] {
        for engine in [&ranger, &sieve] {
            let asked = serve(engine, &format!(r#"{{"question": "{question}"}}"#));
            assert!(!asked.contains("\"error\""), "{asked}");
        }
    }

    let histograms =
        |engine: &ServeEngine| field(&engine.stats_value(), &["metrics", "histograms"]).clone();
    let (ranger, sieve) = (histograms(&ranger), histograms(&sieve));
    let global = cachemind_obs::global().snapshot();
    for name in [RETRIEVAL_PLAN_COMPILE, RETRIEVAL_PLAN_RUN] {
        assert!(count(field(&ranger, &[name]), &["count"]) > 0, "{name} missing from {ranger:?}");
        assert!(sieve.get(name).is_none(), "a Sieve engine compiles no plans: {name}");
        assert_eq!(global.histogram(name).map_or(0, |h| h.count), 0, "{name} leaked to global");
    }
}
