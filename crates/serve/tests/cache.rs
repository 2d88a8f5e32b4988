//! The whole-answer cache must be invisible in answer bytes.
//!
//! The cache's contract is *pure memoization*: with the same database and
//! the same question stream, a cache-on engine and a cache-off engine
//! produce byte-identical deterministic reports — at every thread count,
//! and under a repeated-question mix that actually drives cache hits. If
//! a cached answer ever leaks a stale or scope-confused byte, these
//! tests catch it before the throughput numbers can be trusted.

use cachemind_core::system::RetrieverKind;
use cachemind_obs::names::{RETRIEVAL_CACHE_HITS, RETRIEVAL_CACHE_INSERTS};
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::TraceDatabaseBuilder;
use serde_json::Value;

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

fn engine(threads: usize, answer_cache: bool) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), answer_cache, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    ServeEngine::over(db, config)
}

/// Drives the spec against a cache-on and a cache-off engine and returns
/// the two deterministic reports.
fn drive_pair(threads: usize, spec: &LoadSpec) -> (String, String) {
    let on = engine(threads, true);
    let on_outcome = drive(&on, spec.clone());
    let off = engine(threads, false);
    let off_outcome = drive(&off, spec.clone());

    // The cache-on run actually cached: the repeated-question mix must
    // produce hits, otherwise this test proves nothing.
    let snap = on.metrics().snapshot();
    assert!(
        snap.counter(RETRIEVAL_CACHE_INSERTS) > 0,
        "cache-on run never inserted (threads={threads})"
    );
    if spec.repeat_period > 0 {
        assert!(
            snap.counter(RETRIEVAL_CACHE_HITS) > 0,
            "repeated-question mix never hit the cache (threads={threads})"
        );
    }
    let off_snap = off.metrics().snapshot();
    assert_eq!(
        off_snap.counter(RETRIEVAL_CACHE_INSERTS),
        0,
        "cache-off engine must not touch the cache"
    );

    (on_outcome.render(&on), off_outcome.render(&off))
}

#[test]
fn cache_on_and_cache_off_reports_are_byte_identical_across_thread_counts() {
    let spec = LoadSpec { sessions: 3, questions: 6, scenarios: vec![], repeat_period: 3 };
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let (on, off) = drive_pair(threads, &spec);
        assert_eq!(on, off, "cache changed a deterministic byte at threads={threads}");
        reports.push(on);
    }
    // And the report is thread-count invariant, so all six runs (3 thread
    // counts x cache on/off) produced the same bytes.
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[1], reports[2], "threads=2 vs threads=8");
}

#[test]
fn unrepeated_mix_is_also_cache_invariant() {
    // Even without repeats (every question unique -> all misses), the
    // cache's insert path must not perturb answers.
    let spec = LoadSpec { sessions: 2, questions: 4, scenarios: vec![], repeat_period: 0 };
    let (on, off) = drive_pair(2, &spec);
    assert_eq!(on, off, "insert-only cache traffic changed a deterministic byte");
}

#[test]
fn scoped_cache_hits_replay_their_cited_labels() {
    // Scoped (v2) turns carry the machine and prefetcher labels their
    // evidence cites. A repeated scoped ask that hits the cache must replay
    // those labels too, or the cache-on report loses fields the cache-off
    // report has.
    let config = ServeConfig {
        threads: Some(2),
        retriever: RetrieverKind::Ranger,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        ..Default::default()
    };
    let db = build_database(&config).expect("table2+small+stride4 build");
    let scenarios = ["@table2", "@small", "astar@table2+stride4/lru"]
        .map(|s| ScenarioSelector::parse(s).expect("selector"))
        .to_vec();
    let spec = LoadSpec { sessions: 6, questions: 6, scenarios, repeat_period: 3 };

    let on = ServeEngine::over(db.clone(), config.clone());
    let on_report = drive(&on, spec.clone()).render(&on);
    let off = ServeEngine::over(db, ServeConfig { answer_cache: false, ..config });
    let off_report = drive(&off, spec.clone()).render(&off);

    let snap = on.metrics().snapshot();
    assert!(snap.counter(RETRIEVAL_CACHE_HITS) > 0, "the scoped repeated mix never hit");
    assert_eq!(on_report, off_report, "a scoped cache hit changed a deterministic byte");

    // The byte-identity above only covers labels if repeated turns cite
    // some: every session re-asks its first turns, so a turn past the
    // period that carries a label was served from the cache.
    let report = serde_json::from_str(&off_report).expect("report parses");
    let cited = |field: &str, label: &str| {
        report.get("sessions").and_then(Value::as_array).expect("sessions").iter().any(|s| {
            let turns = s.get("turns").and_then(Value::as_array).expect("turns");
            turns[spec.repeat_period..].iter().any(|turn| {
                turn.get(field).and_then(Value::as_str).is_some_and(|v| v.starts_with(label))
            })
        })
    };
    assert!(cited("machine", "table2@"), "no repeated turn cites table2: {off_report}");
    assert!(cited("machine", "small@"), "no repeated turn cites small: {off_report}");
    assert!(cited("prefetcher", "stride4"), "no repeated turn cites stride4: {off_report}");
}
