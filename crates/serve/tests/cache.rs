//! The whole-answer cache must be invisible in answer bytes.
//!
//! The cache's contract is *pure memoization*: with the same database and
//! the same question stream, a cache-on engine and a cache-off engine
//! produce byte-identical deterministic reports — at every thread count,
//! and under a repeated-question mix that actually drives cache hits. If
//! a cached answer ever leaks a stale or scope-confused byte, these
//! tests catch it before the throughput numbers can be trusted.

use cachemind_obs::names::{RETRIEVAL_CACHE_HITS, RETRIEVAL_CACHE_INSERTS};
use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
use cachemind_tracedb::TraceDatabaseBuilder;

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

fn engine(threads: usize, answer_cache: bool) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), answer_cache, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build_sharded().expect("demo build");
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
