//! Allocations per served ask, pinned against a committed fixture.
//!
//! Time per ask is noisy; the work an ask does is not. This binary
//! installs its own counting global allocator (no other test binary sees
//! it) and counts, per thread, every call that hands out memory: `alloc`,
//! `alloc_zeroed` and `realloc`. After warm passes on one thread over a
//! fixed mix of v1 and v2 asks in one session, it serves the mix once
//! more and compares the total allocations on the miss path (answer cache
//! off, so every ask runs the whole pipeline) and on the hit path (every
//! ask replayed from the cache) with `fixtures/alloc_budget.json`.
//!
//! The counts are exact, so they must be equal under `cargo test` and
//! `cargo test --release`. A change that raises one updates the fixture
//! and says why; a change that lowers one updates it too, so the budget
//! only ever records what the served path does today.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cachemind_core::system::RetrieverKind;
use cachemind_lang::memory::MAX_KEPT_EXCHANGES;
use cachemind_obs::names::RETRIEVAL_CACHE_HITS;
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_serve::load::{synthetic_question, synthetic_question_scoped};
use cachemind_serve::protocol::{AskRequest, Request};
use cachemind_sim::scenario::ScenarioSelector;
use serde_json::Value;

/// Counts the calling thread's allocations, then defers to the system
/// allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// the `GlobalAlloc` contract the caller upholds for this allocator holds
// for `System` too; counting touches only a const-initialised
// thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The calling thread's allocations so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn engine(answer_cache: bool) -> ServeEngine {
    let config = ServeConfig {
        retriever: RetrieverKind::Ranger,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        threads: Some(1),
        answer_cache,
        ..ServeConfig::default()
    };
    ServeEngine::over(build_database(&config).expect("store builds"), config)
}

/// The fixed mix as request lines in `session`: six turns of four
/// synthetic sessions unscoped (every template, over several workloads),
/// then eight scoped turns under a machine-and-prefetcher pin and under a
/// machine pin.
fn mix(engine: &ServeEngine, session: u64) -> Vec<String> {
    let store = engine.store();
    let mut lines = Vec::new();
    for s in 0..4 {
        for turn in 0..6 {
            let ask = AskRequest::in_session(session, synthetic_question(store, s, turn));
            lines.push(Request::Ask(ask).to_json());
        }
    }
    for scope in ["@table2+stride4", "@small"] {
        let pin = ScenarioSelector::parse(scope).expect("the mix's scopes parse");
        for turn in 0..8 {
            let question = synthetic_question_scoped(store, 1, turn, &pin);
            let ask = AskRequest::in_session(session, question).with_scenario(pin.clone());
            lines.push(Request::Ask(ask).to_json());
        }
    }
    lines
}

/// What a counted pass served: allocations, asks and cache hits.
struct Pass {
    allocations: u64,
    asks: u64,
    hits: u64,
}

/// Serves the mix in one session until the session's exchange log is
/// full, then once more, counted.
fn counted_pass(engine: &ServeEngine) -> Pass {
    let open = Request::Open { session: None, scenario: None }.to_json();
    let session = engine.serve_line(&open, false, "stdin", None).opened_session.expect("opens");
    let lines = mix(engine, session);
    let serve = |line: &String| {
        let rendered = engine.serve_line(line, false, "stdin", None).rendered;
        assert!(!rendered.contains("\"error\""), "{line}: {rendered}");
    };
    for _ in 0..MAX_KEPT_EXCHANGES / lines.len() + 1 {
        lines.iter().for_each(serve);
    }
    let hits = || engine.metrics().snapshot().counter(RETRIEVAL_CACHE_HITS);
    let hits_before = hits();
    let before = allocations();
    lines.iter().for_each(serve);
    let allocations = allocations() - before;
    Pass { allocations, asks: lines.len() as u64, hits: hits() - hits_before }
}

#[test]
fn allocations_per_ask_match_the_committed_budget() {
    let fixture: Value = serde_json::from_str(include_str!("fixtures/alloc_budget.json"))
        .expect("the budget fixture parses");
    let field = |name: &str| fixture.get(name).and_then(Value::as_u64).expect("budget field");

    let miss = counted_pass(&engine(false));
    let hit = counted_pass(&engine(true));
    assert_eq!(miss.hits, 0, "the miss pass runs with the answer cache off");
    assert_eq!(hit.hits, hit.asks, "every ask of the hit pass is a cache hit");
    let asks = miss.asks;
    let (miss, hit) = (miss.allocations, hit.allocations);

    let per_ask = |total: u64| total as f64 / asks as f64;
    assert_eq!(
        (asks, miss, hit),
        (field("asks"), field("miss_allocations"), field("hit_allocations")),
        "allocations per ask: miss path {:.2}, hit path {:.2}; update the fixture and say why",
        per_ask(miss),
        per_ask(hit)
    );
}
