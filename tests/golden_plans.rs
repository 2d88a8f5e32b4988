//! Golden plan-shape fixture for Ranger's planner.
//!
//! `tests/fixtures/golden_plans_v1.json` pins, for a set of canonical
//! questions, the **naive** plan Ranger compiles (and runs) and its
//! rendered retrieval code, the bytes a code-generation answer shows.
//! `tests/plan_equivalence.rs` pins the facts plans produce; this fixture
//! pins which plan a question compiles to.
//!
//! To regenerate after an intentional planner change:
//!
//! ```text
//! cargo test --test golden_plans -- --ignored regenerate
//! ```
//!
//! then review the diff like any other code change.

use std::sync::OnceLock;

use cachemind_suite::lang::QueryIntent;
use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::RangerRetriever;
use cachemind_suite::serve::engine::{build_database, ServeConfig};
use cachemind_suite::tracedb::store::TraceStore;
use serde_json::Value;

const FIXTURE: &str = include_str!("fixtures/golden_plans_v1.json");

/// Canonical questions for the lookup, count, ranking and miss-rate plans.
/// The selector column exercises every scope form: unscoped, machine,
/// machine + prefetcher.
const CASES: &[(&str, &str, &str)] = &[
    (
        "lookup",
        "Does the memory access with PC 0x4008f0 and address 0x7f3a00010000 result in a \
         cache hit or a cache miss for mcf under lru?",
        "",
    ),
    ("trace-length", "How many rows are in the lbm eviction trace under belady?", "@table2"),
    ("filtered-count", "How many times did PC 0x400b20 miss in astar under lru?", ""),
    ("policy-rank-ipc", "Which policy gives the highest IPC on mcf?", "@small"),
    ("policy-rank-miss-rate", "Which policy has the lowest miss rate for lbm?", "@table2"),
    ("workload-rank-ipc", "Which workload achieves the best IPC under belady?", "@table2+stride4"),
    (
        "workload-rank-miss-rate",
        "Which workload suffers the highest miss rate under lru?",
        "@small",
    ),
    ("miss-rate", "What is the overall miss rate of the mcf workload under lru?", ""),
];

/// The same multi-machine store `tests/plan_equivalence.rs` uses, so the
/// pinned scopes name real machines.
fn db() -> &'static cachemind_suite::tracedb::TraceDatabase {
    static DB: OnceLock<cachemind_suite::tracedb::TraceDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let config = ServeConfig {
            machines: vec!["table2".into(), "small".into()],
            prefetchers: vec!["stride4".into()],
            ..Default::default()
        };
        build_database(&config).expect("multi-machine demo build")
    })
}

/// Re-encodes a plan through its JSON string form into a [`Value`] tree,
/// so plans embed structurally in the fixture document.
fn to_value(value: &cachemind_suite::retrieval::Plan) -> Value {
    let text = serde_json::to_string(value).expect("plan serializes");
    serde_json::from_str(&text).expect("serialized plan parses back")
}

/// Compiles every canonical case into the fixture document.
fn golden_value() -> Value {
    let db = db();
    let workloads = db.workloads();
    let policies = db.policies();
    let workload_refs: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let policy_refs: Vec<&str> = policies.iter().map(String::as_str).collect();
    let ranger = RangerRetriever::new();

    let mut plans = Vec::new();
    for (name, question, scope) in CASES {
        let selector = if scope.is_empty() {
            ScenarioSelector::all()
        } else {
            ScenarioSelector::parse(scope).expect("fixture selector parses")
        };
        let intent = QueryIntent::parse_scoped(question, &workload_refs, &policy_refs, &selector);
        let naive = ranger
            .compile(db, &intent)
            .unwrap_or_else(|| panic!("canonical question {name:?} must compile"));

        let mut entry = Value::object();
        entry.insert("name", Value::from(*name));
        entry.insert("question", Value::from(*question));
        entry.insert("selector", Value::from(*scope));
        entry.insert("naive", to_value(&naive));
        entry.insert("code", Value::from(naive.render_code()));
        plans.push(entry);
    }

    let mut root = Value::object();
    root.insert("fixture_version", Value::from(1u64));
    root.insert("plans", Value::Array(plans));
    root
}

fn rendered() -> String {
    let pretty = serde_json::to_string_pretty(&golden_value()).expect("fixture serializes");
    format!("{pretty}\n")
}

#[test]
fn canonical_plan_shapes_match_the_golden_fixture() {
    assert_eq!(
        rendered(),
        FIXTURE,
        "plan shapes drifted from the golden fixture; if the planner change \
         is intentional, regenerate with `cargo test --test golden_plans -- \
         --ignored regenerate` and review the diff"
    );
}

/// Regenerates the fixture in place. Ignored so it never runs in CI; run
/// explicitly after an intentional planner change.
#[test]
#[ignore = "writes tests/fixtures/golden_plans_v1.json; run after intentional planner changes"]
fn regenerate_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_plans_v1.json");
    std::fs::write(path, rendered()).expect("fixture written");
}
