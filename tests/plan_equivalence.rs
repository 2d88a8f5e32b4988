//! Byte pin for the facts Ranger's plans produce.
//!
//! Every plan template runs over every `(workload, policy)` pair of a small
//! **multi-machine** store — baseline, machine-qualified (`table2`,
//! `small`) and prefetcher-qualified (`stride4`) traces — under each
//! selector of a palette covering every entry-qualification shape. The
//! `Debug` rendering of each `Result<Vec<Fact>, PlanError>` is hashed with
//! FNV-1a and the digest is pinned, so any change to what a served plan
//! returns, including its errors, fact order and metric strings, fails
//! here.
//!
//! Each result is computed through the path Ranger serves,
//! `plan.run_scoped(db, selector)`. A second digest pins the whole-frame
//! exploration plans (unique PCs and sets, the per-set and per-PC tables,
//! hot/cold sets and the reuse-variance grouping) over the same grid.

use std::sync::OnceLock;

use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::{AggColumn, AggFunc, Plan};
use cachemind_suite::serve::engine::{build_database, ServeConfig};
use cachemind_suite::sim::hash::fnv64;
use cachemind_suite::tracedb::store::TraceStore;

/// The FNV-1a digest of every grid result's `Debug` rendering, one line
/// each, in grid order.
const PINNED_DIGEST: u64 = 0x3870_d204_9a88_de72;

/// The number of `(plan, selector)` pairs the grid runs.
const PINNED_CASES: usize = 720;

/// The FNV-1a digest of the exploration grid's results, one line each.
const PINNED_EXPLORATION_DIGEST: u64 = 0xbe2c_0b93_77f3_04f7;

/// The number of `(plan, selector)` pairs the exploration grid runs.
const PINNED_EXPLORATION_CASES: usize = 432;

/// The shared multi-machine, multi-prefetcher store — built once; every
/// test case reads it immutably.
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

/// The selector palette: unscoped, machine-scoped, machine+prefetcher,
/// fully qualified, and a scope matching nothing (the empty-result edge).
fn selectors() -> Vec<ScenarioSelector> {
    ["", "@table2", "@small", "@table2+stride4", "mcf@small/lru", "@nonexistent_machine"]
        .iter()
        .map(|s| {
            if s.is_empty() {
                ScenarioSelector::all()
            } else {
                ScenarioSelector::parse(s).expect("palette selector parses")
            }
        })
        .collect()
}

/// A real PC from the named trace's first row, so filtered plans can hit
/// rows; a PC that matches nothing when the trace is absent.
fn first_pc(workload: &str, policy: &str) -> Pc {
    match db().get(&format!("{workload}_evictions_{policy}")) {
        Some(entry) => entry.frame.rows()[0].pc,
        None => Pc::new(0xdead_beef),
    }
}

/// Every plan template for one `(workload, policy)` pair.
fn templates(workload: &str, policy: &str) -> Vec<Plan> {
    let pc = first_pc(workload, policy);
    let (w, p) = (workload.to_owned(), policy.to_owned());
    vec![
        Plan::Lookup { workload: w.clone(), policy: p.clone(), pc: None, address: None },
        Plan::Lookup { workload: w.clone(), policy: p.clone(), pc: Some(pc), address: None },
        Plan::CountRows {
            workload: w.clone(),
            policy: p.clone(),
            pc: None,
            address: None,
            misses_only: false,
        },
        Plan::CountRows {
            workload: w.clone(),
            policy: p.clone(),
            pc: Some(pc),
            address: None,
            misses_only: true,
        },
        Plan::CompareIpcAcrossPolicies { workload: w.clone() },
        Plan::CompareIpcAcrossWorkloads { policy: p.clone() },
        Plan::CompareAcrossPolicies { workload: w.clone(), pc: Some(pc) },
        Plan::CompareAcrossWorkloads { policy: p.clone() },
        Plan::Aggregate {
            workload: w.clone(),
            policy: p.clone(),
            pc: Some(pc),
            column: AggColumn::AccessedReuse,
            func: AggFunc::Mean,
        },
        Plan::PerPcTable { workload: w, policy: p, limit: 5 },
    ]
}

/// The exploration plans, each of which reads a whole frame, for one
/// `(workload, policy)` pair.
fn exploration_templates(workload: &str, policy: &str) -> Vec<Plan> {
    let (w, p) = (workload.to_owned(), policy.to_owned());
    vec![
        Plan::UniquePcs { workload: w.clone(), policy: p.clone() },
        Plan::UniqueSets { workload: w.clone(), policy: p.clone() },
        Plan::PerSetTable { workload: w.clone(), policy: p.clone() },
        Plan::HotColdSets { workload: w.clone(), policy: p.clone() },
        Plan::GroupPcsByReuseVariance { workload: w.clone(), policy: p.clone() },
        Plan::PerPcTable { workload: w, policy: p, limit: 0 },
    ]
}

/// Every template × every `(workload, policy)` pair × every palette
/// selector, rendered one result per line.
fn grid_rendering(templates: fn(&str, &str) -> Vec<Plan>) -> (String, usize) {
    let workloads = db().workloads();
    let policies = db().policies();
    let mut rendered = String::new();
    let mut cases = 0usize;
    for selector in selectors() {
        for workload in &workloads {
            for policy in &policies {
                for plan in templates(workload, policy) {
                    let facts = plan.run_scoped(db(), &selector);
                    rendered.push_str(&format!("{facts:?}\n"));
                    cases += 1;
                }
            }
        }
    }
    (rendered, cases)
}

#[test]
fn plan_facts_over_the_whole_grid_match_the_pinned_digest() {
    let (rendered, cases) = grid_rendering(templates);
    let digest = fnv64(rendered.as_bytes());
    assert_eq!(cases, PINNED_CASES, "the grid's size changed");
    assert!(rendered.contains("Ok(") && rendered.contains("Err("), "the grid hits both outcomes");
    assert_eq!(
        digest, PINNED_DIGEST,
        "plan facts drifted from the pinned digest: got {digest:#018x} over {cases} cases"
    );
}

#[test]
fn exploration_plan_facts_over_the_whole_grid_match_the_pinned_digest() {
    let (rendered, cases) = grid_rendering(exploration_templates);
    let digest = fnv64(rendered.as_bytes());
    assert_eq!(cases, PINNED_EXPLORATION_CASES, "the grid's size changed");
    assert!(rendered.contains("Ok(") && rendered.contains("Err("), "the grid hits both outcomes");
    assert_eq!(
        digest, PINNED_EXPLORATION_DIGEST,
        "exploration facts drifted from the pinned digest: got {digest:#018x} over {cases} cases"
    );
}
