//! Rewrite-equivalence harness for the plan optimizer (proptest).
//!
//! The optimizer's contract is *semantics-free rewriting*: for every plan
//! `p` and selector `s`, `optimize(p, s).run_scoped(db, s)` must return
//! byte-identical facts (and errors) to `p.run_scoped(db, s)`. These
//! tests pin that over a small **multi-machine** database — baseline,
//! machine-qualified (`table2`, `small`) and prefetcher-qualified
//! (`stride4`) traces — so the pushed-down scope resolution is exercised
//! against every entry-qualification shape, not just the unqualified
//! demo store.
//!
//! Two layers:
//!
//! * a proptest sweep over randomly assembled plans × selectors (the
//!   random half explores filter/scope combinations no template hits);
//! * an exhaustive sweep of every rewritable template over every
//!   `(workload, policy, selector)` triple, so each rewrite family is
//!   provably covered even at low proptest case counts.

use std::sync::OnceLock;

use proptest::prelude::*;

use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::{optimize, Plan};
use cachemind_suite::serve::engine::{build_database, ServeConfig};
use cachemind_suite::tracedb::store::TraceStore;

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

/// A real `(pc, address)` from the named trace, so filtered plans can hit
/// rows; falls back to values that match nothing when the trace is absent.
fn row_from(workload: &str, policy: &str, index: usize) -> (Pc, Address) {
    match db().get(&format!("{workload}_evictions_{policy}")) {
        Some(entry) => {
            let rows = entry.frame.rows();
            let row = &rows[index % rows.len()];
            (row.pc, row.address)
        }
        None => (Pc::new(0xdead_beef), Address::new(0xdead_beef)),
    }
}

/// Asserts the equivalence contract for one `(plan, selector)` pair.
fn assert_equivalent(plan: &Plan, selector: &ScenarioSelector) -> Result<(), TestCaseError> {
    let naive = plan.run_scoped(db(), selector);
    let optimized_plan = optimize(plan.clone(), selector);
    let optimized = optimized_plan.run_scoped(db(), selector);
    prop_assert_eq!(&naive, &optimized, "rewrite changed semantics for {:?}", plan);
    // Byte-for-byte: the facts' rendered forms agree too, not just their
    // structural equality.
    prop_assert_eq!(
        format!("{naive:?}"),
        format!("{optimized:?}"),
        "rendered facts diverged for {:?} under {}",
        plan,
        selector
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random plans × selectors run identically before and after the
    /// rewrite pass.
    #[test]
    fn optimized_plans_run_byte_identically(
        kind in 0usize..8,
        w in 0usize..16,
        p in 0usize..16,
        s in 0usize..6,
        filter in 0usize..4,
        row in 0usize..64,
    ) {
        let workloads = db().workloads();
        let policies = db().policies();
        let workload = workloads[w % workloads.len()].clone();
        let policy = policies[p % policies.len()].clone();
        let (pc, address) = row_from(&workload, &policy, row);
        let pc_filter = (filter % 2 == 1).then_some(pc);
        let address_filter = (filter >= 2).then_some(address);
        let selector = selectors()[s].clone();

        let plan = match kind {
            0 => Plan::Lookup {
                workload,
                policy,
                pc: pc_filter,
                address: address_filter,
            },
            1 => Plan::CountRows {
                workload,
                policy,
                pc: None,
                address: None,
                misses_only: false,
            },
            2 => Plan::CountRows {
                workload,
                policy,
                pc: pc_filter,
                address: address_filter,
                misses_only: filter % 2 == 0,
            },
            3 => Plan::CompareIpcAcrossPolicies { workload },
            4 => Plan::CompareIpcAcrossWorkloads { policy },
            5 => Plan::CompareAcrossPolicies { workload, pc: pc_filter },
            6 => Plan::CompareAcrossWorkloads { policy },
            _ => Plan::PerPcTable { workload, policy, limit: row % 7 },
        };
        assert_equivalent(&plan, &selector)?;
    }
}

/// Every rewrite family × every `(workload, policy, selector)` triple —
/// the deterministic floor under the random sweep.
#[test]
fn every_rewrite_family_is_equivalent_across_the_whole_grid() {
    let workloads = db().workloads();
    let policies = db().policies();
    let mut checked = 0usize;
    for selector in selectors() {
        for workload in &workloads {
            for policy in &policies {
                let (pc, _) = row_from(workload, policy, 0);
                let plans = [
                    Plan::Lookup {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: None,
                        address: None,
                    },
                    Plan::Lookup {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: Some(pc),
                        address: None,
                    },
                    Plan::CountRows {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: None,
                        address: None,
                        misses_only: false,
                    },
                    Plan::CompareIpcAcrossPolicies { workload: workload.clone() },
                    Plan::CompareIpcAcrossWorkloads { policy: policy.clone() },
                    Plan::CompareAcrossPolicies { workload: workload.clone(), pc: Some(pc) },
                    Plan::CompareAcrossWorkloads { policy: policy.clone() },
                ];
                for plan in plans {
                    assert_equivalent(&plan, &selector).unwrap();
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 7 * 6, "the grid actually swept: {checked} cases");
}
