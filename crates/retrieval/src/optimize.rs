//! The plan optimizer's entry point, kept as the identity.
//!
//! Ranger executes the plan it compiles and renders that same plan for
//! code-generation answers. The store is an in-memory map, so rewriting a
//! plan into a second, executor-only plan saves nothing that the executor
//! cannot keep itself (a filter-free [`Plan::CountRows`] already reads the
//! frame's row count). The benchmark's pipeline copy still calls
//! [`optimize`], so the function stays until that copy is deleted.

use cachemind_sim::scenario::ScenarioSelector;

use crate::plan::Plan;

/// Returns `plan` unchanged: the plan Ranger runs is the plan it compiled,
/// under any `selector`.
#[must_use]
pub fn optimize(plan: Plan, _selector: &ScenarioSelector) -> Plan {
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtered_counts_and_tables_pass_through() {
        let sel = ScenarioSelector::all();
        let filtered = Plan::CountRows {
            workload: "mcf".into(),
            policy: "lru".into(),
            pc: None,
            address: None,
            misses_only: true,
        };
        assert_eq!(optimize(filtered.clone(), &sel), filtered);
        let table = Plan::PerPcTable { workload: "mcf".into(), policy: "lru".into(), limit: 5 };
        assert_eq!(optimize(table.clone(), &sel), table);
    }

    #[test]
    fn optimize_is_idempotent() {
        let sel = ScenarioSelector::parse("@quick_demo").unwrap();
        let plan = Plan::CompareAcrossWorkloads { policy: "lru".into() };
        let once = optimize(plan, &sel);
        assert_eq!(optimize(once.clone(), &sel), once);
    }
}
