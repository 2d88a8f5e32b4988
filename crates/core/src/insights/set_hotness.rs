//! §6.3 — hot/cold cache-set identification (Figure 13).
//!
//! "CacheMind is used to identify hot and cold cache sets from access
//! traces ... In sampled-set LLC policies, learning eviction behavior from
//! hot sets is more effective than uniform random sampling."

use serde::{Deserialize, Serialize};

use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::{ScenarioGrid, SweepStream};
use cachemind_tracedb::stats::{hot_cold_sets, SetStats};
use cachemind_workloads::workload::Scale;

use super::{experiment_llc, experiment_machine};

/// Hot/cold sets under one policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicySetProfile {
    /// Policy name.
    pub policy: String,
    /// The five hottest sets (by hit rate among active sets).
    pub hot_sets: Vec<usize>,
    /// The five coldest sets.
    pub cold_sets: Vec<usize>,
    /// Hit rate of the hottest set.
    pub hot_hit_rate: f64,
    /// Hit rate of the coldest set.
    pub cold_hit_rate: f64,
}

/// Whole-trace counters for one policy, sourced from a scenario cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCellSummary {
    /// Policy name.
    pub policy: String,
    /// Overall hit rate of the replay.
    pub hit_rate: f64,
    /// Model-estimated IPC of the replay.
    pub ipc: f64,
}

/// Outcome of the set-hotness analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetHotnessReport {
    /// Workload analysed.
    pub workload: String,
    /// Per-policy profiles (LRU and Belady).
    pub profiles: Vec<PolicySetProfile>,
    /// How many of the top-5 hot sets coincide between LRU and Belady.
    pub hot_overlap: usize,
    /// Label of the machine the scenario cells replayed on.
    pub machine: String,
    /// Per-policy whole-trace counters from the scenario grid (sorted by
    /// policy name, the grid's canonical order).
    pub cells: Vec<PolicyCellSummary>,
    /// Figure 13-shaped transcript.
    pub transcript: String,
}

fn profile(policy_name: &str, sets: &[SetStats]) -> PolicySetProfile {
    let ranked = hot_cold_sets(sets);
    let ids = |sets: &[SetStats]| sets.iter().map(|s| s.set).collect();
    PolicySetProfile {
        policy: policy_name.to_owned(),
        hot_sets: ids(&ranked.hot),
        cold_sets: ids(&ranked.cold),
        hot_hit_rate: ranked.hot.first().map_or(0.0, SetStats::hit_rate),
        cold_hit_rate: ranked.cold.first().map_or(0.0, SetStats::hit_rate),
    }
}

/// Runs the analysis on astar under LRU and Belady.
pub fn run(scale: Scale) -> SetHotnessReport {
    let workload = cachemind_workloads::astar::generate(scale);
    let replay = LlcReplay::new(experiment_llc(), &workload.accesses);
    let lru = replay.run(cachemind_sim::replacement::RecencyPolicy::lru());
    let belady = replay.run(cachemind_policies::BeladyPolicy::new());

    let belady_sets = SetStats::over(&belady.records);
    let lru_profile = profile("lru", &SetStats::over(&lru.records));
    let belady_profile = profile("belady", &belady_sets);
    let hot_overlap =
        lru_profile.hot_sets.iter().filter(|s| belady_profile.hot_sets.contains(s)).count();

    // Whole-trace hit rates and IPC per policy come from scenario cells on
    // the experiment machine (every registered policy is one `.policy()`
    // call away).
    let machine = experiment_machine();
    let machine_label = machine.machine_label();
    let grid = ScenarioGrid::default()
        .policy("lru")
        .policy("belady")
        .stream(
            SweepStream::new(workload.name.clone(), workload.accesses.clone())
                .with_instr_count(workload.instr_count),
        )
        .machine(machine)
        .prefetcher(PrefetcherKind::None);
    let scenario = grid.run(cachemind_policies::by_name).expect("scenario grid runs");
    let cells: Vec<PolicyCellSummary> = scenario
        .cells
        .iter()
        .map(|c| PolicyCellSummary { policy: c.policy.clone(), hit_rate: c.hit_rate(), ipc: c.ipc })
        .collect();

    let transcript = format!(
        "User: For astar workload and Belady replacement policy, could you list unique \
         cache sets in ascending order?\n\
         Assistant: {} active sets.\n\n\
         User: Identify 5 hot and 5 cold sets by hit rate.\n\
         Assistant: Hot Sets = {:?}, Cold Sets = {:?}.\n\n\
         User: Compare hot sets (LRU vs Belady) and derive insights.\n\
         Assistant: {} of 5 hot sets coincide; hot sets arise from intrinsic workload \
         locality, and Belady amplifies hotness by avoiding premature evictions.\n",
        belady_sets.len(),
        belady_profile.hot_sets,
        belady_profile.cold_sets,
        hot_overlap,
    );

    SetHotnessReport {
        workload: workload.name,
        profiles: vec![lru_profile, belady_profile],
        hot_overlap,
        machine: machine_label,
        cells,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_and_cold_sets_are_distinct() {
        let report = run(Scale::Small);
        for p in &report.profiles {
            assert_eq!(p.hot_sets.len(), 5);
            assert_eq!(p.cold_sets.len(), 5);
            assert!(
                p.hot_hit_rate > p.cold_hit_rate,
                "{}: hot {} vs cold {}",
                p.policy,
                p.hot_hit_rate,
                p.cold_hit_rate
            );
        }
    }

    #[test]
    fn hot_set_identity_overlaps_across_policies() {
        // "Hot set identity likely overlaps" (Figure 13).
        let report = run(Scale::Small);
        assert!(report.hot_overlap >= 1, "overlap {}", report.hot_overlap);
    }

    #[test]
    fn scenario_cells_rank_belady_above_lru() {
        let report = run(Scale::Small);
        assert_eq!(report.cells.len(), 2);
        let by_policy = |name: &str| {
            report.cells.iter().find(|c| c.policy == name).expect("policy cell present")
        };
        let (lru, belady) = (by_policy("lru"), by_policy("belady"));
        assert!(belady.hit_rate >= lru.hit_rate, "OPT must not hit less than LRU");
        assert!(belady.ipc >= lru.ipc, "OPT must not run slower than LRU");
        assert!(!report.machine.is_empty());
    }
}
