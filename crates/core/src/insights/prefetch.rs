//! §6.3 — PC-directed software prefetching.
//!
//! "Using the PC identified by CacheMind, adding a software prefetch to a
//! pointer-chasing microbenchmark increases IPC from 0.131452 to 0.231261"
//! (+76%). Figure 12's chat recovers the dominant miss PC; the fix inserts
//! `__builtin_prefetch` for addresses a fixed distance ahead.
//!
//! The *analysis* half still walks per-access records (it needs the PC of
//! every miss); the *validation* half measures both program variants as
//! cells of a [`ScenarioGrid`] on the experiment machine, so the IPC delta
//! comes from the same engine the sweep driver uses.

use serde::{Deserialize, Serialize};

use cachemind_sim::addr::Pc;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::replacement::RecencyPolicy;
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::{ScenarioGrid, SweepStream};
use cachemind_workloads::workload::Scale;

use super::{experiment_llc, experiment_machine};

/// Outcome of the prefetch experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrefetchReport {
    /// The dominant miss PC CacheMind recovered.
    pub dominant_pc: Pc,
    /// Its share of all misses.
    pub dominant_miss_share: f64,
    /// Its miss rate.
    pub dominant_miss_rate: f64,
    /// Baseline IPC (no prefetching).
    pub base_ipc: f64,
    /// IPC with software prefetching.
    pub prefetch_ipc: f64,
    /// Speedup in percent.
    pub speedup_percent: f64,
    /// Label of the machine the scenario cells replayed on.
    pub machine: String,
    /// Accuracy of the inserted software prefetches (useful / fills).
    pub swpf_accuracy: f64,
    /// Coverage of the inserted software prefetches (useful / (useful +
    /// remaining demand misses)).
    pub swpf_coverage: f64,
    /// Figure 12-shaped transcript.
    pub transcript: String,
}

/// Runs the experiment at the given prefetch distance.
pub fn run(scale: Scale, distance: usize) -> PrefetchReport {
    let base_workload = cachemind_workloads::ptrchase::generate(scale);
    let replay = LlcReplay::new(experiment_llc(), &base_workload.accesses);
    let base = replay.run(RecencyPolicy::lru());

    // CacheMind analysis: which PC causes the most misses?
    let mut miss_by_pc: std::collections::HashMap<Pc, (u64, u64)> =
        std::collections::HashMap::new();
    for r in &base.records {
        let e = miss_by_pc.entry(r.pc).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.is_miss as u64;
    }
    let total_misses: u64 = miss_by_pc.values().map(|(_, m)| m).sum();
    // Equal miss counts go to the lowest PC, independent of hash order.
    let (&dominant_pc, &(accesses, misses)) = miss_by_pc
        .iter()
        .max_by_key(|(pc, (_, m))| (*m, std::cmp::Reverse(**pc)))
        .expect("non-empty trace");

    // The fix: regenerate the benchmark with prefetches inserted, then
    // measure both variants as scenario cells. Pointer chasing serialises
    // misses: MLP = 1.
    let fixed_workload = cachemind_workloads::ptrchase::generate_prefetched(scale, distance);
    let machine = experiment_machine();
    let machine_label = machine.machine_label();
    let grid = ScenarioGrid::default()
        .policy("lru")
        .stream(
            SweepStream::new("ptrchase", base_workload.accesses.clone())
                .with_instr_count(base_workload.instr_count),
        )
        .stream(
            SweepStream::new("ptrchase-swpf", fixed_workload.accesses.clone())
                .with_instr_count(fixed_workload.instr_count),
        )
        .machine(machine)
        .prefetcher(PrefetcherKind::None)
        .with_mlp(1.0);
    let report = grid.run(cachemind_policies::by_name).expect("scenario grid runs");
    let base_cell =
        report.cell("ptrchase", &machine_label, "none", "lru").expect("baseline cell exists");
    let fixed_cell =
        report.cell("ptrchase-swpf", &machine_label, "none", "lru").expect("fixed cell exists");
    let (base_ipc, prefetch_ipc) = (base_cell.ipc, fixed_cell.ipc);

    let transcript = format!(
        "User: List all unique PCs in the given trace.\n\
         Assistant: {} unique PCs.\n\n\
         User: From the unique PCs, identify the PC causing the most cache misses.\n\
         Assistant: {dominant_pc}.\n\n\
         User: What is the miss rate of PC {dominant_pc}?\n\
         Assistant: {:.2}% miss rate.\n",
        miss_by_pc.len(),
        misses as f64 * 100.0 / accesses as f64,
    );

    PrefetchReport {
        dominant_pc,
        dominant_miss_share: misses as f64 / total_misses.max(1) as f64,
        dominant_miss_rate: misses as f64 / accesses as f64,
        base_ipc,
        prefetch_ipc,
        speedup_percent: cachemind_sim::timing::IpcModel::speedup_percent(base_ipc, prefetch_ipc),
        machine: machine_label,
        swpf_accuracy: fixed_cell.prefetch_accuracy,
        swpf_coverage: fixed_cell.prefetch_coverage,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_gives_large_speedup() {
        let report = run(Scale::Small, 8);
        assert!(report.dominant_miss_share > 0.9, "share {}", report.dominant_miss_share);
        assert!(
            report.dominant_miss_rate > 0.6,
            "dominant PC miss rate {}",
            report.dominant_miss_rate
        );
        // Paper: +76%. Require a large positive effect (shape, not value).
        assert!(report.speedup_percent > 30.0, "speedup {}", report.speedup_percent);
        // The chase PC maps back to the program image.
        let w = cachemind_workloads::ptrchase::generate(Scale::Tiny);
        assert!(w.program.function_of(report.dominant_pc).is_some());
    }

    #[test]
    fn scenario_cells_reproduce_the_hand_rolled_ipc() {
        // The pre-refactor implementation computed IPC directly from a
        // replay: model.with_mlp(1.0).ipc_from_llc(instr, demand hits,
        // demand misses). Scenario cells must reproduce it bit-for-bit.
        let scale = Scale::Tiny;
        let report = run(scale, 8);
        let manual = |w: &cachemind_workloads::workload::Workload| {
            let stats =
                LlcReplay::new(experiment_llc(), &w.accesses).run(RecencyPolicy::lru()).stats;
            let model = super::super::experiment_ipc_model().with_mlp(1.0);
            let demand_accesses = stats.accesses - stats.prefetches;
            let demand_hits = demand_accesses.saturating_sub(stats.demand_misses);
            model.ipc_from_llc(w.instr_count, demand_hits, stats.demand_misses)
        };
        let base = manual(&cachemind_workloads::ptrchase::generate(scale));
        let fixed = manual(&cachemind_workloads::ptrchase::generate_prefetched(scale, 8));
        assert!((report.base_ipc - base).abs() < 1e-12, "{} vs {base}", report.base_ipc);
        assert!((report.prefetch_ipc - fixed).abs() < 1e-12, "{} vs {fixed}", report.prefetch_ipc);
        assert!(report.machine.starts_with("LLC@"));
    }
}
