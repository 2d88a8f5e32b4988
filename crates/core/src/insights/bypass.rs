//! §6.3 — Signature Optimization for Bypass Logic.
//!
//! "On the mcf workload, bypassing the PCs identified by CacheMind improves
//! performance under an LRU policy. Specifically, bypassing ten PCs
//! increases the cache hit rate from 25.06% to 26.98% (+7.66% relative) and
//! improves IPC ... corresponding to a 2.04% speedup."
//!
//! The identification step mirrors the Figure 11 chat: per-PC reuse and hit
//! statistics under Belady's optimal reveal PCs that are "frequently
//! evicted even by the optimal policy" — high reuse distance, near-zero hit
//! rate — which makes their fills pure pollution.

use serde::{Deserialize, Serialize};

use cachemind_policies::{BeladyPolicy, BypassPolicy};
use cachemind_sim::addr::Pc;
use cachemind_sim::replacement::RecencyPolicy;
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::stats::CacheStats;
use cachemind_workloads::workload::Scale;

use super::{experiment_ipc_model, experiment_llc};

/// Outcome of the bypass experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BypassReport {
    /// Workload name.
    pub workload: String,
    /// The PCs CacheMind identified for bypassing.
    pub bypassed_pcs: Vec<Pc>,
    /// LRU hit rate without bypassing.
    pub base_hit_rate: f64,
    /// LRU hit rate with the bypass list installed.
    pub bypass_hit_rate: f64,
    /// Relative hit-rate improvement in percent.
    pub relative_hit_gain_percent: f64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// Bypass IPC.
    pub bypass_ipc: f64,
    /// Speedup in percent.
    pub speedup_percent: f64,
    /// The condensed analysis transcript (Figure 11 shape).
    pub transcript: String,
}

fn demand_stats_ipc(instr: u64, stats: &CacheStats) -> f64 {
    let demand_accesses = stats.accesses - stats.prefetches;
    let demand_hits = demand_accesses.saturating_sub(stats.demand_misses);
    experiment_ipc_model().ipc_from_llc(instr, demand_hits, stats.demand_misses)
}

/// Runs the full identify-then-bypass loop on mcf.
pub fn run(scale: Scale, bypass_count: usize) -> BypassReport {
    let workload = cachemind_workloads::mcf::generate(scale);
    let replay = LlcReplay::new(experiment_llc(), &workload.accesses);

    // Identification (the CacheMind query): Belady per-PC statistics.
    let belady = replay.run(BeladyPolicy::new());
    let mut per_pc: std::collections::HashMap<Pc, (u64, u64, f64, u64)> =
        std::collections::HashMap::new();
    for r in &belady.records {
        let e = per_pc.entry(r.pc).or_insert((0, 0, 0.0, 0));
        e.0 += 1; // accesses
        e.1 += r.is_miss as u64; // misses
        if let Some(d) = r.accessed_reuse_distance {
            e.2 += d as f64;
            e.3 += 1;
        }
    }
    let mut candidates: Vec<(Pc, f64, f64)> = per_pc
        .iter()
        .filter(|(_, (accesses, ..))| *accesses >= 50)
        .map(|(pc, (accesses, misses, reuse_sum, reuse_n))| {
            let hit_rate = 1.0 - *misses as f64 / *accesses as f64;
            let mean_reuse = if *reuse_n > 0 { reuse_sum / *reuse_n as f64 } else { f64::MAX };
            (*pc, hit_rate, mean_reuse)
        })
        .collect();
    // "high reuse distance and/or near-zero hit rate": sort by hit rate
    // ascending, break ties by reuse distance descending, then by PC so the
    // order never depends on hash-map iteration.
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.2.total_cmp(&a.2)).then(a.0.cmp(&b.0)));
    let bypassed_pcs: Vec<Pc> = candidates
        .iter()
        .filter(|(_, hit_rate, _)| *hit_rate < 0.25)
        .take(bypass_count)
        .map(|(pc, ..)| *pc)
        .collect();

    // Validation: LRU with and without the bypass list.
    let base = replay.run(RecencyPolicy::lru());
    let bypassed = replay.run(BypassPolicy::new(RecencyPolicy::lru(), bypassed_pcs.clone()));

    let base_hit_rate = base.hit_rate();
    let bypass_hit_rate = bypassed.hit_rate();
    let base_ipc = demand_stats_ipc(workload.instr_count, &base.stats);
    let bypass_ipc = demand_stats_ipc(workload.instr_count, &bypassed.stats);

    let transcript = format!(
        "User: List all PCs in the mcf workload.\n\
         Assistant: {} unique PCs found.\n\n\
         User: For mcf + Belady, compute average accessed-address reuse distance, cache hit \
         rate and hit count per PC; sort in descending order in terms of reuse distance.\n\
         Assistant: {} PCs ranked (top candidate hit rate {:.1}%).\n\n\
         User: Identify PCs suitable for bypassing to improve IPC.\n\
         Assistant: Bypass candidates: {}.\n",
        per_pc.len(),
        candidates.len(),
        candidates.first().map(|c| c.1 * 100.0).unwrap_or(0.0),
        bypassed_pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(", "),
    );

    BypassReport {
        workload: workload.name,
        bypassed_pcs,
        base_hit_rate,
        bypass_hit_rate,
        relative_hit_gain_percent: if base_hit_rate > 0.0 {
            (bypass_hit_rate / base_hit_rate - 1.0) * 100.0
        } else {
            0.0
        },
        base_ipc,
        bypass_ipc,
        speedup_percent: cachemind_sim::timing::IpcModel::speedup_percent(base_ipc, bypass_ipc),
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypassing_improves_hit_rate_and_ipc() {
        let report = run(Scale::Small, 10);
        assert!(!report.bypassed_pcs.is_empty());
        assert!(
            report.bypass_hit_rate > report.base_hit_rate,
            "hit rate {} -> {}",
            report.base_hit_rate,
            report.bypass_hit_rate
        );
        assert!(report.speedup_percent > 0.0, "speedup {}", report.speedup_percent);
        assert!(report.transcript.contains("Bypass candidates"));
    }
}
