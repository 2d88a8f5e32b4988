//! §6.3 — Mockingjay stable-PC reuse-distance-predictor training.
//!
//! Figure 10's chat identifies PCs with low ETR/reuse-distance variance;
//! "we changed the Mockingjay source code to train only on the list of
//! stable PCs identified by CacheMind ... stable training increased IPC
//! from 0.47698 to 0.480307 (0.7% speedup) over milc."

use serde::{Deserialize, Serialize};

use cachemind_policies::MockingjayPolicy;
use cachemind_sim::addr::Pc;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::replacement::{RecencyPolicy, ReplacementPolicy};
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::{ScenarioGrid, SweepStream};
use cachemind_workloads::workload::Scale;

use super::{experiment_llc, experiment_machine};

/// Outcome of the stable-PC retraining experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MockingjayReport {
    /// PCs classified as stable (low reuse-distance variance).
    pub stable_pcs: Vec<Pc>,
    /// PCs classified as noisy.
    pub noisy_pcs: Vec<Pc>,
    /// IPC with unrestricted RDP training.
    pub base_ipc: f64,
    /// IPC with training restricted to stable PCs.
    pub stable_ipc: f64,
    /// Speedup in percent.
    pub speedup_percent: f64,
    /// Baseline Mockingjay hit rate.
    pub base_hit_rate: f64,
    /// Stable-trained Mockingjay hit rate.
    pub stable_hit_rate: f64,
    /// Label of the machine the scenario cells replayed on.
    pub machine: String,
    /// Figure 10-shaped transcript.
    pub transcript: String,
}

/// Runs the experiment on milc.
pub fn run(scale: Scale) -> MockingjayReport {
    let workload = cachemind_workloads::milc::generate(scale);
    let replay = LlcReplay::new(experiment_llc(), &workload.accesses);

    // CacheMind analysis: per-PC reuse-distance coefficient of variation
    // over an LRU trace (the chat's mean/std ETR grouping).
    let lru = replay.run(RecencyPolicy::lru());
    let mut samples: std::collections::HashMap<Pc, Vec<f64>> = std::collections::HashMap::new();
    for r in &lru.records {
        if let Some(d) = r.accessed_reuse_distance {
            samples.entry(r.pc).or_default().push(d as f64);
        }
    }
    let cv = |v: &[f64]| {
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        if mean > 0.0 {
            var.sqrt() / mean
        } else {
            0.0
        }
    };
    let mut scored: Vec<(Pc, f64)> =
        samples.iter().filter(|(_, v)| v.len() >= 20).map(|(pc, v)| (*pc, cv(v))).collect();
    // Equal CVs fall back to PC order, so the split never depends on
    // hash-map iteration.
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let split = scored.len() / 2;
    let stable_pcs: Vec<Pc> = scored[..split.max(1)].iter().map(|(pc, _)| *pc).collect();
    let noisy_pcs: Vec<Pc> = scored[split.max(1)..].iter().map(|(pc, _)| *pc).collect();

    // Validation: Mockingjay with and without the training filter, as two
    // policy cells of a scenario grid on the experiment machine. The
    // filtered variant is not in the global registry, so the grid's policy
    // factory extends `cachemind_policies::by_name` with one local name.
    let stable_filter: Vec<Pc> = stable_pcs.clone();
    let factory = move |name: &str| -> Option<Box<dyn ReplacementPolicy>> {
        match name {
            "mockingjay-stable" => Some(Box::new(
                MockingjayPolicy::new().with_training_filter(stable_filter.iter().copied()),
            )),
            other => cachemind_policies::by_name(other),
        }
    };
    let machine = experiment_machine();
    let machine_label = machine.machine_label();
    let grid = ScenarioGrid::default()
        .policy("mockingjay")
        .policy("mockingjay-stable")
        .stream(
            SweepStream::new(workload.name.clone(), workload.accesses.clone())
                .with_instr_count(workload.instr_count),
        )
        .machine(machine)
        .prefetcher(PrefetcherKind::None);
    let report = grid.run(factory).expect("scenario grid runs");
    let base = report
        .cell(&workload.name, &machine_label, "none", "mockingjay")
        .expect("base cell exists");
    let stable = report
        .cell(&workload.name, &machine_label, "none", "mockingjay-stable")
        .expect("stable cell exists");
    let (base_ipc, stable_ipc) = (base.ipc, stable.ipc);

    let transcript = format!(
        "User: Mockingjay uses PC-based reuse-distance prediction; suggest ideas to improve \
         performance.\n\
         Assistant: Cluster PCs by ETR variance; train the RDP on stable samples.\n\n\
         User: List all unique PCs in the trace.\n\
         Assistant: {} unique PCs.\n\n\
         User: Group PCs by reuse-distance variance.\n\
         Assistant: LowVar: {:?}, HighVar: {:?}.\n",
        samples.len(),
        stable_pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>(),
        noisy_pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>(),
    );

    MockingjayReport {
        stable_pcs,
        noisy_pcs,
        base_ipc,
        stable_ipc,
        speedup_percent: cachemind_sim::timing::IpcModel::speedup_percent(base_ipc, stable_ipc),
        base_hit_rate: base.hit_rate(),
        stable_hit_rate: stable.hit_rate(),
        machine: machine_label,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_training_does_not_hurt_and_usually_helps() {
        let report = run(Scale::Small);
        assert!(!report.stable_pcs.is_empty());
        assert!(!report.noisy_pcs.is_empty());
        // The paper's gain is small (0.7%); require a non-negative effect
        // with some tolerance for simulator noise.
        assert!(
            report.speedup_percent > -0.5,
            "stable training regressed: {}%",
            report.speedup_percent
        );
        // The scenario cell carries the machine the numbers came from.
        assert_eq!(report.machine, super::super::experiment_machine().machine_label());
    }
}
