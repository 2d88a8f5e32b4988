//! Runnable ablation studies for the retrieval design choices.
//!
//! Each study returns the swept parameter alongside the metric it moves, so
//! `cachemind reproduce ablation_sweeps` can print it and tests can assert
//! the direction of the effect:
//!
//! * Sieve's slice cap — the single knob behind the Count/Arithmetic
//!   collapse of Figures 4/8.
//! * Ranger's schema card — the "context can suppress latent knowledge"
//!   observation: without the schema, plans bind the wrong columns.
//! * The dense baseline's index stride — coarser indexing loses the exact
//!   rows entirely.
//!
//! Plus the machine-axis ablations opened by the scenario grid:
//!
//! * DRAM latency — how strongly the modelled memory wall moves IPC.
//! * Prefetcher kind — accuracy/coverage/IPC of the hardware prefetcher
//!   models on a streaming workload.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cachemind_benchsuite::catalog::Catalog;
use cachemind_lang::intent::QueryCategory;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::probes::{probe_queries, run_probes};
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::sweep::{sweep_cells, ScenarioGrid, SweepStream};
use cachemind_tracedb::database::TraceDatabase;
use cachemind_tracedb::store::TraceStore;
use cachemind_workloads::workload::Scale;

use crate::eval::bench;
use crate::system::CacheMind;

/// One swept configuration and the metric it produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The parameter value (cap, stride, or 0/1 for off/on).
    pub parameter: usize,
    /// The measured accuracy / success rate in percent.
    pub metric: f64,
}

/// Sweeps Sieve's slice cap and reports Count-category accuracy.
///
/// A cap large enough to cover every matching slice makes Sieve's counts
/// complete, recovering the category; the paper's configuration (a small
/// fixed window) is what zeroes it.
pub fn sieve_slice_cap(
    store: &Arc<dyn TraceStore>,
    catalog: &Catalog,
    caps: &[usize],
) -> Vec<AblationPoint> {
    sweep_cells(caps.to_vec(), |cap| {
        let sieve = SieveRetriever::new().with_slice_cap(cap);
        let report =
            bench(&CacheMind::shared(Arc::clone(store)).with_custom_retriever(sieve), catalog);
        AblationPoint { parameter: cap, metric: report.category_accuracy(QueryCategory::Count) }
    })
}

/// Ranger with and without the schema card: Arithmetic accuracy.
///
/// Returns `[without, with]` (parameter 0 = schema hidden, 1 = shown).
pub fn ranger_schema(store: &Arc<dyn TraceStore>, catalog: &Catalog) -> Vec<AblationPoint> {
    sweep_cells(
        vec![(0usize, RangerRetriever::new().without_schema()), (1, RangerRetriever::new())],
        |(parameter, retriever)| {
            let mind = CacheMind::shared(Arc::clone(store)).with_custom_retriever(retriever);
            let report = bench(&mind, catalog);
            AblationPoint { parameter, metric: report.category_accuracy(QueryCategory::Arithmetic) }
        },
    )
}

/// Dense-index stride sweep over the Figure 9 probes: retrieval success.
pub fn dense_stride(db: &TraceDatabase, strides: &[usize]) -> Vec<AblationPoint> {
    let probes = probe_queries(db);
    sweep_cells(strides.to_vec(), |stride| {
        let dense = DenseIndexRetriever::build(db, stride);
        let report = run_probes(db, &dense, &probes);
        AblationPoint { parameter: stride, metric: report.success_rate() * 100.0 }
    })
}

/// One scenario-grid ablation point: the machine or prefetcher label plus
/// the metrics it moved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Machine or prefetcher label of the swept cell.
    pub label: String,
    /// LLC miss rate of the cell.
    pub miss_rate: f64,
    /// Prefetch coverage of the cell (0 when no prefetcher ran).
    pub prefetch_coverage: f64,
    /// Model-estimated IPC of the cell.
    pub ipc: f64,
}

/// Sweeps the Table-2 machine across DRAM latencies (full-machine replay
/// of mcf under LRU) and reports per-machine IPC — the memory-wall
/// ablation the scenario grid opens.
pub fn dram_latency(scale: Scale, latencies: &[u64]) -> Vec<ScenarioPoint> {
    let workload = cachemind_workloads::mcf::generate(scale);
    let mut grid = ScenarioGrid::default().policy("lru").prefetcher(PrefetcherKind::None).stream(
        SweepStream::new(workload.name.clone(), workload.accesses)
            .with_instr_count(workload.instr_count),
    );
    for &cycles in latencies {
        grid = grid
            .machine(MachineConfig::preset("table2").expect("preset").with_dram_latency(cycles));
    }
    let report = grid.run(cachemind_policies::by_name).expect("scenario grid runs");
    report
        .cells
        .iter()
        .map(|c| ScenarioPoint {
            label: c.machine.clone(),
            miss_rate: c.miss_rate,
            prefetch_coverage: c.prefetch_coverage,
            ipc: c.ipc,
        })
        .collect()
}

/// Sweeps the prefetcher axis (full-machine replay of lbm under LRU) and
/// reports accuracy-driven coverage and IPC per prefetcher kind.
pub fn prefetcher_kinds(scale: Scale, kinds: &[PrefetcherKind]) -> Vec<ScenarioPoint> {
    let workload = cachemind_workloads::lbm::generate(scale);
    let mut grid = ScenarioGrid::default()
        .policy("lru")
        .machine(MachineConfig::preset("table2").expect("preset"))
        .stream(
            SweepStream::new(workload.name.clone(), workload.accesses)
                .with_instr_count(workload.instr_count),
        );
    for &kind in kinds {
        grid = grid.prefetcher(kind);
    }
    let report = grid.run(cachemind_policies::by_name).expect("scenario grid runs");
    report
        .cells
        .iter()
        .map(|c| ScenarioPoint {
            label: c.prefetcher.clone(),
            miss_rate: c.miss_rate,
            prefetch_coverage: c.prefetch_coverage,
            ipc: c.ipc,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::database::TraceDatabaseBuilder;

    fn setup() -> (Arc<dyn TraceStore>, Catalog) {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let catalog = Catalog::generate(&db);
        (Arc::new(db), catalog)
    }

    #[test]
    fn slice_cap_controls_count_accuracy() {
        let (db, catalog) = setup();
        let points = sieve_slice_cap(&db, &catalog, &[5, 1_000_000]);
        assert!(
            points[1].metric > points[0].metric,
            "huge cap {} should beat tiny cap {}",
            points[1].metric,
            points[0].metric
        );
        assert!(points[0].metric <= 20.0, "tiny cap must collapse Count");
    }

    #[test]
    fn schema_card_controls_arithmetic_accuracy() {
        let (db, catalog) = setup();
        let points = ranger_schema(&db, &catalog);
        assert!(
            points[1].metric >= points[0].metric,
            "with-schema {} should be at least without {}",
            points[1].metric,
            points[0].metric
        );
        assert!(points[1].metric - points[0].metric >= 10.0, "schema must matter: {points:?}");
    }

    #[test]
    fn dense_stride_trades_coverage() {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let points = dense_stride(&db, &[1, 64]);
        // Denser indexing can only help (or tie) the probe success rate.
        assert!(points[0].metric >= points[1].metric, "{points:?}");
    }

    #[test]
    fn dram_latency_moves_ipc_monotonically() {
        let points = dram_latency(Scale::Tiny, &[100, 400, 1600]);
        assert_eq!(points.len(), 3);
        // Cells come back in machine-label order; re-key by latency.
        let ipc_of = |cycles: u64| {
            points.iter().find(|p| p.label.ends_with(&format!("+dram{cycles}"))).unwrap().ipc
        };
        assert!(ipc_of(100) >= ipc_of(400), "{points:?}");
        assert!(ipc_of(400) >= ipc_of(1600), "{points:?}");
        assert!(ipc_of(100) > ipc_of(1600), "DRAM latency must move IPC: {points:?}");
    }

    #[test]
    fn prefetcher_kinds_report_coverage() {
        let kinds =
            [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 4 }];
        let points = prefetcher_kinds(Scale::Tiny, &kinds);
        assert_eq!(points.len(), 3);
        let by = |label: &str| points.iter().find(|p| p.label == label).unwrap();
        assert_eq!(by("none").prefetch_coverage, 0.0);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.prefetch_coverage), "{p:?}");
            assert!(p.ipc > 0.0, "{p:?}");
        }
    }
}
