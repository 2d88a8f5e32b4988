//! Figure-level data builders: one function per evaluation artefact of the
//! paper, all driven by [`cachemind_benchsuite::harness`].
//!
//! Every builder that evaluates several independent configurations
//! (backends, shot counts, retrievers) spreads them across cores with
//! [`cachemind_sim::sweep::sweep_cells`] — the same order-preserving
//! parallel primitive behind `ScenarioGrid` — so the figure binaries stop
//! replaying configurations serially while their outputs stay
//! byte-identical for any thread count.

use serde::{Deserialize, Serialize};

use cachemind_benchsuite::catalog::Catalog;
use cachemind_benchsuite::harness::{self, BenchReport, HarnessConfig};
use cachemind_lang::context::ContextQuality;
use cachemind_lang::intent::{QueryCategory, Tier};
use cachemind_lang::profiles::BackendKind;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::sweep::sweep_cells;
use cachemind_tracedb::database::TraceDatabase;

/// Figure 4: accuracy per category for each backend (Sieve retrieval).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4 {
    /// Backend labels, in Figure 4 order.
    pub backends: Vec<String>,
    /// `(category label, per-backend accuracy %)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Per-backend weighted totals.
    pub totals: Vec<f64>,
}

/// Builds Figure 4.
pub fn figure4(db: &TraceDatabase, catalog: &Catalog) -> Figure4 {
    let sieve = SieveRetriever::new();
    let config = HarnessConfig::default();
    let reports: Vec<BenchReport> =
        sweep_cells(BackendKind::ALL.to_vec(), |b| harness::run(db, &sieve, b, catalog, &config));
    let rows = QueryCategory::ALL
        .iter()
        .map(|&cat| {
            (cat.label().to_owned(), reports.iter().map(|r| r.category_accuracy(cat)).collect())
        })
        .collect();
    Figure4 {
        backends: BackendKind::ALL.iter().map(|b| b.label().to_owned()).collect(),
        rows,
        totals: reports.iter().map(BenchReport::total).collect(),
    }
}

/// Figure 5: accuracy under Low/Medium/High retrieval quality per backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5 {
    /// `(backend label, [low, medium, high] accuracy %)`.
    pub rows: Vec<(String, [f64; 3])>,
}

/// Builds Figure 5 (controlled context degradation).
pub fn figure5(db: &TraceDatabase, catalog: &Catalog) -> Figure5 {
    let sieve = SieveRetriever::new();
    let config = HarnessConfig { degrade_buckets: true, ..Default::default() };
    let rows = sweep_cells(BackendKind::ALL.to_vec(), |b| {
        let report = harness::run(db, &sieve, b, catalog, &config);
        (
            b.label().to_owned(),
            [
                report.quality_accuracy(ContextQuality::Low).unwrap_or(0.0),
                report.quality_accuracy(ContextQuality::Medium).unwrap_or(0.0),
                report.quality_accuracy(ContextQuality::High).unwrap_or(0.0),
            ],
        )
    });
    Figure5 { rows }
}

/// Figure 6: zero/one/few-shot prompting comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure6 {
    /// `(shots, total accuracy %, trick accuracy %)` per configuration.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Builds Figure 6's ablation for one backend.
pub fn figure6(db: &TraceDatabase, catalog: &Catalog, backend: BackendKind) -> Figure6 {
    let sieve = SieveRetriever::new();
    let rows = sweep_cells(vec![0usize, 1, 3], |shots| {
        let report = harness::run(
            db,
            &sieve,
            backend,
            catalog,
            &HarnessConfig { shots, ..Default::default() },
        );
        (shots, report.total(), report.category_accuracy(QueryCategory::Trick))
    });
    Figure6 { rows }
}

/// Figure 7: rubric-score distributions per backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure7 {
    /// `(backend label, histogram of scores 0..=5)`.
    pub rows: Vec<(String, [usize; 6])>,
}

/// Builds Figure 7.
pub fn figure7(db: &TraceDatabase, catalog: &Catalog) -> Figure7 {
    let sieve = SieveRetriever::new();
    let config = HarnessConfig::default();
    let rows = sweep_cells(BackendKind::ALL.to_vec(), |b| {
        let report = harness::run(db, &sieve, b, catalog, &config);
        (b.label().to_owned(), report.score_histogram())
    });
    Figure7 { rows }
}

/// Figure 8: Sieve vs Ranger per trace-grounded category plus tier totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure8 {
    /// `(category label, sieve accuracy %, ranger accuracy %)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Trace-grounded tier totals `(sieve, ranger)`.
    pub tg_total: (f64, f64),
    /// Reasoning tier totals `(sieve, ranger)`.
    pub ara_total: (f64, f64),
}

/// Builds Figure 8 with the paper's GPT-4o generator held fixed.
pub fn figure8(db: &TraceDatabase, catalog: &Catalog) -> Figure8 {
    let config = HarnessConfig::default();
    let backend = BackendKind::Gpt4o;
    let mut reports = sweep_cells(vec![false, true], |use_ranger| {
        if use_ranger {
            harness::run(db, &RangerRetriever::new(), backend, catalog, &config)
        } else {
            harness::run(db, &SieveRetriever::new(), backend, catalog, &config)
        }
    });
    let ranger = reports.pop().expect("ranger report");
    let sieve = reports.pop().expect("sieve report");
    let tg_categories = [
        QueryCategory::HitMiss,
        QueryCategory::MissRate,
        QueryCategory::PolicyComparison,
        QueryCategory::Count,
        QueryCategory::Arithmetic,
        QueryCategory::Trick,
    ];
    let rows = tg_categories
        .iter()
        .map(|&cat| {
            (cat.label().to_owned(), sieve.category_accuracy(cat), ranger.category_accuracy(cat))
        })
        .collect();
    Figure8 {
        rows,
        tg_total: (
            sieve.tier_accuracy(Tier::TraceGrounded),
            ranger.tier_accuracy(Tier::TraceGrounded),
        ),
        ara_total: (sieve.tier_accuracy(Tier::Reasoning), ranger.tier_accuracy(Tier::Reasoning)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn setup() -> (TraceDatabase, Catalog) {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let catalog = Catalog::generate(&db);
        (db, catalog)
    }

    #[test]
    fn figure4_shape() {
        let (db, catalog) = setup();
        let fig = figure4(&db, &catalog);
        assert_eq!(fig.backends.len(), 5);
        assert_eq!(fig.rows.len(), 11);
        // Count collapses under Sieve for every backend.
        let count_row = fig.rows.iter().find(|(l, _)| l == "Count").unwrap();
        assert!(count_row.1.iter().all(|&v| v <= 20.0), "count row {:?}", count_row.1);
        // GPT-4o has the best weighted total.
        let best = fig
            .totals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(fig.backends[best], "GPT-4o");
    }

    #[test]
    fn figure5_monotone_in_quality() {
        let (db, catalog) = setup();
        let fig = figure5(&db, &catalog);
        for (backend, [low, _mid, high]) in &fig.rows {
            assert!(high > low, "{backend}: low {low} vs high {high}");
        }
    }

    #[test]
    fn figure6_fewshot_helps_tricks() {
        let (db, catalog) = setup();
        let fig = figure6(&db, &catalog, BackendKind::O3);
        assert_eq!(fig.rows.len(), 3);
        let zero_trick = fig.rows[0].2;
        let few_trick = fig.rows[2].2;
        assert!(few_trick >= zero_trick, "few-shot trick {few_trick} vs zero {zero_trick}");
        // Totals barely move (within 15 points).
        let totals: Vec<f64> = fig.rows.iter().map(|r| r.1).collect();
        let spread = totals.iter().cloned().fold(f64::MIN, f64::max)
            - totals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 15.0, "totals spread {spread}: {totals:?}");
    }

    #[test]
    fn figure7_histograms_sum_to_reasoning_tier() {
        let (db, catalog) = setup();
        let fig = figure7(&db, &catalog);
        assert_eq!(fig.rows.len(), 5);
        for (backend, hist) in &fig.rows {
            assert_eq!(hist.iter().sum::<usize>(), 25, "{backend}");
        }
    }

    #[test]
    fn figure8_shape() {
        let (db, catalog) = setup();
        let fig = figure8(&db, &catalog);
        assert!(fig.tg_total.1 > fig.tg_total.0, "ranger must win TG: {:?}", fig.tg_total);
        assert!(fig.ara_total.0 > fig.ara_total.1, "sieve must win ARA: {:?}", fig.ara_total);
        let count = fig.rows.iter().find(|(l, ..)| l == "Count").unwrap();
        assert!(count.2 > count.1, "ranger repairs Count: {count:?}");
    }
}
