//! CacheMindBench scoring and the figure-level data builders: one function
//! per evaluation artefact of the paper.
//!
//! [`bench()`] scores a configured [`CacheMind`] over the catalog by asking
//! every question through [`CacheMind::answer`] — the pipeline serve
//! runs, which renders no prompt — so Figures 4–8, the ablations and
//! `cachemind bench` measure the served system. Each figure configuration is a `CacheMind` built from
//! the stock builders: a backend, a retriever (Figure 5 wraps Sieve in
//! [`Degraded`]) and k-shot examples.
//!
//! Every builder that evaluates several independent configurations
//! (backends, shot counts, retrievers) spreads them across cores with
//! [`cachemind_sim::sweep::sweep_cells`] — the same order-preserving
//! parallel primitive behind `ScenarioGrid` — so no figure replays its
//! configurations serially, and every output stays byte-identical for any
//! thread count.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cachemind_benchsuite::catalog::Catalog;
use cachemind_benchsuite::report::{BenchReport, QuestionResult};
use cachemind_benchsuite::scoring::score;
use cachemind_lang::context::ContextQuality;
use cachemind_lang::generator::GeneratorAnswer;
use cachemind_lang::intent::{QueryCategory, Tier};
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::Example;
use cachemind_retrieval::quality::Degraded;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::sweep::sweep_cells;
use cachemind_tracedb::store::TraceStore;

use crate::system::{CacheMind, Query, RetrieverKind};

/// Scores every catalog question answered by `mind` through
/// [`CacheMind::answer`]: the answer's verdict earns the points, and
/// its retrieved context's grade is recorded for Figure 5.
pub fn bench(mind: &CacheMind, catalog: &Catalog) -> BenchReport {
    let results = catalog
        .questions()
        .iter()
        .map(|q| {
            let answer = mind.answer(&Query::new(q.text.as_str()));
            let quality = answer.context.quality;
            let answer = GeneratorAnswer { text: answer.text, verdict: answer.verdict };
            QuestionResult {
                id: q.id.clone(),
                category: q.category,
                quality,
                points: score(q, &answer),
                max: q.max_points(),
                verdict: answer.verdict,
            }
        })
        .collect();
    BenchReport {
        backend: mind.backend().label().to_owned(),
        retriever: mind.retriever_name().to_owned(),
        results,
    }
}

/// The first `shots` in-context examples (0 = zero-shot, 1 = one-shot,
/// 3 = few-shot): Figure 6's Hit/Miss example plus two generic companions.
fn shot_examples(shots: usize) -> Vec<Example> {
    let mut pool = vec![
        Example::figure6(),
        Example {
            context: "The miss rate for PC 0x4037ba is 44.69% over 1200 accesses.".to_owned(),
            question: "What is the miss rate for PC 0x4037ba in mcf with PARROT?".to_owned(),
            answer: "44.69%".to_owned(),
        },
        Example {
            context: "Premise check failed: PC 0x4037aa appears only in mcf.".to_owned(),
            question: "Does PC 0x4037aa in lbm access address 0x1b73be82e3f?".to_owned(),
            answer: "TRICK — the premise is inconsistent with the trace.".to_owned(),
        },
    ];
    pool.truncate(shots);
    pool
}

/// The paper's default system over `store`: Sieve retrieval, GPT-4o,
/// zero-shot.
fn mind(store: &Arc<dyn TraceStore>) -> CacheMind {
    CacheMind::shared(Arc::clone(store))
}

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
pub fn figure4(store: &Arc<dyn TraceStore>, catalog: &Catalog) -> Figure4 {
    let reports: Vec<BenchReport> =
        sweep_cells(BackendKind::ALL.to_vec(), |b| bench(&mind(store).with_backend(b), catalog));
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
pub fn figure5(store: &Arc<dyn TraceStore>, catalog: &Catalog) -> Figure5 {
    let rows = sweep_cells(BackendKind::ALL.to_vec(), |b| {
        let degraded = mind(store).with_custom_retriever(Degraded(SieveRetriever::new()));
        let report = bench(&degraded.with_backend(b), catalog);
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
pub fn figure6(store: &Arc<dyn TraceStore>, catalog: &Catalog, backend: BackendKind) -> Figure6 {
    let rows = sweep_cells(vec![0usize, 1, 3], |shots| {
        let report =
            bench(&mind(store).with_backend(backend).with_examples(shot_examples(shots)), catalog);
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
pub fn figure7(store: &Arc<dyn TraceStore>, catalog: &Catalog) -> Figure7 {
    let rows = sweep_cells(BackendKind::ALL.to_vec(), |b| {
        let report = bench(&mind(store).with_backend(b), catalog);
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
pub fn figure8(store: &Arc<dyn TraceStore>, catalog: &Catalog) -> Figure8 {
    let mut reports = sweep_cells(vec![RetrieverKind::Sieve, RetrieverKind::Ranger], |kind| {
        bench(&mind(store).with_retriever(kind), catalog)
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

    fn setup() -> (Arc<dyn TraceStore>, Catalog) {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let catalog = Catalog::generate(&db);
        (Arc::new(db), catalog)
    }

    #[test]
    fn bench_reports_the_configured_system() {
        let (store, catalog) = setup();
        for (kind, name) in [
            (RetrieverKind::Sieve, "sieve"),
            (RetrieverKind::Ranger, "ranger"),
            (RetrieverKind::Dense, "dense"),
        ] {
            let mind = mind(&store).with_retriever(kind).with_backend(BackendKind::O3);
            let report = bench(&mind, &catalog);
            assert_eq!((report.retriever.as_str(), report.backend.as_str()), (name, "o3"));
            assert_eq!(report.results.len(), catalog.questions().len());
        }
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
        assert!(count.2 >= 60.0, "ranger's complete counts score: {count:?}");
    }
}
