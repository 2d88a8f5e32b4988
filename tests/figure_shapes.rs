//! Figure-level shape assertions: the qualitative results the paper reports
//! must emerge from the implementation (see EXPERIMENTS.md).

use std::sync::Arc;

use cachemind_suite::core::eval;
use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::probes::{probe_queries, run_probes};

fn setup() -> (Arc<dyn TraceStore>, Catalog) {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let catalog = Catalog::generate(&db);
    (Arc::new(db), catalog)
}

#[test]
fn figure4_count_collapses_and_gpt4o_wins() {
    let (db, catalog) = setup();
    let fig = eval::figure4(&db, &catalog);
    let count_row = fig.rows.iter().find(|(l, _)| l == "Count").expect("count row");
    for (backend, acc) in fig.backends.iter().zip(&count_row.1) {
        assert!(*acc <= 20.0, "{backend} Count accuracy {acc} should collapse under Sieve");
    }
    let (best_idx, _) =
        fig.totals.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("totals");
    assert_eq!(fig.backends[best_idx], "GPT-4o", "totals: {:?}", fig.totals);
}

#[test]
fn figure5_quality_gradient() {
    let (db, catalog) = setup();
    let fig = eval::figure5(&db, &catalog);
    let mut avg = [0.0f64; 3];
    for (_, [l, m, h]) in &fig.rows {
        avg[0] += l;
        avg[1] += m;
        avg[2] += h;
    }
    assert!(avg[2] > avg[1] && avg[1] > avg[0], "quality gradient violated: {avg:?}");
}

#[test]
fn figure7_o3_is_bimodal_and_gpt4o_is_not() {
    let (db, catalog) = setup();
    let fig = eval::figure7(&db, &catalog);
    let hist_of = |name: &str| {
        fig.rows
            .iter()
            .find(|(b, _)| b == name)
            .map(|(_, h)| *h)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let o3 = hist_of("o3");
    let extremes = o3[0] + o3[1] + o3[4] + o3[5];
    let middle = o3[2] + o3[3];
    assert!(extremes > middle, "o3 histogram not bimodal: {o3:?}");
    let gpt4o = hist_of("GPT-4o");
    let high = gpt4o[4] + gpt4o[5];
    assert!(high >= 25 / 2, "GPT-4o should cluster high: {gpt4o:?}");
}

#[test]
fn figure8_retriever_split() {
    let (db, catalog) = setup();
    let fig = eval::figure8(&db, &catalog);
    assert!(fig.tg_total.1 > fig.tg_total.0, "Ranger must win the TG tier: {:?}", fig.tg_total);
    assert!(fig.ara_total.0 > fig.ara_total.1, "Sieve must win the ARA tier: {:?}", fig.ara_total);
}

#[test]
fn figure9_retrieval_ordering_and_magnitudes() {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let probes = probe_queries(&db);
    let dense = DenseIndexRetriever::build(&db, 4);
    let d = run_probes(&db, &dense, &probes);
    let s = run_probes(&db, &SieveRetriever::new(), &probes);
    let r = run_probes(&db, &RangerRetriever::new(), &probes);
    assert!(
        r.correct > s.correct && s.correct > d.correct,
        "{} / {} / {}",
        d.correct,
        s.correct,
        r.correct
    );
    assert!(r.correct >= 8, "ranger {}", r.correct);
    assert!(d.correct <= 3, "dense {}", d.correct);
}

#[test]
fn belady_upper_bounds_every_database_policy() {
    let db = TraceDatabaseBuilder::quick_demo().build();
    for w in db.workloads() {
        let opt_misses = db
            .get(&format!("{w}_evictions_belady"))
            .expect("belady trace")
            .frame
            .rows()
            .iter()
            .filter(|r| r.is_miss)
            .count();
        for p in db.policies() {
            let misses = db
                .get(&format!("{w}_evictions_{p}"))
                .expect("trace")
                .frame
                .rows()
                .iter()
                .filter(|r| r.is_miss)
                .count();
            assert!(opt_misses <= misses, "{w}: belady {opt_misses} vs {p} {misses}");
        }
    }
}
