//! End-to-end integration: simulate → store → retrieve → generate → score,
//! across crate boundaries.

use cachemind_suite::core::eval;
use cachemind_suite::prelude::*;

fn demo_db() -> TraceDatabase {
    TraceDatabaseBuilder::quick_demo().build()
}

#[test]
fn full_pipeline_produces_verifiable_answers() {
    let db = demo_db();
    let entry = db.get("lbm_evictions_belady").expect("trace");
    let row = entry.frame.rows()[42].clone();
    let first = entry
        .frame
        .rows()
        .iter()
        .find(|r| r.pc == row.pc && r.address == row.address)
        .expect("pair exists");
    let truth = first.is_miss;

    let mind = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);
    let q = format!(
        "Does the memory access with PC {} and address {} result in a cache hit or cache \
         miss for the lbm workload and Belady replacement policy?",
        row.pc, row.address
    );
    let a = mind.ask_query(&q.into());
    // The retrieved evidence must carry the true outcome regardless of what
    // the (noisy) generator answers.
    let evidence_truth = a.context.facts.iter().find_map(|f| match f {
        Fact::Outcome { is_miss, .. } => Some(*is_miss),
        _ => None,
    });
    assert_eq!(evidence_truth, Some(truth));
}

#[test]
fn benchmark_pipeline_round_trips_all_categories() {
    let db = demo_db();
    let catalog = Catalog::generate(&db);
    let report = eval::bench(&CacheMind::new(db).with_retriever(RetrieverKind::Ranger), &catalog);
    assert_eq!(report.results.len(), 100);
    for category in QueryCategory::ALL {
        let n = report.results.iter().filter(|r| r.category == category).count();
        assert!(n > 0, "category {category:?} missing from the report");
    }
    // The weighted total is a sane percentage.
    let total = report.total();
    assert!((0.0..=100.0).contains(&total));
    assert!(total > 40.0, "pipeline sanity: total {total}");
}

#[test]
fn trick_questions_are_detectable_through_both_retrievers() {
    let db = demo_db();
    let catalog = Catalog::generate(&db);
    let tricks = catalog.by_category(QueryCategory::Trick);
    assert_eq!(tricks.len(), 5);
    let workloads = db.workloads();
    let policies = db.policies();
    let wrefs: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let prefs: Vec<&str> = policies.iter().map(String::as_str).collect();
    for retriever in [&SieveRetriever::new() as &dyn Retriever, &RangerRetriever::new()] {
        let detected = tricks
            .iter()
            .filter(|q| {
                let intent = QueryIntent::parse(&q.text, &wrefs, &prefs);
                retriever.retrieve(&db, &intent).premise_violation().is_some()
            })
            .count();
        assert!(detected >= 4, "{} detected only {detected}/5 false premises", retriever.name());
    }
}

#[test]
fn insight_modules_run_at_tiny_scale() {
    use cachemind_suite::core::insights;
    let hotness = insights::set_hotness::run(Scale::Tiny);
    assert_eq!(hotness.profiles.len(), 2);
    let inversions = insights::inversions::run(Scale::Tiny);
    assert_eq!(inversions.len(), 3);
    for row in &inversions {
        assert!(row.belady_hit_rate >= row.parrot_hit_rate);
    }
}

#[test]
fn chat_session_supports_multi_turn_grounding() {
    let db = demo_db();
    let mind = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);
    let mut chat = ChatSession::new(mind);
    let a1 = chat.ask("What is the overall miss rate of the mcf workload under LRU?");
    assert!(matches!(a1.verdict, Verdict::Number(_)));
    let a2 = chat.ask("Which workload has the highest cache miss rate under LRU?");
    assert!(matches!(a2.verdict, Verdict::FreeForm { .. } | Verdict::Ranking(_)));
    assert_eq!(chat.transcript().len(), 2);
}
