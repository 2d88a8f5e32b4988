//! Reproducibility: identical inputs must produce identical databases,
//! catalogs and benchmark reports — the property that makes CacheMindBench
//! "verified".

use std::sync::Arc;

use cachemind_suite::core::eval;
use cachemind_suite::prelude::*;

#[test]
fn database_build_is_deterministic() {
    let a = TraceDatabaseBuilder::quick_demo().build();
    let b = TraceDatabaseBuilder::quick_demo().build();
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.entries().zip(b.entries()) {
        assert_eq!(ea.id, eb.id);
        assert_eq!(ea.metadata, eb.metadata);
        assert_eq!(ea.frame.rows(), eb.frame.rows());
    }
}

#[test]
fn catalog_and_reports_are_deterministic() {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let c1 = Catalog::generate(&db);
    let c2 = Catalog::generate(&db);
    assert_eq!(c1.questions(), c2.questions());

    let store: Arc<dyn TraceStore> = Arc::new(db);
    let mind = || CacheMind::shared(Arc::clone(&store)).with_backend(BackendKind::Gpt4oMini);
    let r1 = eval::bench(&mind(), &c1);
    let r2 = eval::bench(&mind(), &c2);
    assert_eq!(r1.total(), r2.total());
    for (a, b) in r1.results.iter().zip(&r2.results) {
        assert_eq!(a.points, b.points, "question {}", a.id);
        assert_eq!(a.verdict, b.verdict, "question {}", a.id);
    }
}

#[test]
fn workload_generation_is_seeded() {
    for name in ["astar", "lbm", "mcf", "milc", "ptrchase"] {
        let a = cachemind_suite::workloads::by_name(name, Scale::Tiny).unwrap();
        let b = cachemind_suite::workloads::by_name(name, Scale::Tiny).unwrap();
        assert_eq!(a.accesses, b.accesses, "workload {name}");
        assert_eq!(a.instr_count, b.instr_count);
    }
}
