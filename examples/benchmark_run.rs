//! Run CacheMindBench end to end for one retriever x backend pair and print
//! the per-category breakdown — a miniature of the paper's Figure 4 row.
//! Every question is asked through `CacheMind::ask_query`, the pipeline the
//! serve layer runs.
//!
//! Run with: `cargo run --release --example benchmark_run [sieve|ranger|dense]`

use cachemind_suite::core::eval;
use cachemind_suite::prelude::*;

fn main() {
    let retriever = match std::env::args().nth(1).as_deref() {
        Some("sieve") => RetrieverKind::Sieve,
        None | Some("ranger") => RetrieverKind::Ranger,
        Some("dense") => RetrieverKind::Dense,
        Some(other) => panic!("unknown retriever {other:?} (use sieve, ranger or dense)"),
    };

    println!("Building database and generating the 100-question suite ...");
    let db = TraceDatabaseBuilder::quick_demo().build();
    let catalog = Catalog::generate(&db);
    let mind = CacheMind::new(db).with_retriever(retriever).with_backend(BackendKind::Gpt4o);
    let report = eval::bench(&mind, &catalog);

    println!("\nCacheMindBench — retriever: {}, backend: {}", report.retriever, report.backend);
    println!("{}", "-".repeat(56));
    for category in QueryCategory::ALL {
        println!(
            "{:<30} {:>8.2}%  ({} questions)",
            category.label(),
            report.category_accuracy(category),
            report.results.iter().filter(|r| r.category == category).count()
        );
    }
    println!("{}", "-".repeat(56));
    println!(
        "Trace-grounded tier: {:>6.2}%   Reasoning tier: {:>6.2}%   Total: {:>6.2}%",
        report.tier_accuracy(Tier::TraceGrounded),
        report.tier_accuracy(Tier::Reasoning),
        report.total()
    );
}
