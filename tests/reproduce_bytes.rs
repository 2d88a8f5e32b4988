//! Byte-identity pin for the reproduction outputs that `figure_bytes.rs`
//! does not cover: Figure 9's correctness counts, the Figure 3 schema card,
//! Tables 1 and 2, the retrieval-free ablations and the five §6.3 use-case
//! reports.
//!
//! `tests/fixtures/reproduce_tiny_v1.json` holds their JSON at Tiny over
//! the store `cachemind reproduce` builds,
//! `TraceDatabaseBuilder::new().scale(Scale::Tiny)`, with the parameters it
//! passes. Figure 9's latencies are wall-clock times and are left out.
//!
//! A deliberate change to these outputs regenerates the fixture with the
//! `#[ignore]`d test below:
//!
//! ```text
//! cargo test --test reproduce_bytes -- --ignored
//! ```

use std::path::PathBuf;

use cachemind_suite::benchsuite::catalog::CATEGORY_SIZES;
use cachemind_suite::core::insights::{
    ablation, bypass, inversions, mockingjay, prefetch, set_hotness,
};
use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::dense::DenseIndexRetriever;
use cachemind_suite::retrieval::probes::{probe_queries, run_probes};
use cachemind_suite::sim::config::HierarchyConfig;
use cachemind_suite::sim::prefetch::PrefetcherKind;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reproduce_tiny_v1.json")
}

fn section(name: &str, json: Result<String, serde_json::Error>) -> String {
    let json = json.expect("output serializes");
    format!("  \"{name}\": {}", json.replace('\n', "\n  "))
}

/// Every pinned reproduction output at Tiny as one JSON object.
fn reproduce_json() -> String {
    let scale = Scale::Tiny;
    let db = TraceDatabaseBuilder::new().scale(scale).build();
    let catalog = Catalog::generate(&db);

    let probes = probe_queries(&db);
    let dense = DenseIndexRetriever::build(&db, 4);
    let figure9: Vec<(String, usize, usize)> = [
        run_probes(&db, &dense, &probes),
        run_probes(&db, &SieveRetriever::new(), &probes),
        run_probes(&db, &RangerRetriever::new(), &probes),
    ]
    .into_iter()
    .map(|r| (r.retriever, r.correct, r.total))
    .collect();

    let table1: Vec<(&str, usize, String)> = CATEGORY_SIZES
        .iter()
        .map(|&(category, _)| {
            let questions = catalog.by_category(category);
            let first = questions.first().map(|q| q.text.clone()).unwrap_or_default();
            (category.label(), questions.len(), first)
        })
        .collect();

    let kinds =
        [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 4 }];
    let sections = [
        section("figure9_correct_total", serde_json::to_string_pretty(&figure9)),
        section(
            "figure3_schema_card",
            serde_json::to_string_pretty(&RangerRetriever::system_prompt(&db)),
        ),
        section("table1", serde_json::to_string_pretty(&table1)),
        section(
            "table2_describe",
            serde_json::to_string_pretty(&HierarchyConfig::table2().describe()),
        ),
        section(
            "table2_experiment_llc",
            serde_json::to_string_pretty(&TraceDatabaseBuilder::experiment_llc()),
        ),
        section(
            "ablation_dense_stride",
            serde_json::to_string_pretty(&ablation::dense_stride(&db, &[1, 4, 16, 64])),
        ),
        section(
            "ablation_dram_latency",
            serde_json::to_string_pretty(&ablation::dram_latency(scale, &[100, 160, 400, 800])),
        ),
        section(
            "ablation_prefetcher_kinds",
            serde_json::to_string_pretty(&ablation::prefetcher_kinds(scale, &kinds)),
        ),
        section("usecase_bypass", serde_json::to_string_pretty(&bypass::run(scale, 10))),
        section("usecase_inversions", serde_json::to_string_pretty(&inversions::run(scale))),
        section("usecase_mockingjay", serde_json::to_string_pretty(&mockingjay::run(scale))),
        section("usecase_prefetch", serde_json::to_string_pretty(&prefetch::run(scale, 8))),
        section("usecase_sets", serde_json::to_string_pretty(&set_hotness::run(scale))),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[test]
fn reproduction_outputs_match_the_tiny_fixture() {
    let expected = std::fs::read_to_string(fixture_path()).expect(
        "reproduce_tiny_v1.json missing; run \
         `cargo test --test reproduce_bytes -- --ignored` to generate it",
    );
    assert_eq!(reproduce_json(), expected, "reproduction outputs drifted from the Tiny fixture");
}

/// Rewrites the fixture from the current library outputs.
#[test]
#[ignore = "writes tests/fixtures/reproduce_tiny_v1.json; run only to regenerate"]
fn regenerate_reproduce_fixture() {
    std::fs::write(fixture_path(), reproduce_json()).expect("write fixture");
}
