//! Byte-identity pin for the figure data behind Figures 4–8 and the two
//! retrieval ablations.
//!
//! `tests/fixtures/figures_quick_demo_v1.json` holds the JSON of every
//! figure builder over the `quick_demo` database. Scoring goes through the
//! whole ask pipeline — parse, retrieve, generate, score — so any change
//! that moves a single verdict, point or context grade fails here.
//!
//! A deliberate change to the figure data regenerates the fixture with the
//! `#[ignore]`d test below:
//!
//! ```text
//! cargo test --test figure_bytes -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use cachemind_suite::core::eval;
use cachemind_suite::core::insights::ablation;
use cachemind_suite::prelude::*;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figures_quick_demo_v1.json")
}

fn section(name: &str, json: Result<String, serde_json::Error>) -> String {
    let json = json.expect("figure serializes");
    format!("  \"{name}\": {}", json.replace('\n', "\n  "))
}

/// Every pinned figure as one JSON object, one key per builder.
fn figures_json() -> String {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let catalog = Catalog::generate(&db);
    let db: Arc<dyn TraceStore> = Arc::new(db);
    let sections = [
        section("figure4", serde_json::to_string_pretty(&eval::figure4(&db, &catalog))),
        section("figure5", serde_json::to_string_pretty(&eval::figure5(&db, &catalog))),
        section(
            "figure6_o3",
            serde_json::to_string_pretty(&eval::figure6(&db, &catalog, BackendKind::O3)),
        ),
        section("figure7", serde_json::to_string_pretty(&eval::figure7(&db, &catalog))),
        section("figure8", serde_json::to_string_pretty(&eval::figure8(&db, &catalog))),
        section(
            "ablation_sieve_slice_cap",
            serde_json::to_string_pretty(&ablation::sieve_slice_cap(
                &db,
                &catalog,
                &[5, 50, 500, 1_000_000],
            )),
        ),
        section(
            "ablation_ranger_schema",
            serde_json::to_string_pretty(&ablation::ranger_schema(&db, &catalog)),
        ),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[test]
fn figure_data_matches_the_quick_demo_fixture() {
    let expected = std::fs::read_to_string(fixture_path()).expect(
        "figures_quick_demo_v1.json missing; run \
         `cargo test --test figure_bytes -- --ignored` to generate it",
    );
    assert_eq!(figures_json(), expected, "figure data drifted from the quick_demo fixture");
}

/// Rewrites the fixture from the current figure builders.
#[test]
#[ignore = "writes tests/fixtures/figures_quick_demo_v1.json; run only to regenerate"]
fn regenerate_figure_fixture() {
    std::fs::write(fixture_path(), figures_json()).expect("write fixture");
}
