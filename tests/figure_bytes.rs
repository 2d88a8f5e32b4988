//! Byte-identity pin for the figure data behind Figures 4–8 and the two
//! retrieval ablations.
//!
//! `tests/fixtures/figures_quick_demo_v1.json` holds the JSON of every
//! figure builder over the `quick_demo` database. Scoring goes through the
//! whole ask pipeline — parse, retrieve, generate, score — so any change
//! that moves a single verdict, point or context grade fails here. The
//! same fixture pins the figures over that database written to a snapshot
//! and opened again, so the catalog and every figure builder also run
//! over frames that decode their rows on first touch.
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
use cachemind_suite::obs::MetricsRegistry;
use cachemind_suite::prelude::*;
use cachemind_suite::tracedb::snapshot::{write_snapshot, VerifiedSnapshot};
use cachemind_suite::tracedb::TraceDatabase;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figures_quick_demo_v1.json")
}

fn section(name: &str, json: Result<String, serde_json::Error>) -> String {
    let json = json.expect("figure serializes");
    format!("  \"{name}\": {}", json.replace('\n', "\n  "))
}

/// Every pinned figure over `db` as one JSON object, one key per builder.
fn figures_json(db: TraceDatabase) -> String {
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
    let db = TraceDatabaseBuilder::quick_demo().build();
    assert_eq!(figures_json(db), expected, "figure data drifted from the quick_demo fixture");
}

#[test]
fn snapshot_opened_figure_data_matches_the_quick_demo_fixture() {
    let expected = std::fs::read_to_string(fixture_path()).expect("figure fixture present");
    let bytes = write_snapshot(&TraceDatabaseBuilder::quick_demo().build());
    let db = VerifiedSnapshot::verify(bytes)
        .and_then(|snapshot| snapshot.into_database(&MetricsRegistry::new()))
        .expect("snapshot opens");
    assert_eq!(figures_json(db), expected, "figures over a snapshot-opened store drifted");
}

/// Rewrites the fixture from the current figure builders.
#[test]
#[ignore = "writes tests/fixtures/figures_quick_demo_v1.json; run only to regenerate"]
fn regenerate_figure_fixture() {
    let db = TraceDatabaseBuilder::quick_demo().build();
    std::fs::write(fixture_path(), figures_json(db)).expect("write fixture");
}
