//! Snapshot-serving byte-identity, pinned end to end — the in-process
//! form of CI's serve smoke:
//!
//! * an engine started from an on-disk snapshot (`--db-path`) answers the
//!   v1 load driver byte-identically to an engine over the freshly-built
//!   database, for any worker count (`answers_fnv64` and the whole
//!   deterministic report agree);
//! * the same holds for the v2 scenario-pinned driver over a
//!   machine-qualified build — per-machine citations included.

use std::path::PathBuf;

use cachemind_core::system::RetrieverKind;
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
use cachemind_tracedb::{ScenarioSelector, TraceDatabaseBuilder};

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

fn temp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cachemind_{}_{}.snap", name, std::process::id()))
}

/// The aggregate answer digest a deterministic report pins.
fn answers_fnv64(report: &str) -> &str {
    let marker = "\"answers_fnv64\": \"";
    let start = report.find(marker).expect("report carries answers_fnv64") + marker.len();
    let end = report[start..].find('"').expect("digest is quoted");
    &report[start..start + end]
}

#[test]
fn snapshot_served_v1_driver_matches_fresh_build_across_worker_counts() {
    let path = temp_snapshot("identity_v1");
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    db.save(&path).expect("save snapshot");

    let spec = LoadSpec { sessions: 5, questions: 3, scenarios: vec![], repeat_period: 0 };
    let config = ServeConfig { threads: Some(1), ..Default::default() };
    let fresh = ServeEngine::over(db, config.clone());
    let reference_outcome = drive(&fresh, spec.clone());
    let reference = reference_outcome.render(&fresh);

    for threads in [1usize, 2, 8] {
        let engine = ServeEngine::from_snapshot(
            &path,
            ServeConfig { threads: Some(threads), ..config.clone() },
        )
        .expect("snapshot loads");
        let outcome = drive(&engine, spec.clone());
        assert_eq!(outcome.errors(), 0, "{threads} workers");
        let report = outcome.render(&engine);
        assert_eq!(
            answers_fnv64(&report),
            answers_fnv64(&reference),
            "answer digest diverged from the fresh build at {threads} workers"
        );
        assert_eq!(
            report, reference,
            "snapshot-served deterministic report diverged at {threads} workers"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_served_v2_driver_matches_fresh_build_across_worker_counts() {
    let config = ServeConfig {
        threads: Some(1),
        retriever: RetrieverKind::Ranger,
        machines: vec!["table2".into(), "small".into()],
        ..Default::default()
    };
    let path = temp_snapshot("identity_v2");
    let db = build_database(&config).expect("qualified build");
    db.save(&path).expect("save snapshot");

    let spec = LoadSpec {
        sessions: 2,
        questions: 4,
        scenarios: vec![
            ScenarioSelector::all().with_machine("table2"),
            ScenarioSelector::all().with_machine("small"),
        ],
        repeat_period: 0,
    };
    let fresh = ServeEngine::over(db, config.clone());
    let reference_outcome = drive(&fresh, spec.clone());
    assert_eq!(reference_outcome.errors(), 0);
    let reference = reference_outcome.render(&fresh);
    // The scenario path actually exercised per-machine grounding.
    assert!(reference.contains("\"machine\": \"table2@"), "{reference}");
    assert!(reference.contains("\"machine\": \"small@"), "{reference}");

    for threads in [1usize, 2, 8] {
        let engine = ServeEngine::from_snapshot(
            &path,
            ServeConfig { threads: Some(threads), ..config.clone() },
        )
        .expect("snapshot loads");
        let outcome = drive(&engine, spec.clone());
        assert_eq!(outcome.errors(), 0, "{threads} workers");
        let report = outcome.render(&engine);
        assert_eq!(
            answers_fnv64(&report),
            answers_fnv64(&reference),
            "v2 answer digest diverged from the fresh build at {threads} workers"
        );
        assert_eq!(
            report, reference,
            "snapshot-served v2 deterministic report diverged at {threads} workers"
        );
    }
    std::fs::remove_file(&path).ok();
}
