//! Shared helpers for the CacheMind benchmark-harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md's per-experiment index). The trace database scale is
//! controlled by the `CACHEMIND_SCALE` environment variable
//! (`tiny` | `small` | `full`, default `small`).

use std::sync::Arc;

use cachemind_benchsuite::catalog::Catalog;
use cachemind_tracedb::database::{TraceDatabase, TraceDatabaseBuilder};
use cachemind_tracedb::store::TraceStore;
use cachemind_workloads::workload::Scale;

/// The scale selected through `CACHEMIND_SCALE` (default: `Small`).
pub fn scale_from_env() -> Scale {
    match std::env::var("CACHEMIND_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("full") => Scale::Full,
        _ => Scale::Small,
    }
}

/// Builds the evaluation database at the configured scale.
pub fn load_db() -> TraceDatabase {
    let scale = scale_from_env();
    eprintln!("[cachemind-bench] building trace database at {scale:?} scale ...");
    let db = TraceDatabaseBuilder::new().scale(scale).build();
    let total_rows: usize = db.entries().map(|e| e.frame.len()).sum();
    eprintln!("[cachemind-bench] database ready: {} traces, {} rows total", db.len(), total_rows);
    db
}

/// Builds the evaluation database and its CacheMindBench catalog, and
/// hands the database back as the shared store the figure builders ask
/// through.
pub fn load_suite() -> (Arc<dyn TraceStore>, Catalog) {
    let db = load_db();
    let catalog = Catalog::generate(&db);
    (Arc::new(db), catalog)
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{v:6.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_fixed_width() {
        assert_eq!(pct(7.5), "  7.50%");
    }

    #[test]
    fn scale_parsing_handles_variants() {
        // Avoid mutating the process environment (tests run in parallel):
        // exercise only the default path plus the match arms indirectly.
        let s = scale_from_env();
        assert!(matches!(s, Scale::Tiny | Scale::Small | Scale::Full));
    }
}
