//! # cachemind-tracedb
//!
//! The external trace database CacheMind retrieves from (§4.3 of the paper).
//!
//! The store maps trace identifiers of the form
//! `<workload>_evictions_<policy>` (e.g. `lbm_evictions_lru`) to an entry
//! with three fields, exactly as the paper describes:
//!
//! * a **frame** ([`TraceFrame`]) of per-access records following the
//!   paper's 19-column schema (PC, address, set, hit/miss, miss type,
//!   evicted line, reuse distances, recency, function/assembly context;
//!   the set-snapshot columns are derived by replay, not stored),
//! * a **metadata** string summarising whole-trace statistics in the
//!   paper's "Cache Performance Summary" format, and
//! * a **description** of the workload and policy.
//!
//! A frame answers the Sieve retriever's two reads itself: the rows a
//! question names by PC and/or address ([`TraceFrame::rows_for`]), and the
//! [`stats`] of the "cache statistical expert", summarised per PC and per
//! set on first use ([`TraceFrame::pc_summary`],
//! [`TraceFrame::set_summaries`]).
//!
//! # Example
//!
//! ```rust
//! use cachemind_tracedb::prelude::*;
//!
//! let db = TraceDatabaseBuilder::quick_demo().build();
//! let entry = db.get("mcf_evictions_lru").expect("built trace");
//! assert!(entry.metadata.contains("Cache Performance Summary"));
//! let pc = entry.frame.rows()[0].pc;
//! let misses = entry.frame.rows_for(Some(pc), None).filter(|r| r.is_miss).count();
//! assert_eq!(misses as u64, entry.frame.pc_summary(pc).unwrap().stats.misses);
//! ```

pub mod database;
pub mod frame;
pub mod meta;
pub mod schema;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use cachemind_sim::replay::EvictionRecord;
pub use database::{BuildError, TraceDatabase, TraceDatabaseBuilder, TraceEntry, TraceId};
pub use frame::TraceFrame;
pub use snapshot::{SnapshotError, VerifiedSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stats::{ColumnStats, PcStats, PcSummary, SetStats};
pub use store::{shard_index, TraceStore};

// The scenario-scope type of the selector-filtered query surface
// ([`TraceStore::select`], [`TraceStore::get_scoped_resolved`]), re-exported so
// store users need not depend on `cachemind-sim` directly.
pub use cachemind_sim::scenario::{ScenarioSelector, SelectorParseError};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::database::{
        BuildError, TraceDatabase, TraceDatabaseBuilder, TraceEntry, TraceId,
    };
    pub use crate::frame::TraceFrame;
    pub use crate::snapshot::SnapshotError;
    pub use crate::stats::{ColumnStats, PcStats, PcSummary, SetStats};
    pub use crate::store::TraceStore;
    pub use crate::{EvictionRecord, ScenarioSelector, SelectorParseError};
}
