//! Umbrella crate for the CacheMind reproduction workspace.
//!
//! This crate re-exports the public APIs of every sub-crate so that the
//! repository-level examples and integration tests can use a single
//! dependency. Library users should normally depend on the individual
//! crates (`cachemind-core`, `cachemind-sim`, ...) directly.
//!
//! # Example
//!
//! ```rust
//! use cachemind_suite::prelude::*;
//!
//! let db = TraceDatabaseBuilder::quick_demo().build();
//! assert!(!db.trace_keys().is_empty());
//! ```

pub use cachemind_benchsuite as benchsuite;
pub use cachemind_core as core;
pub use cachemind_lang as lang;
pub use cachemind_obs as obs;
pub use cachemind_policies as policies;
pub use cachemind_retrieval as retrieval;
pub use cachemind_serve as serve;
pub use cachemind_sim as sim;
pub use cachemind_tracedb as tracedb;
pub use cachemind_workloads as workloads;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use cachemind_core::prelude::*;
}
