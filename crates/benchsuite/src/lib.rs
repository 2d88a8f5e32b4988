//! # cachemind-benchsuite
//!
//! **CacheMindBench** — the verified, trace-grounded benchmark suite of §4:
//! 100 questions in two tiers (75 trace-grounded with binary exact-match
//! scoring, 25 architectural-reasoning with 0–5 rubric scoring), across the
//! eleven categories of Table 1.
//!
//! Questions are *generated from the trace database itself*, so every item
//! has a single verifiable source of truth: the ground-truth answer is
//! computed over the full frames with the same statistics code the paper's
//! verification used, independent of any retriever.
//!
//! The [`report`] module aggregates scored answers into category, tier,
//! quality and rubric-histogram accuracy — the numbers behind Figures 4–8.
//! The suite defines the benchmark only: it depends on no retriever, and
//! the system under test (`cachemind-core`'s `eval::bench`) asks each
//! question through the same pipeline serve runs.
//!
//! # Example
//!
//! ```rust
//! use cachemind_benchsuite::prelude::*;
//! use cachemind_tracedb::TraceDatabaseBuilder;
//!
//! let db = TraceDatabaseBuilder::quick_demo().build();
//! let suite = Catalog::generate(&db);
//! assert_eq!(suite.questions().len(), 100);
//! ```

pub mod catalog;
pub mod question;
pub mod report;
pub mod scoring;

pub use catalog::Catalog;
pub use question::{Expected, Question};
pub use report::{BenchReport, QuestionResult};
pub use scoring::score;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::question::{Expected, Question};
    pub use crate::report::{BenchReport, QuestionResult};
    pub use crate::scoring::score;
}
