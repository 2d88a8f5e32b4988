//! # cachemind-core
//!
//! **CacheMind** — a conversational, retrieval-augmented system for
//! trace-grounded reasoning about cache replacement (ASPLOS 2026).
//!
//! This crate ties the substrates together into the system the paper
//! describes:
//!
//! * [`system::CacheMind`] — the query-first pipeline: parse → retrieve
//!   (Sieve / Ranger / dense baseline) → generate → grounded answer.
//! * [`chat::ChatSession`] — the assistive chat layer with conversation
//!   memory, used for the multi-turn insight sessions of Figures 10–13.
//! * [`insights`] — the four actionable-insight use cases of §6.3: bypass
//!   signature optimisation, Mockingjay stable-PC retraining, software
//!   prefetch insertion, and set-hotness analysis, plus the Belady-vs-PARROT
//!   per-PC inversion study.
//! * [`cache::AnswerCache`] — the sharded whole-answer cache map, keyed by
//!   store fingerprint, selector and question, that the serve engine keeps
//!   in front of the pipeline.
//! * [`eval`] — CacheMindBench scoring through [`CacheMind::ask_query`]
//!   and the figure-level data builders, one per table/figure of the
//!   paper.
//!
//! # Quickstart
//!
//! ```rust
//! use cachemind_core::prelude::*;
//!
//! let db = TraceDatabaseBuilder::quick_demo().build();
//! let mind = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);
//! let answer =
//!     mind.ask_query(&Query::new("What is the overall miss rate of the mcf workload under LRU?"));
//! assert!(!answer.text.is_empty());
//! ```

pub mod cache;
pub mod chat;
pub mod eval;
pub mod insights;
pub mod system;

pub use cache::AnswerCache;
pub use chat::ChatSession;
pub use system::{Answer, CacheMind, Query, RetrieverKind};

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::cache::AnswerCache;
    pub use crate::chat::ChatSession;
    pub use crate::eval;
    pub use crate::insights;
    pub use crate::system::{Answer, CacheMind, Query, RetrieverKind};
    pub use cachemind_benchsuite::prelude::*;
    pub use cachemind_lang::prelude::*;
    pub use cachemind_retrieval::prelude::*;
    pub use cachemind_sim::prelude::*;
    pub use cachemind_tracedb::prelude::*;
    pub use cachemind_workloads::prelude::*;
}
