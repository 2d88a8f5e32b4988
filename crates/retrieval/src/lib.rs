//! # cachemind-retrieval
//!
//! CacheMind's retrievers (§3 of the paper):
//!
//! * [`SieveRetriever`] — *Symbolic-Indexed Entries for Verifiable
//!   Extraction*: trace-level filtering (workload/policy matching), PC and
//!   address symbolic filters, the cache statistical expert, and context
//!   assembly. Template-driven: precise for anticipated query shapes, blind
//!   to the rest (its slice cap is why Count collapses in Figure 4/8).
//! * [`RangerRetriever`] — *Retrieval via Agentic Neural Generation and
//!   Execution Runtime*: a simulated code-writing model compiles the query
//!   into an executable [`plan::Plan`] (the paper's generated Python,
//!   replaced by a sandboxed DSL) and a runtime executes it against the
//!   full database, so counts and aggregates are complete.
//! * [`DenseIndexRetriever`] — the LlamaIndex-style baseline: chunked
//!   trace text under hashed embeddings with cosine top-k, which confuses
//!   near-identical numeric rows exactly as §6.2 describes.
//!
//! All three implement [`Retriever`] and emit the same
//! [`cachemind_lang::context::RetrievedContext`], so the generator can be
//! held fixed while the retriever is toggled — the paper's central
//! ablation.
//!
//! # Example
//!
//! ```rust
//! use cachemind_retrieval::prelude::*;
//! use cachemind_tracedb::TraceDatabaseBuilder;
//! use cachemind_lang::intent::QueryIntent;
//!
//! let db = TraceDatabaseBuilder::quick_demo().build();
//! let sieve = SieveRetriever::new();
//! let q = "What is the miss rate for the mcf workload under LRU?";
//! let intent = QueryIntent::parse(q, &["astar", "lbm", "mcf"], &["belady", "lru", "mlp", "parrot"]);
//! let ctx = sieve.retrieve(&db, &intent);
//! assert!(!ctx.facts.is_empty());
//! ```

pub mod dense;
pub mod optimize;
pub mod plan;
pub mod probes;
pub mod quality;
pub mod ranger;
pub mod retriever;
pub mod sieve;

pub use dense::DenseIndexRetriever;
pub use optimize::optimize;
pub use plan::{AggColumn, AggFunc, Plan, RankAxis, RankMetric};
pub use probes::{probe_queries, ProbeReport};
pub use quality::Degraded;
pub use ranger::RangerRetriever;
pub use retriever::Retriever;
pub use sieve::SieveRetriever;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::dense::DenseIndexRetriever;
    pub use crate::optimize::optimize;
    pub use crate::plan::{AggColumn, AggFunc, Plan, RankAxis, RankMetric};
    pub use crate::probes::{probe_queries, ProbeReport};
    pub use crate::quality::Degraded;
    pub use crate::ranger::RangerRetriever;
    pub use crate::retriever::Retriever;
    pub use crate::sieve::SieveRetriever;
}
