//! # cachemind-lang
//!
//! The language-model substrate of the CacheMind reproduction.
//!
//! The paper drives CacheMind with OpenAI models (GPT-3.5-Turbo, o3, GPT-4o,
//! GPT-4o-mini and a fine-tuned 4o-mini). No model API is available in this
//! reproduction environment, so this crate substitutes for them:
//!
//! * a deterministic NL toolkit — [`token`] (tokenizer), [`embed`] (hashed
//!   sentence embeddings), [`vector`] (a cosine-similarity store) — which
//!   the retrievers build on *mechanistically* (no noise involved);
//! * a structured [`intent`] model: the query parser that maps
//!   natural-language questions to the eleven CacheMindBench categories and
//!   their slots (PC, address, workload, policy);
//! * [`context`]: the typed fact bundle retrieval hands to the generator;
//! * [`generator`]: a *grounded reasoner* that computes answers only from
//!   the retrieved facts, wrapped in per-backend [`profiles`] — seeded
//!   stochastic capability models calibrated to the paper's Figure 4. It
//!   renders the evidence into the answer text only for free-form
//!   analyses, the one verdict that prints it; [`prompt`] renders the
//!   full generator prompt, which the system builds only for callers
//!   that read it (`CacheMind::ask_query` in `cachemind-core`); and
//! * [`memory`]: the conversation-memory layer (a capped exchange log +
//!   vector recall) that turns the generator into a chat assistant.
//!
//! # Example
//!
//! ```rust
//! use cachemind_lang::prelude::*;
//!
//! let q = "What is the miss rate for PC 0x4037ba on the mcf workload with PARROT?";
//! let intent = QueryIntent::parse(q, &["astar", "lbm", "mcf"], &["belady", "lru", "mlp", "parrot"]);
//! assert_eq!(intent.category, QueryCategory::MissRate);
//! assert_eq!(intent.workload.as_deref(), Some("mcf"));
//! assert_eq!(intent.policy.as_deref(), Some("parrot"));
//! ```

pub mod context;
pub mod embed;
pub mod generator;
pub mod intent;
pub mod memory;
pub mod profiles;
pub mod prompt;
pub mod token;
pub mod vector;

pub use context::{ContextQuality, Fact, RetrievedContext};
pub use embed::HashedEmbedder;
pub use generator::{Generator, GeneratorAnswer, GeneratorRequest, SimulatedBackend, Verdict};
pub use intent::{QueryCategory, QueryIntent, Tier};
pub use memory::ConversationMemory;
pub use profiles::BackendKind;
pub use prompt::{Example, PromptBuilder};
pub use vector::VectorStore;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::context::{ContextQuality, Fact, RetrievedContext};
    pub use crate::embed::HashedEmbedder;
    pub use crate::generator::{
        Generator, GeneratorAnswer, GeneratorRequest, SimulatedBackend, Verdict,
    };
    pub use crate::intent::{QueryCategory, QueryIntent, Tier};
    pub use crate::memory::ConversationMemory;
    pub use crate::profiles::BackendKind;
    pub use crate::prompt::{Example, PromptBuilder};
    pub use crate::vector::VectorStore;
}
