//! The CacheMind system: query-first, retrieval-augmented answering.
//!
//! [`CacheMind`] holds its trace store behind an `Arc<dyn TraceStore>`, so
//! one database — built in process or opened from a snapshot — can be
//! shared by any number of concurrent sessions (the serve layer's whole
//! premise). Answering is a pure function of the query and the store,
//! which is what lets the serve layer answer a round's queries on any
//! number of workers without changing a byte. [`CacheMind::ask_query`] is
//! the one way to ask.

use std::sync::Arc;

use cachemind_lang::context::RetrievedContext;
use cachemind_lang::generator::{Generator, GeneratorAnswer, GeneratorRequest, Verdict};
use cachemind_lang::intent::QueryIntent;
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::{Example, PromptBuilder};
use cachemind_lang::SimulatedBackend;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::TraceDatabase;
use cachemind_tracedb::store::TraceStore;

/// Which retriever the system routes queries through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrieverKind {
    /// CacheMind-Sieve: symbolic–semantic filtering.
    Sieve,
    /// CacheMind-Ranger: plan generation + execution runtime.
    Ranger,
    /// The dense-embedding baseline (for comparisons).
    Dense,
}

/// A typed query: the question text plus its scenario scope — the input
/// of [`CacheMind::ask_query`]. A bare string converts into an unscoped
/// query (`mind.ask_query(&"...".into())`).
///
/// The selector uses the canonical scenario grammar
/// `workload@machine+prefetcher/policy` (every component optional — see
/// [`ScenarioSelector`]): its workload/policy halves act as slot
/// *defaults* for intent parsing, while its machine/prefetcher halves are
/// a hard retrieval scope, resolved against qualified trace keys
/// (`<workload>_evictions_<policy>[@machine][+prefetcher]`). Inline
/// selector tokens in the question text (`mcf@table2`, `+stride4`) win
/// per-field over this selector.
///
/// ```rust
/// use cachemind_core::system::Query;
/// use cachemind_sim::scenario::ScenarioSelector;
///
/// let query = Query::scoped(
///     "What is the estimated IPC?",
///     ScenarioSelector::parse("astar@table2+stride4/lru").unwrap(),
/// );
/// assert_eq!(query.selector.prefetcher.as_deref(), Some("stride4"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// The natural-language question.
    pub text: String,
    /// The scenario scope: slot defaults for workload/policy, a hard
    /// machine/prefetcher scope for retrieval. Inline `@machine` syntax in
    /// `text` wins per-field over this selector.
    pub selector: ScenarioSelector,
}

impl Query {
    /// An unscoped query.
    pub fn new(text: impl Into<String>) -> Self {
        Query { text: text.into(), ..Query::default() }
    }

    /// A query scoped by a selector.
    pub fn scoped(text: impl Into<String>, selector: ScenarioSelector) -> Self {
        Query { text: text.into(), selector }
    }
}

impl From<&str> for Query {
    fn from(text: &str) -> Self {
        Query::new(text)
    }
}

impl From<String> for Query {
    fn from(text: String) -> Self {
        Query::new(text)
    }
}

/// A grounded answer: text, verdict and the evidence behind it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Natural-language answer.
    pub text: String,
    /// Machine-checkable verdict.
    pub verdict: Verdict,
    /// The retrieved context the answer is grounded in.
    pub context: RetrievedContext,
    /// The full prompt that was rendered for the generator.
    pub prompt: String,
}

/// The CacheMind system.
///
/// Owns a shared handle to the trace store, a retriever and a generator
/// backend; turning a natural-language question into a trace-grounded
/// answer is one [`CacheMind::ask_query`] call.
#[derive(Debug)]
pub struct CacheMind {
    db: Arc<dyn TraceStore>,
    /// The store's workload and policy names, read once: the store is
    /// immutable, so every ask borrows them.
    workloads: Vec<String>,
    policies: Vec<String>,
    retriever: Box<dyn Retriever + Send + Sync>,
    backend: SimulatedBackend,
    shots: Vec<Example>,
    metrics: cachemind_obs::MetricsRegistry,
}

impl CacheMind {
    /// Creates the system over a database with the paper's default
    /// configuration: Sieve retrieval, GPT-4o backend, zero-shot.
    pub fn new(db: TraceDatabase) -> Self {
        CacheMind::shared(Arc::new(db))
    }

    /// Creates the system over an already-shared trace store (the serve
    /// layer hands every session the same `Arc` of one database).
    pub fn shared(db: Arc<dyn TraceStore>) -> Self {
        CacheMind {
            workloads: db.workloads(),
            policies: db.policies(),
            db,
            retriever: Box::new(SieveRetriever::new()),
            backend: SimulatedBackend::new(BackendKind::Gpt4o),
            shots: Vec::new(),
            metrics: cachemind_obs::global().clone(),
        }
    }

    /// Selects one of the stock retrievers. A Ranger records its plan
    /// spans into the registry set by [`CacheMind::with_metrics`], so call
    /// that first; the dense baseline builds its index here.
    pub fn with_retriever(self, kind: RetrieverKind) -> Self {
        let retriever: Box<dyn Retriever + Send + Sync> = match kind {
            RetrieverKind::Sieve => Box::new(SieveRetriever::new()),
            RetrieverKind::Ranger => Box::new(RangerRetriever::new().with_metrics(&self.metrics)),
            RetrieverKind::Dense => Box::new(DenseIndexRetriever::build(&*self.db, 4)),
        };
        CacheMind { retriever, ..self }
    }

    /// Routes retrieval through any [`Retriever`] — an ablated Sieve or
    /// Ranger, or a decorator such as
    /// [`Degraded`](cachemind_retrieval::quality::Degraded). The retriever
    /// keeps whatever telemetry sink it was built with.
    pub fn with_custom_retriever(self, retriever: impl Retriever + Send + Sync + 'static) -> Self {
        CacheMind { retriever: Box::new(retriever), ..self }
    }

    /// Selects the generator backend.
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = SimulatedBackend::new(kind);
        self
    }

    /// Enables k-shot prompting with the given examples.
    pub fn with_examples(mut self, examples: Vec<Example>) -> Self {
        self.shots = examples;
        self
    }

    /// Redirects the telemetry of parts built *after* this call — a
    /// Ranger's plan compile/run spans ([`CacheMind::with_retriever`]) —
    /// to `metrics` instead of the process-global registry. The serve
    /// layer passes each engine's own registry down here.
    pub fn with_metrics(mut self, metrics: &cachemind_obs::MetricsRegistry) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// The underlying trace store.
    pub fn database(&self) -> &dyn TraceStore {
        &*self.db
    }

    /// A second handle to the underlying trace store.
    pub fn store(&self) -> Arc<dyn TraceStore> {
        Arc::clone(&self.db)
    }

    /// Parses a question against the database vocabulary within a
    /// scenario scope (a session-pinned or wire-level selector); `lower`
    /// is the question lowercased, shared with exploration routing.
    fn parse_lowered(&self, question: &str, lower: &str, scope: &ScenarioSelector) -> QueryIntent {
        QueryIntent::parse_lowered(question, lower, &self.workloads, &self.policies, scope)
    }

    /// The generator backend answering this system's questions.
    pub(crate) fn backend(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The name of the retriever grounding this system's answers.
    pub(crate) fn retriever_name(&self) -> &'static str {
        self.retriever.name()
    }

    /// Routes *exploration commands* — the Figure 10–13 chat vocabulary
    /// that goes beyond the eleven benchmark categories — straight to the
    /// Ranger plan runtime: "list all unique PCs", "list unique cache
    /// sets", "group PCs by reuse/ETR variance", "identify hot and cold
    /// sets". Takes the lowercased question, and the parsed intent so a
    /// query's scenario scope rides into the exploration plans too.
    /// Returns `None` when the question is not an exploration command.
    fn try_exploration(&self, lower: &str, intent: &QueryIntent) -> Option<Answer> {
        use cachemind_retrieval::plan::Plan;
        let workload = intent.workload.clone().or_else(|| self.workloads.first().cloned())?;
        let policy = intent.policy.clone().unwrap_or_else(|| "lru".to_owned());

        let plan = if lower.contains("unique pc") || lower.contains("all pcs") {
            Plan::UniquePcs { workload, policy }
        } else if lower.contains("unique cache sets") || lower.contains("unique sets") {
            Plan::UniqueSets { workload, policy }
        } else if (lower.contains("group") || lower.contains("cluster"))
            && lower.contains("variance")
        {
            Plan::GroupPcsByReuseVariance { workload, policy }
        } else if lower.contains("hot") && lower.contains("cold") && lower.contains("set") {
            Plan::HotColdSets { workload, policy }
        } else if lower.contains("per-pc") || lower.contains("per pc table") {
            Plan::PerPcTable { workload, policy, limit: 20 }
        } else {
            return None;
        };

        let facts = plan.run_scoped(&*self.db, &intent.selector.machine_scope()).ok()?;
        let context = RetrievedContext {
            facts,
            quality: cachemind_lang::context::ContextQuality::High,
            retriever: "ranger".to_owned(),
        };
        let text = context.render();
        Some(Answer {
            text,
            verdict: Verdict::FreeForm { quality: 5 },
            context,
            prompt: plan.render_code(),
        })
    }

    /// Answers a typed query — the one ask entry point: the query's
    /// selector scopes parsing (slot defaults) and retrieval (machine /
    /// prefetcher scope), inline `@machine` syntax in the text wins
    /// per-field, and exploration commands route to the plan runtime.
    /// Every call runs the whole parse → explore-or-retrieve → generate
    /// pipeline; the serve engine keeps the answer cache in front of it.
    pub fn ask_query(&self, query: &Query) -> Answer {
        let question = query.text.as_str();
        let lower = question.to_lowercase();
        let intent = self.parse_lowered(question, &lower, &query.selector);
        if let Some(answer) = self.try_exploration(&lower, &intent) {
            return answer;
        }
        let context = self.retriever.retrieve(&*self.db, &intent);
        let mut builder = PromptBuilder::new();
        for ex in &self.shots {
            builder = builder.example(ex.clone());
        }
        let prompt = builder.render(question, &context);
        let request = GeneratorRequest {
            question: question.to_owned(),
            intent,
            context,
            examples: self.shots.clone(),
        };
        let GeneratorAnswer { text, verdict } = self.backend.answer(&request);
        let GeneratorRequest { context, .. } = request;
        Answer { text, verdict, context, prompt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn mind() -> CacheMind {
        CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
    }

    #[test]
    fn ask_produces_grounded_answer() {
        let m = mind().with_retriever(RetrieverKind::Ranger);
        let a = m.ask_query(&"What is the overall miss rate of the lbm workload under LRU?".into());
        assert!(matches!(a.verdict, Verdict::Number(_)), "verdict {:?}", a.verdict);
        assert!(!a.context.facts.is_empty());
        assert!(a.prompt.contains("SYSTEM:"));
    }

    #[test]
    fn retriever_switch_changes_evidence() {
        let m = mind();
        let db = m.database();
        let pc = db.get("astar_evictions_lru").unwrap().frame.rows()[0].pc;
        let q = format!("How many times did PC {pc} appear in astar under LRU?");
        let sieve_ctx = m.ask_query(&q.as_str().into()).context;
        let ranger_ctx = CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
            .with_retriever(RetrieverKind::Ranger)
            .ask_query(&q.into())
            .context;
        // Sieve's count is truncated, Ranger's is complete.
        use cachemind_lang::context::Fact;
        let complete = |ctx: &RetrievedContext| {
            ctx.facts.iter().any(|f| matches!(f, Fact::CountValue { complete: true, .. }))
        };
        assert!(!complete(&sieve_ctx) || complete(&ranger_ctx));
        assert!(complete(&ranger_ctx));
    }

    #[test]
    fn exploration_commands_route_to_plans() {
        let m = mind();
        let a = m.ask_query(&"List all unique PCs in the mcf trace under LRU.".into());
        assert!(a.text.contains("0x"), "expected PC list, got {}", a.text);
        assert!(a.prompt.contains("program_counter.unique"), "prompt shows generated code");

        let a = m.ask_query(
            &"Group PCs by reuse-distance variance for the lbm workload under LRU.".into(),
        );
        assert!(a.text.contains("LowVar"), "got {}", a.text);

        let a = m
            .ask_query(&"Identify 5 hot and 5 cold sets by hit rate in astar under Belady.".into());
        assert!(a.text.contains("Hot Sets"), "got {}", a.text);

        // Non-exploration questions still take the RAG path.
        let rag = m.ask_query(&"What is the miss rate of mcf under LRU?".into());
        assert!(rag.prompt.contains("SYSTEM:"), "got {}", rag.prompt);
    }

    #[test]
    fn k_shot_examples_enter_the_prompt() {
        use cachemind_lang::prompt::Example;
        let m = mind().with_examples(vec![Example::figure6()]);
        let a = m.ask_query(&"Does PC 0x999999 hit on lbm under LRU?".into());
        assert!(a.prompt.contains("EXAMPLE 1:"), "prompt must carry the example");
    }

    #[test]
    fn dense_baseline_is_available() {
        let m = mind().with_retriever(RetrieverKind::Dense);
        let a = m.ask_query(&"Does PC 0x401380 hit on mcf under LRU?".into());
        // The baseline may answer anything, but it must not panic and must
        // label its retriever.
        assert_eq!(a.context.retriever, "dense");
    }

    #[test]
    fn sharded_store_answers_like_the_monolith() {
        let sharded =
            TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("valid names");
        let shared = CacheMind::shared(Arc::new(sharded));
        let flat = mind();
        for q in [
            "What is the overall miss rate of the lbm workload under LRU?",
            "Which policy has the lowest miss rate in astar?",
            "Why does Belady outperform LRU in mcf?",
        ] {
            let a = shared.ask_query(&q.into());
            let b = flat.ask_query(&q.into());
            assert_eq!(a.text, b.text, "{q}");
            assert_eq!(a.prompt, b.prompt, "{q}");
        }
    }

    #[test]
    fn scoped_queries_answer_from_the_selected_machine() {
        use cachemind_sim::config::MachineConfig;

        let db = TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf", "lbm"])
            .policies(["lru", "belady"])
            .machine(MachineConfig::preset("table2").expect("preset"))
            .machine(MachineConfig::preset("small").expect("preset"))
            .build();
        let m = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);
        let q = "What is the estimated IPC for mcf under LRU?";

        let mut cited = Vec::new();
        for machine in ["table2", "small"] {
            let query = Query::scoped(q, ScenarioSelector::all().with_machine(machine));
            let answer = m.ask_query(&query);
            let fact = answer.context.facts.first().expect("IPC fact").render();
            assert!(
                fact.contains(&format!("{machine}@")),
                "{machine}: answer must cite its machine, got {fact}"
            );
            cited.push(fact);
        }
        assert_ne!(cited[0], cited[1], "different machines, different cited facts");

        // The unscoped query still answers from the primary machine.
        let primary = m.ask_query(&Query::new(q));
        let fact = primary.context.facts.first().expect("IPC fact").render();
        let label = m.database().get("mcf_evictions_lru").unwrap().machine.clone();
        assert!(fact.contains(&label), "unscoped answers stay primary: {fact}");
    }
}
