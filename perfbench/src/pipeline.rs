//! The ask pipeline rebuilt from public calls, for the traced run.
//!
//! [`Rebuilt::ask`] performs the steps `CacheMind::ask_query` performs
//! with the answer cache off — intent parse, exploration routing, Ranger
//! plan compile / optimize / run, prompt render, generation — each inside
//! its own span. The traced run checks that its answers are byte-equal to
//! the served ones, so the spans time the same work the untraced run does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cachemind_core::system::Answer;
use cachemind_lang::context::{ContextQuality, Fact, RetrievedContext};
use cachemind_lang::generator::{
    Generator, GeneratorAnswer, GeneratorRequest, SimulatedBackend, Verdict,
};
use cachemind_lang::intent::{QueryCategory, QueryIntent, Tier};
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::PromptBuilder;
use cachemind_retrieval::plan::{Plan, PlanError};
use cachemind_retrieval::quality::grade;
use cachemind_retrieval::{optimize, RangerRetriever};
use cachemind_sim::config::CacheConfig;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::TraceEntry;
use cachemind_tracedb::shard::ShardedTraceDatabase;
use cachemind_tracedb::store::TraceStore;

use crate::measure::Tracer;

/// A [`TraceStore`] that counts and times every call into the store it
/// wraps. The trait's provided methods route through the counted ones,
/// exactly as they do for the wrapped sharded database.
#[derive(Debug)]
pub struct CountingStore {
    inner: ShardedTraceDatabase,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CountingStore {
    pub fn new(inner: ShardedTraceDatabase) -> Self {
        CountingStore { inner, calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }

    /// `(calls, ns)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.nanos.load(Ordering::Relaxed))
    }

    fn counted<'a, T>(&'a self, f: impl FnOnce(&'a ShardedTraceDatabase) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl TraceStore for CountingStore {
    fn get(&self, key: &str) -> Option<&TraceEntry> {
        self.counted(|s| s.get(key))
    }
    fn trace_keys(&self) -> Vec<String> {
        self.counted(|s| s.trace_keys())
    }
    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        self.counted(|s| s.entries())
    }
    fn workloads(&self) -> Vec<String> {
        self.counted(|s| s.workloads())
    }
    fn policies(&self) -> Vec<String> {
        self.counted(|s| s.policies())
    }
    fn llc_config(&self) -> Option<&CacheConfig> {
        self.counted(|s| s.llc_config())
    }
    fn len(&self) -> usize {
        self.counted(|s| s.len())
    }
    fn shard_count(&self) -> usize {
        self.counted(|s| s.shard_count())
    }
    fn shard_of(&self, key: &str) -> usize {
        self.counted(|s| s.shard_of(key))
    }
}

/// The rebuilt pipeline over a counting store.
#[derive(Debug)]
pub struct Rebuilt {
    pub store: CountingStore,
    ranger: RangerRetriever,
    backend: SimulatedBackend,
}

impl Rebuilt {
    /// The serve engine's settings: Ranger retrieval, the default GPT-4o
    /// backend, zero-shot prompts.
    pub fn new(store: ShardedTraceDatabase) -> Self {
        Rebuilt {
            store: CountingStore::new(store),
            ranger: RangerRetriever::new().with_metrics(&cachemind_obs::MetricsRegistry::new()),
            backend: SimulatedBackend::new(BackendKind::Gpt4o),
        }
    }

    /// Answers `question` within `selector`, recording a span per stage
    /// under `parent`.
    pub fn ask(
        &self,
        tracer: &Tracer,
        op: u64,
        parent: Option<u64>,
        question: &str,
        selector: &ScenarioSelector,
    ) -> Answer {
        let db: &dyn TraceStore = &self.store;
        let intent = tracer.time("lang.intent", op, parent, || {
            let workloads = db.workloads();
            let policies = db.policies();
            QueryIntent::parse_scoped(
                question,
                &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
                &policies.iter().map(String::as_str).collect::<Vec<_>>(),
                selector,
            )
        });
        if let Some(answer) = self.exploration(tracer, op, parent, question, &intent) {
            return answer;
        }
        let retrieve = tracer.open("retrieval.retrieve", op, parent);
        let context = self.retrieve(tracer, op, retrieve.id(), &intent);
        tracer.close(retrieve);
        let prompt = tracer
            .time("lang.prompt", op, parent, || PromptBuilder::new().render(question, &context));
        let GeneratorAnswer { text, verdict } = tracer.time("lang.generate", op, parent, || {
            self.backend.answer(&GeneratorRequest {
                question: question.to_owned(),
                intent: intent.clone(),
                context: context.clone(),
                examples: Vec::new(),
            })
        });
        Answer { text, verdict, context, prompt }
    }

    /// The chat tool's exploration commands, routed straight to a plan
    /// before retrieval (`CacheMind`'s exploration routing, which is on by
    /// default).
    fn exploration(
        &self,
        tracer: &Tracer,
        op: u64,
        parent: Option<u64>,
        question: &str,
        intent: &QueryIntent,
    ) -> Option<Answer> {
        let db: &dyn TraceStore = &self.store;
        let lower = question.to_lowercase();
        let workload = intent.workload.clone().or_else(|| db.workloads().first().cloned())?;
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
        let facts = tracer
            .time("retrieval.plan_run", op, parent, || {
                plan.run_scoped(db, &intent.selector.machine_scope())
            })
            .ok()?;
        let context = RetrievedContext {
            facts,
            quality: ContextQuality::High,
            retriever: "ranger".to_owned(),
        };
        Some(Answer {
            text: context.render(),
            verdict: Verdict::FreeForm { quality: 5 },
            context,
            prompt: plan.render_code(),
        })
    }

    /// Ranger retrieval: compile, optimize, run, and the premise check on
    /// an empty result.
    fn retrieve(
        &self,
        tracer: &Tracer,
        op: u64,
        parent: Option<u64>,
        intent: &QueryIntent,
    ) -> RetrievedContext {
        let db: &dyn TraceStore = &self.store;
        let Some(plan) =
            tracer.time("retrieval.compile", op, parent, || self.ranger.compile(db, intent))
        else {
            return RetrievedContext::empty("ranger");
        };
        let optimized = tracer
            .time("retrieval.optimize", op, parent, || optimize(plan.clone(), &intent.selector));
        let run = tracer.time("retrieval.plan_run", op, parent, || {
            optimized.run_scoped(db, &intent.selector.machine_scope())
        });
        let mut facts = match run {
            Ok(facts) => facts,
            Err(PlanError::EmptyResult) => premise_check(db, intent).into_iter().collect(),
            Err(PlanError::UnknownTrace(_)) => Vec::new(),
        };
        if intent.category == QueryCategory::CodeGen {
            facts.push(Fact::Snippet {
                title: "Generated retrieval code".to_owned(),
                text: plan.render_code(),
            });
        }
        let mut quality = grade(intent, &facts);
        if intent.category.tier() == Tier::Reasoning
            && intent.category != QueryCategory::CodeGen
            && quality == ContextQuality::High
        {
            quality = ContextQuality::Medium;
        }
        RetrievedContext { facts, quality, retriever: "ranger".to_owned() }
    }
}

/// Ranger's premise investigation on an empty plan result: where does
/// the asked-about PC actually occur within the query's machine scope?
fn premise_check(db: &dyn TraceStore, intent: &QueryIntent) -> Option<Fact> {
    let pc = intent.pc?;
    let homes: Vec<String> = db
        .select(&intent.selector.machine_scope())
        .filter(|e| e.frame.rows().iter().any(|r| r.pc == pc))
        .map(|e| e.id.workload.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let reason = if homes.is_empty() {
        format!("PC {pc} does not appear in any trace")
    } else if let Some(w) = &intent.workload {
        if homes.contains(w) {
            format!("PC {pc} exists in {w} but never with the queried address")
        } else {
            format!("PC {pc} appears only in {}", homes.join(", "))
        }
    } else {
        format!("PC {pc} appears only in {}", homes.join(", "))
    };
    Some(Fact::PremiseViolation { reason })
}
