//! CacheMind-Ranger: Retrieval via Agentic Neural Generation and Execution
//! Runtime (§3.3).
//!
//! The planner half simulates the code-writing retrieval LLM: given the
//! parsed query and the database schema card, it emits a [`Plan`] ("the
//! generated code"). The runtime half executes the plan over the full
//! database. Because plans iterate whole frames, counts and aggregates are
//! *complete* — the mechanistic reason Ranger repairs the Count and
//! Arithmetic categories that cripple Sieve (Fig. 8).
//!
//! When a plan's filters match nothing, the runtime performs the premise
//! investigation the paper highlights for trick questions: it searches the
//! other traces for the PC and reports where it actually lives.

use cachemind_lang::context::{ContextQuality, Fact, RetrievedContext};
use cachemind_lang::intent::{QueryCategory, QueryIntent, Tier};
use cachemind_lang::token::contains_ignore_ascii_case;
use cachemind_obs::{names, HistogramHandle, MetricsRegistry};
use cachemind_tracedb::schema;
use cachemind_tracedb::store::TraceStore;

use crate::plan::{AggColumn, AggFunc, Plan, PlanError};
use crate::quality::grade;
use crate::retriever::{absent_pc, Retriever};

/// The Ranger retriever.
#[derive(Debug, Clone)]
pub struct RangerRetriever {
    /// Whether the planner sees the schema card. Without it, plans bind to
    /// wrong column names and retrieval degrades — the "context can
    /// suppress latent knowledge" ablation.
    with_schema: bool,
    /// The `retrieval.plan_compile` and `retrieval.plan_run` span
    /// histograms, registered once — in the process-global registry unless
    /// an owner (e.g. a serve engine) redirects them — so an ask takes no
    /// registry lock.
    compile_span: HistogramHandle,
    run_span: HistogramHandle,
}

impl Default for RangerRetriever {
    fn default() -> Self {
        RangerRetriever::new()
    }
}

impl RangerRetriever {
    /// Creates the retriever with the schema card enabled.
    pub fn new() -> Self {
        RangerRetriever::recording_into(true, cachemind_obs::global())
    }

    /// A retriever whose plan spans record into `metrics`.
    fn recording_into(with_schema: bool, metrics: &MetricsRegistry) -> Self {
        RangerRetriever {
            with_schema,
            compile_span: metrics.histogram(names::RETRIEVAL_PLAN_COMPILE),
            run_span: metrics.histogram(names::RETRIEVAL_PLAN_RUN),
        }
    }

    /// Removes the schema card from the planner's prompt (ablation).
    pub fn without_schema(mut self) -> Self {
        self.with_schema = false;
        self
    }

    /// Redirects plan-stage telemetry to `metrics` instead of the
    /// process-global registry.
    pub fn with_metrics(self, metrics: &MetricsRegistry) -> Self {
        RangerRetriever::recording_into(self.with_schema, metrics)
    }

    /// The system prompt handed to the code-writing model (Figure 3).
    pub fn system_prompt(db: &dyn TraceStore) -> String {
        let workloads = db.workloads();
        let policies = db.policies();
        let mut out = String::from(
            "SYSTEM PROMPT\nYou are a Python code-writing assistant for analyzing cache \
             memory trace data. Your task is to generate Python code that extracts \
             string-formatted answers from a dictionary named loaded_data.\n\n",
        );
        out.push_str(&schema::schema_card(
            &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
            &policies.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
        out.push_str(
            "\nTask Instructions\n\
             - First check matching workload/policy; then check PC/address; finally fall \
             back to metadata.\n\
             - Return a single result string with hit/miss, reuse/recency, relevant \
             metadata summary, and assembly context.\n\
             - If nothing is found, return a clear message.\n\n\
             Output Rules\n\
             - Must set result = \"...\" (a Python string).\n\
             - No markdown, explanations, print, or comments.\n",
        );
        out
    }

    /// The planner: compiles an intent into a plan. `None` when the query
    /// gives the planner nothing to bind to.
    pub fn compile(&self, db: &dyn TraceStore, intent: &QueryIntent) -> Option<Plan> {
        let workload = intent.workload.clone();
        let says = |word: &str| contains_ignore_ascii_case(&intent.raw, word);
        let fallback_policy = || intent.policy.clone().unwrap_or_else(|| "lru".to_owned());
        match intent.category {
            QueryCategory::HitMiss => Some(Plan::Lookup {
                workload: workload?,
                policy: fallback_policy(),
                pc: intent.pc,
                address: intent.address,
            }),
            QueryCategory::MissRate => {
                if says("ipc") {
                    return Some(Plan::WorkloadIpc {
                        workload: workload?,
                        policy: fallback_policy(),
                    });
                }
                match intent.pc {
                    Some(pc) => Some(Plan::PcMissRate {
                        workload: workload?,
                        policy: fallback_policy(),
                        pc,
                    }),
                    None => Some(Plan::WorkloadMissRate {
                        workload: workload?,
                        policy: fallback_policy(),
                    }),
                }
            }
            QueryCategory::PolicyComparison => {
                if says("ipc") {
                    return Some(Plan::CompareIpcAcrossPolicies { workload: workload? });
                }
                Some(Plan::CompareAcrossPolicies { workload: workload?, pc: intent.pc })
            }
            QueryCategory::WorkloadAnalysis => {
                if says("ipc") {
                    return Some(Plan::CompareIpcAcrossWorkloads { policy: fallback_policy() });
                }
                Some(Plan::CompareAcrossWorkloads { policy: fallback_policy() })
            }
            QueryCategory::Count => Some(Plan::CountRows {
                workload: workload?,
                policy: fallback_policy(),
                pc: intent.pc,
                address: intent.address,
                misses_only: says("miss"),
            }),
            QueryCategory::Arithmetic => {
                // Column/function selection needs the schema card; without
                // it the planner guesses the accessed-reuse column.
                let column = if !self.with_schema {
                    AggColumn::AccessedReuse
                } else if says("evicted") {
                    AggColumn::EvictedReuse
                } else if says("recency") {
                    AggColumn::Recency
                } else {
                    AggColumn::AccessedReuse
                };
                let func = if says("standard deviation") || says("std") {
                    AggFunc::Std
                } else if says("sum") || says("total") {
                    AggFunc::Sum
                } else if says("max") || says("largest") {
                    AggFunc::Max
                } else if says("min") || says("smallest") {
                    AggFunc::Min
                } else {
                    AggFunc::Mean
                };
                Some(Plan::Aggregate {
                    workload: workload?,
                    policy: fallback_policy(),
                    pc: intent.pc,
                    column,
                    func,
                })
            }
            // Reasoning tier: pull the data tables the analysis needs.
            _ => Some(Plan::ContextBundle {
                workload: workload.or_else(|| db.workloads().first().cloned())?,
                policy: fallback_policy(),
                pc: intent.pc,
            }),
        }
    }
}

impl Retriever for RangerRetriever {
    fn name(&self) -> &'static str {
        "ranger"
    }

    fn retrieve(&self, db: &dyn TraceStore, intent: &QueryIntent) -> RetrievedContext {
        let compile_span = self.compile_span.start_span();
        let compiled = self.compile(db, intent);
        compile_span.finish();
        let Some(plan) = compiled else {
            return RetrievedContext::empty("ranger");
        };
        // The plan that runs is the plan rendered for code-generation
        // answers below.
        let run_span = self.run_span.start_span();
        let run_result = plan.run_scoped(db, &intent.selector);
        run_span.finish();
        let mut facts = match run_result {
            Ok(facts) => facts,
            // The premise investigation: where the asked PC actually lives.
            Err(PlanError::EmptyResult) => intent
                .pc
                .map(|pc| absent_pc(db, intent, pc, intent.workload.as_deref()))
                .into_iter()
                .collect(),
            Err(PlanError::UnknownTrace(_)) => Vec::new(),
        };
        // Code-generation questions get the generated program itself.
        if intent.category == QueryCategory::CodeGen {
            facts.push(Fact::Snippet {
                title: "Generated retrieval code".to_owned(),
                text: plan.render_code(),
            });
        }
        let mut quality = grade(intent, &facts);
        // Ranger's reasoning bundles are data-dense but *narrow*: no policy
        // descriptions or assembly context. The paper observes exactly this
        // (Sieve 84.8% vs Ranger 64.8% on the reasoning tier).
        if intent.category.tier() == Tier::Reasoning
            && intent.category != QueryCategory::CodeGen
            && quality == ContextQuality::High
        {
            quality = ContextQuality::Medium;
        }
        RetrievedContext { facts, quality, retriever: "ranger".to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};

    fn db() -> TraceDatabase {
        TraceDatabaseBuilder::quick_demo().build()
    }

    fn intent(db: &TraceDatabase, q: &str) -> QueryIntent {
        let workloads = db.workloads();
        let policies = db.policies();
        QueryIntent::parse(
            q,
            &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
            &policies.iter().map(String::as_str).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn count_is_complete_under_ranger() {
        let db = db();
        let entry = db.get("astar_evictions_lru").unwrap();
        let pc = entry.frame.rows()[0].pc;
        let truth = entry.frame.rows().iter().filter(|r| r.pc == pc).count() as u64;
        let q = format!("How many times did PC {pc} appear in astar under LRU?");
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, &q));
        let Some(Fact::CountValue { value, complete, .. }) = ctx.facts.first() else {
            panic!("expected count fact: {:?}", ctx.facts);
        };
        assert!(*complete);
        assert_eq!(*value, truth);
        assert_eq!(ctx.quality, ContextQuality::High);
    }

    #[test]
    fn arithmetic_selects_evicted_column() {
        let db = db();
        let q = "What is the average evicted reuse distance for the lbm workload with LRU?";
        let plan = RangerRetriever::new().compile(&db, &intent(&db, q)).unwrap();
        assert!(matches!(
            plan,
            Plan::Aggregate { column: AggColumn::EvictedReuse, func: AggFunc::Mean, .. }
        ));
    }

    #[test]
    fn schema_ablation_breaks_column_binding() {
        let db = db();
        let q = "What is the average evicted reuse distance for the lbm workload with LRU?";
        let plan = RangerRetriever::new().without_schema().compile(&db, &intent(&db, q)).unwrap();
        assert!(matches!(plan, Plan::Aggregate { column: AggColumn::AccessedReuse, .. }));
    }

    #[test]
    fn ipc_questions_compile_to_ipc_plans() {
        let db = db();
        let q = "What is the estimated IPC for mcf under LRU?";
        let plan = RangerRetriever::new().compile(&db, &intent(&db, q)).unwrap();
        assert!(matches!(plan, Plan::WorkloadIpc { .. }), "got {plan:?}");
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, q));
        let Some(Fact::NumericValue { value, what, .. }) = ctx.facts.first() else {
            panic!("expected an IPC fact: {:?}", ctx.facts);
        };
        assert!(what.contains("machine"), "answer must cite the machine: {what}");
        assert!((value - db.get("mcf_evictions_lru").unwrap().ipc).abs() < 1e-6);

        let q = "Which policy gives the highest IPC on mcf?";
        let plan = RangerRetriever::new().compile(&db, &intent(&db, q)).unwrap();
        assert!(matches!(plan, Plan::CompareIpcAcrossPolicies { .. }), "got {plan:?}");

        // Workload rankings by IPC must rank by IPC, not by miss rate.
        let q = "Which workload has the highest IPC under LRU?";
        let plan = RangerRetriever::new().compile(&db, &intent(&db, q)).unwrap();
        assert!(matches!(plan, Plan::CompareIpcAcrossWorkloads { .. }), "got {plan:?}");
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, q));
        for fact in &ctx.facts {
            let Fact::PolicyValue { policy: w, value, metric } = fact else {
                panic!("expected per-workload facts: {:?}", ctx.facts)
            };
            assert!(metric.contains("IPC"), "{metric}");
            let entry = db.get(&format!("{w}_evictions_lru")).unwrap();
            assert!((value - entry.ipc).abs() < 1e-6, "{w}: {value} vs {}", entry.ipc);
        }
    }

    #[test]
    fn selector_scope_picks_the_machine_a_plan_answers_from() {
        use cachemind_sim::config::MachineConfig;
        use cachemind_sim::scenario::ScenarioSelector;
        use cachemind_tracedb::database::TraceId;
        use cachemind_tracedb::store::TraceStore;

        let db = TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf"])
            .policies(["lru"])
            .machine(MachineConfig::preset("table2").expect("preset"))
            .machine(MachineConfig::preset("small").expect("preset"))
            .build();
        let plan = Plan::WorkloadIpc { workload: "mcf".into(), policy: "lru".into() };

        // Unscoped: the primary machine answers, exactly as before.
        let unscoped = plan.run_scoped(&db, &ScenarioSelector::all()).expect("primary runs");
        let primary = db.get("mcf_evictions_lru").unwrap();
        let Fact::NumericValue { value, what, .. } = &unscoped[0] else { panic!("IPC fact") };
        assert!((value - primary.ipc).abs() < 1e-6);
        assert!(what.contains(&primary.machine), "{what}");

        // Scoped: each machine cites its own label and IPC.
        for name in ["table2", "small"] {
            let scope = ScenarioSelector::all().with_machine(name);
            let entry =
                db.get_scoped_resolved(&TraceId::new("mcf", "lru"), &scope).expect("scoped entry");
            let facts = plan.run_scoped(&db, &scope).expect("scoped run");
            let Fact::NumericValue { value, what, .. } = &facts[0] else { panic!("IPC fact") };
            assert!((value - entry.ipc).abs() < 1e-6, "{name}: {value} vs {}", entry.ipc);
            assert!(what.contains(&entry.machine), "{name}: {what}");
            assert!(entry.machine.starts_with(&format!("{name}@")));
        }

        // End-to-end through the retriever: the inline @machine syntax
        // scopes retrieval without any new plumbing at the call site.
        let q = "What is the estimated IPC for mcf@small under LRU?";
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, q));
        let Some(Fact::NumericValue { value, what, .. }) = ctx.facts.first() else {
            panic!("expected an IPC fact: {:?}", ctx.facts);
        };
        let small = db
            .get_scoped_resolved(
                &TraceId::new("mcf", "lru"),
                &ScenarioSelector::all().with_machine("small"),
            )
            .unwrap();
        assert!((value - small.ipc).abs() < 1e-6);
        assert!(what.contains(&small.machine), "{what}");
    }

    #[test]
    fn empty_result_triggers_premise_investigation() {
        let db = db();
        let mcf_pc = db.get("mcf_evictions_lru").unwrap().frame.rows()[0].pc;
        let q = format!("Does PC {mcf_pc} hit in the cache on lbm under LRU?");
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, &q));
        let reason = ctx.premise_violation().expect("violation detected");
        assert!(reason.contains("mcf"), "reason: {reason}");
    }

    #[test]
    fn reasoning_bundles_are_graded_medium() {
        let db = db();
        let pc = db.get("astar_evictions_lru").unwrap().frame.rows()[0].pc;
        let q = format!("Why does Belady outperform LRU on PC {pc} in astar?");
        let ctx = RangerRetriever::new().retrieve(&db, &intent(&db, &q));
        assert_eq!(ctx.quality, ContextQuality::Medium);
    }

    #[test]
    fn system_prompt_matches_figure3() {
        let db = db();
        let prompt = RangerRetriever::system_prompt(&db);
        assert!(prompt.contains("Python code-writing assistant"));
        assert!(prompt.contains("loaded_data"));
        assert!(prompt.contains("program_counter"));
        assert!(prompt.contains("result = \"...\""));
    }
}
