//! CacheMind-Sieve: Symbolic-Indexed Entries for Verifiable Extraction
//! (§3.2).
//!
//! The four-stage pipeline of Figure 1:
//!
//! 1. **Trace-level filtering** — the workload and policy the query
//!    parser bound (exact store names) select the
//!    `<workload>_evictions_<policy>` store key.
//! 2. **PC and address filtering** — the frame's rows for the question's
//!    PC and/or address ([`TraceFrame::rows_for`]) form a compact slice.
//! 3. **Cache statistical expert** — the frame's per-PC statistics
//!    ([`TraceFrame::pc_summary`]), summarised once per frame.
//! 4. **Context assembly** — facts, metadata and code snippets are bundled
//!    for the generator.
//!
//! Sieve's lookup templates (hit/miss, miss rate, IPC, per-policy miss
//! rates) run the same [`Plan`]s Ranger compiles, behind Sieve's own
//! premise check; a plan that fails yields no facts. Sieve is deliberately
//! *template-bound*: slices are capped at [`SieveRetriever::slice_cap`]
//! rows, so aggregate questions (Count, Arithmetic) over larger slices
//! come back marked incomplete — the mechanistic root of the universal
//! Count failure in Figures 4 and 8.
//!
//! [`TraceFrame::rows_for`]: cachemind_tracedb::TraceFrame::rows_for
//! [`TraceFrame::pc_summary`]: cachemind_tracedb::TraceFrame::pc_summary

use cachemind_lang::context::{Fact, RetrievedContext};
use cachemind_lang::intent::{QueryCategory, QueryIntent};
use cachemind_lang::token::contains_ignore_ascii_case;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::{policy_description, TraceEntry, TraceId};
use cachemind_tracedb::store::TraceStore;

use crate::plan::Plan;
use crate::quality::grade;
use crate::retriever::{absent_pc, Retriever};

/// The Sieve retriever.
#[derive(Debug, Clone)]
pub struct SieveRetriever {
    slice_cap: usize,
}

impl Default for SieveRetriever {
    fn default() -> Self {
        SieveRetriever::new()
    }
}

impl SieveRetriever {
    /// Creates the retriever with the default 50-row slice cap.
    pub fn new() -> Self {
        SieveRetriever { slice_cap: 50 }
    }

    /// Overrides the slice cap.
    pub fn with_slice_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "slice cap must be positive");
        self.slice_cap = cap;
        self
    }

    /// The maximum number of rows a retrieved slice may carry.
    pub fn slice_cap(&self) -> usize {
        self.slice_cap
    }

    /// Checks whether a PC that produced an empty slice is a premise
    /// violation, and renders the reason (e.g. "PC 0x4037aa appears only in
    /// mcf").
    fn premise_check(
        db: &dyn TraceStore,
        entry: &TraceEntry,
        intent: &QueryIntent,
    ) -> Option<Fact> {
        let pc = intent.pc?;
        if !entry.frame.contains_pc(pc) {
            return Some(absent_pc(db, intent, pc, None));
        }
        if let Some(addr) = intent.address {
            if entry.frame.rows_for(Some(pc), Some(addr)).next().is_none() {
                return Some(Fact::PremiseViolation {
                    reason: format!("PC {pc} never accesses address {addr} in this trace"),
                });
            }
        }
        None
    }

    /// The lookup templates: runs the plan a hit/miss, miss-rate or
    /// policy-comparison question maps to, after the premise check for the
    /// plans that read one PC's rows. A failed plan yields no facts: unlike
    /// Ranger, Sieve investigates no empty result.
    fn lookup(
        db: &dyn TraceStore,
        entry: Option<&TraceEntry>,
        intent: &QueryIntent,
        policy: &str,
        scope: &ScenarioSelector,
    ) -> Vec<Fact> {
        let Some(workload) = intent.workload.clone() else { return Vec::new() };
        let policy = policy.to_owned();
        let plan = match intent.category {
            QueryCategory::HitMiss => {
                Plan::Lookup { workload, policy, pc: intent.pc, address: intent.address }
            }
            // IPC lookups ride the MissRate category.
            QueryCategory::MissRate if contains_ignore_ascii_case(&intent.raw, "ipc") => {
                Plan::WorkloadIpc { workload, policy }
            }
            QueryCategory::MissRate => match intent.pc {
                Some(pc) => Plan::PcMissRate { workload, policy, pc },
                None => Plan::WorkloadMissRate { workload, policy },
            },
            _ => Plan::CompareAcrossPolicies { workload, pc: intent.pc },
        };
        if let (Plan::Lookup { .. } | Plan::PcMissRate { .. }, Some(entry)) = (&plan, entry) {
            if let Some(violation) = Self::premise_check(db, entry, intent) {
                return vec![violation];
            }
        }
        plan.run_scoped(db, scope).unwrap_or_default()
    }

    fn assemble_reasoning_bundle(
        &self,
        db: &dyn TraceStore,
        entry: &TraceEntry,
        intent: &QueryIntent,
        scope: &ScenarioSelector,
        facts: &mut Vec<Fact>,
    ) {
        facts.push(Fact::Snippet {
            title: "Workload and policy description".to_owned(),
            text: entry.description.clone(),
        });
        facts.push(Fact::Snippet {
            title: "Trace metadata".to_owned(),
            text: entry.metadata.clone(),
        });
        if let Some(pc) = intent.pc {
            let (workload, policy) = (entry.id.workload.clone(), entry.id.policy.clone());
            facts.extend(
                Plan::PcMissRate { workload, policy, pc }.run_scoped(db, scope).unwrap_or_default(),
            );
            if let Some(asm) = entry.frame.assembly_code(pc) {
                let title = match entry.frame.function_name(pc) {
                    Some(name) => format!("Assembly ({name})"),
                    None => "Assembly".to_owned(),
                };
                facts.push(Fact::Snippet { title, text: asm });
            }
            if let Some(src) = entry.frame.function_code(pc) {
                facts.push(Fact::Snippet { title: "Source".to_owned(), text: src.to_owned() });
            }
        }
        // Cross-policy statistics for policy analysis.
        if intent.category == QueryCategory::PolicyAnalysis {
            for policy in &intent.policies {
                if let Some(other) =
                    db.get_scoped_resolved(&TraceId::new(&entry.id.workload, policy), scope)
                {
                    if let Some(pc) = intent.pc {
                        if let Some(summary) = other.frame.pc_summary(pc) {
                            facts.push(Fact::PolicyValue {
                                policy: policy.clone(),
                                metric: format!("miss rate % at PC {pc}"),
                                value: summary.stats.miss_rate() * 100.0,
                            });
                        }
                    }
                }
                facts.push(Fact::Snippet {
                    title: format!("Policy {policy}"),
                    text: policy_description(policy).to_owned(),
                });
            }
        }
    }
}

impl Retriever for SieveRetriever {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn retrieve(&self, db: &dyn TraceStore, intent: &QueryIntent) -> RetrievedContext {
        let mut facts: Vec<Fact> = Vec::new();
        // The machine scope is resolved once per retrieval and handed to
        // every lookup below — the multi-branch templates (policy and
        // workload comparisons, reasoning bundles) must not re-derive it
        // per branch.
        let scope = intent.selector.machine_scope();
        let policy = intent.policy.as_deref().unwrap_or("lru");

        // Stage 1: trace-level filtering, scoped to the intent's scenario
        // selector. Without a workload Sieve's templates have nothing to
        // bind to (except workload comparisons).
        let entry = intent
            .workload
            .as_deref()
            .and_then(|w| db.get_scoped_resolved(&TraceId::new(w, policy), &scope));

        match intent.category {
            QueryCategory::HitMiss | QueryCategory::MissRate | QueryCategory::PolicyComparison => {
                facts = Self::lookup(db, entry, intent, policy, &scope);
            }
            QueryCategory::Count | QueryCategory::Arithmetic => {
                // Sieve has no aggregate template: it returns a *capped*
                // slice and computes over what it sees.
                if let Some(entry) = entry {
                    let mut rows = entry.frame.rows_for(intent.pc, intent.address);
                    let visible: Vec<_> = rows.by_ref().take(self.slice_cap).collect();
                    let complete = rows.next().is_none();
                    if intent.category == QueryCategory::Count {
                        facts.push(Fact::CountValue {
                            what: format!("matching accesses in {}", entry.id),
                            value: visible.len() as u64,
                            complete,
                        });
                    } else {
                        let values: Vec<f64> = visible
                            .iter()
                            .filter_map(|r| {
                                if intent.raw.contains("evicted") {
                                    r.evicted_reuse_distance.map(|d| d as f64)
                                } else {
                                    r.accessed_reuse_distance.map(|d| d as f64)
                                }
                            })
                            .collect();
                        if !values.is_empty() {
                            facts.push(Fact::NumericValue {
                                what: "mean reuse distance".to_owned(),
                                value: values.iter().sum::<f64>() / values.len() as f64,
                                complete,
                            });
                        }
                    }
                }
            }
            QueryCategory::WorkloadAnalysis => {
                for w in db.workloads() {
                    if let Some(entry) = db.get_scoped_resolved(&TraceId::new(&w, policy), &scope) {
                        if let Some(rate) =
                            cachemind_tracedb::meta::extract_percent(&entry.metadata, "miss rate")
                        {
                            facts.push(Fact::PolicyValue {
                                policy: w.clone(),
                                metric: format!("miss rate % under {policy}"),
                                value: rate,
                            });
                        }
                        facts.push(Fact::Snippet {
                            title: format!("Workload {w}"),
                            text: entry.description.clone(),
                        });
                    }
                }
            }
            // Reasoning-tier templates: assemble the rich curated bundle.
            _ => {
                if let Some(entry) = entry {
                    self.assemble_reasoning_bundle(db, entry, intent, &scope, &mut facts);
                } else if intent.category == QueryCategory::Concepts {
                    facts.push(Fact::Snippet {
                        title: "Cache geometry".to_owned(),
                        text: db
                            .llc_config()
                            .map(|c| {
                                format!(
                                    "{} sets x {} ways, {}-byte lines ({} KB)",
                                    c.sets(),
                                    c.ways,
                                    c.line_size(),
                                    c.capacity_bytes() / 1024
                                )
                            })
                            .unwrap_or_else(|| "geometry unavailable".to_owned()),
                    });
                }
            }
        }

        let quality = grade(intent, &facts);
        RetrievedContext { facts, quality, retriever: "sieve".to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_lang::context::ContextQuality;
    use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};
    use cachemind_workloads::Scale;

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
    fn ipc_questions_surface_the_stored_ipc_not_the_miss_rate() {
        let db = db();
        let entry = db.get("mcf_evictions_lru").unwrap();
        let q = "What is the estimated IPC for mcf under LRU?";
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, q));
        let Some(Fact::NumericValue { value, what, .. }) = ctx.facts.first() else {
            panic!("expected an IPC fact, got {:?}", ctx.facts);
        };
        assert!((value - entry.ipc).abs() < 1e-6, "{value} vs {}", entry.ipc);
        assert!(what.contains("machine"), "fact must cite the machine: {what}");
        // Crucially NOT the miss-rate percent the MissRate arm normally
        // extracts from the same metadata string.
        let miss_pct =
            cachemind_tracedb::meta::extract_percent(&entry.metadata, "miss rate").unwrap();
        assert!((value - miss_pct).abs() > 1.0, "IPC answered with the miss rate");
    }

    #[test]
    fn inline_machine_scope_changes_the_cited_ipc() {
        use cachemind_sim::config::MachineConfig;
        use cachemind_sim::scenario::ScenarioSelector;
        use cachemind_tracedb::database::TraceId;
        use cachemind_tracedb::store::TraceStore;

        let db = TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf"])
            .policies(["lru"])
            .machine(MachineConfig::preset("small").expect("preset"))
            .build();
        let scoped_entry = db
            .get_scoped_resolved(
                &TraceId::new("mcf", "lru"),
                &ScenarioSelector::all().with_machine("small"),
            )
            .expect("small entry");
        let q = "What is the estimated IPC for mcf@small under LRU?";
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, q));
        let Some(Fact::NumericValue { value, what, .. }) = ctx.facts.first() else {
            panic!("expected an IPC fact, got {:?}", ctx.facts);
        };
        assert!((value - scoped_entry.ipc).abs() < 1e-6, "{value} vs {}", scoped_entry.ipc);
        assert!(what.contains(&scoped_entry.machine), "must cite the scoped machine: {what}");
        // And the primary machine answers differently.
        let primary = db.get("mcf_evictions_lru").unwrap();
        assert_ne!(*value, primary.ipc, "scope must change the cited value");
    }

    #[test]
    fn hitmiss_retrieves_exact_outcome() {
        let db = db();
        let entry = db.get("mcf_evictions_lru").unwrap();
        let row = &entry.frame.rows()[10];
        let q = format!(
            "Does the access with PC {} and address {} hit or miss on mcf under LRU?",
            row.pc, row.address
        );
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, &q));
        assert_eq!(ctx.quality, ContextQuality::High);
        let Some(Fact::Outcome { is_miss, .. }) = ctx.facts.first() else {
            panic!("expected outcome fact, got {:?}", ctx.facts);
        };
        assert_eq!(*is_miss, row.is_miss);
    }

    #[test]
    fn trick_premise_is_detected() {
        let db = db();
        // A PC that exists in mcf but is asked about on lbm.
        let mcf_pc = db.get("mcf_evictions_lru").unwrap().frame.rows()[0].pc;
        let in_lbm =
            db.get("lbm_evictions_lru").unwrap().frame.rows().iter().any(|r| r.pc == mcf_pc);
        assert!(!in_lbm, "workload PCs must be distinct for this test");
        let q = format!("Does PC {mcf_pc} hit in the cache on lbm under LRU?");
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, &q));
        let reason = ctx.premise_violation().expect("premise violation");
        assert!(reason.contains("mcf"), "reason: {reason}");
    }

    #[test]
    fn count_is_truncated_beyond_cap() {
        let db = db();
        // The most frequent PC certainly exceeds a tiny cap.
        let entry = db.get("mcf_evictions_lru").unwrap();
        let pc = entry.frame.rows()[0].pc;
        let q = format!("How many times did PC {pc} appear in mcf under LRU?");
        let ctx = SieveRetriever::new().with_slice_cap(5).retrieve(&db, &intent(&db, &q));
        let Some(Fact::CountValue { complete, value, .. }) = ctx.facts.first() else {
            panic!("expected count fact");
        };
        assert!(!complete);
        assert_eq!(*value, 5);
    }

    #[test]
    fn reasoning_bundle_is_rich() {
        let db = db();
        let pc = db.get("astar_evictions_belady").unwrap().frame.rows()[0].pc;
        let q = format!("Why does Belady outperform LRU on PC {pc} in astar?");
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, &q));
        assert_eq!(ctx.quality, ContextQuality::High);
        let snippets = ctx.facts.iter().filter(|f| matches!(f, Fact::Snippet { .. })).count();
        assert!(snippets >= 2, "bundle snippets: {snippets}");
        assert!(ctx.facts.iter().any(|f| matches!(f, Fact::PolicyValue { .. })));
    }

    #[test]
    fn policy_comparison_covers_all_policies() {
        let db = db();
        let pc = db.get("astar_evictions_lru").unwrap().frame.rows()[0].pc;
        let q = format!("Which policy has the lowest miss rate for PC {pc} in astar?");
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, &q));
        let policies: Vec<&str> = ctx
            .facts
            .iter()
            .filter_map(|f| match f {
                Fact::PolicyValue { policy, .. } => Some(policy.as_str()),
                _ => None,
            })
            .collect();
        assert!(policies.len() >= 3, "got {policies:?}");
    }

    #[test]
    fn workload_comparison_uses_metadata() {
        let db = db();
        let q = "Which workload has the highest cache miss rate under MLP?";
        let ctx = SieveRetriever::new().retrieve(&db, &intent(&db, q));
        let names: Vec<&str> = ctx
            .facts
            .iter()
            .filter_map(|f| match f {
                Fact::PolicyValue { policy, .. } => Some(policy.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), 3, "got {names:?}");
    }

    #[test]
    fn scale_small_exists_for_integration() {
        // Guard: Scale::Small stays available for heavier tests elsewhere.
        let _ = Scale::Small;
    }
}
