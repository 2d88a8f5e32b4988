//! The Ranger query-plan DSL and its execution runtime.
//!
//! In the paper, Ranger's retrieval LLM emits executable Python against the
//! documented schema and a runtime executes it over `loaded_data` (Fig. 3).
//! The reproduction keeps both halves but replaces Python with a small,
//! sandboxed plan language: [`Plan`] is "the generated code",
//! [`Plan::run_scoped`] is the execution runtime, and [`Plan::render_code`]
//! prints the Python-equivalent for display and for the Code Generation
//! benchmark category. Ranger runs the plan it compiles and renders that
//! same plan.

use std::fmt;

use serde::{Deserialize, Serialize};

use cachemind_lang::context::Fact;
use cachemind_sim::addr::{Address, Pc};
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::{TraceEntry, TraceId};
use cachemind_tracedb::filter::Predicate;
use cachemind_tracedb::meta;
use cachemind_tracedb::stats::CacheStatisticalExpert;
use cachemind_tracedb::store::TraceStore;

/// Numeric columns a plan may aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggColumn {
    /// `accessed_address_reuse_distance_numeric`
    AccessedReuse,
    /// `evicted_address_reuse_distance_numeric`
    EvictedReuse,
    /// `accessed_address_recency_numeric`
    Recency,
}

impl AggColumn {
    /// The schema column name.
    pub const fn column_name(self) -> &'static str {
        match self {
            AggColumn::AccessedReuse => "accessed_address_reuse_distance_numeric",
            AggColumn::EvictedReuse => "evicted_address_reuse_distance_numeric",
            AggColumn::Recency => "accessed_address_recency_numeric",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// Arithmetic mean.
    Mean,
    /// Sum.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Population standard deviation.
    Std,
}

impl AggFunc {
    fn apply(self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        Some(match self {
            AggFunc::Mean => values.iter().sum::<f64>() / n,
            AggFunc::Sum => values.iter().sum(),
            AggFunc::Max => values.iter().copied().fold(f64::MIN, f64::max),
            AggFunc::Min => values.iter().copied().fold(f64::MAX, f64::min),
            AggFunc::Std => {
                let mean = values.iter().sum::<f64>() / n;
                (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
            }
        })
    }

    const fn python_name(self) -> &'static str {
        match self {
            AggFunc::Mean => "mean",
            AggFunc::Sum => "sum",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Std => "std",
        }
    }
}

/// Errors from plan execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// The referenced trace key does not exist.
    UnknownTrace(String),
    /// The plan's filters matched no rows.
    EmptyResult,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTrace(key) => write!(f, "unknown trace key {key:?}"),
            PlanError::EmptyResult => write!(f, "plan filters matched no rows"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An executable retrieval plan — Ranger's "generated code".
///
/// Plans name their `(workload, policy)` pair explicitly (resolved slots,
/// not filters); *which machine's and prefetcher's* trace a plan reads is
/// decided at execution time by the [`ScenarioSelector`] scope handed to
/// [`Plan::run_scoped`], which threads every trace lookup through
/// [`TraceStore::get_scoped_resolved`] — so one plan answers from whichever
/// qualified entry (`<workload>_evictions_<policy>[@machine][+prefetcher]`)
/// the scope picks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Plan {
    /// Look up the outcome of a `{workload, policy, pc?, addr?}` tuple.
    Lookup {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// PC filter.
        pc: Option<Pc>,
        /// Byte-address filter.
        address: Option<Address>,
    },
    /// Miss rate of a PC within one trace.
    PcMissRate {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// The PC.
        pc: Pc,
    },
    /// Whole-workload miss rate from the metadata string.
    WorkloadMissRate {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// Whole-workload estimated IPC (and the machine it was measured on)
    /// from the metadata's scenario sentence.
    WorkloadIpc {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// Per-policy estimated IPC values for ranking.
    CompareIpcAcrossPolicies {
        /// Workload name.
        workload: String,
    },
    /// Per-workload estimated IPC values for ranking under one policy.
    CompareIpcAcrossWorkloads {
        /// Policy name.
        policy: String,
    },
    /// Per-policy metric values for ranking.
    CompareAcrossPolicies {
        /// Workload name.
        workload: String,
        /// Optional PC scope.
        pc: Option<Pc>,
    },
    /// Per-workload metric values for ranking under one policy.
    CompareAcrossWorkloads {
        /// Policy name.
        policy: String,
    },
    /// Count rows matching the filters (full-frame iteration; a filter-free
    /// count reads the stored row count).
    CountRows {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// PC filter.
        pc: Option<Pc>,
        /// Byte-address filter.
        address: Option<Address>,
        /// Restrict to misses.
        misses_only: bool,
    },
    /// Aggregate a numeric column over matching rows (full-frame).
    Aggregate {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// PC filter.
        pc: Option<Pc>,
        /// Column to aggregate.
        column: AggColumn,
        /// Aggregate function.
        func: AggFunc,
    },
    /// A per-PC statistics table (optionally sorted/limited) — the
    /// workhorse of the insight chat sessions.
    PerPcTable {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// Keep only the `limit` top entries by miss count (0 = all).
        limit: usize,
    },
    /// A per-set hit-rate table (the set-hotness use case).
    PerSetTable {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// A reasoning bundle: stats plus descriptive snippets for a PC.
    ContextBundle {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// Optional PC focus.
        pc: Option<Pc>,
    },
    /// All unique PCs in a trace, first-seen order (the Figure 10/12 chat
    /// opener: "List all unique PCs in the trace").
    UniquePcs {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// All unique cache sets in a trace, ascending (Figure 13).
    UniqueSets {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// Group PCs by reuse-distance variability (the Figure 10 ETR-variance
    /// clustering): low/medium/high coefficient-of-variation tiers.
    GroupPcsByReuseVariance {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
    /// The five hottest and five coldest sets by hit rate (Figure 13).
    HotColdSets {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
    },
}

impl Plan {
    fn entry<'d>(
        db: &'d dyn TraceStore,
        workload: &str,
        policy: &str,
        scope: &ScenarioSelector,
    ) -> Result<&'d TraceEntry, PlanError> {
        let id = TraceId::new(workload, policy);
        db.get_scoped_resolved(&id, scope).ok_or_else(|| PlanError::UnknownTrace(id.key()))
    }

    /// The four `Compare*` plans: one value per `ranked` name, each read
    /// from the trace `trace_of(name)` resolves to in scope, in the
    /// store's sorted name order. Names with no trace in scope, or whose
    /// trace yields no `(value, metric)`, are skipped.
    fn rank(
        db: &dyn TraceStore,
        scope: &ScenarioSelector,
        ranked: Vec<String>,
        trace_of: impl Fn(&str) -> TraceId,
        value_of: impl Fn(&TraceEntry) -> Option<(f64, String)>,
    ) -> Result<Vec<Fact>, PlanError> {
        let facts: Vec<Fact> = ranked
            .into_iter()
            .filter_map(|name| {
                let entry = db.get_scoped_resolved(&trace_of(&name), scope)?;
                let (value, metric) = value_of(entry)?;
                Some(Fact::PolicyValue { policy: name, metric, value })
            })
            .collect();
        if facts.is_empty() {
            Err(PlanError::EmptyResult)
        } else {
            Ok(facts)
        }
    }

    /// Executes the plan against the database, scoping every trace lookup
    /// to the selector's machine/prefetcher half: on a multi-machine
    /// store, the same plan answers from whichever machine's traces the
    /// scope picks (the workload/policy the plan itself names are already
    /// resolved slots and are not re-filtered).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::UnknownTrace`] for a bad key and
    /// [`PlanError::EmptyResult`] when the filters matched nothing — the
    /// runtime signal Ranger turns into a premise check.
    pub fn run_scoped(
        &self,
        db: &dyn TraceStore,
        scope: &ScenarioSelector,
    ) -> Result<Vec<Fact>, PlanError> {
        // Resolved once per run: every lookup of a multi-step plan shares it.
        let scope = &scope.machine_scope();
        let expert = CacheStatisticalExpert::new();
        match self {
            Plan::Lookup { workload, policy, pc, address } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let row = entry
                    .frame
                    .first(&Predicate::pc_address(*pc, *address))
                    .ok_or(PlanError::EmptyResult)?;
                Ok(vec![Fact::Outcome {
                    pc: Some(row.pc),
                    address: Some(row.address),
                    workload: workload.clone(),
                    policy: policy.clone(),
                    is_miss: row.is_miss,
                    evicted: row.evicted_address.map(|e| (e, row.evicted_reuse_distance)),
                    inserted_reuse: row.accessed_reuse_distance,
                }])
            }
            Plan::PcMissRate { workload, policy, pc } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let stats = expert.pc_stats(&entry.frame, *pc).ok_or(PlanError::EmptyResult)?;
                Ok(vec![Fact::MissRate {
                    scope: format!("PC {pc}"),
                    percent: stats.miss_rate() * 100.0,
                    accesses: stats.accesses,
                }])
            }
            Plan::WorkloadMissRate { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let rate = meta::extract_percent(&entry.metadata, "miss rate")
                    .ok_or(PlanError::EmptyResult)?;
                Ok(vec![Fact::MissRate {
                    scope: format!("workload {workload}"),
                    percent: rate,
                    accesses: meta::extract_count(&entry.metadata, "total accesses").unwrap_or(0),
                }])
            }
            Plan::WorkloadIpc { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let ipc = meta::extract_ipc(&entry.metadata).ok_or(PlanError::EmptyResult)?;
                Ok(vec![Fact::NumericValue {
                    what: meta::ipc_citation(workload, policy, &entry.metadata),
                    value: ipc,
                    complete: true,
                }])
            }
            Plan::CompareIpcAcrossPolicies { workload } => Self::rank(
                db,
                scope,
                db.policies(),
                |policy| TraceId::new(workload, policy),
                |entry| {
                    let ipc = meta::extract_ipc(&entry.metadata)?;
                    Some((
                        ipc,
                        format!("estimated IPC{}", meta::scenario_citation_suffix(&entry.metadata)),
                    ))
                },
            ),
            Plan::CompareIpcAcrossWorkloads { policy } => Self::rank(
                db,
                scope,
                db.workloads(),
                |workload| TraceId::new(workload, policy),
                |entry| {
                    let ipc = meta::extract_ipc(&entry.metadata)?;
                    let suffix = meta::scenario_citation_suffix(&entry.metadata);
                    Some((ipc, format!("estimated IPC under {policy}{suffix}")))
                },
            ),
            Plan::CompareAcrossPolicies { workload, pc } => Self::rank(
                db,
                scope,
                db.policies(),
                |policy| TraceId::new(workload, policy),
                |entry| {
                    let rate = match pc {
                        Some(pc) => expert.pc_stats(&entry.frame, *pc)?.miss_rate() * 100.0,
                        None => meta::extract_percent(&entry.metadata, "miss rate")?,
                    };
                    Some((rate, "miss rate %".to_owned()))
                },
            ),
            Plan::CompareAcrossWorkloads { policy } => Self::rank(
                db,
                scope,
                db.workloads(),
                |workload| TraceId::new(workload, policy),
                |entry| {
                    let rate = meta::extract_percent(&entry.metadata, "miss rate")?;
                    Some((rate, format!("miss rate % under {policy}")))
                },
            ),
            Plan::CountRows { workload, policy, pc, address, misses_only } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut pred = Predicate::pc_address(*pc, *address);
                if *misses_only {
                    pred = pred.and(Predicate::IsMiss(true));
                }
                // A filter-free count is the frame's row count, which a
                // snapshot-opened frame knows without decoding its rows.
                let count = if matches!(pred, Predicate::True) {
                    entry.frame.len()
                } else {
                    entry.frame.count(&pred)
                };
                if count == 0 {
                    return Err(PlanError::EmptyResult);
                }
                Ok(vec![Fact::CountValue {
                    what: format!("matching accesses in {workload}_{policy}"),
                    value: count as u64,
                    complete: true,
                }])
            }
            Plan::Aggregate { workload, policy, pc, column, func } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut pred = Predicate::True;
                if let Some(pc) = pc {
                    pred = pred.and(Predicate::PcEquals(*pc));
                }
                let values: Vec<f64> = entry
                    .frame
                    .filter(&pred)
                    .into_iter()
                    .filter_map(|r| match column {
                        AggColumn::AccessedReuse => r.accessed_reuse_distance.map(|d| d as f64),
                        AggColumn::EvictedReuse => r.evicted_reuse_distance.map(|d| d as f64),
                        AggColumn::Recency => r.recency.map(|d| d as f64),
                    })
                    .collect();
                let value = func.apply(&values).ok_or(PlanError::EmptyResult)?;
                Ok(vec![Fact::NumericValue {
                    what: format!("{} of {}", func.python_name(), column.column_name()),
                    value,
                    complete: true,
                }])
            }
            Plan::PerPcTable { workload, policy, limit } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut stats = expert.per_pc(&entry.frame);
                stats.sort_by_key(|s| std::cmp::Reverse(s.misses));
                if *limit > 0 {
                    stats.truncate(*limit);
                }
                if stats.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                let text = stats
                    .iter()
                    .map(|s| {
                        format!(
                            "{}: accesses={} misses={} miss_rate={:.2}% mean_reuse={:.1} \
                             reuse_stddev={:.1}",
                            s.pc,
                            s.accesses,
                            s.misses,
                            s.miss_rate() * 100.0,
                            s.mean_accessed_reuse.unwrap_or(f64::NAN),
                            s.reuse_stddev.unwrap_or(f64::NAN),
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                Ok(vec![Fact::Snippet {
                    title: format!("Per-PC table ({workload}/{policy})"),
                    text,
                }])
            }
            Plan::PerSetTable { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let sets = expert.per_set(&entry.frame);
                if sets.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                let text = sets
                    .iter()
                    .map(|s| {
                        format!(
                            "set {}: accesses={} hits={} hit_rate={:.2}%",
                            s.set,
                            s.accesses,
                            s.hits,
                            s.hit_rate() * 100.0
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                Ok(vec![Fact::Snippet {
                    title: format!("Per-set table ({workload}/{policy})"),
                    text,
                }])
            }
            Plan::ContextBundle { workload, policy, pc } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut facts = vec![Fact::Snippet {
                    title: "Trace metadata".to_owned(),
                    text: entry.metadata.clone(),
                }];
                if let Some(pc) = pc {
                    if let Some(stats) = expert.pc_stats(&entry.frame, *pc) {
                        facts.push(Fact::MissRate {
                            scope: format!("PC {pc}"),
                            percent: stats.miss_rate() * 100.0,
                            accesses: stats.accesses,
                        });
                    }
                }
                Ok(facts)
            }
            Plan::UniquePcs { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let pcs = entry.frame.unique_pcs();
                if pcs.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                let text = pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(", ");
                Ok(vec![
                    Fact::CountValue {
                        what: format!("unique PCs in {workload}_{policy}"),
                        value: pcs.len() as u64,
                        complete: true,
                    },
                    Fact::Snippet { title: "Unique PCs".to_owned(), text },
                ])
            }
            Plan::UniqueSets { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let sets = entry.frame.unique_sets();
                if sets.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                let text = sets.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ");
                Ok(vec![
                    Fact::CountValue {
                        what: format!("unique cache sets in {workload}_{policy}"),
                        value: sets.len() as u64,
                        complete: true,
                    },
                    Fact::Snippet { title: "Unique cache sets (ascending)".to_owned(), text },
                ])
            }
            Plan::GroupPcsByReuseVariance { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut scored: Vec<(Pc, f64)> = expert
                    .per_pc(&entry.frame)
                    .into_iter()
                    .filter(|s| s.accesses >= 10)
                    .filter_map(|s| s.reuse_cv().map(|cv| (s.pc, cv)))
                    .collect();
                if scored.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                scored.sort_by(|a, b| a.1.total_cmp(&b.1));
                let third = (scored.len() / 3).max(1);
                let render = |slice: &[(Pc, f64)]| {
                    slice.iter().map(|(p, _)| format!("{p}")).collect::<Vec<_>>().join(", ")
                };
                let low = render(&scored[..third.min(scored.len())]);
                let mid = render(&scored[third.min(scored.len())..(2 * third).min(scored.len())]);
                let high = render(&scored[(2 * third).min(scored.len())..]);
                Ok(vec![Fact::Snippet {
                    title: format!("PCs grouped by reuse-distance variance ({workload}/{policy})"),
                    text: format!("LowVar: {{{low}}}\nMedVar: {{{mid}}}\nHighVar: {{{high}}}"),
                }])
            }
            Plan::HotColdSets { workload, policy } => {
                let entry = Self::entry(db, workload, policy, scope)?;
                let mut sets = expert.per_set(&entry.frame);
                sets.retain(|s| s.accesses >= 10);
                if sets.is_empty() {
                    return Err(PlanError::EmptyResult);
                }
                sets.sort_by(|a, b| b.hit_rate().total_cmp(&a.hit_rate()).then(a.set.cmp(&b.set)));
                let hot: Vec<usize> = sets.iter().take(5).map(|s| s.set).collect();
                let cold: Vec<usize> = sets.iter().rev().take(5).map(|s| s.set).collect();
                Ok(vec![Fact::Snippet {
                    title: format!("Hot/cold sets ({workload}/{policy})"),
                    text: format!("Hot Sets = {hot:?}, Cold Sets = {cold:?}"),
                }])
            }
        }
    }

    /// Renders the Python-equivalent of the plan (the paper's generated
    /// code), honouring the Figure 3 output rules (`result = "..."`).
    pub fn render_code(&self) -> String {
        match self {
            Plan::Lookup { workload, policy, pc, address } => {
                let mut filters = String::new();
                if let Some(pc) = pc {
                    filters.push_str(&format!("df = df[df.program_counter == {pc}]\n"));
                }
                if let Some(addr) = address {
                    filters.push_str(&format!("df = df[df.memory_address == {addr}]\n"));
                }
                format!(
                    "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                     {filters}row = df.iloc[0]\n\
                     result = f\"Cache result: {{row.evict}}\""
                )
            }
            Plan::PcMissRate { workload, policy, pc } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 df = df[df.program_counter == {pc}]\n\
                 result = f\"The miss rate for PC {pc} is {{df.is_miss.mean()*100:.2f}}%.\""
            ),
            Plan::WorkloadMissRate { workload, policy } => format!(
                "meta = loaded_data[\"{workload}_evictions_{policy}\"][\"metadata\"]\n\
                 result = re.search(r\"([0-9.]+)% miss rate\", meta).group(1)"
            ),
            Plan::WorkloadIpc { workload, policy } => format!(
                "meta = loaded_data[\"{workload}_evictions_{policy}\"][\"metadata\"]\n\
                 result = re.search(r\"estimated IPC of ([0-9.]+)\", meta).group(1)"
            ),
            Plan::CompareIpcAcrossPolicies { workload } => format!(
                "ipcs = {{}}\nfor key in loaded_data:\n    if key.startswith(\"{workload}\"):\n        \
                 meta = loaded_data[key][\"metadata\"]\n        \
                 ipcs[key] = re.search(r\"estimated IPC of ([0-9.]+)\", meta).group(1)\n\
                 result = str(sorted(ipcs.items(), key=lambda kv: kv[1], reverse=True))"
            ),
            Plan::CompareIpcAcrossWorkloads { policy } => format!(
                "ipcs = {{}}\nfor key in loaded_data:\n    if key.endswith(\"{policy}\"):\n        \
                 meta = loaded_data[key][\"metadata\"]\n        \
                 ipcs[key] = re.search(r\"estimated IPC of ([0-9.]+)\", meta).group(1)\n\
                 result = str(sorted(ipcs.items(), key=lambda kv: kv[1], reverse=True))"
            ),
            Plan::CompareAcrossPolicies { workload, pc } => format!(
                "rates = {{}}\nfor key in loaded_data:\n    if key.startswith(\"{workload}\"):\n        \
                 df = loaded_data[key][\"data_frame\"]\n{}        rates[key] = df.is_miss.mean()\n\
                 result = str(sorted(rates.items(), key=lambda kv: kv[1]))",
                pc.map(|p| format!("        df = df[df.program_counter == {p}]\n"))
                    .unwrap_or_default()
            ),
            Plan::CompareAcrossWorkloads { policy } => format!(
                "rates = {{}}\nfor key in loaded_data:\n    if key.endswith(\"{policy}\"):\n        \
                 rates[key] = loaded_data[key][\"metadata\"]\nresult = str(rates)"
            ),
            Plan::CountRows { workload, policy, pc, address, misses_only } => {
                let mut filters = String::new();
                if let Some(pc) = pc {
                    filters.push_str(&format!("df = df[df.program_counter == {pc}]\n"));
                }
                if let Some(addr) = address {
                    filters.push_str(&format!("df = df[df.memory_address == {addr}]\n"));
                }
                if *misses_only {
                    filters.push_str("df = df[df.is_miss == 1]\n");
                }
                format!(
                    "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                     {filters}result = f\"count: {{len(df)}}\""
                )
            }
            Plan::Aggregate { workload, policy, pc, column, func } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n{}\
                 result = f\"{{df['{}'].{}():.2f}}\"",
                pc.map(|p| format!("df = df[df.program_counter == {p}]\n")).unwrap_or_default(),
                column.column_name(),
                func.python_name(),
            ),
            Plan::PerPcTable { workload, policy, limit } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 table = df.groupby(\"program_counter\").is_miss.agg([\"count\", \"sum\", \"mean\"])\n\
                 result = str(table.sort_values(\"sum\", ascending=False).head({limit}))"
            ),
            Plan::PerSetTable { workload, policy } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 table = 1 - df.groupby(\"cache_set_id\").is_miss.mean()\n\
                 result = str(table)"
            ),
            Plan::ContextBundle { workload, policy, pc } => format!(
                "meta = loaded_data[\"{workload}_evictions_{policy}\"][\"metadata\"]\n{}\
                 result = meta",
                pc.map(|p| {
                    format!(
                        "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                         df = df[df.program_counter == {p}]\n"
                    )
                })
                .unwrap_or_default()
            ),
            Plan::UniquePcs { workload, policy } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 result = str(df.program_counter.unique())"
            ),
            Plan::UniqueSets { workload, policy } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 result = str(sorted(df.cache_set_id.unique()))"
            ),
            Plan::GroupPcsByReuseVariance { workload, policy } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 g = df.groupby(\"program_counter\").accessed_address_reuse_distance_numeric\n\
                 cv = g.std() / g.mean()\n\
                 result = str(cv.sort_values())"
            ),
            Plan::HotColdSets { workload, policy } => format!(
                "df = loaded_data[\"{workload}_evictions_{policy}\"][\"data_frame\"]\n\
                 rates = 1 - df.groupby(\"cache_set_id\").is_miss.mean()\n\
                 result = f\"hot: {{rates.nlargest(5).index.tolist()}}, \
                 cold: {{rates.nsmallest(5).index.tolist()}}\""
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_obs::{Counter, MetricsRegistry};
    use cachemind_sim::config::CacheConfig;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn db() -> cachemind_tracedb::TraceDatabase {
        TraceDatabaseBuilder::quick_demo().build()
    }

    #[test]
    fn lookup_finds_rows() {
        let db = db();
        let row = db.get("mcf_evictions_lru").unwrap().frame.rows()[3].clone();
        let plan = Plan::Lookup {
            workload: "mcf".into(),
            policy: "lru".into(),
            pc: Some(row.pc),
            address: Some(row.address),
        };
        let facts = plan.run_scoped(&db, &ScenarioSelector::all()).unwrap();
        assert!(matches!(facts[0], Fact::Outcome { is_miss, .. } if is_miss == row.is_miss));
    }

    #[test]
    fn unknown_trace_is_an_error() {
        let db = db();
        let plan = Plan::WorkloadMissRate { workload: "specjbb".into(), policy: "lru".into() };
        assert!(matches!(
            plan.run_scoped(&db, &ScenarioSelector::all()),
            Err(PlanError::UnknownTrace(_))
        ));
    }

    #[test]
    fn count_iterates_full_frame() {
        let db = db();
        let entry = db.get("mcf_evictions_lru").unwrap();
        let pc = entry.frame.rows()[0].pc;
        let truth = entry.frame.rows().iter().filter(|r| r.pc == pc).count() as u64;
        let plan = Plan::CountRows {
            workload: "mcf".into(),
            policy: "lru".into(),
            pc: Some(pc),
            address: None,
            misses_only: false,
        };
        let facts = plan.run_scoped(&db, &ScenarioSelector::all()).unwrap();
        assert!(
            matches!(facts[0], Fact::CountValue { value, complete: true, .. } if value == truth)
        );
    }

    #[test]
    fn aggregate_mean_matches_manual() {
        let db = db();
        let entry = db.get("lbm_evictions_lru").unwrap();
        let values: Vec<f64> = entry
            .frame
            .rows()
            .iter()
            .filter_map(|r| r.accessed_reuse_distance.map(|d| d as f64))
            .collect();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let plan = Plan::Aggregate {
            workload: "lbm".into(),
            policy: "lru".into(),
            pc: None,
            column: AggColumn::AccessedReuse,
            func: AggFunc::Mean,
        };
        let facts = plan.run_scoped(&db, &ScenarioSelector::all()).unwrap();
        let Fact::NumericValue { value, .. } = &facts[0] else { panic!() };
        assert!((value - truth).abs() < 1e-9);
    }

    #[test]
    fn tables_render_rows() {
        let db = db();
        let per_pc = Plan::PerPcTable { workload: "astar".into(), policy: "lru".into(), limit: 5 };
        let facts = per_pc.run_scoped(&db, &ScenarioSelector::all()).unwrap();
        let Fact::Snippet { text, .. } = &facts[0] else { panic!() };
        assert!(text.contains("miss_rate="));
        let per_set = Plan::PerSetTable { workload: "astar".into(), policy: "lru".into() };
        let facts = per_set.run_scoped(&db, &ScenarioSelector::all()).unwrap();
        let Fact::Snippet { text, .. } = &facts[0] else { panic!() };
        assert!(text.contains("hit_rate="));
    }

    #[test]
    fn rendered_code_follows_figure3_rules() {
        let plan = Plan::PcMissRate {
            workload: "mcf".into(),
            policy: "parrot".into(),
            pc: Pc::new(0x4037ba),
        };
        let code = plan.render_code();
        assert!(code.contains("loaded_data[\"mcf_evictions_parrot\"]"));
        assert!(code.contains("result ="), "must set result: {code}");
        assert!(!code.contains("print("), "no print per output rules");
    }

    #[test]
    fn exploration_plans_cover_chat_vocabulary() {
        let db = db();
        let entry = db.get("milc_evictions_lru");
        // milc is not in the quick demo; use mcf.
        assert!(entry.is_none());

        let pcs = Plan::UniquePcs { workload: "mcf".into(), policy: "lru".into() }
            .run_scoped(&db, &ScenarioSelector::all())
            .unwrap();
        let Fact::CountValue { value, .. } = &pcs[0] else { panic!() };
        assert_eq!(*value as usize, db.get("mcf_evictions_lru").unwrap().frame.unique_pcs().len());

        let sets = Plan::UniqueSets { workload: "mcf".into(), policy: "lru".into() }
            .run_scoped(&db, &ScenarioSelector::all())
            .unwrap();
        assert!(matches!(sets[0], Fact::CountValue { .. }));

        let grouped =
            Plan::GroupPcsByReuseVariance { workload: "mcf".into(), policy: "lru".into() }
                .run_scoped(&db, &ScenarioSelector::all())
                .unwrap();
        let Fact::Snippet { text, .. } = &grouped[0] else { panic!() };
        assert!(text.contains("LowVar") && text.contains("HighVar"));

        let hotcold = Plan::HotColdSets { workload: "astar".into(), policy: "belady".into() }
            .run_scoped(&db, &ScenarioSelector::all())
            .unwrap();
        let Fact::Snippet { text, .. } = &hotcold[0] else { panic!() };
        assert!(text.contains("Hot Sets") && text.contains("Cold Sets"));
    }

    #[test]
    fn exploration_code_rendering() {
        for plan in [
            Plan::UniquePcs { workload: "mcf".into(), policy: "lru".into() },
            Plan::UniqueSets { workload: "mcf".into(), policy: "lru".into() },
            Plan::GroupPcsByReuseVariance { workload: "mcf".into(), policy: "lru".into() },
            Plan::HotColdSets { workload: "mcf".into(), policy: "lru".into() },
        ] {
            let code = plan.render_code();
            assert!(code.contains("result ="), "missing result binding: {code}");
        }
    }

    #[test]
    fn ipc_plans_cite_machine_and_rank_policies() {
        let db = db();
        let facts = Plan::WorkloadIpc { workload: "mcf".into(), policy: "lru".into() }
            .run_scoped(&db, &ScenarioSelector::all())
            .expect("ipc plan runs");
        let Fact::NumericValue { what, value, complete } = &facts[0] else {
            panic!("expected numeric fact: {facts:?}")
        };
        assert!(*complete);
        assert!(what.contains("machine"), "fact must cite the machine: {what}");
        let entry = db.get("mcf_evictions_lru").unwrap();
        assert!((value - entry.ipc).abs() < 1e-6, "{value} vs {}", entry.ipc);

        let facts = Plan::CompareIpcAcrossPolicies { workload: "mcf".into() }
            .run_scoped(&db, &ScenarioSelector::all())
            .expect("comparison runs");
        assert_eq!(facts.len(), db.policies().len());
        let ipc_of = |name: &str| {
            facts
                .iter()
                .find_map(|f| match f {
                    Fact::PolicyValue { policy, value, .. } if policy == name => Some(*value),
                    _ => None,
                })
                .expect("policy fact present")
        };
        assert!(ipc_of("belady") >= ipc_of("lru"), "OPT must not be slower");

        let unknown = Plan::WorkloadIpc { workload: "specjbb".into(), policy: "lru".into() };
        assert!(matches!(
            unknown.run_scoped(&db, &ScenarioSelector::all()),
            Err(PlanError::UnknownTrace(_))
        ));

        for plan in [
            Plan::WorkloadIpc { workload: "mcf".into(), policy: "lru".into() },
            Plan::CompareIpcAcrossPolicies { workload: "mcf".into() },
        ] {
            let code = plan.render_code();
            assert!(code.contains("result ="), "missing result binding: {code}");
            assert!(code.contains("estimated IPC"), "code must parse the IPC: {code}");
        }
    }

    /// A store wrapper that counts resolution traffic through the metrics
    /// registry.
    #[derive(Debug)]
    struct CountingStore {
        inner: cachemind_tracedb::TraceDatabase,
        scoped_lookups: Counter,
        scans: Counter,
    }

    impl TraceStore for CountingStore {
        fn get(&self, key: &str) -> Option<&TraceEntry> {
            self.inner.get(key)
        }
        fn trace_keys(&self) -> Vec<String> {
            self.inner.trace_keys()
        }
        fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
            TraceStore::entries(&self.inner)
        }
        fn workloads(&self) -> Vec<String> {
            TraceStore::workloads(&self.inner)
        }
        fn policies(&self) -> Vec<String> {
            TraceStore::policies(&self.inner)
        }
        fn llc_config(&self) -> Option<&CacheConfig> {
            TraceStore::llc_config(&self.inner)
        }
        fn len(&self) -> usize {
            TraceStore::len(&self.inner)
        }
        fn select<'a>(
            &'a self,
            selector: &ScenarioSelector,
        ) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
            self.scans.inc();
            self.inner.select(selector)
        }
        fn get_scoped_resolved(
            &self,
            id: &TraceId,
            scope: &ScenarioSelector,
        ) -> Option<&TraceEntry> {
            self.scoped_lookups.inc();
            self.inner.get_scoped_resolved(id, scope)
        }
    }

    #[test]
    fn multi_step_plans_resolve_each_branch_once() {
        let registry = MetricsRegistry::new();
        let store = CountingStore {
            inner: db(),
            scoped_lookups: registry.counter("test.store.scoped_lookups"),
            scans: registry.counter("test.store.scans"),
        };
        let plan = Plan::CompareIpcAcrossPolicies { workload: "mcf".into() };
        let facts = plan.run_scoped(&store, &ScenarioSelector::all()).unwrap();
        let policies = TraceStore::policies(&store).len() as u64;
        assert_eq!(facts.len() as u64, policies);
        assert_eq!(store.scoped_lookups.get(), policies, "one resolved lookup per policy");
        // quick_demo has no qualified entries, so no keyed miss falls
        // through to the linear fallback scan.
        assert_eq!(store.scans.get(), 0, "no fallback scans for unscoped lookups");
    }

    #[test]
    fn aggfunc_math() {
        assert_eq!(AggFunc::Mean.apply(&[1.0, 3.0]), Some(2.0));
        assert_eq!(AggFunc::Sum.apply(&[1.0, 3.0]), Some(4.0));
        assert_eq!(AggFunc::Max.apply(&[1.0, 3.0]), Some(3.0));
        assert_eq!(AggFunc::Min.apply(&[1.0, 3.0]), Some(1.0));
        assert_eq!(AggFunc::Std.apply(&[2.0, 2.0]), Some(0.0));
        assert_eq!(AggFunc::Mean.apply(&[]), None);
    }
}
