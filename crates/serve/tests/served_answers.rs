//! Served answers to PC-scoped asks, pinned by digest.
//!
//! A fixed Ranger mix over the Tiny store with the table2 and small
//! machines and the stride4 prefetcher: for each frame's hottest PCs, every
//! PC-scoped plan — `Lookup`, `CountRows` with and without an address and
//! misses-only, `Aggregate` over each column with each function,
//! `CompareAcrossPolicies`, `PcMissRate` and `ContextBundle` — asked
//! unscoped and under `@table2+stride4`. The FNV-1a digest of the rendered
//! responses must not move when the way those plans read the trace
//! changes: a faster read path is only correct if it serves the same bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine};
use cachemind_sim::addr::{Address, Pc};
use cachemind_sim::hash::fnv64;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::TraceEntry;
use cachemind_tracedb::store::TraceStore;
use serde_json::Value;

/// The digests of the mix's rendered responses and of the facts its plans
/// retrieved, recorded when the mix was written.
const SERVED_FNV64: &str = "12a2f47e48520592";
const FACTS_FNV64: &str = "25ef10130a91adba";

/// Hot PCs asked about per frame.
const HOT_PCS: usize = 4;

const SCOPES: [Option<&str>; 2] = [None, Some("@table2+stride4")];

fn policy_caps(p: &str) -> String {
    match p {
        "lru" => "LRU".to_owned(),
        "belady" => "Belady".to_owned(),
        other => other.to_owned(),
    }
}

/// The frame's `HOT_PCS` most-accessed PCs (ties by PC), each with the
/// address of its first access, counted by a plain scan.
fn hot_pcs(entry: &TraceEntry) -> Vec<(Pc, Address)> {
    let mut counts: BTreeMap<Pc, (usize, Address)> = BTreeMap::new();
    for row in entry.frame.rows() {
        counts.entry(row.pc).or_insert((0, row.address)).0 += 1;
    }
    let mut hot: Vec<(Pc, usize, Address)> =
        counts.into_iter().map(|(pc, (n, addr))| (pc, n, addr)).collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.into_iter().take(HOT_PCS).map(|(pc, _, addr)| (pc, addr)).collect()
}

/// The question texts of the mix, sorted and free of duplicates.
fn questions(store: &dyn TraceStore) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for entry in store.entries() {
        let (w, p) = (&entry.id.workload, policy_caps(&entry.id.policy));
        let hot = hot_pcs(entry);
        // An address the frame holds only under another PC, when it has one.
        let foreign = entry.frame.rows().iter().find(|r| r.pc != hot[0].0).map(|r| r.address);
        for &(pc, addr) in &hot {
            let mut addresses = vec![addr];
            addresses.extend(foreign);
            for a in addresses {
                out.insert(format!(
                    "Does the memory access with PC {pc} and address {a} result in a cache \
                     hit or cache miss for the {w} workload and {p} replacement policy?"
                ));
                out.insert(format!(
                    "How many times did PC {pc} access address {a} in {w} under {p}?"
                ));
                out.insert(format!(
                    "How many cache misses did PC {pc} cause at address {a} in {w} under {p}?"
                ));
            }
            out.insert(format!("How many times did PC {pc} appear in the {w} workload under {p}?"));
            out.insert(format!(
                "How many cache misses did PC {pc} cause in the {w} workload under {p}?"
            ));
            for func in ["average", "sum of the", "maximum", "minimum", "standard deviation of the"]
            {
                for column in ["reuse distance", "evicted reuse distance", "recency distance"] {
                    out.insert(format!(
                        "What is the {func} {column} of PC {pc} for the {w} workload with {p}?"
                    ));
                }
            }
            out.insert(format!(
                "What is the miss rate for PC {pc} in the {w} workload with the {p} replacement \
                 policy? Answer in percent."
            ));
            out.insert(format!(
                "Which policy has the lowest miss rate for PC {pc} in the {w} workload?"
            ));
            out.insert(format!(
                "Why does PC {pc} have a high hit rate in the {w} workload under {p}? Examine \
                 the assembly context and analyze the access pattern."
            ));
        }
    }
    out
}

/// Every question of the mix in every scope, scope-major.
fn asks(store: &dyn TraceStore) -> Vec<(String, Option<&'static str>)> {
    let questions = questions(store);
    SCOPES.iter().flat_map(|&scope| questions.iter().map(move |q| (q.clone(), scope))).collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        retriever: RetrieverKind::Ranger,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        threads: Some(1),
        ..ServeConfig::default()
    }
}

#[test]
fn pc_scoped_ranger_answers_match_their_recorded_digests() {
    let config = config();
    let store: Arc<dyn TraceStore> = Arc::new(build_database(&config).expect("store builds"));
    let asks = asks(store.as_ref());
    assert!(asks.len() > 1_000, "the mix asks only {} questions", asks.len());

    // The served bytes: one protocol line per ask, each in a fresh session.
    let engine = ServeEngine::over(build_database(&config).expect("store builds"), config);
    let mut rendered = String::new();
    for (question, scope) in &asks {
        let mut line = Value::object();
        line.insert("question", Value::from(question.as_str()));
        if let Some(scope) = scope {
            line.insert("scenario", Value::from(*scope));
        }
        let outcome = engine.serve_line(&line.to_string(), false, "stdin", None);
        assert!(!outcome.rendered.contains("\"error\""), "{question}: {}", outcome.rendered);
        rendered.push_str(&outcome.rendered);
        rendered.push('\n');
    }

    // The plans' facts behind them, floats printed exactly: the generator
    // restates only some of each fact's digits in the served text.
    let mind = CacheMind::shared(store).with_retriever(RetrieverKind::Ranger);
    let mut facts = String::new();
    for (question, scope) in &asks {
        let selector = scope.map_or_else(ScenarioSelector::all, |s| {
            ScenarioSelector::parse(s).expect("the mix's scopes parse")
        });
        let answer = mind.ask_query(&Query::scoped(question.clone(), selector));
        facts.push_str(&format!("{:?}\n", answer.context.facts));
    }

    let digest = |text: &str| format!("{:016x}", fnv64(text.as_bytes()));
    assert_eq!(
        (digest(&rendered).as_str(), digest(&facts).as_str()),
        (SERVED_FNV64, FACTS_FNV64),
        "over {} asks",
        asks.len()
    );
}
