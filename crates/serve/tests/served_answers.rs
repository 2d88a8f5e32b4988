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
//!
//! A Sieve twin pins what Sieve retrieves and answers over every input of
//! the intent digest below: the facts it grounds each answer on, and the
//! answer text with its verdict. Sieve's lookups share Ranger's plan
//! runtime, so these digests catch a change to either that moves Sieve.
//!
//! A further digest pins the parsed intents (`Debug` of
//! `QueryIntent::parse_scoped`) of the mix, the CacheMindBench catalog,
//! the golden-plan questions, the chat tool's exploration commands and
//! edge inputs, so a change to how a question is read shows up here
//! before it shows up in an answer. The same questions check that the
//! retrievers' allocation-free keyword test reads them as a lowercased
//! search would.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cachemind_benchsuite::catalog::Catalog;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_lang::intent::QueryIntent;
use cachemind_lang::token::contains_ignore_ascii_case;
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

/// The digest of every parsed intent of [`intent_inputs`], one line each.
const INTENTS_FNV64: &str = "6cb64dce38767aef";

/// The digests of a Sieve system's facts and of its answer text and
/// verdict over every ask of [`intent_inputs`], one line each.
const SIEVE_FACTS_FNV64: &str = "701cbc5bb2332afd";
const SIEVE_ANSWERS_FNV64: &str = "43dc9fda6b8b5256";

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

/// The question texts of `tests/golden_plans.rs`, with their scopes.
const GOLDEN_PLAN_QUESTIONS: [(&str, &str); 8] = [
    (
        "Does the memory access with PC 0x4008f0 and address 0x7f3a00010000 result in a \
         cache hit or a cache miss for mcf under lru?",
        "",
    ),
    ("How many rows are in the lbm eviction trace under belady?", "@table2"),
    ("How many times did PC 0x400b20 miss in astar under lru?", ""),
    ("Which policy gives the highest IPC on mcf?", "@small"),
    ("Which policy has the lowest miss rate for lbm?", "@table2"),
    ("Which workload achieves the best IPC under belady?", "@table2+stride4"),
    ("Which workload suffers the highest miss rate under lru?", "@small"),
    ("What is the overall miss rate of the mcf workload under lru?", ""),
];

/// The chat tool's exploration commands and inputs at the edges of the
/// tokenizer: non-ASCII case mappings, an upper-case hex prefix,
/// overflowing literals, a bare prefix, and incidental `@`/`+` text.
const EDGE_QUESTIONS: [&str; 24] = [
    "List all unique PCs in the trace for astar under LRU.",
    "For astar workload and Belady replacement policy, could you list unique cache sets in \
     ascending order?",
    "Identify 5 hot and 5 cold sets by hit rate for mcf under belady.",
    "Group the PCs of lbm by reuse distance variance.",
    "Show the per-PC table for milc under LRU.",
    "ΣΑΣ",
    "Why does ΣΑΣ miss under LRU in mcf?",
    "İstanbul: what is the miss rate of astar under Belady?",
    "Does PC 0X4013B4 hit or miss in mcf under LRU?",
    "What is the miss rate of PC 0x4013b4 and address 0X7F3A00010000 in lbm?",
    "How many times did PC 184467440737095516160 appear in astar under lru?",
    "Does address 0x1ffffffffffffffff hit in mcf under LRU?",
    "Does PC 0xzz miss in astar?",
    "Does PC 0x miss in astar?",
    "Why is C++ faster than Python for cache simulators?",
    "Why does PC 0x409200 miss in astar? contact a@b.com",
    "What is the estimated IPC for mcf@table2+stride4/lru?",
    "Which policy has the highest IPC on mcf@table2+stride4/lru, LRU or Belady?",
    "Compare LRU, lru and BELADY on mcf_lru_x for the average reuse distance.",
    "",
    "   ??? ___ x X 0x1F",
    "WHY DOES PC 0x4037BA MİSS İN MCF?",
    // The Kelvin sign lowercases to an ASCII `k`: the word reads "rank".
    "Which policy would you RAN\u{212A} first on mcf?",
    "Why does PC 0x4037ba under PARROT outperform MLP? Examine the assembly context.",
];

/// Every `(question, scope)` whose intent the digest pins: the mix, then
/// the catalog, the golden-plan questions and the edge questions, each
/// of the last three unscoped, under `@table2+stride4` and pinned to
/// `mcf@small/lru`.
fn intent_inputs(store: &cachemind_tracedb::database::TraceDatabase) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        asks(store).into_iter().map(|(q, scope)| (q, scope.unwrap_or("").to_owned())).collect();
    let catalog = Catalog::generate(store);
    let mut texts: Vec<String> = catalog.questions().iter().map(|q| q.text.clone()).collect();
    texts.extend(GOLDEN_PLAN_QUESTIONS.iter().map(|(q, _)| (*q).to_owned()));
    texts.extend(EDGE_QUESTIONS.iter().map(|q| (*q).to_owned()));
    for scope in ["", "@table2+stride4", "mcf@small/lru"] {
        out.extend(texts.iter().map(|q| (q.clone(), scope.to_owned())));
    }
    out.extend(GOLDEN_PLAN_QUESTIONS.iter().map(|(q, s)| ((*q).to_owned(), (*s).to_owned())));
    out
}

#[test]
fn parsed_intents_match_their_recorded_digest() {
    let store = build_database(&config()).expect("store builds");
    let (workloads, policies) = (store.workloads(), store.policies());
    let workloads: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let policies: Vec<&str> = policies.iter().map(String::as_str).collect();
    let inputs = intent_inputs(&store);
    let mut rendered = String::new();
    for (question, scope) in &inputs {
        let intent = QueryIntent::parse_scoped(question, &workloads, &policies, &selector(scope));
        rendered.push_str(&format!("{intent:?}\n"));
    }
    assert!(inputs.len() > 1_000, "only {} intents", inputs.len());
    assert_eq!(
        format!("{:016x}", fnv64(rendered.as_bytes())),
        INTENTS_FNV64,
        "over {} intents",
        inputs.len()
    );
}

/// The scope an input of [`intent_inputs`] is asked in.
fn selector(scope: &str) -> ScenarioSelector {
    if scope.is_empty() {
        ScenarioSelector::all()
    } else {
        ScenarioSelector::parse(scope).expect("the pinned scopes parse")
    }
}

#[test]
fn sieve_answers_match_their_recorded_digests() {
    let store = Arc::new(build_database(&config()).expect("store builds"));
    let inputs = intent_inputs(&store);
    let mind = CacheMind::shared(store).with_retriever(RetrieverKind::Sieve);
    let (mut facts, mut answers) = (String::new(), String::new());
    for (question, scope) in &inputs {
        let answer = mind.ask_query(&Query::scoped(question.clone(), selector(scope)));
        facts.push_str(&format!("{:?}\n", answer.context.facts));
        answers.push_str(&format!("{}|{:?}\n", answer.text, answer.verdict));
    }
    let digest = |text: &str| format!("{:016x}", fnv64(text.as_bytes()));
    assert_eq!(
        (digest(&facts).as_str(), digest(&answers).as_str()),
        (SIEVE_FACTS_FNV64, SIEVE_ANSWERS_FNV64),
        "over {} asks",
        inputs.len()
    );
}

/// Every word Ranger and Sieve look for in a question's raw text.
const RAW_TEXT_WORDS: [&str; 12] = [
    "ipc",
    "miss",
    "evicted",
    "recency",
    "standard deviation",
    "std",
    "sum",
    "total",
    "max",
    "largest",
    "min",
    "smallest",
];

#[test]
fn raw_text_word_tests_equal_a_lowercased_search() {
    let store = build_database(&config()).expect("store builds");
    let mut texts: Vec<String> = intent_inputs(&store).into_iter().map(|(q, _)| q).collect();
    texts.extend(["MİN İPC", "Maß: the STRAßE SUM", "\u{212A}ey MAX mİss"].map(str::to_owned));
    for text in &texts {
        let lower = text.to_lowercase();
        for word in RAW_TEXT_WORDS {
            assert_eq!(
                contains_ignore_ascii_case(text, word),
                lower.contains(word),
                "{word:?} in {text:?}"
            );
        }
    }
}
