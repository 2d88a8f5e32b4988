//! Query-intent parsing: the first stage of both retrievers.
//!
//! Maps a natural-language question to one of the eleven CacheMindBench
//! categories (Table 1) and extracts its slots — PC, memory address,
//! workload and policy names. The workload/policy vocabulary comes from the
//! database (the paper's "sentence embedder extracts workload and
//! replacement policy names ... matched against the database keys").

use serde::{Deserialize, Serialize};

use cachemind_sim::addr::{Address, Pc};
use cachemind_sim::scenario::ScenarioSelector;

use crate::token::{for_each_word, literal, Token};

/// Benchmark tier (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Trace-Grounded Questions (75): exact-match scoring.
    TraceGrounded,
    /// Architectural Reasoning and Analysis (25): rubric scoring 0–5.
    Reasoning,
}

/// The eleven benchmark categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryCategory {
    /// Hit/miss classification for a {PC, address, policy, workload} tuple.
    HitMiss,
    /// Per-PC or per-workload miss-rate computation.
    MissRate,
    /// Ranking policies by hit/miss behaviour.
    PolicyComparison,
    /// Event counting under filters.
    Count,
    /// Arithmetic over trace statistics.
    Arithmetic,
    /// Premise checks that should be rejected.
    Trick,
    /// General microarchitecture concepts.
    Concepts,
    /// Code generation over the trace schema.
    CodeGen,
    /// Causal replacement-policy analysis.
    PolicyAnalysis,
    /// Whole-workload characterisation.
    WorkloadAnalysis,
    /// Linking trace behaviour to code semantics.
    SemanticAnalysis,
}

impl QueryCategory {
    /// All categories in Table 1 order.
    pub const ALL: [QueryCategory; 11] = [
        QueryCategory::HitMiss,
        QueryCategory::MissRate,
        QueryCategory::PolicyComparison,
        QueryCategory::Count,
        QueryCategory::Arithmetic,
        QueryCategory::Trick,
        QueryCategory::Concepts,
        QueryCategory::CodeGen,
        QueryCategory::PolicyAnalysis,
        QueryCategory::WorkloadAnalysis,
        QueryCategory::SemanticAnalysis,
    ];

    /// The tier a category belongs to.
    pub const fn tier(self) -> Tier {
        match self {
            QueryCategory::HitMiss
            | QueryCategory::MissRate
            | QueryCategory::PolicyComparison
            | QueryCategory::Count
            | QueryCategory::Arithmetic
            | QueryCategory::Trick => Tier::TraceGrounded,
            _ => Tier::Reasoning,
        }
    }

    /// Human-readable label (Figure 4 axis).
    pub const fn label(self) -> &'static str {
        match self {
            QueryCategory::HitMiss => "Hit/Miss",
            QueryCategory::MissRate => "Miss Rate",
            QueryCategory::PolicyComparison => "Policy Comparison",
            QueryCategory::Count => "Count",
            QueryCategory::Arithmetic => "Arithmetic",
            QueryCategory::Trick => "Trick Question",
            QueryCategory::Concepts => "Microarchitecture Concepts",
            QueryCategory::CodeGen => "Code Generation",
            QueryCategory::PolicyAnalysis => "Policy Analysis",
            QueryCategory::WorkloadAnalysis => "Workload Analysis",
            QueryCategory::SemanticAnalysis => "Semantic Analysis",
        }
    }
}

/// A parsed query: surface category plus extracted slots.
///
/// Note that [`QueryCategory::Trick`] is never produced by the parser — a
/// trick question *looks like* an ordinary question with a false premise;
/// rejection happens downstream when retrieval surfaces the contradiction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryIntent {
    /// Surface category.
    pub category: QueryCategory,
    /// Extracted PC, if any.
    pub pc: Option<Pc>,
    /// Extracted memory address, if any.
    pub address: Option<Address>,
    /// Extracted workload name.
    pub workload: Option<String>,
    /// The first extracted policy name.
    pub policy: Option<String>,
    /// Every policy mentioned (policy comparisons mention several).
    pub policies: Vec<String>,
    /// Whether the query asks for the minimum ("lowest", "fewest") rather
    /// than the maximum of a ranked quantity.
    pub wants_minimum: bool,
    /// The scenario scope of the question: inline `@machine` syntax found
    /// in the text, merged over whatever scope the caller supplied (a
    /// session-pinned selector, a wire-protocol `scenario` field). Inline
    /// syntax wins per-field.
    pub selector: ScenarioSelector,
    /// The original question text.
    pub raw: String,
}

/// Whether a machine component extracted from free text plausibly names a
/// machine: a known [`MachineConfig::preset`] name, or something carrying
/// a canonical geometry segment (`llc2048x16+dram160`, `1024x16`). This
/// is what keeps incidental `@`-tokens in prose (quoted emails, paths)
/// from being adopted as scenario scopes and silently de-scoping
/// retrieval to a machine that cannot exist.
fn plausible_machine(machine: &str) -> bool {
    use cachemind_sim::config::MachineConfig;
    let looks_like_geometry = |segment: &str| {
        let segment = segment.strip_prefix("llc").unwrap_or(segment);
        match segment.split_once('x') {
            Some((sets, rest)) => {
                !sets.is_empty()
                    && sets.chars().all(|c| c.is_ascii_digit())
                    && rest.chars().next().is_some_and(|c| c.is_ascii_digit())
            }
            None => false,
        }
    };
    MachineConfig::preset(machine).is_some() || machine.split('@').any(looks_like_geometry)
}

/// Extracts the first inline selector token (`mcf@table2`, `@small/lru`,
/// `+stride4`, `astar@table2+stride4/lru`) from a question. Only tokens
/// containing `@` or `+` are considered — plain words never parse as
/// selectors, so questions without the syntax are untouched. A token is
/// adopted only when it is *credibly* a selector: its workload component
/// (if any) must be in the database vocabulary, its machine component (if
/// any) must name a preset or carry a canonical geometry segment
/// ([`plausible_machine`]), and the token must be *anchored* by a machine
/// or prefetcher component — the prefetcher slot anchors by construction,
/// since the selector parser only fills it when the `+component` names a
/// [`PrefetcherKind`](cachemind_sim::prefetch::PrefetcherKind). Quoted
/// emails, `C++` and other incidental `@`/`+` text are ignored rather
/// than silently scoping retrieval to a scenario that does not exist.
fn inline_selector(question: &str, workloads: &[impl AsRef<str>]) -> ScenarioSelector {
    if !question.contains(['@', '+']) {
        return ScenarioSelector::default();
    }
    question
        .split_whitespace()
        .map(|tok| tok.trim_matches(|c: char| ".,;:!?()\"'".contains(c)))
        .filter(|tok| tok.contains('@') || tok.contains('+'))
        .filter_map(|tok| ScenarioSelector::parse(tok).ok())
        .find(|sel| {
            let anchored = sel.machine.is_some() || sel.prefetcher.is_some();
            anchored
                && sel.workload.as_deref().is_none_or(|w| vocab_entry(workloads, w).is_some())
                && sel.machine.as_deref().is_none_or(plausible_machine)
        })
        .unwrap_or_default()
}

/// The vocabulary's entry equal to `word`, borrowed from the vocabulary.
fn vocab_entry<'v>(names: &'v [impl AsRef<str>], word: &str) -> Option<&'v str> {
    names.iter().map(AsRef::as_ref).find(|n| *n == word)
}

/// The words category classification tests for, one bit each of a
/// [`Keywords`] set. A misspelled keyword in a rule does not compile.
#[derive(Clone, Copy)]
enum Kw {
    Assembly,
    Average,
    Best,
    Code,
    Compare,
    Count,
    Distance,
    Evict,
    Evictions,
    Fewest,
    Function,
    Generate,
    Highest,
    Hit,
    Ipc,
    Least,
    Lowest,
    Maximum,
    Mean,
    Minimum,
    Miss,
    Order,
    Outperform,
    Perform,
    Policies,
    Policy,
    Rank,
    Semantic,
    Smallest,
    Source,
    Sum,
    Which,
    Why,
    Workload,
    Write,
}

impl Kw {
    /// The keyword a lowercased word is, if any.
    fn of(word: &str) -> Option<Kw> {
        Some(match word {
            "assembly" => Kw::Assembly,
            "average" => Kw::Average,
            "best" => Kw::Best,
            "code" => Kw::Code,
            "compare" => Kw::Compare,
            "count" => Kw::Count,
            "distance" => Kw::Distance,
            "evict" => Kw::Evict,
            "evictions" => Kw::Evictions,
            "fewest" => Kw::Fewest,
            "function" => Kw::Function,
            "generate" => Kw::Generate,
            "highest" => Kw::Highest,
            "hit" => Kw::Hit,
            "ipc" => Kw::Ipc,
            "least" => Kw::Least,
            "lowest" => Kw::Lowest,
            "maximum" => Kw::Maximum,
            "mean" => Kw::Mean,
            "minimum" => Kw::Minimum,
            "miss" => Kw::Miss,
            "order" => Kw::Order,
            "outperform" => Kw::Outperform,
            "perform" => Kw::Perform,
            "policies" => Kw::Policies,
            "policy" => Kw::Policy,
            "rank" => Kw::Rank,
            "semantic" => Kw::Semantic,
            "smallest" => Kw::Smallest,
            "source" => Kw::Source,
            "sum" => Kw::Sum,
            "which" => Kw::Which,
            "why" => Kw::Why,
            "workload" => Kw::Workload,
            "write" => Kw::Write,
            _ => return None,
        })
    }
}

/// The keywords a question holds, as a bitset over [`Kw`].
#[derive(Clone, Copy, Default)]
struct Keywords(u64);

impl Keywords {
    fn insert(&mut self, kw: Kw) {
        self.0 |= 1 << kw as u32;
    }

    fn has(self, kw: Kw) -> bool {
        self.0 & (1 << kw as u32) != 0
    }
}

impl QueryIntent {
    /// Parses `question` against the database's workload and policy
    /// vocabularies, with no surrounding scenario scope (inline `@machine`
    /// syntax in the text is still honoured).
    pub fn parse(question: &str, workloads: &[&str], policies: &[&str]) -> QueryIntent {
        QueryIntent::parse_scoped(question, workloads, policies, &ScenarioSelector::all())
    }

    /// Parses `question` within a scenario scope: the selector's workload
    /// and policy act as defaults for slots the question leaves open
    /// (validated against the vocabularies, and applied *before*
    /// category classification, so a pinned session classifies "what is
    /// the IPC?" the way "what is the IPC for mcf?" classifies), and its
    /// machine/prefetcher scope rides along for retrieval. Inline
    /// `@machine` syntax in the text wins per-field over `scope`. With the
    /// unscoped selector this is exactly [`QueryIntent::parse`].
    pub fn parse_scoped(
        question: &str,
        workloads: &[&str],
        policies: &[&str],
        scope: &ScenarioSelector,
    ) -> QueryIntent {
        QueryIntent::parse_lowered(question, &question.to_lowercase(), workloads, policies, scope)
    }

    /// [`QueryIntent::parse_scoped`] for a caller that already holds
    /// `lower`, the question lowercased with [`str::to_lowercase`], so the
    /// text is lowercased once per ask, and that may hold its vocabularies
    /// as owned names. The question is tokenized once here.
    pub fn parse_lowered<S: AsRef<str>>(
        question: &str,
        lower: &str,
        workloads: &[S],
        policies: &[S],
        scope: &ScenarioSelector,
    ) -> QueryIntent {
        let selector = inline_selector(question, workloads).merged_over(scope);

        // One pass over the words: keywords into a bitset, the first
        // workload and every distinct policy borrowed from the
        // vocabularies, and the PC and address slots from hex literals.
        // PCs are small (< 2^32, code addresses) and data addresses are
        // large in our traces; past that, literals fill the slots in order.
        let mut keywords = Keywords::default();
        let mut found_workload: Option<&str> = None;
        let mut found_policies: Vec<&str> = Vec::new();
        let (mut pc, mut address) = (None, None);
        let mut word = String::new();
        for_each_word(question, |raw| {
            word.clear();
            if raw.is_ascii() {
                word.push_str(raw);
                word.make_ascii_lowercase();
            } else {
                word.push_str(&raw.to_lowercase());
            }
            match literal(&word) {
                Some(Token::Hex(h)) if h < (1 << 32) && pc.is_none() => pc = Some(Pc::new(h)),
                Some(Token::Hex(h)) => address = address.or(Some(Address::new(h))),
                Some(_) => {}
                None => {
                    if let Some(kw) = Kw::of(&word) {
                        keywords.insert(kw);
                    }
                    if found_workload.is_none() {
                        found_workload = vocab_entry(workloads, &word);
                    }
                    if let Some(p) = vocab_entry(policies, &word) {
                        if !found_policies.contains(&p) {
                            found_policies.push(p);
                        }
                    }
                }
            }
        });
        let has = |kw: Kw| keywords.has(kw);
        let has_phrase = |p: &str| lower.contains(p);

        let workload = found_workload
            .map(str::to_owned)
            .or_else(|| selector.workload.clone().filter(|w| vocab_entry(workloads, w).is_some()));
        let mut mentioned: Vec<String> = found_policies.into_iter().map(str::to_owned).collect();
        if mentioned.is_empty() {
            if let Some(p) = selector.policy.clone().filter(|p| vocab_entry(policies, p).is_some())
            {
                mentioned.push(p);
            }
        }

        // Category rules, most specific first.
        let category = if has_phrase("write code")
            || has_phrase("generate code")
            || has_phrase("generate python")
            || has(Kw::Code) && (has(Kw::Write) || has(Kw::Generate))
        {
            QueryCategory::CodeGen
        } else if has_phrase("how many") || has(Kw::Count) || has_phrase("number of times") {
            QueryCategory::Count
        } else if has(Kw::Average)
            || has(Kw::Mean)
            || has_phrase("standard deviation")
            || has(Kw::Sum)
            || ((has(Kw::Maximum) || has(Kw::Minimum)) && has(Kw::Distance))
        {
            QueryCategory::Arithmetic
        } else if has_phrase("which workload") {
            QueryCategory::WorkloadAnalysis
        } else if has(Kw::Ipc) || has_phrase("instructions per cycle") {
            // IPC questions read the metadata's scenario sentence: ranking
            // questions compare policies, direct questions are rate
            // lookups; without a workload slot there is nothing to cite.
            if (has(Kw::Which)
                || has(Kw::Compare)
                || has(Kw::Rank)
                || has(Kw::Highest)
                || has(Kw::Best))
                && (has(Kw::Policy) || has(Kw::Policies) || mentioned.len() >= 2)
            {
                QueryCategory::PolicyComparison
            } else if workload.is_some() {
                QueryCategory::MissRate
            } else {
                QueryCategory::Concepts
            }
        } else if (has(Kw::Which) || has(Kw::Compare) || has(Kw::Rank) || has(Kw::Order))
            && (has(Kw::Policy) || has(Kw::Policies) || mentioned.len() >= 2)
        {
            QueryCategory::PolicyComparison
        } else if has(Kw::Workload)
            && (has(Kw::Highest) || has(Kw::Lowest) || has(Kw::Compare))
            && pc.is_none()
        {
            QueryCategory::WorkloadAnalysis
        } else if has(Kw::Why)
            && (has(Kw::Assembly) || has(Kw::Semantic) || has(Kw::Function) || has(Kw::Source))
            || has_phrase("assembly context")
            || has_phrase("program behavior")
            || has_phrase("program behaviour")
        {
            QueryCategory::SemanticAnalysis
        } else if has(Kw::Why) && (mentioned.len() >= 2 || has(Kw::Outperform) || has(Kw::Perform))
            || has(Kw::Outperform)
        {
            QueryCategory::PolicyAnalysis
        } else if has_phrase("miss rate") || has_phrase("hit rate") {
            if pc.is_none() && workload.is_none() {
                QueryCategory::Concepts
            } else {
                QueryCategory::MissRate
            }
        } else if has(Kw::Hit) || has(Kw::Miss) || has(Kw::Evict) || has(Kw::Evictions) {
            if pc.is_some() || address.is_some() {
                QueryCategory::HitMiss
            } else if workload.is_some() || !mentioned.is_empty() {
                QueryCategory::WorkloadAnalysis
            } else {
                QueryCategory::Concepts
            }
        } else if pc.is_some() || address.is_some() {
            QueryCategory::SemanticAnalysis
        } else {
            QueryCategory::Concepts
        };

        // "Best" means the *lowest* miss rate but the *highest* IPC — for
        // IPC questions only explicit minimum words ask for the bottom of
        // the ranking.
        let ipc_question = has(Kw::Ipc) || has_phrase("instructions per cycle");
        let wants_minimum = has(Kw::Lowest)
            || has(Kw::Fewest)
            || has(Kw::Least)
            || has(Kw::Smallest)
            || (has(Kw::Best) && !ipc_question);

        QueryIntent {
            category,
            pc,
            address,
            workload,
            policy: mentioned.first().cloned(),
            policies: mentioned,
            wants_minimum,
            selector,
            raw: question.to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["astar", "lbm", "mcf"];
    const POLICIES: [&str; 4] = ["belady", "lru", "mlp", "parrot"];

    fn parse(q: &str) -> QueryIntent {
        QueryIntent::parse(q, &WORKLOADS, &POLICIES)
    }

    #[test]
    fn hit_miss_with_full_tuple() {
        let i = parse(
            "Does the memory access with PC 0x401e31 and address 0x35e798a637f result in a \
             cache hit or miss for the lbm workload under PARROT?",
        );
        assert_eq!(i.category, QueryCategory::HitMiss);
        assert_eq!(i.pc, Some(Pc::new(0x401e31)));
        assert_eq!(i.address, Some(Address::new(0x35e798a637f)));
        assert_eq!(i.workload.as_deref(), Some("lbm"));
        assert_eq!(i.policy.as_deref(), Some("parrot"));
    }

    #[test]
    fn miss_rate_per_pc() {
        let i = parse("What is the miss rate for PC 0x4037ba in mcf with PARROT?");
        assert_eq!(i.category, QueryCategory::MissRate);
        assert_eq!(i.pc, Some(Pc::new(0x4037ba)));
    }

    #[test]
    fn policy_comparison() {
        let i = parse("Which policy has the lowest miss rate for PC 0x409270 in astar?");
        assert_eq!(i.category, QueryCategory::PolicyComparison);
        assert!(i.wants_minimum);
    }

    #[test]
    fn counting() {
        let i = parse("How many times did PC 0x405832 appear in astar under LRU?");
        assert_eq!(i.category, QueryCategory::Count);
        assert_eq!(i.policy.as_deref(), Some("lru"));
    }

    #[test]
    fn arithmetic() {
        let i = parse(
            "What is the average evicted reuse distance of PC 0x40170a for the lbm workload \
             with MLP?",
        );
        assert_eq!(i.category, QueryCategory::Arithmetic);
        assert_eq!(i.policy.as_deref(), Some("mlp"));
    }

    #[test]
    fn ipc_questions_classify_by_shape() {
        let i = parse("What is the estimated IPC for mcf under LRU?");
        assert_eq!(i.category, QueryCategory::MissRate);
        assert_eq!(i.workload.as_deref(), Some("mcf"));
        assert_eq!(i.policy.as_deref(), Some("lru"));

        let i = parse("Which policy gives the highest IPC on astar?");
        assert_eq!(i.category, QueryCategory::PolicyComparison);
        assert!(!i.wants_minimum);

        // "Best" is a minimum for miss rates but a maximum for IPC.
        let i = parse("Which policy is best for IPC on mcf?");
        assert_eq!(i.category, QueryCategory::PolicyComparison);
        assert!(!i.wants_minimum, "best IPC must rank descending");
        let i = parse("Which policy has the best miss rate for PC 0x409270 in astar?");
        assert!(i.wants_minimum);

        let i = parse("What does IPC stand for?");
        assert_eq!(i.category, QueryCategory::Concepts);
    }

    #[test]
    fn concepts_without_slots() {
        let i = parse("How does increasing cache size affect miss rate? Compare #sets vs #ways.");
        assert_eq!(i.category, QueryCategory::Concepts);
    }

    #[test]
    fn code_generation() {
        let i = parse(
            "Write code to compute hits for PC 0x4037ba and address 0xa3a0df3d9d in mcf under \
             LRU.",
        );
        assert_eq!(i.category, QueryCategory::CodeGen);
    }

    #[test]
    fn policy_analysis_why() {
        let i = parse("Why does Belady outperform LRU on PC 0x409270 in astar?");
        assert_eq!(i.category, QueryCategory::PolicyAnalysis);
        assert_eq!(i.policies, vec!["belady", "lru"]);
    }

    #[test]
    fn workload_analysis() {
        let i = parse("Which workload has the highest cache miss rate under MLP?");
        assert_eq!(i.category, QueryCategory::WorkloadAnalysis);
    }

    #[test]
    fn semantic_analysis() {
        let i = parse(
            "Why does PC 0x4037ba have a high hit rate? Examine the assembly context and \
             analyze.",
        );
        assert_eq!(i.category, QueryCategory::SemanticAnalysis);
    }

    #[test]
    fn address_only_hit_miss() {
        let i = parse("Does address 0x47ea85d37f hit in the cache on lbm under LRU?");
        assert_eq!(i.category, QueryCategory::HitMiss);
        assert_eq!(i.address, Some(Address::new(0x47ea85d37f)));
        assert_eq!(i.pc, None);
    }

    #[test]
    fn inline_machine_syntax_lands_in_the_selector() {
        let i = parse("What is the estimated IPC for mcf@table2 under LRU?");
        assert_eq!(i.category, QueryCategory::MissRate, "IPC lookup shape");
        assert_eq!(i.workload.as_deref(), Some("mcf"));
        assert_eq!(i.selector.machine.as_deref(), Some("table2"));
        assert_eq!(i.selector.workload.as_deref(), Some("mcf"));

        let i = parse("What is the miss rate of lbm @small under LRU?");
        assert_eq!(i.selector.machine.as_deref(), Some("small"));
        assert_eq!(i.workload.as_deref(), Some("lbm"));

        // Trailing punctuation is stripped before parsing the token.
        let i = parse("Which policy gives the highest IPC on astar@small?");
        assert_eq!(i.selector.machine.as_deref(), Some("small"));
        assert_eq!(i.category, QueryCategory::PolicyComparison);

        // Questions without the syntax carry the unscoped selector.
        let i = parse("What is the miss rate of mcf under LRU?");
        assert!(i.selector.is_unscoped());

        // Full canonical labels are accepted even without a preset name.
        let i = parse("What is the IPC for mcf@LLC-half@1024x16 under LRU?");
        assert_eq!(i.selector.machine.as_deref(), Some("LLC-half@1024x16"));
    }

    #[test]
    fn inline_prefetcher_syntax_lands_in_the_selector() {
        // A bare prefetcher token anchors a selector on its own.
        let i = parse("What is the estimated IPC for mcf +stride4 under LRU?");
        assert_eq!(i.selector.prefetcher.as_deref(), Some("stride4"));
        assert_eq!(i.selector.machine, None);
        assert_eq!(i.workload.as_deref(), Some("mcf"));

        // Workload-attached prefetcher tokens carry both slots.
        let i = parse("What is the estimated IPC for mcf+nextline under LRU?");
        assert_eq!(i.selector.prefetcher.as_deref(), Some("nextline"));
        assert_eq!(i.selector.workload.as_deref(), Some("mcf"));

        // The fully qualified form threads machine and prefetcher at once.
        let i = parse("What is the estimated IPC for astar@table2+stride4/lru?");
        assert_eq!(i.selector.machine.as_deref(), Some("table2"));
        assert_eq!(i.selector.prefetcher.as_deref(), Some("stride4"));
        assert_eq!(i.selector.policy.as_deref(), Some("lru"));
        assert_eq!(i.workload.as_deref(), Some("astar"));

        // Incidental '+' text is never adopted.
        for q in [
            "Why is C++ faster than Python for cache simulators?",
            "What is 2+2 in mcf under LRU?",
            "Does a+b alias in astar under LRU?",
        ] {
            let i = parse(q);
            assert!(i.selector.is_unscoped(), "{q:?} adopted {:?}", i.selector);
        }
    }

    #[test]
    fn incidental_at_tokens_are_not_adopted_as_selectors() {
        // Quoted emails, handles and paths must not scope retrieval to a
        // machine that cannot exist — the question keeps answering from
        // the primary machine.
        for q in [
            "Why does PC 0x409200 miss in astar? contact bob@example.com",
            "As @reviewer asked: what is the miss rate of mcf under LRU?",
            "What is the miss rate of unknownwl@table2 under LRU?",
        ] {
            let i = parse(q);
            assert!(i.selector.is_unscoped(), "{q:?} adopted {:?}", i.selector);
        }
        // ... while credible selector tokens still are adopted.
        let i = parse("What is the IPC for mcf@table2 under LRU?");
        assert_eq!(i.selector.machine.as_deref(), Some("table2"));
    }

    #[test]
    fn scoped_parse_fills_open_slots_before_classification() {
        use cachemind_sim::scenario::ScenarioSelector;
        let pinned = ScenarioSelector::all().with_workload("mcf").with_policy("lru");
        // Without scope: no workload slot, so an IPC question degrades to
        // Concepts. With a pinned session it classifies as a rate lookup.
        let bare = parse("What is the estimated IPC?");
        assert_eq!(bare.category, QueryCategory::Concepts);
        let scoped =
            QueryIntent::parse_scoped("What is the estimated IPC?", &WORKLOADS, &POLICIES, &pinned);
        assert_eq!(scoped.category, QueryCategory::MissRate);
        assert_eq!(scoped.workload.as_deref(), Some("mcf"));
        assert_eq!(scoped.policy.as_deref(), Some("lru"));

        // Slots the question pins stay the question's: inline text wins.
        let scoped = QueryIntent::parse_scoped(
            "What is the estimated IPC for lbm under belady?",
            &WORKLOADS,
            &POLICIES,
            &pinned,
        );
        assert_eq!(scoped.workload.as_deref(), Some("lbm"));
        assert_eq!(scoped.policy.as_deref(), Some("belady"));

        // A pinned name outside the vocabulary is ignored.
        let alien = ScenarioSelector::all().with_workload("spectre");
        let scoped = QueryIntent::parse_scoped("miss rate?", &WORKLOADS, &POLICIES, &alien);
        assert_eq!(scoped.workload, None);

        // The unscoped selector reproduces plain parse exactly.
        let q = "Which policy has the lowest miss rate for PC 0x409270 in astar?";
        let a = parse(q);
        let b = QueryIntent::parse_scoped(q, &WORKLOADS, &POLICIES, &ScenarioSelector::all());
        assert_eq!(a, b);
    }

    #[test]
    fn inline_selector_wins_over_session_scope_per_field() {
        use cachemind_sim::scenario::ScenarioSelector;
        let pinned = ScenarioSelector::all().with_machine("table2").with_policy("lru");
        let i = QueryIntent::parse_scoped(
            "What is the estimated IPC for mcf@small?",
            &WORKLOADS,
            &POLICIES,
            &pinned,
        );
        assert_eq!(i.selector.machine.as_deref(), Some("small"), "inline machine wins");
        assert_eq!(i.selector.policy.as_deref(), Some("lru"), "pinned policy fills the gap");
        assert_eq!(i.policy.as_deref(), Some("lru"));
    }

    #[test]
    fn tier_assignment_matches_table1() {
        assert_eq!(QueryCategory::Count.tier(), Tier::TraceGrounded);
        assert_eq!(QueryCategory::CodeGen.tier(), Tier::Reasoning);
        assert_eq!(QueryCategory::ALL.len(), 11);
        let tg = QueryCategory::ALL.iter().filter(|c| c.tier() == Tier::TraceGrounded).count();
        assert_eq!(tg, 6);
    }
}
