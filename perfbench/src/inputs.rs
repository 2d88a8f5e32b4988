//! Seeded input generators: the fixed sweep grid, the `ask-distinct`
//! question sequence and the `ask-hot-tcp` question pool.
//!
//! Everything here is a pure function of `(store, seed)`, so two runs with
//! one seed send the program byte-identical inputs.

use std::collections::BTreeSet;

use cachemind_lang::intent::QueryCategory;
use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_tracedb::database::TraceEntry;
use cachemind_tracedb::store::TraceStore;

/// SplitMix64: a tiny, dependency-free seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_cac4_e000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `sweep` grid of ROADMAP aim 1: {astar, lbm, mcf, ptrchase} ×
/// {table2, small} × {none, nextline, stride4} × {lru, srrip, ship,
/// mockingjay, belady} = 120 cells. Fixed: the seed does not change it.
pub const SWEEP_WORKLOADS: [&str; 4] = ["astar", "lbm", "mcf", "ptrchase"];
pub const SWEEP_MACHINES: [&str; 2] = ["table2", "small"];
pub const SWEEP_PREFETCHERS: [PrefetcherKind; 3] =
    [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 4 }];
pub const SWEEP_POLICIES: [&str; 5] = ["lru", "srrip", "ship", "mockingjay", "belady"];

pub fn sweep_machines() -> Vec<MachineConfig> {
    SWEEP_MACHINES.iter().map(|m| MachineConfig::preset(m).expect("known preset")).collect()
}

/// Table 1 category weights (question counts out of 100), plus the
/// exploration commands of the chat tool (Figures 10–13) at the weight of
/// one small Table 1 category.
pub const CATEGORY_WEIGHTS: [(Category, usize); 12] = [
    (Category::Table1(QueryCategory::HitMiss), 30),
    (Category::Table1(QueryCategory::MissRate), 10),
    (Category::Table1(QueryCategory::PolicyComparison), 15),
    (Category::Table1(QueryCategory::Count), 5),
    (Category::Table1(QueryCategory::Arithmetic), 10),
    (Category::Table1(QueryCategory::Trick), 5),
    (Category::Table1(QueryCategory::Concepts), 5),
    (Category::Table1(QueryCategory::CodeGen), 5),
    (Category::Table1(QueryCategory::PolicyAnalysis), 5),
    (Category::Table1(QueryCategory::WorkloadAnalysis), 5),
    (Category::Table1(QueryCategory::SemanticAnalysis), 5),
    (Category::Exploration, 5),
];

/// Share of asks that carry a v2 `scenario` scope.
pub const SCOPED_SHARE: f64 = 0.25;

/// Asks per session before the client closes it.
pub const SESSION_ASKS: usize = 16;

/// Size of the `ask-hot-tcp` question pool.
pub const HOT_POOL: usize = 64;

/// The category a generated question was written for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    Table1(QueryCategory),
    Exploration,
}

impl Category {
    /// Metric-name label (`hitmiss`, ..., `exploration`).
    pub fn label(self) -> String {
        match self {
            Category::Table1(c) => format!("{c:?}").to_lowercase(),
            Category::Exploration => "exploration".to_owned(),
        }
    }
}

/// One ask: question text, optional v2 scope, and the category it was
/// written for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ask {
    pub text: String,
    pub scenario: Option<String>,
    pub category: Category,
}

impl Ask {
    /// The protocol line asking this question, in `session` when given.
    pub fn line(&self, session: Option<u64>) -> String {
        let mut obj = serde_json::Value::object();
        obj.insert("question", serde_json::Value::from(self.text.as_str()));
        if let Some(id) = session {
            obj.insert("session", serde_json::Value::from(id));
        }
        if let Some(scenario) = &self.scenario {
            obj.insert("scenario", serde_json::Value::from(scenario.as_str()));
        }
        obj.to_string()
    }
}

/// Openers and closers a person might wrap around a question. None of
/// them contains a word the intent parser keys on, so a wrapped question
/// parses to the same intent; each one is still a distinct question text
/// and so a distinct answer-cache key.
const OPENERS: [&str; 10] = [
    "",
    "Quick question: ",
    "For my notes, ",
    "Please check: ",
    "Help me out here. ",
    "I am debugging a slowdown. ",
    "Looking at the traces, ",
    "From the simulation data, ",
    "One more thing: ",
    "Just to confirm, ",
];
const CLOSERS: [&str; 10] = [
    "",
    " Thanks!",
    " Please be precise.",
    " Keep it brief.",
    " Cite the trace you used.",
    " This is for a design review.",
    " I need this for a report.",
    " Answer from the stored data.",
    " No speculation please.",
    " Be concise.",
];

/// Upper-cases policy names the way the paper's questions write them.
fn policy_caps(p: &str) -> String {
    match p {
        "lru" => "LRU".to_owned(),
        "mlp" => "MLP".to_owned(),
        "parrot" => "PARROT".to_owned(),
        "belady" => "Belady".to_owned(),
        other => other.to_owned(),
    }
}

/// The v2 scope that selects `entry`'s machine and prefetcher by preset
/// name; `None` for the unqualified baseline entries.
fn entry_scope(entry: &TraceEntry) -> Option<String> {
    let mut scope = String::new();
    if let Some(machine) = &entry.id.machine {
        scope.push('@');
        scope.push_str(machine.split('@').next().unwrap_or(machine));
    }
    if let Some(prefetcher) = &entry.id.prefetcher {
        scope.push('+');
        scope.push_str(prefetcher);
    }
    (!scope.is_empty()).then_some(scope)
}

/// One group of traces that share a workload and a scope.
struct Group<'a> {
    workload: String,
    scope: Option<String>,
    entries: Vec<&'a TraceEntry>,
}

fn groups(store: &dyn TraceStore) -> Vec<Group<'_>> {
    let mut out: Vec<Group<'_>> = Vec::new();
    for entry in store.entries() {
        let scope = entry_scope(entry);
        match out.iter_mut().find(|g| g.workload == entry.id.workload && g.scope == scope) {
            Some(group) => group.entries.push(entry),
            None => {
                out.push(Group { workload: entry.id.workload.clone(), scope, entries: vec![entry] })
            }
        }
    }
    out
}

/// A question text and its optional v2 scope.
type Question = (String, Option<String>);

/// The question templates of every category, filled from the store's own
/// traces, with no paraphrase applied. Sorted and free of duplicates.
pub fn base_questions(store: &dyn TraceStore) -> Vec<(Category, Vec<Question>)> {
    use QueryCategory as Q;
    let policies = store.policies();
    let groups = groups(store);
    let mut out = Vec::new();
    let mut push = |category: Category, items: BTreeSet<Question>| {
        out.push((category, items.into_iter().collect::<Vec<_>>()));
    };

    let mut hitmiss = BTreeSet::new();
    let mut missrate = BTreeSet::new();
    let mut count = BTreeSet::new();
    let mut arith = BTreeSet::new();
    let mut codegen = BTreeSet::new();
    let mut semantic = BTreeSet::new();
    for entry in store.entries() {
        let (w, p, scope) = (&entry.id.workload, policy_caps(&entry.id.policy), entry_scope(entry));
        let rows = entry.frame.rows();
        // Every 17th row: still thousands of (PC, address) pairs per
        // category, at a fraction of the set-up cost of all of them.
        for row in rows.iter().step_by(17) {
            let (pc, addr) = (row.pc, row.address);
            hitmiss.insert((
                format!(
                    "Does the memory access with PC {pc} and address {addr} result in a cache \
                     hit or cache miss for the {w} workload and {p} replacement policy?"
                ),
                scope.clone(),
            ));
            count.insert((
                format!("How many times did PC {pc} access address {addr} in {w} under {p}?"),
                scope.clone(),
            ));
            codegen.insert((
                format!(
                    "Write code to compute the number of hits for PC {pc} and address {addr} \
                     in the {w} workload under {p}."
                ),
                scope.clone(),
            ));
        }
        missrate.insert((
            format!("What is the overall miss rate of the {w} workload under the {p} policy?"),
            scope.clone(),
        ));
        missrate.insert((format!("What is the estimated IPC for {w} under {p}?"), scope.clone()));
        for pc in entry.frame.unique_pcs() {
            missrate.insert((
                format!(
                    "What is the miss rate for PC {pc} in the {w} workload with the {p} \
                     replacement policy? Answer in percent."
                ),
                scope.clone(),
            ));
            count.insert((
                format!("How many times did PC {pc} appear in the {w} workload under {p}?"),
                scope.clone(),
            ));
            count.insert((
                format!("How many cache misses did PC {pc} cause in the {w} workload under {p}?"),
                scope.clone(),
            ));
            for func in ["average", "maximum", "minimum", "standard deviation of the"] {
                for column in ["reuse distance", "evicted reuse distance"] {
                    arith.insert((
                        format!(
                            "What is the {func} {column} of PC {pc} for the {w} workload with {p}?"
                        ),
                        scope.clone(),
                    ));
                }
            }
            for rate in ["high hit rate", "low hit rate"] {
                semantic.insert((
                    format!(
                        "Why does PC {pc} have a {rate} in the {w} workload under {p}? Examine \
                         the assembly context and analyze the access pattern."
                    ),
                    scope.clone(),
                ));
            }
        }
        for column in ["reuse distance", "evicted reuse distance"] {
            arith.insert((
                format!("What is the average {column} across the {w} workload under {p}?"),
                scope.clone(),
            ));
        }
    }

    let mut comparison = BTreeSet::new();
    let mut trick = BTreeSet::new();
    let mut analysis = BTreeSet::new();
    let mut explore = BTreeSet::new();
    for group in &groups {
        let w = &group.workload;
        let pcs: BTreeSet<_> = group.entries.iter().flat_map(|e| e.frame.unique_pcs()).collect();
        for pc in &pcs {
            for end in ["lowest", "highest"] {
                for rate in ["miss rate", "hit rate"] {
                    comparison.insert((
                        format!(
                            "Which policy has the {end} {rate} for PC {pc} in the {w} workload?"
                        ),
                        group.scope.clone(),
                    ));
                }
            }
            for text in [
                format!("Rank the policies by miss rate for PC {pc} in the {w} workload."),
                format!("Compare the miss rates of all policies for PC {pc} in the {w} workload."),
                format!("Which replacement policy has the fewest misses for PC {pc} in {w}?"),
            ] {
                comparison.insert((text, group.scope.clone()));
            }
            for a in &policies {
                for b in policies.iter().filter(|b| *b != a) {
                    analysis.insert((
                        format!(
                            "Why does {} outperform {} on PC {pc} in the {w} workload? Link the \
                             reuse pattern to the policy mechanics.",
                            policy_caps(a),
                            policy_caps(b)
                        ),
                        group.scope.clone(),
                    ));
                }
            }
        }
        comparison
            .insert((format!("Which policy gives the highest IPC on {w}?"), group.scope.clone()));
        // Trick: a PC of this workload asked about another workload of the
        // same scope, where it never occurs.
        for other in groups.iter().filter(|g| g.workload != *w && g.scope == group.scope) {
            let foreign: BTreeSet<_> =
                other.entries.iter().flat_map(|e| e.frame.unique_pcs()).collect();
            for pc in pcs.iter().filter(|pc| !foreign.contains(pc)) {
                for p in &policies {
                    trick.insert((
                        format!(
                            "Does the memory access with PC {pc} result in a cache hit or cache \
                             miss for the {} workload and {} replacement policy?",
                            other.workload,
                            policy_caps(p)
                        ),
                        group.scope.clone(),
                    ));
                }
            }
        }
        for p in &policies {
            let p = policy_caps(p);
            for command in [
                format!("List all unique PCs in the {w} trace under {p}."),
                format!("List the unique cache sets of {w} under {p}."),
                format!("Group the PCs of {w} under {p} by reuse distance variance."),
                format!("Identify the hot and cold sets of {w} under {p}."),
                format!("Show the per-PC table for {w} under {p}."),
            ] {
                explore.insert((command, group.scope.clone()));
            }
        }
    }

    let mut workload_analysis = BTreeSet::new();
    let scopes: BTreeSet<Option<String>> = groups.iter().map(|g| g.scope.clone()).collect();
    for scope in &scopes {
        for p in &policies {
            let p = policy_caps(p);
            for end in ["highest", "lowest"] {
                workload_analysis.insert((
                    format!(
                        "Which workload has the {end} cache miss rate under {p}? Explain what \
                         property of its access pattern drives the result."
                    ),
                    scope.clone(),
                ));
                for measure in ["IPC", "hit rate", "number of evictions"] {
                    workload_analysis.insert((
                        format!("Which workload has the {end} {measure} under {p}?"),
                        scope.clone(),
                    ));
                }
            }
            workload_analysis.insert((
                format!(
                    "Which workload benefits most from {p}? Explain the access pattern behind it."
                ),
                scope.clone(),
            ));
        }
    }

    let mut concepts = BTreeSet::new();
    for ways in [2, 4, 8, 16, 32] {
        for sets in [64, 128, 256, 512, 1024, 2048, 4096, 8192] {
            let kb = ways * sets * 64 / 1024;
            for text in [
                format!("Explain how a {ways}-way set-associative cache with {sets} sets maps an address to a set."),
                format!("How does doubling the associativity of a {kb} KB cache with {sets} sets change conflict misses?"),
                format!("Why can an optimal replacement policy not be built in hardware for a {ways}-way cache?"),
                format!("What is a reuse distance, and how does a {ways}-way cache with {sets} sets turn it into evictions?"),
            ] {
                concepts.insert((text, None));
            }
        }
    }

    push(Category::Table1(Q::HitMiss), hitmiss);
    push(Category::Table1(Q::MissRate), missrate);
    push(Category::Table1(Q::PolicyComparison), comparison);
    push(Category::Table1(Q::Count), count);
    push(Category::Table1(Q::Arithmetic), arith);
    push(Category::Table1(Q::Trick), trick);
    push(Category::Table1(Q::Concepts), concepts);
    push(Category::Table1(Q::CodeGen), codegen);
    push(Category::Table1(Q::PolicyAnalysis), analysis);
    push(Category::Table1(Q::WorkloadAnalysis), workload_analysis);
    push(Category::Table1(Q::SemanticAnalysis), semantic);
    push(Category::Exploration, explore);
    out
}

/// Draws `n` distinct paraphrased asks of one category: `scoped` of them
/// from the scoped base questions, the rest from the unscoped ones.
fn draw(rng: &mut Rng, category: Category, base: &[Question], n: usize, scoped: usize) -> Vec<Ask> {
    let mut out = Vec::with_capacity(n);
    for (want_scoped, count) in [(true, scoped), (false, n - scoped)] {
        let pool: Vec<&Question> =
            base.iter().filter(|(_, s)| s.is_some() == want_scoped).collect();
        let space = pool.len() * OPENERS.len() * CLOSERS.len();
        assert!(
            count <= space,
            "{}: {count} distinct asks wanted but only {space} exist",
            category.label()
        );
        // Sampling without replacement: distinct indices into the
        // (base question × opener × closer) space.
        let mut taken = BTreeSet::new();
        while taken.len() < count {
            taken.insert(rng.below(space));
        }
        let mut picked: Vec<usize> = taken.into_iter().collect();
        rng.shuffle(&mut picked);
        for index in picked {
            let (text, scenario) = pool[index / (OPENERS.len() * CLOSERS.len())];
            let opener = OPENERS[index / CLOSERS.len() % OPENERS.len()];
            let closer = CLOSERS[index % CLOSERS.len()];
            out.push(Ask {
                text: format!("{opener}{text}{closer}"),
                scenario: scenario.clone(),
                category,
            });
        }
    }
    out
}

/// Splits `total` asks over the categories in proportion to their
/// weights (largest remainders), so every run asks the same mix.
pub fn category_counts(total: usize) -> Vec<(Category, usize)> {
    let weight_sum: usize = CATEGORY_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut counts: Vec<(Category, usize, usize)> = CATEGORY_WEIGHTS
        .iter()
        .map(|&(c, w)| (c, total * w / weight_sum, total * w % weight_sum))
        .collect();
    let mut left = total - counts.iter().map(|c| c.1).sum::<usize>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i].2));
    for i in order {
        if left == 0 {
            break;
        }
        counts[i].1 += 1;
        left -= 1;
    }
    counts.into_iter().map(|(c, n, _)| (c, n)).collect()
}

/// The `ask-distinct` sequence: `total` asks, no two alike, in the
/// Table 1 mix with a [`SCOPED_SHARE`] of scoped asks, split into one
/// stream per client. Each client stream opens a session every
/// [`SESSION_ASKS`] asks, and that opening ask is always unscoped, so a
/// session's pinned scope is always the unscoped one.
pub fn distinct_sequence(
    store: &dyn TraceStore,
    seed: u64,
    total: usize,
    clients: usize,
) -> Vec<Vec<Ask>> {
    let mut rng = Rng::new(seed);
    let base = base_questions(store);
    let mut asks = Vec::with_capacity(total);
    for (category, n) in category_counts(total) {
        let questions = &base.iter().find(|(c, _)| *c == category).expect("every category").1;
        let has_scoped = questions.iter().any(|(_, s)| s.is_some());
        let scoped = if has_scoped { (n as f64 * SCOPED_SHARE).round() as usize } else { 0 };
        asks.extend(draw(&mut rng, category, questions, n, scoped));
    }
    rng.shuffle(&mut asks);
    let per_client = total.div_ceil(clients);
    let mut streams: Vec<Vec<Ask>> = asks.chunks(per_client).map(<[Ask]>::to_vec).collect();
    for stream in &mut streams {
        for start in (0..stream.len()).step_by(SESSION_ASKS) {
            if stream[start].scenario.is_some() {
                if let Some(swap) =
                    (start + 1..stream.len()).find(|&i| stream[i].scenario.is_none())
                {
                    stream.swap(start, swap);
                }
            }
        }
    }
    streams
}

/// The `ask-hot-tcp` pool: [`HOT_POOL`] distinct asks in the Table 1 mix,
/// a pure function of the seed.
pub fn hot_pool(store: &dyn TraceStore, seed: u64) -> Vec<Ask> {
    let mut pool = distinct_sequence(store, seed ^ 0x4807, HOT_POOL, 1).remove(0);
    pool.sort_by(|a, b| (&a.text, &a.scenario).cmp(&(&b.text, &b.scenario)));
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_lang::intent::QueryIntent;
    use cachemind_tracedb::shard::ShardedTraceDatabase;
    use std::sync::OnceLock;

    fn store() -> &'static ShardedTraceDatabase {
        static STORE: OnceLock<ShardedTraceDatabase> = OnceLock::new();
        STORE.get_or_init(|| crate::ask::build_store().expect("store builds"))
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }

    #[test]
    fn category_counts_follow_the_weights() {
        let counts = category_counts(2100);
        assert_eq!(counts.iter().map(|c| c.1).sum::<usize>(), 2100);
        for ((category, n), (_, w)) in counts.iter().zip(CATEGORY_WEIGHTS) {
            assert_eq!(*n, 2100 * w / 105, "{}", category.label());
        }
    }

    #[test]
    fn distinct_sequence_never_repeats_and_is_seeded() {
        let store = store();
        let total = 80_000;
        let streams = distinct_sequence(store, 3, total, 2);
        assert_eq!(streams.len(), 2);
        let all: Vec<&Ask> = streams.iter().flatten().collect();
        assert_eq!(all.len(), total);
        let unique: BTreeSet<(&str, Option<&str>)> =
            all.iter().map(|a| (a.text.as_str(), a.scenario.as_deref())).collect();
        assert_eq!(unique.len(), total, "an ask repeats");
        for (category, n) in category_counts(total) {
            assert_eq!(all.iter().filter(|a| a.category == category).count(), n);
        }
        let scoped = all.iter().filter(|a| a.scenario.is_some()).count() as f64;
        assert!((scoped / total as f64 - 0.23).abs() < 0.03, "scoped share {scoped}");
        for stream in &streams {
            for start in (0..stream.len()).step_by(SESSION_ASKS) {
                assert!(stream[start].scenario.is_none(), "sessions open unscoped");
            }
        }
        assert_eq!(distinct_sequence(store, 3, 500, 2), distinct_sequence(store, 3, 500, 2));
        assert_ne!(distinct_sequence(store, 3, 500, 2), distinct_sequence(store, 4, 500, 2));
    }

    #[test]
    fn questions_parse_to_their_category() {
        let store = store();
        let workloads = store.workloads();
        let policies = store.policies();
        let w: Vec<&str> = workloads.iter().map(String::as_str).collect();
        let p: Vec<&str> = policies.iter().map(String::as_str).collect();
        for ask in distinct_sequence(store, 11, 4_000, 1).remove(0) {
            let Category::Table1(category) = ask.category else { continue };
            let parsed = QueryIntent::parse(&ask.text, &w, &p).category;
            // The parser never yields Trick: a trick question reads as an
            // ordinary hit/miss question with a false premise.
            let want =
                if category == QueryCategory::Trick { QueryCategory::HitMiss } else { category };
            assert_eq!(parsed, want, "{:?}", ask.text);
        }
    }

    #[test]
    fn hot_pool_is_fixed_per_seed() {
        let store = store();
        let pool = hot_pool(store, 5);
        assert_eq!(pool.len(), HOT_POOL);
        assert_eq!(pool, hot_pool(store, 5));
        assert_ne!(pool, hot_pool(store, 6));
        let unique: BTreeSet<_> = pool.iter().map(|a| (&a.text, &a.scenario)).collect();
        assert_eq!(unique.len(), HOT_POOL);
    }

    #[test]
    fn sweep_grid_is_fixed() {
        let cells = SWEEP_WORKLOADS.len()
            * sweep_machines().len()
            * SWEEP_PREFETCHERS.len()
            * SWEEP_POLICIES.len();
        assert_eq!(cells, 120);
        let labels: Vec<String> = SWEEP_PREFETCHERS.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["none", "nextline", "stride4"]);
    }
}
