//! Catalog generation: the 100 verified questions of Table 1, derived from
//! the trace database's own ground truth.

use cachemind_lang::intent::QueryCategory;
use cachemind_sim::addr::Pc;
use cachemind_tracedb::database::{TraceDatabase, TraceEntry};
use cachemind_tracedb::stats::CacheStatisticalExpert;
use cachemind_tracedb::store::TraceStore;

use crate::question::{Expected, Question};

/// Table 1 category sizes.
pub const CATEGORY_SIZES: [(QueryCategory, usize); 11] = [
    (QueryCategory::HitMiss, 30),
    (QueryCategory::MissRate, 10),
    (QueryCategory::PolicyComparison, 15),
    (QueryCategory::Count, 5),
    (QueryCategory::Arithmetic, 10),
    (QueryCategory::Trick, 5),
    (QueryCategory::Concepts, 5),
    (QueryCategory::CodeGen, 5),
    (QueryCategory::PolicyAnalysis, 5),
    (QueryCategory::WorkloadAnalysis, 5),
    (QueryCategory::SemanticAnalysis, 5),
];

/// The generated benchmark suite.
#[derive(Debug, Clone)]
pub struct Catalog {
    questions: Vec<Question>,
}

impl Catalog {
    /// All questions, trace-grounded tier first.
    pub fn questions(&self) -> &[Question] {
        &self.questions
    }

    /// Questions of one category.
    pub fn by_category(&self, category: QueryCategory) -> Vec<&Question> {
        self.questions.iter().filter(|q| q.category == category).collect()
    }

    /// Generates the full 100-question suite from a database that contains
    /// the standard three workloads and four policies.
    ///
    /// # Panics
    ///
    /// Panics if the database lacks the traces needed to ground a category
    /// (the builder's defaults always suffice).
    pub fn generate(db: &TraceDatabase) -> Catalog {
        let mut questions = Vec::with_capacity(100);
        questions.extend(gen_hitmiss(db, 30));
        questions.extend(gen_missrate(db, 10));
        questions.extend(gen_policy_comparison(db, 15));
        questions.extend(gen_count(db, 5));
        questions.extend(gen_arithmetic(db, 10));
        questions.extend(gen_trick(db, 5));
        questions.extend(gen_concepts(5));
        questions.extend(gen_codegen(db, 5));
        questions.extend(gen_policy_analysis(db, 5));
        questions.extend(gen_workload_analysis(db, 5));
        questions.extend(gen_semantic_analysis(db, 5));
        assert_eq!(questions.len(), 100, "Table 1 requires exactly 100 questions");
        Catalog { questions }
    }
}

fn entries_in_order(db: &TraceDatabase) -> Vec<&TraceEntry> {
    // BTreeMap ordering makes this deterministic.
    db.entries().collect()
}

/// Upper-cases the policy for question text, as the paper writes them.
fn policy_caps(p: &str) -> String {
    match p {
        "lru" => "LRU".to_owned(),
        "mlp" => "MLP".to_owned(),
        "parrot" => "PARROT".to_owned(),
        "belady" => "Belady".to_owned(),
        other => other.to_owned(),
    }
}

fn gen_hitmiss(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let entries = entries_in_order(db);
    let mut i = 0usize;
    'outer: loop {
        for entry in &entries {
            if out.len() >= n {
                break 'outer;
            }
            let rows = entry.frame.rows();
            if rows.is_empty() {
                continue;
            }
            // Stride through the trace for variety.
            let row = &rows[(37 * (i + 1)) % rows.len()];
            let first = rows
                .iter()
                .find(|r| r.pc == row.pc && r.address == row.address)
                .expect("pair exists");
            out.push(Question {
                id: format!("tg-hitmiss-{:02}", out.len() + 1),
                text: format!(
                    "Does the memory access with PC {} and address {} result in a cache hit \
                     or cache miss for the {} workload and {} replacement policy?",
                    first.pc,
                    first.address,
                    entry.id.workload,
                    policy_caps(&entry.id.policy)
                ),
                category: QueryCategory::HitMiss,
                expected: Expected::HitMiss(first.is_miss),
            });
            i += 1;
        }
    }
    out
}

fn gen_missrate(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let expert = CacheStatisticalExpert::new();
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let entries = entries_in_order(db);
    // 8 per-PC rates.
    let mut i = 0usize;
    while out.len() < n.saturating_sub(2) && i < 500 {
        let entry = entries[i % entries.len()];
        let pcs = entry.frame.unique_pcs();
        let pc = pcs[(i / entries.len() + i) % pcs.len()];
        if !seen.insert((entry.id.key(), pc)) {
            i += 1;
            continue;
        }
        if let Some(stats) = expert.pc_stats(&entry.frame, pc) {
            out.push(Question {
                id: format!("tg-missrate-{:02}", out.len() + 1),
                text: format!(
                    "What is the miss rate for PC {} in the {} workload with the {} \
                     replacement policy? Answer in percent.",
                    pc,
                    entry.id.workload,
                    policy_caps(&entry.id.policy)
                ),
                category: QueryCategory::MissRate,
                expected: Expected::Number { value: stats.miss_rate() * 100.0, tolerance: 0.05 },
            });
        }
        i += 1;
    }
    // 2 whole-workload rates.
    for entry in entries.iter().take(2) {
        let rate = cachemind_tracedb::meta::extract_percent(&entry.metadata, "miss rate")
            .expect("metadata always carries a miss rate");
        out.push(Question {
            id: format!("tg-missrate-{:02}", out.len() + 1),
            text: format!(
                "What is the overall miss rate of the {} workload under the {} policy? \
                 Answer in percent.",
                entry.id.workload,
                policy_caps(&entry.id.policy)
            ),
            category: QueryCategory::MissRate,
            expected: Expected::Number { value: rate, tolerance: 0.05 },
        });
    }
    out.truncate(n);
    out
}

/// Per-policy miss rates for a PC, in the same (sorted) policy order and
/// with the same stable ranking the retriever/generator pipeline uses.
fn policy_ranking(db: &TraceDatabase, workload: &str, pc: Pc, minimum: bool) -> Vec<(String, f64)> {
    let expert = CacheStatisticalExpert::new();
    let mut values = Vec::new();
    for policy in db.policies() {
        let Some(entry) = db.get_id(&cachemind_tracedb::database::TraceId::new(workload, &policy))
        else {
            continue;
        };
        if let Some(stats) = expert.pc_stats(&entry.frame, pc) {
            values.push((policy, stats.miss_rate() * 100.0));
        }
    }
    if minimum {
        values.sort_by(|a, b| a.1.total_cmp(&b.1));
    } else {
        values.sort_by(|a, b| b.1.total_cmp(&a.1));
    }
    values
}

fn gen_policy_comparison(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let workloads = db.workloads();
    let mut skip = 0usize;
    'outer: for round in 0.. {
        for w in &workloads {
            if out.len() >= n {
                break 'outer;
            }
            let entry = db.get(&format!("{w}_evictions_lru")).expect("lru trace present");
            let pcs = entry.frame.unique_pcs();
            if pcs.is_empty() {
                continue;
            }
            let pc = pcs[(round + skip) % pcs.len()];
            let minimum = out.len() % 2 == 0;
            if seen.contains(&(w.clone(), pc, minimum)) {
                skip += 1;
                continue;
            }
            let ranking = policy_ranking(db, w, pc, minimum);
            // Require an unambiguous winner so exact-match scoring is fair.
            if ranking.len() < 2 || (ranking[0].1 - ranking[1].1).abs() < 0.01 {
                skip += 1;
                continue;
            }
            seen.insert((w.clone(), pc, minimum));
            out.push(Question {
                id: format!("tg-policycmp-{:02}", out.len() + 1),
                text: format!(
                    "Which policy has the {} miss rate for PC {} in the {} workload?",
                    if minimum { "lowest" } else { "highest" },
                    pc,
                    w
                ),
                category: QueryCategory::PolicyComparison,
                expected: Expected::RankingFirst(ranking[0].0.clone()),
            });
        }
        if round > 200 {
            break;
        }
    }
    // Fallback for sparse traces where per-PC rankings tie everywhere: the
    // verdict and the truth use the *same* stable sort over the same policy
    // order, so tied rankings still score consistently.
    let mut round = 0usize;
    while out.len() < n && round < 200 {
        let w = &workloads[round % workloads.len()];
        let entry = db.get(&format!("{w}_evictions_lru")).expect("lru trace present");
        let pcs = entry.frame.unique_pcs();
        let pc = pcs[(round / workloads.len()) % pcs.len()];
        let minimum = out.len() % 2 == 0;
        round += 1;
        if !seen.insert((w.clone(), pc, minimum)) {
            continue;
        }
        let ranking = policy_ranking(db, w, pc, minimum);
        if ranking.is_empty() {
            continue;
        }
        out.push(Question {
            id: format!("tg-policycmp-{:02}", out.len() + 1),
            text: format!(
                "Which policy has the {} miss rate for PC {} in the {} workload?",
                if minimum { "lowest" } else { "highest" },
                pc,
                w
            ),
            category: QueryCategory::PolicyComparison,
            expected: Expected::RankingFirst(ranking[0].0.clone()),
        });
    }
    out
}

fn gen_count(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let entries = entries_in_order(db);
    for (i, entry) in entries.iter().enumerate() {
        if out.len() >= n {
            break;
        }
        let pcs = entry.frame.unique_pcs();
        let pc = pcs[i % pcs.len()];
        if out.len() < 3 {
            let truth = entry.frame.rows().iter().filter(|r| r.pc == pc).count() as u64;
            out.push(Question {
                id: format!("tg-count-{:02}", out.len() + 1),
                text: format!(
                    "How many times did PC {} appear in the {} workload under {}?",
                    pc,
                    entry.id.workload,
                    policy_caps(&entry.id.policy)
                ),
                category: QueryCategory::Count,
                expected: Expected::Number { value: truth as f64, tolerance: 0.01 },
            });
        } else {
            let truth =
                entry.frame.rows().iter().filter(|r| r.pc == pc && r.is_miss).count() as u64;
            out.push(Question {
                id: format!("tg-count-{:02}", out.len() + 1),
                text: format!(
                    "How many cache misses did PC {} cause in the {} workload under {}?",
                    pc,
                    entry.id.workload,
                    policy_caps(&entry.id.policy)
                ),
                category: QueryCategory::Count,
                expected: Expected::Number { value: truth as f64, tolerance: 0.01 },
            });
        }
    }
    out
}

fn gen_arithmetic(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let entries = entries_in_order(db);
    let mut i = 0usize;
    while out.len() < n && i < 400 {
        let entry = entries[i % entries.len()];
        let pcs = entry.frame.unique_pcs();
        let pc = pcs[(i / entries.len()) % pcs.len()];
        i += 1;
        let use_evicted = out.len() % 2 == 0;
        if !seen.insert((entry.id.key(), pc, use_evicted, out.len() % 4)) {
            continue;
        }
        let values: Vec<f64> = entry
            .frame
            .rows()
            .iter()
            .filter(|r| r.pc == pc)
            .filter_map(|r| {
                if use_evicted {
                    r.evicted_reuse_distance.map(|d| d as f64)
                } else {
                    r.accessed_reuse_distance.map(|d| d as f64)
                }
            })
            .collect();
        if values.len() < 3 {
            continue;
        }
        let (func_word, truth) = match out.len() % 4 {
            0 | 1 => ("average", values.iter().sum::<f64>() / values.len() as f64),
            2 => ("maximum", values.iter().copied().fold(f64::MIN, f64::max)),
            _ => ("minimum", values.iter().copied().fold(f64::MAX, f64::min)),
        };
        let column_word = if use_evicted { "evicted reuse distance" } else { "reuse distance" };
        out.push(Question {
            id: format!("tg-arith-{:02}", out.len() + 1),
            text: format!(
                "What is the {} {} of PC {} for the {} workload with {}?",
                func_word,
                column_word,
                pc,
                entry.id.workload,
                policy_caps(&entry.id.policy)
            ),
            category: QueryCategory::Arithmetic,
            expected: Expected::Number { value: truth, tolerance: 0.01 },
        });
    }
    // Fallback for sparse traces: whole-workload aggregates (no PC filter)
    // are always well-defined.
    let mut j = 0usize;
    while out.len() < n && j < entries.len() * 2 {
        let entry = entries[j % entries.len()];
        let use_evicted = j >= entries.len();
        j += 1;
        let values: Vec<f64> = entry
            .frame
            .rows()
            .iter()
            .filter_map(|r| {
                if use_evicted {
                    r.evicted_reuse_distance.map(|d| d as f64)
                } else {
                    r.accessed_reuse_distance.map(|d| d as f64)
                }
            })
            .collect();
        if values.is_empty() {
            continue;
        }
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let column_word = if use_evicted { "evicted reuse distance" } else { "reuse distance" };
        out.push(Question {
            id: format!("tg-arith-{:02}", out.len() + 1),
            text: format!(
                "What is the average {} across the {} workload under {}?",
                column_word,
                entry.id.workload,
                policy_caps(&entry.id.policy)
            ),
            category: QueryCategory::Arithmetic,
            expected: Expected::Number { value: truth, tolerance: 0.01 },
        });
    }
    out
}

fn gen_trick(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let workloads = db.workloads();
    // Cross-workload PC premises.
    for (i, w) in workloads.iter().enumerate() {
        if out.len() >= 3 {
            break;
        }
        let other = &workloads[(i + 1) % workloads.len()];
        let entry = db.get(&format!("{w}_evictions_lru")).expect("trace");
        let other_entry = db.get(&format!("{other}_evictions_lru")).expect("trace");
        let foreign_pc = entry
            .frame
            .unique_pcs()
            .into_iter()
            .find(|pc| !other_entry.frame.rows().iter().any(|r| r.pc == *pc))
            .expect("workload PCs are distinct");
        out.push(Question {
            id: format!("tg-trick-{:02}", out.len() + 1),
            text: format!(
                "Does the memory access with PC {foreign_pc} result in a cache hit or cache \
                 miss for the {other} workload and LRU replacement policy?"
            ),
            category: QueryCategory::Trick,
            expected: Expected::Trick,
        });
    }
    // Never-co-occurring (PC, address) pairs.
    for w in workloads.iter() {
        if out.len() >= n {
            break;
        }
        let entry = db.get(&format!("{w}_evictions_lru")).expect("trace");
        let rows = entry.frame.rows();
        let pc = rows[0].pc;
        let foreign_addr = rows
            .iter()
            .map(|r| r.address)
            .find(|a| !rows.iter().any(|r| r.pc == pc && r.address == *a))
            .expect("some address never touched by this PC");
        out.push(Question {
            id: format!("tg-trick-{:02}", out.len() + 1),
            text: format!(
                "Does PC {pc} in the {w} workload access address {foreign_addr} under LRU, \
                 and does it hit?"
            ),
            category: QueryCategory::Trick,
            expected: Expected::Trick,
        });
    }
    out.truncate(n);
    out
}

fn gen_concepts(n: usize) -> Vec<Question> {
    let texts = [
        "How does increasing cache size affect miss rate? Compare increasing the number of \
         sets versus the number of ways.",
        "Explain the difference between capacity misses and conflict misses in a \
         set-associative cache.",
        "Why can Belady's optimal policy not be implemented directly in hardware?",
        "What is a reuse distance, and why do replacement policies try to predict it?",
        "How does set dueling let a cache pick between two insertion policies at run time?",
    ];
    texts
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, t)| Question {
            id: format!("ara-concepts-{:02}", i + 1),
            text: (*t).to_owned(),
            category: QueryCategory::Concepts,
            expected: Expected::Rubric,
        })
        .collect()
}

fn gen_codegen(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let entries = entries_in_order(db);
    for (i, entry) in entries.iter().enumerate() {
        if out.len() >= n {
            break;
        }
        let row = &entry.frame.rows()[(11 * (i + 1)) % entry.frame.len()];
        out.push(Question {
            id: format!("ara-codegen-{:02}", out.len() + 1),
            text: format!(
                "Write code to compute the number of hits for PC {} and address {} in the \
                 {} workload under {}.",
                row.pc,
                row.address,
                entry.id.workload,
                policy_caps(&entry.id.policy)
            ),
            category: QueryCategory::CodeGen,
            expected: Expected::Rubric,
        });
    }
    out
}

fn gen_policy_analysis(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let expert = CacheStatisticalExpert::new();
    let mut out = Vec::new();
    for w in db.workloads() {
        if out.len() >= n {
            break;
        }
        let Some(belady) = db.get(&format!("{w}_evictions_belady")) else { continue };
        let Some(lru) = db.get(&format!("{w}_evictions_lru")) else { continue };
        for pc in belady.frame.unique_pcs() {
            if out.len() >= n {
                break;
            }
            let (Some(b), Some(l)) =
                (expert.pc_stats(&belady.frame, pc), expert.pc_stats(&lru.frame, pc))
            else {
                continue;
            };
            if b.miss_rate() + 0.02 < l.miss_rate() && out.len() < n {
                out.push(Question {
                    id: format!("ara-policy-{:02}", out.len() + 1),
                    text: format!(
                        "Why does Belady outperform LRU on PC {pc} in the {w} workload? \
                         Link the reuse pattern to the policy mechanics."
                    ),
                    category: QueryCategory::PolicyAnalysis,
                    expected: Expected::Rubric,
                });
                break; // one per workload per pass
            }
        }
    }
    // Fill any shortfall with PARROT-vs-Belady analyses.
    let mut i = 0;
    while out.len() < n {
        let w = &db.workloads()[i % db.workloads().len()];
        let pc = db
            .get(&format!("{w}_evictions_parrot"))
            .map(|e| e.frame.unique_pcs()[i % e.frame.unique_pcs().len()])
            .expect("parrot trace");
        out.push(Question {
            id: format!("ara-policy-{:02}", out.len() + 1),
            text: format!(
                "Why does PC {pc} perform differently under PARROT than under Belady on the \
                 {w} workload? Explain using reuse distances."
            ),
            category: QueryCategory::PolicyAnalysis,
            expected: Expected::Rubric,
        });
        i += 1;
    }
    out
}

fn gen_workload_analysis(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let policies = db.policies();
    let mut out = Vec::new();
    for (i, p) in policies.iter().cycle().take(n).enumerate() {
        let text = if i % 2 == 0 {
            format!(
                "Which workload has the highest cache miss rate under {}? Explain what \
                 property of its access pattern drives the result.",
                policy_caps(p)
            )
        } else {
            format!(
                "Compare the cache behaviour of the available workloads under {} and explain \
                 which benefits most from the policy.",
                policy_caps(p)
            )
        };
        out.push(Question {
            id: format!("ara-workload-{:02}", i + 1),
            text,
            category: QueryCategory::WorkloadAnalysis,
            expected: Expected::Rubric,
        });
    }
    out
}

fn gen_semantic_analysis(db: &TraceDatabase, n: usize) -> Vec<Question> {
    let expert = CacheStatisticalExpert::new();
    let mut out = Vec::new();
    for entry in entries_in_order(db) {
        if out.len() >= n {
            break;
        }
        // Pick the PC with the highest hit rate and enough traffic.
        let mut stats = expert.per_pc(&entry.frame);
        stats.retain(|s| s.accesses >= 10);
        stats.sort_by(|a, b| b.hit_rate().total_cmp(&a.hit_rate()));
        let Some(best) = stats.first() else { continue };
        out.push(Question {
            id: format!("ara-semantic-{:02}", out.len() + 1),
            text: format!(
                "Why does PC {} have a high hit rate in the {} workload under {}? Examine \
                 the assembly context and analyze the access pattern.",
                best.pc,
                entry.id.workload,
                policy_caps(&entry.id.policy)
            ),
            category: QueryCategory::SemanticAnalysis,
            expected: Expected::Rubric,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_lang::intent::Tier;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn catalog() -> (TraceDatabase, Catalog) {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let c = Catalog::generate(&db);
        (db, c)
    }

    #[test]
    fn category_sizes_match_table1() {
        let (_, c) = catalog();
        for (cat, size) in CATEGORY_SIZES {
            assert_eq!(c.by_category(cat).len(), size, "category {cat:?}");
        }
        let tg = c.questions().iter().filter(|q| q.tier() == Tier::TraceGrounded).count();
        assert_eq!(tg, 75);
    }

    #[test]
    fn question_ids_are_unique() {
        let (_, c) = catalog();
        let ids: std::collections::HashSet<&str> =
            c.questions().iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn hitmiss_truth_matches_first_occurrence() {
        let (db, c) = catalog();
        for q in c.by_category(QueryCategory::HitMiss).iter().take(5) {
            // Re-derive the truth from the question text.
            let hexes = cachemind_lang::token::hex_literals(&q.text);
            let pc = cachemind_sim::addr::Pc::new(hexes[0]);
            let addr = cachemind_sim::addr::Address::new(hexes[1]);
            let entry = db
                .entries()
                .find(|e| {
                    q.text.contains(&format!("the {} workload", e.id.workload))
                        && q.text.to_lowercase().contains(&e.id.policy)
                })
                .expect("workload/policy in text");
            let first = entry
                .frame
                .rows()
                .iter()
                .find(|r| r.pc == pc && r.address == addr)
                .expect("pair exists");
            assert_eq!(q.expected, Expected::HitMiss(first.is_miss), "{}", q.id);
        }
    }

    #[test]
    fn trick_questions_have_false_premises() {
        let (db, c) = catalog();
        for q in c.by_category(QueryCategory::Trick) {
            let hexes = cachemind_lang::token::hex_literals(&q.text);
            assert!(!hexes.is_empty());
            assert_eq!(q.expected, Expected::Trick);
            let _ = &db;
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let a = Catalog::generate(&db);
        let b = Catalog::generate(&db);
        assert_eq!(a.questions(), b.questions());
    }
}
