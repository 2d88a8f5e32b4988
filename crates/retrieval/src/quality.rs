//! Context-quality grading and controlled degradation (Figure 5).

use cachemind_lang::context::{ContextQuality, Fact, RetrievedContext};
use cachemind_lang::intent::{QueryCategory, QueryIntent};
use cachemind_lang::profiles::{text_seed, unit_draw};
use cachemind_tracedb::store::TraceStore;

use crate::retriever::Retriever;

/// Grades a fact bundle for an intent: `High` when the facts directly
/// answer the category, `Medium` when only supporting material was found,
/// `Low` when nothing useful came back.
pub fn grade(intent: &QueryIntent, facts: &[Fact]) -> ContextQuality {
    if facts.is_empty() {
        return ContextQuality::Low;
    }
    if facts.iter().any(|f| matches!(f, Fact::PremiseViolation { .. })) {
        return ContextQuality::High;
    }
    let direct = facts.iter().any(|f| match intent.category {
        QueryCategory::HitMiss => matches!(f, Fact::Outcome { .. }),
        QueryCategory::MissRate => matches!(f, Fact::MissRate { .. }),
        QueryCategory::PolicyComparison => matches!(f, Fact::PolicyValue { .. }),
        QueryCategory::Count => matches!(f, Fact::CountValue { complete: true, .. }),
        QueryCategory::Arithmetic => matches!(f, Fact::NumericValue { complete: true, .. }),
        // Reasoning categories are satisfied by a rich bundle: statistics
        // plus at least one snippet of descriptive context.
        _ => matches!(f, Fact::Snippet { .. }),
    });
    if direct {
        // Reasoning bundles additionally need breadth to count as High.
        if intent.category.tier() == cachemind_lang::intent::Tier::Reasoning {
            let snippets = facts.iter().filter(|f| matches!(f, Fact::Snippet { .. })).count();
            let numbers = facts
                .iter()
                .filter(|f| {
                    matches!(
                        f,
                        Fact::MissRate { .. }
                            | Fact::PolicyValue { .. }
                            | Fact::NumericValue { .. }
                            | Fact::CountValue { .. }
                    )
                })
                .count();
            if snippets >= 2 && numbers >= 1 {
                ContextQuality::High
            } else {
                ContextQuality::Medium
            }
        } else {
            ContextQuality::High
        }
    } else {
        ContextQuality::Medium
    }
}

/// Deterministically degrades a context bundle to a target quality level —
/// the controlled-retrieval knob behind Figure 5.
///
/// * `High` — returned unchanged.
/// * `Medium` — direct-answer facts are dropped, supporting material kept.
/// * `Low` — everything but (at most) one snippet is dropped.
pub fn degrade(context: &RetrievedContext, target: ContextQuality) -> RetrievedContext {
    let mut out = context.clone();
    match target {
        ContextQuality::High => {}
        ContextQuality::Medium => {
            out.facts.retain(|f| {
                matches!(f, Fact::Snippet { .. })
                    || matches!(f, Fact::CountValue { complete: false, .. })
                    || matches!(f, Fact::NumericValue { complete: false, .. })
            });
            out.quality = ContextQuality::Medium;
        }
        ContextQuality::Low => {
            out.facts.truncate(0);
            out.quality = ContextQuality::Low;
        }
    }
    // Degradation can only lower the grade.
    out.quality = out.quality.min(context.quality);
    if target == ContextQuality::Medium && out.facts.is_empty() {
        // Keep one generic snippet so Medium is distinguishable from Low.
        out.facts.push(Fact::Snippet {
            title: "Partially relevant trace summary".to_owned(),
            text: "Matching trace located, but the requested slice was not isolated.".to_owned(),
        });
    }
    out
}

/// Assigns each question to a Low/Medium/High bucket deterministically
/// (one third each), for the Figure 5 sweep.
pub fn bucket_for(question: &str) -> ContextQuality {
    let r = unit_draw(&[text_seed(question), 0xF1 & 0xFF]);
    if r < 1.0 / 3.0 {
        ContextQuality::Low
    } else if r < 2.0 / 3.0 {
        ContextQuality::Medium
    } else {
        ContextQuality::High
    }
}

/// A retriever whose every context is degraded to its question's
/// [`bucket_for`] level — Figure 5's controlled-quality sweep as a
/// decorator, so the degraded runs ask through the same pipeline as every
/// other configuration. Keeps the inner retriever's name.
#[derive(Debug, Clone)]
pub struct Degraded<R>(pub R);

impl<R: Retriever> Retriever for Degraded<R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn retrieve(&self, db: &dyn TraceStore, intent: &QueryIntent) -> RetrievedContext {
        degrade(&self.0.retrieve(db, intent), bucket_for(&intent.raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_lang::intent::QueryIntent;

    fn intent(q: &str) -> QueryIntent {
        QueryIntent::parse(q, &["mcf"], &["lru", "belady"])
    }

    #[test]
    fn empty_is_low() {
        let i = intent("miss rate for mcf under lru");
        assert_eq!(grade(&i, &[]), ContextQuality::Low);
    }

    #[test]
    fn direct_fact_is_high() {
        let i = intent("What is the miss rate for PC 0x40 in mcf under lru?");
        let facts = vec![Fact::MissRate { scope: "PC 0x40".into(), percent: 10.0, accesses: 5 }];
        assert_eq!(grade(&i, &facts), ContextQuality::High);
    }

    #[test]
    fn indirect_fact_is_medium() {
        let i = intent("What is the miss rate for PC 0x40 in mcf under lru?");
        let facts = vec![Fact::Snippet { title: "meta".into(), text: "stuff".into() }];
        assert_eq!(grade(&i, &facts), ContextQuality::Medium);
    }

    #[test]
    fn degrade_is_monotone() {
        let i = intent("What is the miss rate for PC 0x40 in mcf under lru?");
        let ctx = RetrievedContext {
            facts: vec![
                Fact::MissRate { scope: "PC 0x40".into(), percent: 10.0, accesses: 5 },
                Fact::Snippet { title: "meta".into(), text: "stuff".into() },
            ],
            quality: grade(
                &i,
                &[Fact::MissRate { scope: "PC 0x40".into(), percent: 10.0, accesses: 5 }],
            ),
            retriever: "sieve".into(),
        };
        let med = degrade(&ctx, ContextQuality::Medium);
        assert_eq!(med.quality, ContextQuality::Medium);
        assert!(!med.facts.iter().any(|f| matches!(f, Fact::MissRate { .. })));
        let low = degrade(&ctx, ContextQuality::Low);
        assert_eq!(low.quality, ContextQuality::Low);
        assert!(low.facts.is_empty());
    }

    #[test]
    fn degraded_retriever_applies_the_question_bucket() {
        use crate::sieve::SieveRetriever;
        use cachemind_tracedb::TraceDatabaseBuilder;

        let db = TraceDatabaseBuilder::quick_demo().build();
        let sieve = SieveRetriever::new();
        let degraded = Degraded(sieve.clone());
        assert_eq!(degraded.name(), "sieve");
        let mut seen = std::collections::HashSet::new();
        for pc in ["0x401380", "0x4037ba", "0x401dc9", "0x4037aa", "0x40", "0x41"] {
            let i = intent(&format!("What is the miss rate for PC {pc} in mcf under lru?"));
            let want = degrade(&sieve.retrieve(&db, &i), bucket_for(&i.raw));
            assert_eq!(degraded.retrieve(&db, &i), want, "{pc}");
            seen.insert(bucket_for(&i.raw));
        }
        assert!(seen.len() > 1, "questions should land in different buckets: {seen:?}");
    }

    #[test]
    fn buckets_cover_all_levels() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..60 {
            seen.insert(bucket_for(&format!("question {i}")));
        }
        assert_eq!(seen.len(), 3);
    }
}
