//! The generator: a grounded reasoner wrapped in a backend capability model.
//!
//! The reasoner half is fully deterministic: it computes the ideal answer
//! *from the retrieved facts only* (never from global knowledge), so answer
//! quality is causally downstream of retrieval quality. The capability half
//! perturbs that ideal answer according to the backend's per-category
//! competence ([`crate::profiles`]), with seeded, reproducible draws.

use serde::{Deserialize, Serialize};

use crate::context::{ContextQuality, Fact, RetrievedContext};
use crate::intent::{QueryCategory, QueryIntent};
use crate::profiles::{text_seed, unit_draw, BackendKind};
use crate::prompt::Example;

/// A machine-checkable answer verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Hit/miss classification; `true` = miss.
    HitMiss(bool),
    /// A numeric answer (rate, count, mean, ...).
    Number(f64),
    /// A ranking of names (best first).
    Ranking(Vec<String>),
    /// The premise was rejected (trick questions).
    Trick,
    /// The generator admitted it could not answer from the context.
    NotFound,
    /// A free-form analysis; `quality` is the 0–5 rubric-equivalent grade
    /// the evaluation harness assigns (see EXPERIMENTS.md on scoring).
    FreeForm {
        /// Rubric grade 0..=5.
        quality: u8,
    },
}

/// A full generator response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorAnswer {
    /// Natural-language answer text.
    pub text: String,
    /// The checkable verdict.
    pub verdict: Verdict,
}

/// Everything the generator sees for one question.
#[derive(Debug, Clone)]
pub struct GeneratorRequest {
    /// The raw question.
    pub question: String,
    /// The parsed intent.
    pub intent: QueryIntent,
    /// The retrieved context bundle.
    pub context: RetrievedContext,
    /// K-shot examples (empty for zero-shot).
    pub examples: Vec<Example>,
}

/// A generator backend.
pub trait Generator {
    /// Stable backend label.
    fn name(&self) -> &'static str;

    /// Produces an answer for the request.
    fn answer(&self, request: &GeneratorRequest) -> GeneratorAnswer;
}

/// The simulated backend: grounded reasoning + calibrated noise.
#[derive(Debug, Clone)]
pub struct SimulatedBackend {
    kind: BackendKind,
    run_seed: u64,
}

impl SimulatedBackend {
    /// Creates a backend of the given kind with the default run seed.
    pub fn new(kind: BackendKind) -> Self {
        SimulatedBackend { kind, run_seed: 0xCAC4E }
    }

    /// Overrides the run seed (for sensitivity studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.run_seed = seed;
        self
    }

    /// The backend kind.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    fn draw(&self, question: &str, salt: u64) -> f64 {
        unit_draw(&[self.run_seed, self.kind.seed(), text_seed(question), salt])
    }

    /// Computes the ideal verdict from the retrieved facts, if they suffice.
    fn ground(&self, request: &GeneratorRequest) -> Option<Verdict> {
        let ctx = &request.context;
        if ctx.premise_violation().is_some() {
            return Some(Verdict::Trick);
        }
        match request.intent.category {
            QueryCategory::HitMiss => ctx.facts.iter().find_map(|f| match f {
                Fact::Outcome { is_miss, .. } => Some(Verdict::HitMiss(*is_miss)),
                _ => None,
            }),
            QueryCategory::MissRate => ctx.facts.iter().find_map(|f| match f {
                Fact::MissRate { percent, .. } => Some(Verdict::Number(*percent)),
                // IPC lookups ride the MissRate category (both are
                // whole-trace rate questions over the metadata string) but
                // surface as numeric facts.
                Fact::NumericValue { value, .. } => Some(Verdict::Number(*value)),
                _ => None,
            }),
            QueryCategory::PolicyComparison => {
                let mut values: Vec<(String, f64)> = ctx
                    .facts
                    .iter()
                    .filter_map(|f| match f {
                        Fact::PolicyValue { policy, value, .. } => Some((policy.clone(), *value)),
                        _ => None,
                    })
                    .collect();
                if values.is_empty() {
                    return None;
                }
                if request.intent.wants_minimum {
                    values.sort_by(|a, b| a.1.total_cmp(&b.1));
                } else {
                    values.sort_by(|a, b| b.1.total_cmp(&a.1));
                }
                Some(Verdict::Ranking(values.into_iter().map(|(p, _)| p).collect()))
            }
            QueryCategory::Count => ctx.facts.iter().find_map(|f| match f {
                // An incomplete count is still *an* answer — just a wrong
                // one. The paper: "a single ... failure to iterate the
                // entire slice yields an incorrect result".
                Fact::CountValue { value, .. } => Some(Verdict::Number(*value as f64)),
                _ => None,
            }),
            QueryCategory::Arithmetic => ctx.facts.iter().find_map(|f| match f {
                Fact::NumericValue { value, .. } => Some(Verdict::Number(*value)),
                _ => None,
            }),
            // Reasoning-tier categories produce free-form analyses whenever
            // any evidence is present.
            QueryCategory::Trick => None,
            _ => (!ctx.facts.is_empty() || request.intent.category == QueryCategory::Concepts)
                .then_some(Verdict::FreeForm { quality: 5 }),
        }
    }

    /// Trick competence including the few-shot boost the paper observed
    /// ("the given examples help the generator identify and assess trick
    /// questions better than zero-shot prompting").
    fn trick_competence(&self, shots: usize) -> f64 {
        let base = self.kind.competence(QueryCategory::Trick);
        if shots > 0 {
            (base + 0.15).min(1.0)
        } else {
            base
        }
    }

    fn corrupt(&self, ideal: &Verdict, request: &GeneratorRequest) -> Verdict {
        let q = &request.question;
        match ideal {
            Verdict::HitMiss(m) => Verdict::HitMiss(!m),
            Verdict::Number(v) => {
                // Characteristic numeric error: wrong slice / dropped filter.
                let factor = 0.5 + self.draw(q, 0xE11) * 1.2;
                Verdict::Number((v * factor * 100.0).round() / 100.0 + 1.0)
            }
            Verdict::Ranking(names) => {
                let mut swapped = names.clone();
                if swapped.len() >= 2 {
                    swapped.swap(0, 1);
                }
                Verdict::Ranking(swapped)
            }
            Verdict::Trick => {
                // Failing a trick question = accepting the premise.
                Verdict::HitMiss(self.draw(q, 0x7121) < 0.5)
            }
            Verdict::FreeForm { .. } | Verdict::NotFound => Verdict::FreeForm { quality: 1 },
        }
    }

    fn freeform_quality(&self, request: &GeneratorRequest) -> u8 {
        let p = self.kind.competence(request.intent.category);
        let roll = self.draw(&request.question, 0xF0F0);
        // Context degradation: thin evidence caps the achievable grade.
        let cap = match request.context.quality {
            ContextQuality::High => 5.0,
            ContextQuality::Medium => 4.0,
            ContextQuality::Low => 2.0,
        };
        if self.kind.bimodal_scores() {
            // o3: all-or-nothing (Fig. 7).
            return if roll < p { cap as u8 } else { u8::from(roll < p + 0.2) };
        }
        // Expected score = 5p, spread by the roll.
        let base = 5.0 * p;
        let jitter = (roll - 0.5) * 2.0; // [-1, 1]
        (base + jitter).clamp(0.0, cap).round() as u8
    }

    fn render_text(&self, verdict: &Verdict, request: &GeneratorRequest) -> String {
        let evidence = request.context.render();
        match verdict {
            Verdict::HitMiss(true) => "Cache Miss".to_owned(),
            Verdict::HitMiss(false) => "Cache Hit".to_owned(),
            Verdict::Number(v) => format!("The answer is {v:.2}."),
            Verdict::Ranking(names) => format!("Ranking: {}.", names.join(" > ")),
            Verdict::Trick => format!(
                "TRICK — the question's premise is inconsistent with the trace: {}",
                request.context.premise_violation().unwrap_or("no matching records exist")
            ),
            Verdict::NotFound => {
                "I could not find matching records in the retrieved context; the question \
                 cannot be answered from this evidence."
                    .to_owned()
            }
            Verdict::FreeForm { quality } => format!(
                "Analysis (grounded in retrieved evidence):\n{}\n[rubric-equivalent grade: {quality}/5]",
                if evidence.is_empty() { "(no evidence retrieved)" } else { &evidence }
            ),
        }
    }
}

impl Generator for SimulatedBackend {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn answer(&self, request: &GeneratorRequest) -> GeneratorAnswer {
        let category = request.intent.category;
        let ideal = self.ground(request);

        let verdict = match ideal {
            Some(Verdict::Trick) => {
                // Epistemic robustness: reject or hallucinate.
                if self.draw(&request.question, 0x7110)
                    < self.trick_competence(request.examples.len())
                {
                    Verdict::Trick
                } else {
                    self.corrupt(&Verdict::Trick, request)
                }
            }
            Some(Verdict::FreeForm { .. }) => {
                Verdict::FreeForm { quality: self.freeform_quality(request) }
            }
            Some(ideal) => {
                let p = self.kind.competence(category);
                if self.draw(&request.question, 0xC0DE) < p {
                    ideal
                } else {
                    self.corrupt(&ideal, request)
                }
            }
            None => {
                // Insufficient context.
                if !request.examples.is_empty() && self.kind.copies_example_context() {
                    // The paper's few-shot failure: the backend answers from
                    // the example's context instead of admitting ignorance.
                    GeneratorAnswer {
                        text: format!(
                            "{} (from example context)",
                            request.examples[0].answer.clone()
                        ),
                        verdict: Verdict::HitMiss(request.examples[0].answer.contains("Miss")),
                    }
                    .verdict
                } else if self.kind.admits_missing_context() {
                    Verdict::NotFound
                } else {
                    // Hallucinate something category-shaped.
                    match category {
                        QueryCategory::HitMiss => {
                            Verdict::HitMiss(self.draw(&request.question, 0xBAD) < 0.5)
                        }
                        QueryCategory::MissRate
                        | QueryCategory::Count
                        | QueryCategory::Arithmetic => {
                            Verdict::Number((self.draw(&request.question, 0xBAD) * 100.0).round())
                        }
                        QueryCategory::PolicyComparison => {
                            Verdict::Ranking(request.intent.policies.clone())
                        }
                        _ => Verdict::FreeForm { quality: 1 },
                    }
                }
            }
        };

        let text = self.render_text(&verdict, request);
        GeneratorAnswer { text, verdict }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::addr::{Address, Pc};

    const WORKLOADS: [&str; 3] = ["astar", "lbm", "mcf"];
    const POLICIES: [&str; 4] = ["belady", "lru", "mlp", "parrot"];

    fn hitmiss_request(quality: ContextQuality, facts: Vec<Fact>) -> GeneratorRequest {
        let q = "Does PC 0x401dc9 and address 0x47ea85d37f hit in lbm under LRU?";
        GeneratorRequest {
            question: q.to_owned(),
            intent: QueryIntent::parse(q, &WORKLOADS, &POLICIES),
            context: RetrievedContext { facts, quality, retriever: "test".into() },
            examples: Vec::new(),
        }
    }

    fn outcome_fact(is_miss: bool) -> Fact {
        Fact::Outcome {
            pc: Some(Pc::new(0x401dc9)),
            address: Some(Address::new(0x47ea85d37f)),
            workload: "lbm".into(),
            policy: "lru".into(),
            is_miss,
            evicted: None,
            inserted_reuse: None,
        }
    }

    #[test]
    fn grounded_hitmiss_is_mostly_correct() {
        // Across many question variants the accuracy should be close to the
        // backend's competence.
        let backend = SimulatedBackend::new(BackendKind::Gpt4o);
        let mut correct = 0;
        let n = 500;
        for i in 0..n {
            let q = format!("Does PC 0x401dc9 and address {i:#x} hit in lbm under LRU?");
            let req = GeneratorRequest {
                question: q.clone(),
                intent: QueryIntent::parse(&q, &WORKLOADS, &POLICIES),
                context: RetrievedContext {
                    facts: vec![outcome_fact(true)],
                    quality: ContextQuality::High,
                    retriever: "test".into(),
                },
                examples: Vec::new(),
            };
            if backend.answer(&req).verdict == Verdict::HitMiss(true) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!((acc - 0.833).abs() < 0.07, "accuracy {acc}");
    }

    #[test]
    fn premise_violation_triggers_trick_handling() {
        let robust = SimulatedBackend::new(BackendKind::Gpt4o);
        let fragile = SimulatedBackend::new(BackendKind::Gpt35Turbo);
        let mut req = hitmiss_request(ContextQuality::High, Vec::new());
        req.context
            .facts
            .push(Fact::PremiseViolation { reason: "PC 0x4037aa appears only in mcf".into() });
        // GPT-3.5 has 0% trick competence: always accepts the premise.
        assert_ne!(fragile.answer(&req).verdict, Verdict::Trick);
        // GPT-4o rejects 80% of the time; check over many salts.
        let mut rejections = 0;
        for i in 0..200 {
            let mut r = req.clone();
            r.question = format!("{} variant {i}", req.question);
            if robust.answer(&r).verdict == Verdict::Trick {
                rejections += 1;
            }
        }
        assert!(rejections > 120, "rejections {rejections}");
    }

    #[test]
    fn missing_context_honesty_depends_on_backend() {
        let honest = SimulatedBackend::new(BackendKind::Gpt4o);
        let liar = SimulatedBackend::new(BackendKind::O3);
        let req = hitmiss_request(ContextQuality::Low, Vec::new());
        assert_eq!(honest.answer(&req).verdict, Verdict::NotFound);
        assert_ne!(liar.answer(&req).verdict, Verdict::NotFound);
    }

    #[test]
    fn example_context_bleed_for_weak_backends() {
        let backend = SimulatedBackend::new(BackendKind::Gpt35Turbo);
        let mut req = hitmiss_request(ContextQuality::Low, Vec::new());
        req.examples.push(Example::figure6());
        let a = backend.answer(&req);
        // The Figure 6 example answer is "Cache Miss"; the model parrots it.
        assert_eq!(a.verdict, Verdict::HitMiss(true));
    }

    #[test]
    fn freeform_quality_capped_by_context() {
        let backend = SimulatedBackend::new(BackendKind::Gpt4o);
        let q = "Why does Belady outperform LRU on PC 0x409270 in astar?";
        let mut max_low = 0u8;
        for i in 0..50 {
            let question = format!("{q} v{i}");
            let req = GeneratorRequest {
                question: question.clone(),
                intent: QueryIntent::parse(&question, &WORKLOADS, &POLICIES),
                context: RetrievedContext {
                    facts: vec![Fact::Snippet { title: "x".into(), text: "y".into() }],
                    quality: ContextQuality::Low,
                    retriever: "test".into(),
                },
                examples: Vec::new(),
            };
            if let Verdict::FreeForm { quality } = backend.answer(&req).verdict {
                max_low = max_low.max(quality);
            }
        }
        assert!(max_low <= 2, "low-quality context must cap rubric at 2, saw {max_low}");
    }

    #[test]
    fn answers_are_deterministic() {
        let a = SimulatedBackend::new(BackendKind::Gpt4oMini);
        let b = SimulatedBackend::new(BackendKind::Gpt4oMini);
        let req = hitmiss_request(ContextQuality::High, vec![outcome_fact(false)]);
        assert_eq!(a.answer(&req), b.answer(&req));
    }

    #[test]
    fn seeded_answers_are_deterministic_and_differ_from_the_default_seed() {
        let base = SimulatedBackend::new(BackendKind::Gpt35Turbo);
        let seeded = || SimulatedBackend::new(BackendKind::Gpt35Turbo).with_seed(1234);
        let (seeded1, seeded2) = (seeded(), seeded());
        let mut differs = false;
        for i in 0..100 {
            let mut req = hitmiss_request(ContextQuality::High, vec![outcome_fact(i % 2 == 0)]);
            req.question = format!("{} variant {i}", req.question);
            let answer = seeded1.answer(&req);
            assert_eq!(answer, seeded2.answer(&req), "one seed, one answer");
            differs |= answer.verdict != base.answer(&req).verdict;
        }
        // The capability model is stochastic across seeds.
        assert!(differs, "a seed change should alter some verdicts");
    }
}
