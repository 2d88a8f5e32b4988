//! The Figure 9 probe evaluation: ten trace-grounded queries, retrieval
//! correctness checked against ground truth, retrieval latency measured.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use cachemind_lang::context::{Fact, RetrievedContext};
use cachemind_lang::intent::{QueryCategory, QueryIntent};
use cachemind_tracedb::database::TraceDatabase;
use cachemind_tracedb::stats::CacheStatisticalExpert;
use cachemind_tracedb::store::TraceStore;

use crate::retriever::Retriever;

/// One probe: a query plus the machinery to verify the retrieved context.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The natural-language query.
    pub question: String,
    /// The category being probed.
    pub category: QueryCategory,
    /// Ground truth to verify retrieval against.
    truth: Truth,
}

#[derive(Debug, Clone)]
enum Truth {
    Outcome {
        pc: cachemind_sim::addr::Pc,
        address: cachemind_sim::addr::Address,
        is_miss: bool,
    },
    MissRatePercent(f64),
    PolicyCount(usize),
    Count(u64),
    Numeric(f64),
    /// The probe is deliberately under-specified; correct retrieval is
    /// impossible, every retriever should fail it.
    Unanswerable,
}

impl Probe {
    /// Whether `ctx` contains the correct evidence for this probe.
    pub fn context_correct(&self, ctx: &RetrievedContext) -> bool {
        match &self.truth {
            Truth::Outcome { pc, address, is_miss } => ctx.facts.iter().any(|f| {
                matches!(f, Fact::Outcome { pc: Some(p), address: Some(a), is_miss: m, .. }
                    if p == pc && a == address && m == is_miss)
            }),
            Truth::MissRatePercent(v) => ctx
                .facts
                .iter()
                .any(|f| matches!(f, Fact::MissRate { percent, .. } if (percent - v).abs() < 0.05)),
            Truth::PolicyCount(n) => {
                ctx.facts.iter().filter(|f| matches!(f, Fact::PolicyValue { .. })).count() >= *n
            }
            Truth::Count(v) => ctx
                .facts
                .iter()
                .any(|f| matches!(f, Fact::CountValue { value, complete: true, .. } if value == v)),
            Truth::Numeric(v) => ctx.facts.iter().any(|f| {
                matches!(f, Fact::NumericValue { value, complete: true, .. }
                    if (value - v).abs() < 1e-6)
            }),
            Truth::Unanswerable => false,
        }
    }
}

/// Builds the ten-probe set from the database's actual ground truth
/// (three hit/miss lookups, two miss rates, one policy comparison, two
/// counts — one deliberately under-specified — and two aggregates).
pub fn probe_queries(db: &TraceDatabase) -> Vec<Probe> {
    let expert = CacheStatisticalExpert::new();
    let mut probes = Vec::new();

    // Three per-access lookups across workloads.
    for (w, idx) in [("astar", 5usize), ("lbm", 17), ("mcf", 29)] {
        let entry = db.get(&format!("{w}_evictions_lru")).expect("trace present");
        // Use the first occurrence of the (pc, address) pair so retrieval
        // and ground truth agree on which record answers the question.
        let row = entry.frame.rows()[idx.min(entry.frame.len() - 1)].clone();
        let first = entry
            .frame
            .rows()
            .iter()
            .find(|r| r.pc == row.pc && r.address == row.address)
            .expect("pair exists");
        probes.push(Probe {
            question: format!(
                "When PC {} and address {} is accessed on the {w} workload with LRU policy, \
                 does the cache hit or miss?",
                row.pc, row.address
            ),
            category: QueryCategory::HitMiss,
            truth: Truth::Outcome { pc: first.pc, address: first.address, is_miss: first.is_miss },
        });
    }

    // Two miss rates: one per-PC, one whole-workload.
    {
        let entry = db.get("mcf_evictions_parrot").expect("trace present");
        let pc = entry.frame.rows()[0].pc;
        let stats = expert.pc_stats(&entry.frame, pc).expect("stats");
        probes.push(Probe {
            question: format!(
                "What is the miss rate for PC {pc} on the mcf workload with PARROT \
                 replacement policy?"
            ),
            category: QueryCategory::MissRate,
            truth: Truth::MissRatePercent(stats.miss_rate() * 100.0),
        });
        let lbm = db.get("lbm_evictions_belady").expect("trace present");
        let rate =
            cachemind_tracedb::meta::extract_percent(&lbm.metadata, "miss rate").expect("rate");
        probes.push(Probe {
            question: "What is the overall miss rate of the lbm workload under Belady?".to_owned(),
            category: QueryCategory::MissRate,
            truth: Truth::MissRatePercent(rate),
        });
    }

    // One cross-policy comparison.
    {
        let entry = db.get("astar_evictions_lru").expect("trace present");
        let pc = entry.frame.rows()[0].pc;
        probes.push(Probe {
            question: format!("Which policy has the lowest miss rate for PC {pc} in astar?"),
            category: QueryCategory::PolicyComparison,
            truth: Truth::PolicyCount(db.policies().len().min(3)),
        });
    }

    // Two counts: one well-posed (full-frame iteration required), one
    // under-specified (no workload named) that every retriever should fail.
    {
        let entry = db.get("astar_evictions_lru").expect("trace present");
        let pc = entry.frame.rows()[0].pc;
        let truth = entry.frame.rows().iter().filter(|r| r.pc == pc).count() as u64;
        probes.push(Probe {
            question: format!("How many times did PC {pc} appear in astar under LRU?"),
            category: QueryCategory::Count,
            truth: Truth::Count(truth),
        });
        probes.push(Probe {
            question: format!("How many times is PC {pc} accessed under LRU?"),
            category: QueryCategory::Count,
            truth: Truth::Unanswerable,
        });
    }

    // Two aggregates.
    {
        let entry = db.get("lbm_evictions_mlp").expect("trace present");
        let pc = entry
            .frame
            .rows()
            .iter()
            .find(|r| r.evicted_reuse_distance.is_some())
            .map(|r| r.pc)
            .expect("eviction with known reuse");
        let values: Vec<f64> = entry
            .frame
            .rows()
            .iter()
            .filter(|r| r.pc == pc)
            .filter_map(|r| r.evicted_reuse_distance.map(|d| d as f64))
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        probes.push(Probe {
            question: format!(
                "What is the average evicted reuse distance of PC {pc} for the lbm workload \
                 with MLP?"
            ),
            category: QueryCategory::Arithmetic,
            truth: Truth::Numeric(mean),
        });

        let entry = db.get("mcf_evictions_belady").expect("trace present");
        let values: Vec<f64> = entry
            .frame
            .rows()
            .iter()
            .filter_map(|r| r.accessed_reuse_distance.map(|d| d as f64))
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        probes.push(Probe {
            question: "What is the mean reuse distance across the mcf workload under Belady?"
                .to_owned(),
            category: QueryCategory::Arithmetic,
            truth: Truth::Numeric(mean),
        });
    }

    probes
}

/// Results of running one retriever over the probe set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeReport {
    /// Retriever name.
    pub retriever: String,
    /// Correctly-retrieved probes.
    pub correct: usize,
    /// Total probes.
    pub total: usize,
    /// Mean retrieval latency in microseconds.
    pub mean_latency_us: f64,
}

impl ProbeReport {
    /// Retrieval success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Runs a retriever over the probe set, checking context correctness and
/// timing each retrieval.
pub fn run_probes(db: &TraceDatabase, retriever: &dyn Retriever, probes: &[Probe]) -> ProbeReport {
    let workloads = db.workloads();
    let policies = db.policies();
    let wrefs: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let prefs: Vec<&str> = policies.iter().map(String::as_str).collect();
    let mut correct = 0;
    let mut total_us = 0.0;
    for probe in probes {
        let intent = QueryIntent::parse(&probe.question, &wrefs, &prefs);
        let start = Instant::now();
        let ctx = retriever.retrieve(db, &intent);
        total_us += start.elapsed().as_secs_f64() * 1e6;
        if probe.context_correct(&ctx) {
            correct += 1;
        }
    }
    ProbeReport {
        retriever: retriever.name().to_owned(),
        correct,
        total: probes.len(),
        mean_latency_us: if probes.is_empty() { 0.0 } else { total_us / probes.len() as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseIndexRetriever;
    use crate::ranger::RangerRetriever;
    use crate::sieve::SieveRetriever;
    use cachemind_tracedb::TraceDatabaseBuilder;

    #[test]
    fn figure9_ordering_holds() {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let probes = probe_queries(&db);
        assert_eq!(probes.len(), 10);

        let sieve = run_probes(&db, &SieveRetriever::new(), &probes);
        let ranger = run_probes(&db, &RangerRetriever::new(), &probes);
        let dense = DenseIndexRetriever::build(&db, 4);
        let dense_report = run_probes(&db, &dense, &probes);

        assert!(
            ranger.correct > sieve.correct,
            "ranger {} vs sieve {}",
            ranger.correct,
            sieve.correct
        );
        assert!(
            sieve.correct > dense_report.correct,
            "sieve {} vs dense {}",
            sieve.correct,
            dense_report.correct
        );
        // Paper magnitudes: Ranger 9/10, Sieve 6/10, LlamaIndex 1/10.
        assert!(ranger.correct >= 8, "ranger {}", ranger.correct);
        assert!((4..=7).contains(&sieve.correct), "sieve {}", sieve.correct);
        assert!(dense_report.correct <= 3, "dense {}", dense_report.correct);
    }
}
