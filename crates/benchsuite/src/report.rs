//! Benchmark results: per-question outcomes and the category, tier,
//! quality and rubric-histogram aggregates behind Figures 4–8.

use serde::{Deserialize, Serialize};

use cachemind_lang::context::ContextQuality;
use cachemind_lang::generator::Verdict;
use cachemind_lang::intent::{QueryCategory, Tier};

/// Per-question outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuestionResult {
    /// Question id.
    pub id: String,
    /// Category.
    pub category: QueryCategory,
    /// Context quality the generator saw.
    pub quality: ContextQuality,
    /// Points awarded.
    pub points: f64,
    /// Maximum points.
    pub max: f64,
    /// The generator's verdict.
    pub verdict: Verdict,
}

/// Aggregated results of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Backend label.
    pub backend: String,
    /// Retriever name.
    pub retriever: String,
    /// Per-question results.
    pub results: Vec<QuestionResult>,
}

impl BenchReport {
    /// Accuracy (% of max points) for one category.
    pub fn category_accuracy(&self, category: QueryCategory) -> f64 {
        Self::ratio(self.results.iter().filter(|r| r.category == category))
    }

    /// Accuracy (% of max points) for one tier.
    pub fn tier_accuracy(&self, tier: Tier) -> f64 {
        Self::ratio(self.results.iter().filter(|r| r.category.tier() == tier))
    }

    /// Weighted total accuracy over all questions (% of max points).
    pub fn total(&self) -> f64 {
        Self::ratio(self.results.iter())
    }

    /// Accuracy restricted to questions whose context landed in `quality`.
    pub fn quality_accuracy(&self, quality: ContextQuality) -> Option<f64> {
        let subset: Vec<&QuestionResult> =
            self.results.iter().filter(|r| r.quality == quality).collect();
        if subset.is_empty() {
            None
        } else {
            Some(Self::ratio(subset.into_iter()))
        }
    }

    /// Histogram of rubric scores 0..=5 over the reasoning tier (Figure 7).
    pub fn score_histogram(&self) -> [usize; 6] {
        let mut hist = [0usize; 6];
        for r in &self.results {
            if r.category.tier() == Tier::Reasoning {
                let bucket = (r.points.round() as usize).min(5);
                hist[bucket] += 1;
            }
        }
        hist
    }

    fn ratio<'a>(results: impl Iterator<Item = &'a QuestionResult>) -> f64 {
        let (mut points, mut max) = (0.0, 0.0);
        for r in results {
            points += r.points;
            max += r.max;
        }
        if max == 0.0 {
            0.0
        } else {
            points / max * 100.0
        }
    }
}
