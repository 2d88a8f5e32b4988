//! Deterministic hashed sentence embeddings.
//!
//! A bag-of-hashed-tokens embedder: every token hashes to a signed
//! contribution across a fixed number of dimensions, the sum is
//! L2-normalised. Two texts sharing most tokens embed almost identically —
//! which is precisely the failure mode the paper demonstrates for
//! embedding-based RAG over traces, where "records differ only by small
//! numerical or bit-level changes" (§6.2).

use cachemind_sim::hash::{fnv64, mix64};
use serde::{Deserialize, Serialize};

use crate::token::{tokenize, Token};

/// A fixed-dimension text embedder.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashedEmbedder {
    dims: usize,
}

impl Default for HashedEmbedder {
    fn default() -> Self {
        HashedEmbedder::new(64)
    }
}

fn token_seed(token: &Token) -> u64 {
    match token {
        Token::Word(w) => fnv64(w.as_bytes()),
        Token::Hex(h) => mix64(*h ^ 0x48),
        Token::Number(n) => mix64(*n ^ 0x4E),
    }
}

impl HashedEmbedder {
    /// Creates an embedder with `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "embedding dimension must be positive");
        HashedEmbedder { dims }
    }

    /// The embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Embeds `text` into a unit-norm vector (zero vector for empty text).
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dims];
        for token in tokenize(text) {
            let seed = token_seed(&token);
            // Each token contributes to 8 dimensions with signed weights.
            for k in 0..8u64 {
                let h = mix64(seed ^ k.wrapping_mul(0x9E37_79B9));
                let dim = (h % self.dims as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[dim] += sign;
            }
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    /// Cosine similarity of two embeddings.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "embedding dimensions must match");
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Convenience: cosine similarity of two texts.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        Self::cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_have_similarity_one() {
        let e = HashedEmbedder::default();
        let s = e.similarity("miss rate for PC 0x401e31", "miss rate for PC 0x401e31");
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn near_identical_numeric_rows_confuse_embeddings() {
        // The LlamaIndex failure mode: rows differing by one hex digit are
        // nearly indistinguishable to bag-of-token embeddings.
        let e = HashedEmbedder::default();
        let a = "trace astar lru program_counter 0x409538 memory_address 0x2bfd401b693 evict Cache Miss";
        let b = "trace astar lru program_counter 0x409270 memory_address 0x2bfd401c63f evict Cache Miss";
        let sim = e.similarity(a, b);
        assert!(sim > 0.6, "numeric confusion similarity {sim}");
    }

    #[test]
    fn unrelated_texts_have_low_similarity() {
        let e = HashedEmbedder::default();
        let s = e.similarity(
            "the quick brown fox jumps over the lazy dog",
            "cache_set_id 0b10110011101 eviction scores",
        );
        assert!(s < 0.5, "unrelated similarity {s}");
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = HashedEmbedder::new(32);
        let v = e.embed("hello world 0x42");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_rejected() {
        let _ = HashedEmbedder::new(0);
    }
}
