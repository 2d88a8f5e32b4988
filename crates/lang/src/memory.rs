//! Conversation memory: the session's exchange log plus vector recall.
//!
//! "We augmented the Generator LLM with conversation memory buffer, turning
//! it into an assistive chat tool. This enables reasoning across multiple
//! queries by retaining intermediate results, previous contexts, and
//! trace-level insights." (§1). The memory is the log of
//! `(question, answer)` exchanges itself, capped at
//! [`MAX_KEPT_EXCHANGES`], plus a count of every exchange. Recall builds
//! its vector index when asked for, so recording an exchange stays cheap.

use std::collections::VecDeque;

use crate::vector::VectorStore;

/// The most `(question, answer)` exchanges a [`ConversationMemory`]
/// keeps. Older exchanges are dropped, so a session that never closes
/// holds bounded memory.
pub const MAX_KEPT_EXCHANGES: usize = 256;

/// The conversation-memory layer: the last [`MAX_KEPT_EXCHANGES`]
/// exchanges, oldest first, and the number of exchanges ever recorded.
///
/// Recording an exchange appends its two strings and does nothing else.
/// [`ConversationMemory::recall`] builds its vector index over the kept
/// exchanges on each call.
#[derive(Debug, Default)]
pub struct ConversationMemory {
    exchanges: VecDeque<(String, String)>,
    total: usize,
}

impl ConversationMemory {
    /// An empty memory.
    pub fn new() -> Self {
        ConversationMemory::default()
    }

    /// Records an exchange, dropping the oldest kept one past
    /// [`MAX_KEPT_EXCHANGES`].
    pub fn push(&mut self, question: &str, answer: &str) {
        if self.exchanges.len() == MAX_KEPT_EXCHANGES {
            self.exchanges.pop_front();
        }
        self.exchanges.push_back((question.to_owned(), answer.to_owned()));
        self.total += 1;
    }

    /// The kept exchanges, oldest first.
    pub fn exchanges(&self) -> impl ExactSizeIterator<Item = &(String, String)> {
        self.exchanges.iter()
    }

    /// Every exchange ever recorded, dropped ones included.
    pub fn turns(&self) -> usize {
        self.total
    }

    /// Recalls up to `k` kept questions and answers similar to `query`,
    /// most similar first. The index is built here, over each kept
    /// exchange's question then answer, oldest first.
    pub fn recall(&self, query: &str, k: usize) -> Vec<String> {
        let mut store = VectorStore::new(64);
        for (i, text) in self.exchanges.iter().flat_map(|(q, a)| [q, a]).enumerate() {
            store.add(&format!("turn-{i}"), text);
        }
        store.search(query, k).into_iter().map(|hit| store.text(hit.index).to_owned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_finds_similar_turns() {
        let mut m = ConversationMemory::new();
        m.push("Group PCs by ETR variance for mockingjay training.", "What is the weather like?");
        m.push("List hot cache sets in astar.", "Sets 3 and 7.");
        let recalled = m.recall("PCs with low ETR variance", 1);
        assert!(recalled[0].contains("ETR variance"));
    }

    #[test]
    fn kept_turns_are_capped_and_counted_past_the_cap() {
        let mut m = ConversationMemory::new();
        for i in 0..MAX_KEPT_EXCHANGES + 10 {
            m.push(&format!("question number {i}"), &format!("answer number {i}"));
        }
        assert_eq!(m.turns(), MAX_KEPT_EXCHANGES + 10);
        assert_eq!(m.exchanges().len(), MAX_KEPT_EXCHANGES);
        assert_eq!(m.exchanges().next().unwrap().0, "question number 10");
        let all = m.recall("question number", 2 * (MAX_KEPT_EXCHANGES + 10));
        assert_eq!(all.len(), 2 * MAX_KEPT_EXCHANGES);
        assert!(!all.iter().any(|t| t == "question number 9"), "dropped turns are not recalled");
    }

    /// Words drawn from a small vocabulary, so turns and queries share
    /// tokens and recall ranks by real similarity, not only by ties.
    fn sentence(words: &[usize]) -> String {
        const VOCAB: [&str; 12] = [
            "miss", "rate", "belady", "lru", "pc", "0x401e31", "etr", "variance", "astar", "mcf",
            "hot", "sets",
        ];
        words.iter().map(|&w| VOCAB[w % VOCAB.len()]).collect::<Vec<_>>().join(" ")
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Building the index on `recall` returns exactly the hits of a
        /// store filled eagerly with the kept exchanges, question then
        /// answer, in the order they were pushed — past the cap too.
        #[test]
        fn recall_matches_an_eagerly_filled_store(
            turns in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..8), 0..80),
            filler in 0usize..MAX_KEPT_EXCHANGES + 40,
            query in proptest::collection::vec(0usize..16, 0..6),
            k in 0usize..10,
        ) {
            let texts: Vec<(String, String)> = (0..filler)
                .map(|i| (format!("filler {i}"), format!("lru {i}")))
                .chain(turns.chunks(2).map(|pair| {
                    (sentence(&pair[0]), pair.get(1).map_or_else(String::new, |a| sentence(a)))
                }))
                .collect();
            let mut memory = ConversationMemory::new();
            for (question, answer) in &texts {
                memory.push(question, answer);
            }
            let kept = &texts[texts.len().saturating_sub(MAX_KEPT_EXCHANGES)..];
            let mut eager = VectorStore::new(64);
            for (i, text) in kept.iter().flat_map(|(q, a)| [q, a]).enumerate() {
                eager.add(&format!("turn-{i}"), text);
            }
            let query = sentence(&query);
            let expected: Vec<String> = eager
                .search(&query, k)
                .into_iter()
                .map(|hit| eager.text(hit.index).to_owned())
                .collect();
            proptest::prop_assert_eq!(memory.turns(), texts.len());
            proptest::prop_assert_eq!(memory.recall(&query, k), expected);
        }
    }
}
