//! Conversation memory: sliding buffer + summaries + vector recall.
//!
//! "We augmented the Generator LLM with conversation memory buffer, turning
//! it into an assistive chat tool. This enables reasoning across multiple
//! queries by retaining intermediate results, previous contexts, and
//! trace-level insights." (§1). The three standard layers are implemented:
//! a sliding window of recent turns, extractive summaries of the turns
//! before it, and vector recall over every kept turn. Only the turns are
//! stored, capped at [`MAX_KEPT_TURNS`]; the summaries and the recall
//! index are built when asked for, so recording a turn stays cheap.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::vector::VectorStore;

/// Who produced a turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The human architect.
    User,
    /// CacheMind.
    Assistant,
}

impl Role {
    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            Role::User => "User",
            Role::Assistant => "Assistant",
        }
    }
}

/// One conversation turn.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Turn {
    /// Speaker.
    pub role: Role,
    /// Text content.
    pub text: String,
}

/// The most turns a [`ConversationMemory`] keeps: the last 256
/// question/answer exchanges of a session. Older turns are dropped, so a
/// session that never closes holds bounded memory.
pub const MAX_KEPT_TURNS: usize = 512;

/// The conversation-memory layer.
///
/// It keeps only the turns themselves, at most [`MAX_KEPT_TURNS`] of them.
/// Recording a turn appends its text and does nothing else. The layers
/// are worked out when asked: [`ConversationMemory::recent`] is the last
/// `max_turns` kept turns, [`ConversationMemory::summaries`] summarises
/// the kept turns before them, and [`ConversationMemory::recall`] builds
/// its vector index over the kept turns on each call.
#[derive(Debug)]
pub struct ConversationMemory {
    turns: VecDeque<Turn>,
    max_turns: usize,
    total: usize,
}

impl ConversationMemory {
    /// Creates a memory whose recent window is the last `max_turns` turns.
    ///
    /// # Panics
    ///
    /// Panics if `max_turns` is zero.
    pub fn new(max_turns: usize) -> Self {
        assert!(max_turns > 0, "memory must keep at least one turn");
        ConversationMemory { turns: VecDeque::new(), max_turns, total: 0 }
    }

    /// Records a turn, dropping the oldest kept turn past
    /// [`MAX_KEPT_TURNS`].
    pub fn push(&mut self, role: Role, text: &str) {
        if self.turns.len() == MAX_KEPT_TURNS {
            self.turns.pop_front();
        }
        self.turns.push_back(Turn { role, text: text.to_owned() });
        self.total += 1;
    }

    /// Recent turns, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Turn> {
        self.turns.iter().skip(self.turns.len().saturating_sub(self.max_turns))
    }

    /// Summaries of the kept turns older than the recent window, oldest
    /// first.
    pub fn summaries(&self) -> Vec<String> {
        let older = self.turns.len().saturating_sub(self.max_turns);
        self.turns.iter().take(older).map(summarize).collect()
    }

    /// Recalls up to `k` kept turns similar to `query` (the recent window
    /// included), most similar first. The index is built here, from the
    /// kept turns in the order they were recorded.
    pub fn recall(&self, query: &str, k: usize) -> Vec<String> {
        let mut store = VectorStore::new(64);
        for (i, turn) in self.turns.iter().enumerate() {
            store.add(&format!("turn-{i}"), &turn.text);
        }
        store.search(query, k).into_iter().map(|hit| store.text(hit.index).to_owned()).collect()
    }

    /// Renders the memory context for the next prompt: summaries first,
    /// then the verbatim recent window.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let summaries = self.summaries();
        if !summaries.is_empty() {
            out.push_str("Earlier in this session:\n");
            for s in &summaries {
                out.push_str(&format!("- {s}\n"));
            }
        }
        for t in self.recent() {
            out.push_str(&format!("{}: {}\n", t.role.label(), t.text));
        }
        out
    }

    /// Total turns ever recorded, dropped ones included.
    pub fn total_turns(&self) -> usize {
        self.total
    }
}

/// Naive extractive summary: the first sentence, truncated.
fn summarize(turn: &Turn) -> String {
    let first = turn.text.split(['.', '\n']).next().unwrap_or("").trim();
    let mut s = format!("{} said: {first}", turn.role.label());
    if s.len() > 120 {
        s.truncate(117);
        s.push_str("...");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_slides_and_summarizes() {
        let mut m = ConversationMemory::new(2);
        m.push(Role::User, "List all unique PCs in the trace.");
        m.push(Role::Assistant, "4184b0, 4184c0, 418502.");
        m.push(Role::User, "Compute mean ETR per PC.");
        assert_eq!(m.recent().count(), 2);
        assert_eq!(m.summaries().len(), 1);
        assert!(m.summaries()[0].contains("unique PCs"));
        assert_eq!(m.total_turns(), 3);
    }

    #[test]
    fn recall_finds_similar_turns() {
        let mut m = ConversationMemory::new(2);
        m.push(Role::User, "Group PCs by ETR variance for mockingjay training.");
        m.push(Role::User, "What is the weather like?");
        m.push(Role::User, "List hot cache sets in astar.");
        let recalled = m.recall("PCs with low ETR variance", 1);
        assert!(recalled[0].contains("ETR variance"));
    }

    #[test]
    fn render_contains_both_layers() {
        let mut m = ConversationMemory::new(1);
        m.push(Role::User, "First question about miss rates.");
        m.push(Role::Assistant, "Answer with numbers.");
        let text = m.render();
        assert!(text.contains("Earlier in this session"));
        assert!(text.contains("Assistant: Answer with numbers."));
    }

    #[test]
    fn kept_turns_are_capped_and_counted_past_the_cap() {
        let mut m = ConversationMemory::new(4);
        for i in 0..MAX_KEPT_TURNS + 10 {
            m.push(Role::User, &format!("question number {i}"));
        }
        assert_eq!(m.total_turns(), MAX_KEPT_TURNS + 10);
        assert_eq!(m.recent().count(), 4);
        assert_eq!(m.summaries().len(), MAX_KEPT_TURNS - 4);
        assert!(m.summaries()[0].ends_with("question number 10"));
        let all = m.recall("question number", MAX_KEPT_TURNS + 10);
        assert_eq!(all.len(), MAX_KEPT_TURNS);
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
        /// store filled eagerly with the same pushes in the same order.
        #[test]
        fn recall_matches_an_eagerly_filled_store(
            turns in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..8), 0..40),
            query in proptest::collection::vec(0usize..16, 0..6),
            window in 1usize..6,
            k in 0usize..10,
        ) {
            let mut memory = ConversationMemory::new(window);
            let mut eager = VectorStore::new(64);
            for (i, words) in turns.iter().enumerate() {
                let text = sentence(words);
                let role = if i % 2 == 0 { Role::User } else { Role::Assistant };
                memory.push(role, &text);
                eager.add(&format!("turn-{i}"), &text);
            }
            let query = sentence(&query);
            let expected: Vec<String> = eager
                .search(&query, k)
                .into_iter()
                .map(|hit| eager.text(hit.index).to_owned())
                .collect();
            proptest::prop_assert_eq!(memory.recall(&query, k), expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one turn")]
    fn zero_capacity_rejected() {
        let _ = ConversationMemory::new(0);
    }
}
