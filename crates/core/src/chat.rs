//! The assistive chat layer: CacheMind plus conversation memory.
//!
//! "We augmented the Generator LLM with conversation memory buffer, turning
//! it into an assistive chat tool" (§1). Sessions retain intermediate
//! results so multi-turn analyses — the Figure 10–13 insight transcripts —
//! can build on earlier answers.
//!
//! A session keeps its last [`MAX_KEPT_EXCHANGES`] question/answer pairs
//! and counts every answered turn, so a session that never closes holds
//! bounded memory while its turn numbers keep counting. Logging a turn
//! only appends text; recall builds its vector index when called.

use std::collections::VecDeque;

use cachemind_lang::memory::{ConversationMemory, Role, MAX_KEPT_TURNS};

use crate::system::{Answer, CacheMind, Query};

/// The most `(question, answer)` exchanges a [`ChatSession`] keeps: 256,
/// one question turn and one answer turn each in its memory. A served
/// exchange keeps about 0.7 KB across the transcript and the memory, so a
/// session at the cap holds about 180 KB. A question is at most one
/// protocol line (1 MiB), which bounds the worst case.
pub const MAX_KEPT_EXCHANGES: usize = MAX_KEPT_TURNS / 2;

/// A multi-turn chat session over one CacheMind instance.
#[derive(Debug)]
pub struct ChatSession {
    mind: CacheMind,
    memory: ConversationMemory,
    transcript: VecDeque<(String, String)>,
    turns: usize,
}

impl ChatSession {
    /// Starts a session whose memory window is the last 8 turns.
    pub fn new(mind: CacheMind) -> Self {
        ChatSession {
            mind,
            memory: ConversationMemory::new(8),
            transcript: VecDeque::new(),
            turns: 0,
        }
    }

    /// The underlying system.
    pub fn mind(&self) -> &CacheMind {
        &self.mind
    }

    /// Asks a question within the session; the turn is recorded in memory
    /// and the transcript.
    pub fn ask(&mut self, question: &str) -> Answer {
        self.ask_query(&Query::new(question))
    }

    /// Asks a typed, scenario-scoped query within the session — the
    /// scoped form of [`ChatSession::ask`]; the turn is recorded in memory
    /// and the transcript.
    pub fn ask_query(&mut self, query: &Query) -> Answer {
        let answer = self.mind.ask_query(query);
        self.log(&query.text, &answer.text);
        answer
    }

    /// Records an out-of-band analysis step (the insight modules execute
    /// plans directly but still log chat-style turns, as in the paper's
    /// condensed transcripts).
    pub fn log(&mut self, question: &str, response: &str) {
        self.memory.push(Role::User, question);
        self.memory.push(Role::Assistant, response);
        if self.transcript.len() == MAX_KEPT_EXCHANGES {
            self.transcript.pop_front();
        }
        self.transcript.push_back((question.to_owned(), response.to_owned()));
        self.turns += 1;
    }

    /// Recalls kept turns relevant to `query` from vector memory.
    pub fn recall(&self, query: &str, k: usize) -> Vec<String> {
        self.memory.recall(query, k)
    }

    /// Every turn the session answered, those no longer kept included.
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// The kept `(question, answer)` transcript, oldest first: the last
    /// [`MAX_KEPT_EXCHANGES`] exchanges.
    pub fn transcript(&self) -> impl ExactSizeIterator<Item = &(String, String)> {
        self.transcript.iter()
    }

    /// Renders the kept transcript in the paper's condensed format
    /// (Figures 10–13).
    pub fn render_transcript(&self) -> String {
        let mut out = String::new();
        for (q, a) in &self.transcript {
            out.push_str(&format!("User: {q}\nAssistant: {a}\n\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RetrieverKind;
    use cachemind_tracedb::TraceDatabaseBuilder;

    #[test]
    fn session_accumulates_transcript_and_memory() {
        let mind = CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
            .with_retriever(RetrieverKind::Ranger);
        let mut chat = ChatSession::new(mind);
        chat.ask("What is the overall miss rate of the mcf workload under LRU?");
        chat.log("List all unique PCs in the trace.", "0x401380, 0x401384, ...");
        assert_eq!(chat.transcript().len(), 2);
        let recalled = chat.recall("unique PCs", 1);
        assert!(recalled[0].contains("unique PCs"));
        let rendered = chat.render_transcript();
        assert!(rendered.contains("User: List all unique PCs"));
    }

    #[test]
    fn session_keeps_the_last_exchanges_and_counts_every_turn() {
        let mut chat = ChatSession::new(CacheMind::new(TraceDatabaseBuilder::quick_demo().build()));
        for i in 0..MAX_KEPT_EXCHANGES + 10 {
            chat.log(&format!("question {i}"), &format!("answer {i}"));
        }
        assert_eq!(chat.turns(), MAX_KEPT_EXCHANGES + 10);
        assert_eq!(chat.transcript().len(), MAX_KEPT_EXCHANGES);
        let first = chat.transcript().next().expect("kept exchanges");
        assert_eq!(first, &("question 10".to_owned(), "answer 10".to_owned()));
        let recalled = chat.recall("question", 2 * (MAX_KEPT_EXCHANGES + 10));
        assert_eq!(recalled.len(), 2 * MAX_KEPT_EXCHANGES);
        assert!(recalled.iter().all(|t| t != "question 9" && t != "answer 9"));
        assert!(recalled.iter().any(|t| t == "question 10"));
    }
}
