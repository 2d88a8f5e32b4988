//! The assistive chat layer: CacheMind plus conversation memory.
//!
//! "We augmented the Generator LLM with conversation memory buffer, turning
//! it into an assistive chat tool" (§1). Sessions retain intermediate
//! results so multi-turn analyses — the Figure 10–13 insight transcripts —
//! can build on earlier answers.
//!
//! A session keeps its last
//! [`MAX_KEPT_EXCHANGES`](cachemind_lang::memory::MAX_KEPT_EXCHANGES)
//! question/answer pairs and counts every answered turn, so a session
//! that never closes holds bounded memory while its turn numbers keep
//! counting. The exchange log ([`ConversationMemory`]) is the session's
//! only state besides its mind: logging a turn only appends text, and
//! recall builds its vector index when called.

use cachemind_lang::memory::ConversationMemory;

use crate::system::{Answer, CacheMind, Query};

/// A multi-turn chat session over one CacheMind instance. A served
/// exchange keeps about 0.35 KB, so a session at the cap of
/// [`MAX_KEPT_EXCHANGES`](cachemind_lang::memory::MAX_KEPT_EXCHANGES)
/// holds about 90 KB. A question is at most one
/// protocol line (1 MiB), which bounds the worst case.
#[derive(Debug)]
pub struct ChatSession {
    mind: CacheMind,
    memory: ConversationMemory,
}

impl ChatSession {
    /// Starts a session with an empty exchange log.
    pub fn new(mind: CacheMind) -> Self {
        ChatSession { mind, memory: ConversationMemory::new() }
    }

    /// The underlying system.
    pub fn mind(&self) -> &CacheMind {
        &self.mind
    }

    /// Asks a question within the session; the exchange is logged.
    pub fn ask(&mut self, question: &str) -> Answer {
        self.ask_query(&Query::new(question))
    }

    /// Asks a typed, scenario-scoped query within the session — the
    /// scoped form of [`ChatSession::ask`]; the exchange is logged.
    pub fn ask_query(&mut self, query: &Query) -> Answer {
        let answer = self.mind.ask_query(query);
        self.log(&query.text, &answer.text);
        answer
    }

    /// Records an out-of-band analysis step (the insight modules execute
    /// plans directly but still log chat-style turns, as in the paper's
    /// condensed transcripts).
    pub fn log(&mut self, question: &str, response: &str) {
        self.memory.push(question, response);
    }

    /// Recalls kept questions and answers relevant to `query` from vector
    /// memory.
    pub fn recall(&self, query: &str, k: usize) -> Vec<String> {
        self.memory.recall(query, k)
    }

    /// Every turn the session answered, those no longer kept included.
    pub fn turns(&self) -> usize {
        self.memory.turns()
    }

    /// The kept `(question, answer)` transcript, oldest first: the last
    /// [`MAX_KEPT_EXCHANGES`](cachemind_lang::memory::MAX_KEPT_EXCHANGES)
    /// exchanges.
    pub fn transcript(&self) -> impl ExactSizeIterator<Item = &(String, String)> {
        self.memory.exchanges()
    }

    /// Renders the kept transcript in the paper's condensed format
    /// (Figures 10–13).
    pub fn render_transcript(&self) -> String {
        let mut out = String::new();
        for (q, a) in self.transcript() {
            out.push_str(&format!("User: {q}\nAssistant: {a}\n\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RetrieverKind;
    use cachemind_lang::memory::MAX_KEPT_EXCHANGES;
    use cachemind_lang::vector::VectorStore;
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

        // Recall past the cap is a store filled eagerly with the kept
        // exchanges, question then answer, oldest first.
        let mut eager = VectorStore::new(64);
        for (i, n) in (10..MAX_KEPT_EXCHANGES + 10).enumerate() {
            eager.add(&format!("turn-{}", 2 * i), &format!("question {n}"));
            eager.add(&format!("turn-{}", 2 * i + 1), &format!("answer {n}"));
        }
        for query in ["question 17", "answer 200", "answer 9", "question", "turn"] {
            for k in [0, 1, 3, 40, 2 * MAX_KEPT_EXCHANGES + 5] {
                let expected: Vec<String> = eager
                    .search(query, k)
                    .into_iter()
                    .map(|hit| eager.text(hit.index).to_owned())
                    .collect();
                assert_eq!(chat.recall(query, k), expected, "query {query:?}, k {k}");
            }
        }
    }
}
