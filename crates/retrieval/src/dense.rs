//! The dense-embedding baseline (LlamaIndex-style RAG, §6.2).
//!
//! Trace rows are chunked to text, embedded with
//! [`cachemind_lang::embed::HashedEmbedder`], and retrieved by cosine
//! top-k. The paper's diagnosis applies verbatim: "cosine similarity over
//! embeddings ... fails for microarchitectural traces where records differ
//! only by small numerical or bit-level changes. As a result,
//! embedding-based retrievers often return imprecise or incorrect context"
//! — which is exactly what the probe evaluation (Figure 9) measures.

use cachemind_lang::context::{Fact, RetrievedContext};
use cachemind_lang::intent::QueryIntent;
use cachemind_lang::vector::VectorStore;
use cachemind_tracedb::database::TraceId;
use cachemind_tracedb::store::TraceStore;

use crate::quality::grade;
use crate::retriever::Retriever;

/// What a stored chunk points back to.
#[derive(Debug, Clone)]
enum ChunkRef {
    /// A whole-trace summary chunk.
    Summary { key: String },
    /// One trace row.
    Row { key: String, row: usize },
}

/// The dense-index retriever.
#[derive(Debug)]
pub struct DenseIndexRetriever {
    store: VectorStore,
    refs: Vec<ChunkRef>,
    top_k: usize,
}

impl DenseIndexRetriever {
    /// Indexes the database: one summary chunk per trace plus every
    /// `stride`-th row (stride 1 = all rows).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn build(db: &dyn TraceStore, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        let mut store = VectorStore::new(64);
        let mut refs = Vec::new();
        for entry in db.entries() {
            let key = entry.id.key();
            store.add(
                &format!("{key}:summary"),
                &format!("TRACE_ID: {key} DESCRIPTION: {} {}", entry.description, entry.metadata),
            );
            refs.push(ChunkRef::Summary { key: key.clone() });
            for (i, row) in entry.frame.rows().iter().enumerate().step_by(stride) {
                store.add(
                    &format!("{key}:{i}"),
                    &format!(
                        "TRACE_ID: {key} program_counter={} memory_address={} \
                         cache_set_id={} evict={} reuse_distance={}",
                        row.pc,
                        row.address,
                        row.set,
                        row.evict_label(),
                        row.accessed_reuse_distance.unwrap_or(0),
                    ),
                );
                refs.push(ChunkRef::Row { key: key.clone(), row: i });
            }
        }
        DenseIndexRetriever { store, refs, top_k: 3 }
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

impl Retriever for DenseIndexRetriever {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn retrieve(&self, db: &dyn TraceStore, intent: &QueryIntent) -> RetrievedContext {
        let hits = self.store.search(&intent.raw, self.top_k);
        let mut facts = Vec::new();
        for hit in hits {
            match &self.refs[hit.index] {
                ChunkRef::Summary { key } => {
                    if let Some(entry) = db.get(key) {
                        facts.push(Fact::Snippet {
                            title: format!("{key} (similarity {:.3})", hit.score),
                            text: format!("{} {}", entry.description, entry.metadata),
                        });
                    }
                }
                ChunkRef::Row { key, row } => {
                    let Some(id) = TraceId::parse(key) else { continue };
                    let Some(entry) = db.get(key) else { continue };
                    let Some(r) = entry.frame.rows().get(*row) else { continue };
                    // The baseline hands whatever row embeds closest to the
                    // query — right or wrong — straight to the generator.
                    facts.push(Fact::Outcome {
                        pc: Some(r.pc),
                        address: Some(r.address),
                        workload: id.workload,
                        policy: id.policy,
                        is_miss: r.is_miss,
                        evicted: r.evicted_address.map(|e| (e, r.evicted_reuse_distance)),
                        inserted_reuse: r.accessed_reuse_distance,
                    });
                }
            }
        }
        let quality = grade(intent, &facts);
        RetrievedContext { facts, quality, retriever: "dense".to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};

    fn db() -> TraceDatabase {
        TraceDatabaseBuilder::quick_demo().build()
    }

    fn intent(db: &TraceDatabase, q: &str) -> QueryIntent {
        let workloads = db.workloads();
        let policies = db.policies();
        QueryIntent::parse(
            q,
            &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
            &policies.iter().map(String::as_str).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn index_covers_all_traces() {
        let db = db();
        let dense = DenseIndexRetriever::build(&db, 8);
        assert!(dense.len() > db.len(), "at least one chunk per trace plus rows");
    }

    #[test]
    fn retrieval_returns_some_context() {
        let db = db();
        let dense = DenseIndexRetriever::build(&db, 4);
        let entry = db.get("mcf_evictions_lru").unwrap();
        let row = &entry.frame.rows()[0];
        let q = format!("Does PC {} and address {} hit on mcf under LRU?", row.pc, row.address);
        let ctx = dense.retrieve(&db, &intent(&db, &q));
        assert!(!ctx.facts.is_empty());
    }

    #[test]
    fn numeric_confusion_returns_wrong_rows_often() {
        // Ask about specific rows and check how often the retrieved Outcome
        // facts actually match the requested (pc, address) pair — the
        // Figure 9 failure mode. The baseline should be wrong most times.
        let db = db();
        let dense = DenseIndexRetriever::build(&db, 2);
        let entry = db.get("astar_evictions_lru").unwrap();
        let mut exact = 0;
        let mut total = 0;
        for row in entry.frame.rows().iter().step_by(37).take(20) {
            let q = format!(
                "When PC {} and address {} is accessed on the astar workload with LRU \
                 policy, does the cache hit or miss?",
                row.pc, row.address
            );
            let ctx = dense.retrieve(&db, &intent(&db, &q));
            total += 1;
            if ctx.facts.iter().any(|f| {
                matches!(f, Fact::Outcome { pc: Some(p), address: Some(a), .. }
                    if *p == row.pc && *a == row.address)
            }) {
                exact += 1;
            }
        }
        assert!(total == 20);
        assert!(exact < total / 2, "dense retrieval matched {exact}/{total} exactly");
    }
}
