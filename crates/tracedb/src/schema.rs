//! Machine-readable schema description — the "detailed schema of the
//! external database" handed to the Ranger retrieval LLM (Fig. 3).

use serde::{Deserialize, Serialize};

/// One column of the dataframe schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name, exactly as in the paper (§4.3).
    pub name: &'static str,
    /// What the column holds.
    pub description: &'static str,
}

/// The full per-access schema of §4.3, in paper order.
///
/// This is the schema Ranger is shown, not the storage layout. The
/// set-snapshot columns — `current_cache_lines` (with its address-only
/// projection `current_cache_line_addresses`), `recent_access_history` and
/// `cache_line_eviction_scores` — are described to Ranger but not stored
/// in an [`crate::EvictionRecord`]: no answer reads them, and the
/// simulator is deterministic, so the state of set S before access i is
/// derived by replaying the stream prefix through the policy
/// ([`cachemind_sim::cache::SetAssociativeCache::set_view`] and
/// [`cachemind_sim::replacement::ReplacementPolicy::line_scores_into`]).
pub const COLUMNS: &[Column] = &[
    Column { name: "program_counter", description: "Instruction identity (e.g., 0x401d9b)" },
    Column {
        name: "memory_address",
        description: "Accessed memory location (e.g., 0x35e798a637f)",
    },
    Column { name: "cache_set_id", description: "Target cache set" },
    Column { name: "evict", description: "Access outcome (Cache Hit/Cache Miss)" },
    Column { name: "miss_type", description: "Miss taxonomy (Compulsory, Capacity, Conflict)" },
    Column { name: "evicted_address", description: "Line evicted by this access (if any)" },
    Column { name: "accessed_address_recency", description: "Textual recency descriptor" },
    Column {
        name: "accessed_address_reuse_distance",
        description: "Reuse distance for the accessed line",
    },
    Column {
        name: "evicted_address_reuse_distance",
        description: "Reuse distance for the evicted line",
    },
    Column { name: "function_name", description: "Source-level function name mapped from PC" },
    Column { name: "function_code", description: "Short source snippet around the PC" },
    Column { name: "assembly_code", description: "Disassembly around the PC" },
    Column {
        name: "current_cache_lines",
        description: "Snapshot of (PC, address) pairs resident in the set at access time",
    },
    Column {
        name: "recent_access_history",
        description: "Recent (PC, address) tuples for context",
    },
    Column {
        name: "cache_line_eviction_scores",
        description: "Per-line scores used by the policy to decide evictions",
    },
    Column {
        name: "current_cache_line_addresses",
        description: "Addresses resident in the set at access time",
    },
    Column {
        name: "evicted_address_reuse_distance_numeric",
        description: "Reuse distance for the evicted line (numeric)",
    },
    Column {
        name: "accessed_address_reuse_distance_numeric",
        description: "Reuse distance for the accessed line (numeric)",
    },
    Column {
        name: "accessed_address_recency_numeric",
        description: "Access recency (number of intervening accesses)",
    },
    Column { name: "is_miss", description: "Indicator for miss/hit (1 = miss, 0 = hit)" },
];

/// Renders the schema card embedded in the Ranger system prompt.
pub fn schema_card(workloads: &[&str], policies: &[&str]) -> String {
    let mut out = String::new();
    out.push_str("Data Structure Overview\n");
    out.push_str("- loaded_data: a store with keys like lbm_evictions_lru.\n");
    out.push_str("- Values: \"data_frame\" (per-access rows), \"metadata\" (string), \"description\" (string).\n");
    out.push_str(&format!("- Workloads: {}.\n", workloads.join(", ")));
    out.push_str(&format!("- Policies: {}.\n", policies.join(", ")));
    out.push_str("\nDataframe Structure (data_frame)\nColumns:\n");
    for col in COLUMNS {
        out.push_str(&format!("- {} : {}\n", col.name, col.description));
    }
    out.push_str(
        "\nMetadata (metadata)\n\
         - A single string summarizing trace stats (accesses, misses, evictions, \
         miss rate, correlations, etc.).\n\
         - Access via loaded_data[trace_id][\"metadata\"].\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_all_paper_columns() {
        assert_eq!(COLUMNS.len(), 20);
        for name in [
            "program_counter",
            "memory_address",
            "cache_set_id",
            "evict",
            "miss_type",
            "is_miss",
            "accessed_address_reuse_distance_numeric",
        ] {
            assert!(COLUMNS.iter().any(|c| c.name == name), "missing {name}");
        }
    }

    #[test]
    fn schema_card_mentions_keys_and_columns() {
        let card = schema_card(&["astar", "lbm", "mcf"], &["belady", "lru", "mlp", "parrot"]);
        assert!(card.contains("lbm_evictions_lru"));
        assert!(card.contains("program_counter"));
        assert!(card.contains("Policies: belady, lru, mlp, parrot."));
    }
}
