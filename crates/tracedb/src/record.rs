//! The row type of the trace database — the paper's per-access schema.

use serde::{Deserialize, Serialize};

use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::replay::{EvictionRecord, MissType};

/// One per-access record, mirroring the paper's dataframe columns. A row
/// owns no heap memory.
///
/// Text-valued columns that derive from the PC (`function_name`,
/// `function_code`, `assembly_code`) are not stored per row; the owning
/// [`crate::frame::TraceFrame`] joins them from the workload's program image
/// on demand, which keeps million-row frames compact. The set-snapshot
/// columns (`current_cache_lines`, `recent_access_history`,
/// `cache_line_eviction_scores`) are not stored either: no answer reads
/// them, and the deterministic replay reproduces them (see
/// [`crate::schema`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Position within the LLC access stream.
    pub index: u64,
    /// `program_counter`.
    pub pc: Pc,
    /// `memory_address`.
    pub address: Address,
    /// Access kind (`load`/`store`/`fetch`/`prefetch`).
    pub kind: cachemind_sim::access::AccessKind,
    /// `cache_set_id`.
    pub set: SetId,
    /// `is_miss` (and the textual `evict` column: "Cache Hit"/"Cache Miss").
    pub is_miss: bool,
    /// `miss_type`.
    pub miss_type: Option<MissType>,
    /// `evicted_address`.
    pub evicted_address: Option<Address>,
    /// `accessed_address_reuse_distance_numeric`.
    pub accessed_reuse_distance: Option<u64>,
    /// `evicted_address_reuse_distance_numeric`.
    pub evicted_reuse_distance: Option<u64>,
    /// `accessed_address_recency_numeric`.
    pub recency: Option<u64>,
    /// Whether the fill was bypassed by the policy.
    pub bypassed: bool,
}

impl TraceRow {
    /// The textual `evict` column value.
    pub fn evict_label(&self) -> &'static str {
        if self.is_miss {
            "Cache Miss"
        } else {
            "Cache Hit"
        }
    }

    /// The textual `accessed_address_recency` column value.
    pub fn recency_label(&self) -> &'static str {
        match self.recency {
            None => "first access",
            Some(d) if d <= 64 => "very recent",
            Some(d) if d <= 1024 => "recent",
            Some(d) if d <= 16384 => "distant",
            Some(_) => "very distant",
        }
    }

    /// The textual `miss_type` column value.
    pub fn miss_type_label(&self) -> &'static str {
        match self.miss_type {
            None => "",
            Some(t) => t.label(),
        }
    }

    /// Converts a simulator eviction record into a database row.
    pub fn from_record(record: &EvictionRecord) -> Self {
        TraceRow {
            index: record.index,
            pc: record.pc,
            address: record.address,
            kind: record.kind,
            set: record.set,
            is_miss: record.is_miss,
            miss_type: record.miss_type,
            evicted_address: record.evicted_address,
            accessed_reuse_distance: record.accessed_reuse_distance,
            evicted_reuse_distance: record.evicted_reuse_distance,
            recency: record.recency,
            bypassed: record.bypassed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(is_miss: bool, recency: Option<u64>) -> TraceRow {
        TraceRow {
            index: 0,
            pc: Pc::new(0x401e31),
            address: Address::new(0x35e798a637f),
            kind: cachemind_sim::access::AccessKind::Load,
            set: SetId::new(5),
            is_miss,
            miss_type: is_miss.then_some(MissType::Capacity),
            evicted_address: None,
            accessed_reuse_distance: Some(10),
            evicted_reuse_distance: None,
            recency,
            bypassed: false,
        }
    }

    #[test]
    fn rows_own_no_heap_memory() {
        assert!(!std::mem::needs_drop::<TraceRow>());
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(row(true, None).evict_label(), "Cache Miss");
        assert_eq!(row(false, None).evict_label(), "Cache Hit");
        assert_eq!(row(true, None).miss_type_label(), "Capacity");
        assert_eq!(row(false, Some(10)).recency_label(), "very recent");
        assert_eq!(row(false, Some(100_000)).recency_label(), "very distant");
    }
}
