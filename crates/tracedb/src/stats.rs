//! The "Cache Statistical Expert" (§3.2.3): the per-PC and per-set
//! statistics a [`TraceFrame`] summarises its rows into, and the rankings
//! read from them.
//!
//! [`TraceFrame`]: crate::frame::TraceFrame

use serde::{Deserialize, Serialize};

use cachemind_sim::addr::Pc;
use cachemind_sim::replay::EvictionRecord;

/// Per-PC statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcStats {
    /// The PC.
    pub pc: Pc,
    /// Accesses issued by this PC.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Mean forward reuse distance of the accessed lines (when known).
    pub mean_accessed_reuse: Option<f64>,
    /// Mean reuse distance of lines evicted by this PC's accesses.
    pub mean_evicted_reuse: Option<f64>,
    /// Standard deviation of the accessed reuse distance.
    pub reuse_stddev: Option<f64>,
    /// Evictions caused by this PC's fills.
    pub evictions_caused: u64,
}

impl PcStats {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Coefficient of variation of the reuse distance (stddev / mean) — the
    /// "stability" measure of the Mockingjay use case.
    pub fn reuse_cv(&self) -> Option<f64> {
        match (self.reuse_stddev, self.mean_accessed_reuse) {
            (Some(sd), Some(mean)) if mean > 0.0 => Some(sd / mean),
            _ => None,
        }
    }
}

/// Count, sum, mean, population standard deviation, minimum and maximum
/// of one numeric column over some rows, summed in the order given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Rows with a value in the column.
    pub count: u64,
    /// Sum of the values.
    pub sum: f64,
    /// `sum / count`.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl ColumnStats {
    /// The statistics of `values`; `None` when there are none.
    ///
    /// Every mean and deviation in [`PcStats`] and every aggregate a plan
    /// reports comes from here, whether read from a frame's per-PC
    /// summary or computed by a scan, so both give the same bits.
    pub fn of(values: &[f64]) -> Option<ColumnStats> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let sum = values.iter().sum::<f64>();
        let mean = sum / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Some(ColumnStats {
            count: values.len() as u64,
            sum,
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::MAX, f64::min),
            max: values.iter().copied().fold(f64::MIN, f64::max),
        })
    }
}

/// One PC's statistics over its rows in stream order: its [`PcStats`]
/// plus the [`ColumnStats`] of each numeric column. A frame computes one
/// per distinct PC on first use ([`TraceFrame::pc_summary`]).
///
/// [`TraceFrame::pc_summary`]: crate::frame::TraceFrame::pc_summary
#[derive(Debug, Clone)]
pub struct PcSummary {
    /// The PC's counters, means and deviation.
    pub stats: PcStats,
    /// `accessed_address_reuse_distance_numeric`.
    pub accessed_reuse: Option<ColumnStats>,
    /// `evicted_address_reuse_distance_numeric`.
    pub evicted_reuse: Option<ColumnStats>,
    /// `accessed_address_recency_numeric`.
    pub recency: Option<ColumnStats>,
}

impl PcSummary {
    /// Summarises `pc`'s rows, which must come in stream order so the
    /// sums run in the same order on every path.
    pub(crate) fn over<'a>(pc: Pc, rows: impl Iterator<Item = &'a EvictionRecord>) -> PcSummary {
        let (mut accesses, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let (mut reuse, mut evicted_reuse, mut recency) = (Vec::new(), Vec::new(), Vec::new());
        for row in rows {
            accesses += 1;
            misses += row.is_miss as u64;
            evictions += row.evicted_address.is_some() as u64;
            reuse.extend(row.accessed_reuse_distance.map(|d| d as f64));
            evicted_reuse.extend(row.evicted_reuse_distance.map(|d| d as f64));
            recency.extend(row.recency.map(|d| d as f64));
        }
        let accessed_reuse = ColumnStats::of(&reuse);
        let evicted_reuse = ColumnStats::of(&evicted_reuse);
        PcSummary {
            stats: PcStats {
                pc,
                accesses,
                hits: accesses - misses,
                misses,
                mean_accessed_reuse: accessed_reuse.map(|c| c.mean),
                mean_evicted_reuse: evicted_reuse.map(|c| c.mean),
                reuse_stddev: accessed_reuse.map(|c| c.std),
                evictions_caused: evictions,
            },
            accessed_reuse,
            evicted_reuse,
            recency: ColumnStats::of(&recency),
        }
    }
}

/// Per-set statistics (the set-hotness use case).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SetStats {
    /// Set index.
    pub set: usize,
    /// Accesses mapping to the set.
    pub accesses: u64,
    /// Hits in the set.
    pub hits: u64,
}

impl SetStats {
    /// One entry per set that `rows` map to, ascending by set. The rows
    /// are counted into a table indexed by set, so no row is hashed.
    pub fn over(rows: &[EvictionRecord]) -> Vec<SetStats> {
        let sets = rows.iter().map(|r| r.set.index() + 1).max().unwrap_or(0);
        let mut table: Vec<SetStats> =
            (0..sets).map(|set| SetStats { set, accesses: 0, hits: 0 }).collect();
        for row in rows {
            let s = &mut table[row.set.index()];
            s.accesses += 1;
            s.hits += (!row.is_miss) as u64;
        }
        table.retain(|s| s.accesses > 0);
        table
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// How many sets [`hot_cold_sets`] reports at each end.
pub const HOT_COLD_SETS: usize = 5;

/// A trace's hottest and coldest sets (Figure 13).
#[derive(Debug, Clone, PartialEq)]
pub struct HotColdSets {
    /// Up to [`HOT_COLD_SETS`] sets, hottest first.
    pub hot: Vec<SetStats>,
    /// Up to [`HOT_COLD_SETS`] sets, coldest first.
    pub cold: Vec<SetStats>,
}

/// Ranks the sets with at least 10 accesses by hit rate, highest first
/// and ties by ascending set, and returns both ends of the ranking. A set
/// can be both hot and cold when fewer than twice [`HOT_COLD_SETS`] sets
/// qualify; both lists are empty when none does.
pub fn hot_cold_sets(sets: &[SetStats]) -> HotColdSets {
    let mut ranked: Vec<SetStats> = sets.iter().copied().filter(|s| s.accesses >= 10).collect();
    ranked.sort_by(|a, b| b.hit_rate().total_cmp(&a.hit_rate()).then(a.set.cmp(&b.set)));
    HotColdSets {
        hot: ranked.iter().take(HOT_COLD_SETS).copied().collect(),
        cold: ranked.iter().rev().take(HOT_COLD_SETS).copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::TraceFrame;
    use cachemind_sim::addr::{Address, SetId};
    use cachemind_workloads::program::ProgramImage;
    use std::sync::Arc;

    fn frame() -> TraceFrame {
        let mut rows = Vec::new();
        // PC 0x10: 3 accesses, 1 miss, reuse distances 10, 20, 30.
        // PC 0x20: 2 accesses, 2 misses, evicts lines.
        for (i, (pc, miss, reuse, evicted)) in [
            (0x10u64, false, Some(10), None),
            (0x10, true, Some(20), Some(0x999)),
            (0x10, false, Some(30), None),
            (0x20, true, None, Some(0x888)),
            (0x20, true, Some(100), Some(0x777)),
        ]
        .iter()
        .enumerate()
        {
            rows.push(EvictionRecord {
                index: i as u64,
                pc: Pc::new(*pc),
                address: Address::new(0x5000 + i as u64 * 64),
                kind: cachemind_sim::access::AccessKind::Load,
                set: SetId::new(i % 2),
                is_miss: *miss,
                miss_type: None,
                evicted_address: evicted.map(Address::new),
                accessed_reuse_distance: *reuse,
                evicted_reuse_distance: evicted.map(|_| 50),
                recency: None,
                bypassed: false,
            });
        }
        TraceFrame::new(rows, Arc::new(ProgramImage::new()))
    }

    #[test]
    fn per_pc_aggregates_correctly() {
        let frame = frame();
        let stats = frame.pc_summaries();
        assert_eq!(stats.len(), 2);
        let pc10 = &stats[0].stats;
        assert_eq!(pc10.pc, Pc::new(0x10));
        assert_eq!(pc10.accesses, 3);
        assert_eq!(pc10.misses, 1);
        assert!((pc10.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(pc10.mean_accessed_reuse, Some(20.0));
        let pc20 = &stats[1].stats;
        assert_eq!(pc20.misses, 2);
        assert_eq!(pc20.evictions_caused, 2);
    }

    #[test]
    fn per_set_counts_hits() {
        let frame = frame();
        let sets = frame.set_summaries();
        assert_eq!(sets.len(), 2);
        let total: u64 = sets.iter().map(|s| s.accesses).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn hot_cold_sets_rank_both_ends() {
        let sets: Vec<SetStats> = (0..12)
            .map(|set| SetStats {
                set,
                accesses: if set == 11 { 9 } else { 10 },
                hits: set as u64 % 4,
            })
            .collect();
        let ranked = hot_cold_sets(&sets);
        let ids = |v: &[SetStats]| v.iter().map(|s| s.set).collect::<Vec<_>>();
        // Set 11 has too few accesses; ties rank by ascending set.
        assert_eq!(ids(&ranked.hot), vec![3, 7, 2, 6, 10]);
        assert_eq!(ids(&ranked.cold), vec![8, 4, 0, 9, 5]);
        assert_eq!(hot_cold_sets(&sets[11..]), HotColdSets { hot: vec![], cold: vec![] });
    }

    #[test]
    fn reuse_cv_requires_samples() {
        let frame = frame();
        let stats = &frame.pc_summary(Pc::new(0x10)).unwrap().stats;
        assert!(stats.reuse_cv().is_some());
    }
}
