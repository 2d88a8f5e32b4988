//! Property tests for the frame's per-PC index.
//!
//! Every read the index serves — `filter`, `first`, `count`, `select`,
//! `contains_pc`, `rows_at`, `pcs`, `unique_pcs`, the per-PC summaries
//! and the statistical expert's `pc_stats` / `per_pc` / `outcomes_for` —
//! must equal a naive scan over all rows exactly: the same rows in the
//! same order, and bit-equal floats. Frames are random (empty ones
//! included), PCs are drawn from a pool wider than any frame's, addresses
//! repeat within and across PCs, and predicate trees nest `PcEquals` and
//! `AddressEquals` under `And`, `Or` and `Not`.

use std::sync::Arc;

use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_tracedb::prelude::*;
use cachemind_workloads::program::ProgramImage;
use proptest::prelude::*;

/// splitmix64, so one generated seed derives a whole case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// PCs a frame may hold are the first `FRAME_PCS` of the pool; queries
/// draw from all of it, so some always miss.
const FRAME_PCS: u64 = 8;
const POOL_PCS: u64 = 12;

fn pool_pc(rng: &mut Mix, pool: u64) -> Pc {
    Pc::new(0x40_0000 + rng.below(pool) * 4)
}

fn address(rng: &mut Mix) -> Address {
    Address::new(0x1000 + rng.below(16) * 64)
}

fn synth_frame(rng: &mut Mix) -> TraceFrame {
    let len = if rng.chance(6) { 0 } else { rng.below(160) };
    let rows = (0..len)
        .map(|index| {
            let is_miss = rng.chance(2);
            EvictionRecord {
                index,
                pc: pool_pc(rng, FRAME_PCS),
                address: address(rng),
                kind: AccessKind::Load,
                set: SetId::new(rng.below(8) as usize),
                is_miss,
                miss_type: None,
                evicted_address: (is_miss && rng.chance(2)).then(|| address(rng)),
                // Large distances make float sums depend on their order.
                accessed_reuse_distance: rng.chance(4).then(|| rng.below(1 << 40)).or(Some(3)),
                evicted_reuse_distance: rng.chance(3).then(|| rng.below(1 << 40)),
                recency: rng.chance(2).then(|| rng.below(64)),
                bypassed: false,
            }
        })
        .collect();
    TraceFrame::new(rows, Arc::new(ProgramImage::new()))
}

fn leaf(rng: &mut Mix) -> Predicate {
    match rng.below(8) {
        0 => Predicate::True,
        1 | 2 => Predicate::PcEquals(pool_pc(rng, POOL_PCS)),
        3 => Predicate::PcIn(vec![pool_pc(rng, POOL_PCS), pool_pc(rng, POOL_PCS)]),
        4 => Predicate::AddressEquals(address(rng)),
        5 => Predicate::IsMiss(rng.chance(2)),
        6 => Predicate::SetEquals(SetId::new(rng.below(8) as usize)),
        _ => {
            let lo = rng.below(100);
            Predicate::IndexInRange(lo, lo + rng.below(100))
        }
    }
}

fn tree(rng: &mut Mix, depth: u32) -> Predicate {
    if depth == 0 || rng.chance(3) {
        return leaf(rng);
    }
    match rng.below(3) {
        0 => tree(rng, depth - 1).and(tree(rng, depth - 1)),
        1 => tree(rng, depth - 1).or(tree(rng, depth - 1)),
        _ => tree(rng, depth - 1).not(),
    }
}

/// An address no frame holds.
const ABSENT: Address = Address::new(0xdead_0000);

/// PC and address pins, each alone and together, for `pc`: an address
/// the PC repeats, one the frame holds only under other PCs, one no row
/// holds, and a random one; in either order under `And`, with a third
/// conjunct, and under `Or` and `Not`.
fn pc_address_predicates(frame: &TraceFrame, pc: Pc, rng: &mut Mix) -> Vec<Predicate> {
    let own: Vec<Address> = frame.rows().iter().filter(|r| r.pc == pc).map(|r| r.address).collect();
    let mut addresses = vec![ABSENT, address(rng)];
    addresses.extend(own.iter().copied().find(|a| own.iter().filter(|b| *b == a).count() > 1));
    addresses.extend(own.first().copied());
    addresses.extend(frame.rows().iter().map(|r| r.address).find(|a| !own.contains(a)));
    let mut out = Vec::new();
    for a in addresses {
        out.extend([
            Predicate::pc_address(Some(pc), Some(a)),
            Predicate::AddressEquals(a).and(Predicate::PcEquals(pc)),
            Predicate::pc_address(Some(pc), Some(a)).and(Predicate::IsMiss(true)),
            Predicate::IsMiss(false).and(Predicate::AddressEquals(a).and(Predicate::PcEquals(pc))),
            Predicate::pc_address(Some(pc), Some(a)).or(Predicate::IsMiss(true)),
            Predicate::pc_address(Some(pc), Some(a)).not(),
            Predicate::PcEquals(pc).and(Predicate::AddressEquals(a).not()),
            Predicate::AddressEquals(a),
        ]);
    }
    out
}

/// Random trees plus fixed shapes that put a PC pin under every
/// combinator, so each case exercises both the narrowed and the full
/// scan.
fn predicates(frame: &TraceFrame, rng: &mut Mix) -> Vec<Predicate> {
    let pc = pool_pc(rng, POOL_PCS);
    let other = leaf(rng);
    let mut out = pc_address_predicates(frame, pc, rng);
    out.extend([
        Predicate::PcEquals(pc),
        Predicate::pc_address(Some(pc), Some(address(rng))),
        Predicate::IsMiss(true).and(Predicate::PcEquals(pc)),
        Predicate::PcEquals(pc).and(Predicate::PcEquals(pool_pc(rng, POOL_PCS))),
        Predicate::PcEquals(pc).or(other.clone()),
        Predicate::PcEquals(pc).not(),
        other.and(Predicate::PcEquals(pc).not()),
    ]);
    out.extend((0..8).map(|_| tree(rng, 4)));
    out
}

/// The reference: a scan of every row.
fn naive<'a>(frame: &'a TraceFrame, predicate: &Predicate) -> Vec<&'a EvictionRecord> {
    frame.rows().iter().filter(|r| predicate.matches(r)).collect()
}

fn same_rows(a: &[&EvictionRecord], b: &[&EvictionRecord]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Per-PC statistics by a scan, written out independently of the expert.
fn naive_pc_stats(frame: &TraceFrame, pc: Pc) -> Option<PcStats> {
    let rows: Vec<&EvictionRecord> = frame.rows().iter().filter(|r| r.pc == pc).collect();
    if rows.is_empty() {
        return None;
    }
    let moments = |values: Vec<f64>| {
        if values.is_empty() {
            return (None, None);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        (Some(mean), Some(var.sqrt()))
    };
    let (mean, sd) =
        moments(rows.iter().filter_map(|r| r.accessed_reuse_distance).map(|d| d as f64).collect());
    let (emean, _) =
        moments(rows.iter().filter_map(|r| r.evicted_reuse_distance).map(|d| d as f64).collect());
    let misses = rows.iter().filter(|r| r.is_miss).count() as u64;
    Some(PcStats {
        pc,
        accesses: rows.len() as u64,
        hits: rows.len() as u64 - misses,
        misses,
        mean_accessed_reuse: mean,
        mean_evicted_reuse: emean,
        reuse_stddev: sd,
        evictions_caused: rows.iter().filter(|r| r.evicted_address.is_some()).count() as u64,
    })
}

fn same_stats(a: &PcStats, b: &PcStats) -> bool {
    a.pc == b.pc
        && a.accesses == b.accesses
        && a.hits == b.hits
        && a.misses == b.misses
        && a.evictions_caused == b.evictions_caused
        && bits(a.mean_accessed_reuse) == bits(b.mean_accessed_reuse)
        && bits(a.mean_evicted_reuse) == bits(b.mean_evicted_reuse)
        && bits(a.reuse_stddev) == bits(b.reuse_stddev)
}

/// One column's statistics by a stream-order scan, written out
/// independently of `ColumnStats::of`.
fn naive_column(values: &[f64]) -> Option<ColumnStats> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    for v in values {
        sum += v;
    }
    let mean = sum / n;
    let mut squares = 0.0f64;
    for v in values {
        squares += (v - mean) * (v - mean);
    }
    let (mut min, mut max) = (values[0], values[0]);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    Some(ColumnStats { count: values.len() as u64, sum, mean, std: (squares / n).sqrt(), min, max })
}

/// A PC's summary by a scan of every row.
fn naive_summary(frame: &TraceFrame, pc: Pc) -> Option<PcSummary> {
    let rows: Vec<&EvictionRecord> = frame.rows().iter().filter(|r| r.pc == pc).collect();
    let column = |value: fn(&EvictionRecord) -> Option<u64>| {
        naive_column(&rows.iter().filter_map(|r| value(r)).map(|d| d as f64).collect::<Vec<_>>())
    };
    Some(PcSummary {
        stats: naive_pc_stats(frame, pc)?,
        accessed_reuse: column(|r| r.accessed_reuse_distance),
        evicted_reuse: column(|r| r.evicted_reuse_distance),
        recency: column(|r| r.recency),
    })
}

fn same_column(a: &Option<ColumnStats>, b: &Option<ColumnStats>) -> bool {
    let fields =
        |c: &ColumnStats| (c.count, [c.sum, c.mean, c.std, c.min, c.max].map(f64::to_bits));
    a.as_ref().map(fields) == b.as_ref().map(fields)
}

fn same_summary(a: &PcSummary, b: &PcSummary) -> bool {
    same_stats(&a.stats, &b.stats)
        && same_column(&a.accessed_reuse, &b.accessed_reuse)
        && same_column(&a.evicted_reuse, &b.evicted_reuse)
        && same_column(&a.recency, &b.recency)
}

/// Checks every indexed read of `frame` against the naive scan.
fn check_frame(frame: &TraceFrame, rng: &mut Mix) -> Result<(), TestCaseError> {
    for predicate in predicates(frame, rng) {
        let expected = naive(frame, &predicate);
        prop_assert!(same_rows(&frame.filter(&predicate), &expected), "filter {:?}", predicate);
        prop_assert_eq!(frame.count(&predicate), expected.len(), "count {:?}", predicate);
        prop_assert!(
            frame.first(&predicate).map(|r| r as *const EvictionRecord)
                == expected.first().map(|r| *r as *const EvictionRecord),
            "first {:?}",
            predicate
        );
        let selected = frame.select(&predicate);
        let cloned: Vec<EvictionRecord> = expected.iter().map(|r| (*r).clone()).collect();
        prop_assert!(selected.rows() == cloned.as_slice(), "select {:?}", predicate);
        if let Some(pc) = predicate.pc_key() {
            prop_assert!(expected.iter().all(|r| r.pc == pc), "pc_key {:?} is unsound", predicate);
        }
        if let Some(a) = predicate.address_key() {
            prop_assert!(
                expected.iter().all(|r| r.address == a),
                "address_key {:?} is unsound",
                predicate
            );
        }
    }

    let expert = CacheStatisticalExpert::new();
    for raw in 0..POOL_PCS {
        let pc = Pc::new(0x40_0000 + raw * 4);
        let expected: Vec<&EvictionRecord> = frame.rows().iter().filter(|r| r.pc == pc).collect();
        prop_assert_eq!(frame.contains_pc(pc), !expected.is_empty());
        match (expert.pc_stats(frame, pc), naive_pc_stats(frame, pc)) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!(same_stats(&a, &b), "pc_stats {}", pc),
            (a, b) => prop_assert!(false, "pc_stats {}: {:?} vs {:?}", pc, a, b),
        }
        let mut addresses = vec![address(rng), ABSENT];
        addresses.extend(expected.iter().map(|r| r.address));
        for addr in addresses {
            let at: Vec<&EvictionRecord> =
                expected.iter().copied().filter(|r| r.address == addr).collect();
            prop_assert!(same_rows(&frame.rows_at(pc, addr).collect::<Vec<_>>(), &at));
            let outcomes: Vec<bool> = at.iter().map(|r| r.is_miss).collect();
            prop_assert_eq!(expert.outcomes_for(frame, pc, addr), outcomes);
        }
        match (frame.pc_summary(pc), naive_summary(frame, pc)) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!(same_summary(a, &b), "pc_summary {}", pc),
            (a, b) => prop_assert!(false, "pc_summary {}: {:?} vs {:?}", pc, a, b),
        }
    }

    let mut distinct: Vec<Pc> = frame.rows().iter().map(|r| r.pc).collect();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(frame.pcs(), distinct.as_slice());
    let per_pc = expert.per_pc(frame);
    prop_assert_eq!(per_pc.len(), distinct.len());
    for (stats, pc) in per_pc.iter().zip(&distinct) {
        prop_assert!(same_stats(stats, &naive_pc_stats(frame, *pc).unwrap()), "per_pc {}", pc);
    }
    prop_assert_eq!(frame.pc_summaries().len(), distinct.len());
    for (summary, pc) in frame.pc_summaries().iter().zip(&distinct) {
        prop_assert!(same_summary(summary, &naive_summary(frame, *pc).unwrap()), "summary {}", pc);
    }

    let mut first_seen = Vec::new();
    for r in frame.rows() {
        if !first_seen.contains(&r.pc) {
            first_seen.push(r.pc);
        }
    }
    prop_assert_eq!(frame.unique_pcs(), first_seen);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_reads_equal_a_full_scan(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        let before = format!("{frame:?}");
        check_frame(&frame, &mut rng)?;
        // The index is invisible in the frame's printed form.
        prop_assert_eq!(format!("{frame:?}"), before);
    }

    #[test]
    fn a_clone_of_an_indexed_frame_reads_the_same(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        // Build the index, then clone: the copy carries it along.
        let _ = frame.contains_pc(Pc::new(0x40_0000));
        let copy = frame.clone();
        check_frame(&copy, &mut rng)?;
        // A sub-frame gets an index of its own.
        let sub = copy.select(&Predicate::IsMiss(true));
        check_frame(&sub, &mut rng)?;
    }
}

#[test]
fn pc_key_descends_through_and_only() {
    let pc = Pc::new(0x40_0010);
    let pinned = Predicate::PcEquals(pc);
    assert_eq!(pinned.pc_key(), Some(pc));
    assert_eq!(Predicate::IsMiss(true).and(pinned.clone()).pc_key(), Some(pc));
    assert_eq!(Predicate::pc_address(Some(pc), None).pc_key(), Some(pc));
    assert_eq!(Predicate::pc_address(None, Some(Address::new(0x40))).pc_key(), None);
    assert_eq!(pinned.clone().or(Predicate::True).pc_key(), None);
    assert_eq!(pinned.clone().not().pc_key(), None);
    assert_eq!(pinned.not().not().pc_key(), None);
    assert_eq!(Predicate::PcIn(vec![pc]).pc_key(), None);
}

#[test]
fn address_key_descends_through_and_only() {
    let a = Address::new(0x1040);
    let pinned = Predicate::AddressEquals(a);
    assert_eq!(pinned.address_key(), Some(a));
    assert_eq!(Predicate::pc_address(Some(Pc::new(0x40_0010)), Some(a)).address_key(), Some(a));
    assert_eq!(Predicate::IsMiss(true).and(pinned.clone()).address_key(), Some(a));
    assert_eq!(Predicate::pc_address(Some(Pc::new(0x40_0010)), None).address_key(), None);
    assert_eq!(pinned.clone().or(Predicate::True).address_key(), None);
    assert_eq!(pinned.clone().not().address_key(), None);
    assert_eq!(Predicate::LineOf(a).address_key(), None);
}
