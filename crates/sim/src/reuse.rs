//! Offline reuse/recency oracle over an access stream.
//!
//! The paper's trace schema records, for every access, the *reuse distance*
//! of the accessed line (how many accesses until it is needed again), the
//! reuse distance of the evicted line, and the *recency* of the accessed
//! address (how many accesses since it was last touched). Belady's optimal
//! policy also needs the next-use index of every access. All of this comes
//! from a single two-pass precomputation over the line-address stream.

use crate::access::MemoryAccess;
use crate::addr::LineAddr;
use crate::hash::mix64;

/// Sentinel meaning "never referenced again".
pub const NEVER: u64 = u64::MAX;

const EMPTY_KEY: u64 = u64::MAX;

/// One interner slot: 16 bytes, four to a 64-byte cache line.
#[derive(Clone, Copy)]
struct InternSlot {
    key: u64,
    /// Stream index of the most recent access to the line.
    last: u32,
    /// Dense id assigned at first touch.
    id: u32,
}

/// A linear-probing line interner: the single-pass oracle build is a
/// hash-lookup per access, and the std `HashMap`'s SipHash dominates it.
/// Open addressing with a multiplicative mix is several times faster and
/// just as deterministic — the oracle's outputs depend only on stream
/// order, never on table layout.
struct LineInterner {
    slots: Vec<InternSlot>,
    mask: usize,
}

impl LineInterner {
    /// A table for a stream of `len` accesses. The stream holds at most
    /// `len` distinct lines, so sizing it for a load factor of at most 3/4
    /// up front means it never rehashes and always keeps an empty slot.
    fn for_stream_len(len: usize) -> Self {
        let cap = (len + len / 3 + 1).next_power_of_two();
        LineInterner {
            slots: vec![InternSlot { key: EMPTY_KEY, last: 0, id: 0 }; cap],
            mask: cap - 1,
        }
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    fn probe(&mut self, key: u64) -> &mut InternSlot {
        debug_assert_ne!(key, EMPTY_KEY, "line address collides with the interner sentinel");
        let mut h = mix64(key) as usize & self.mask;
        loop {
            let k = self.slots[h].key;
            if k == key || k == EMPTY_KEY {
                return &mut self.slots[h];
            }
            h = (h + 1) & self.mask;
        }
    }
}

/// Precomputed previous/next occurrence indices for an access stream.
///
/// Alongside the reuse indices the oracle interns every distinct line into a
/// dense id (`0..num_lines`, assigned in first-touch order), which lets the
/// replay hot loop replace per-line hash maps with flat arrays indexed by
/// [`ReuseOracle::line_id`].
#[derive(Debug, Clone)]
pub struct ReuseOracle {
    lines: Vec<LineAddr>,
    next_use: Vec<u64>,
    prev_use: Vec<u64>,
    first_touch: Vec<bool>,
    line_ids: Vec<u32>,
    num_lines: u32,
}

impl ReuseOracle {
    /// Builds the oracle from an access stream under the given line size.
    pub fn from_accesses(accesses: &[MemoryAccess], line_size_log2: u32) -> Self {
        let lines: Vec<LineAddr> =
            accesses.iter().map(|a| a.address.line(line_size_log2)).collect();
        Self::from_lines(lines)
    }

    /// Builds the oracle from a pre-extracted line-address stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds 2³² or more accesses: the interner keeps
    /// stream indices as `u32`.
    pub fn from_lines(lines: Vec<LineAddr>) -> Self {
        let n = lines.len();
        let n32 = u32::try_from(n).expect("reuse oracle streams hold fewer than 2^32 accesses");
        let mut next_use = vec![NEVER; n];
        let mut prev_use = vec![NEVER; n];
        let mut first_touch = vec![false; n];
        let mut line_ids = vec![0u32; n];
        let mut num_lines = 0u32;

        let mut last_seen = LineInterner::for_stream_len(n);
        for (i, &line) in (0..n32).zip(&lines) {
            let slot = last_seen.probe(line.value());
            if slot.key == EMPTY_KEY {
                slot.key = line.value();
                slot.last = i;
                slot.id = num_lines;
                first_touch[i as usize] = true;
                line_ids[i as usize] = num_lines;
                num_lines += 1;
            } else {
                next_use[slot.last as usize] = u64::from(i);
                prev_use[i as usize] = u64::from(slot.last);
                line_ids[i as usize] = slot.id;
                slot.last = i;
            }
        }
        ReuseOracle { lines, next_use, prev_use, first_touch, line_ids, num_lines }
    }

    /// Number of accesses covered.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The line address of access `i`.
    pub fn line(&self, i: usize) -> LineAddr {
        self.lines[i]
    }

    /// Index of the next access to the same line, or [`NEVER`].
    pub fn next_use(&self, i: usize) -> u64 {
        self.next_use[i]
    }

    /// Index of the previous access to the same line, or [`NEVER`].
    pub fn prev_use(&self, i: usize) -> u64 {
        self.prev_use[i]
    }

    /// Whether access `i` is the first touch of its line (compulsory miss).
    pub fn is_first_touch(&self, i: usize) -> bool {
        self.first_touch[i]
    }

    /// Dense id of the line of access `i` (`0..num_lines`, first-touch
    /// order). Every access to the same line shares one id.
    pub fn line_id(&self, i: usize) -> u32 {
        self.line_ids[i]
    }

    /// Number of distinct lines in the stream.
    pub fn num_lines(&self) -> u32 {
        self.num_lines
    }

    /// Forward reuse distance of access `i`: the number of accesses until the
    /// line is needed again (`None` when never). Matches the paper's
    /// "needed again in N accesses" phrasing.
    pub fn forward_reuse_distance(&self, i: usize) -> Option<u64> {
        let n = self.next_use[i];
        (n != NEVER).then(|| n - i as u64)
    }

    /// Backward recency of access `i`: accesses since the line was last
    /// touched (`None` for a first touch).
    pub fn recency(&self, i: usize) -> Option<u64> {
        let p = self.prev_use[i];
        (p != NEVER).then(|| i as u64 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(seq: &[u64]) -> ReuseOracle {
        ReuseOracle::from_lines(seq.iter().copied().map(LineAddr::new).collect())
    }

    #[test]
    fn next_and_prev_are_symmetric() {
        let o = oracle(&[1, 2, 1, 3, 2, 1]);
        assert_eq!(o.next_use(0), 2);
        assert_eq!(o.prev_use(2), 0);
        assert_eq!(o.next_use(2), 5);
        assert_eq!(o.prev_use(5), 2);
        assert_eq!(o.next_use(3), NEVER);
        assert_eq!(o.prev_use(3), NEVER);
    }

    #[test]
    fn first_touch_marks_compulsory() {
        let o = oracle(&[1, 2, 1]);
        assert!(o.is_first_touch(0));
        assert!(o.is_first_touch(1));
        assert!(!o.is_first_touch(2));
    }

    #[test]
    fn forward_distance_counts_accesses() {
        let o = oracle(&[9, 5, 9]);
        assert_eq!(o.forward_reuse_distance(0), Some(2));
        assert_eq!(o.forward_reuse_distance(1), None);
        assert_eq!(o.recency(2), Some(2));
        assert_eq!(o.recency(0), None);
    }

    #[test]
    fn line_ids_are_dense_and_first_touch_ordered() {
        let o = oracle(&[9, 5, 9, 7, 5]);
        assert_eq!(o.num_lines(), 3);
        assert_eq!(o.line_id(0), 0); // 9 first
        assert_eq!(o.line_id(1), 1); // 5 second
        assert_eq!(o.line_id(2), 0); // 9 again
        assert_eq!(o.line_id(3), 2); // 7 third
        assert_eq!(o.line_id(4), 1); // 5 again
    }
}
