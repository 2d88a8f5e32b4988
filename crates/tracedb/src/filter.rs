//! Symbolic predicates over trace rows — the Sieve retriever's filter
//! language.

use serde::{Deserialize, Serialize};

use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::replay::{EvictionRecord, MissType};

/// A composable predicate over [`EvictionRecord`]s.
///
/// ```rust
/// use cachemind_tracedb::filter::Predicate;
/// use cachemind_sim::addr::Pc;
///
/// let p = Predicate::PcEquals(Pc::new(0x401e31)).and(Predicate::IsMiss(true));
/// assert!(format!("{p:?}").contains("PcEquals"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `program_counter == pc`.
    PcEquals(Pc),
    /// `program_counter ∈ set`.
    PcIn(Vec<Pc>),
    /// `memory_address == addr` (byte-exact).
    AddressEquals(Address),
    /// The access touches the cache line containing `addr` (64 B lines).
    LineOf(Address),
    /// `cache_set_id == set`.
    SetEquals(SetId),
    /// `is_miss == value`.
    IsMiss(bool),
    /// `miss_type == value`.
    MissTypeIs(MissType),
    /// The access kind equals `value` (load/store/fetch/prefetch) — the
    /// gem5-extension "access types" filter.
    KindIs(cachemind_sim::access::AccessKind),
    /// The fill was bypassed.
    Bypassed(bool),
    /// `accessed_address_reuse_distance_numeric >= value`.
    ReuseDistanceAtLeast(u64),
    /// `accessed_address_recency_numeric >= value`.
    RecencyAtLeast(u64),
    /// Stream index in `[lo, hi)`.
    IndexInRange(u64, u64),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Conjunction, consuming both sides.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction, consuming both sides.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// The rows a question about `pc` and/or `address` names: [`True`]
    /// narrowed by each one given.
    ///
    /// [`True`]: Predicate::True
    pub fn pc_address(pc: Option<Pc>, address: Option<Address>) -> Predicate {
        let mut pred = Predicate::True;
        if let Some(pc) = pc {
            pred = pred.and(Predicate::PcEquals(pc));
        }
        if let Some(addr) = address {
            pred = pred.and(Predicate::AddressEquals(addr));
        }
        pred
    }

    /// The PC every matching row must carry, when the predicate pins one:
    /// a `PcEquals` at the root or reached through `And` only. `Or` and
    /// `Not` can admit rows of other PCs, so the search stops at them.
    pub fn pc_key(&self) -> Option<Pc> {
        match self {
            Predicate::PcEquals(pc) => Some(*pc),
            Predicate::And(a, b) => a.pc_key().or_else(|| b.pc_key()),
            _ => None,
        }
    }

    /// The byte address every matching row must carry, when the predicate
    /// pins one: an `AddressEquals` at the root or reached through `And`
    /// only, as [`pc_key`] finds a `PcEquals`.
    ///
    /// [`pc_key`]: Predicate::pc_key
    pub fn address_key(&self) -> Option<Address> {
        match self {
            Predicate::AddressEquals(address) => Some(*address),
            Predicate::And(a, b) => a.address_key().or_else(|| b.address_key()),
            _ => None,
        }
    }

    /// Evaluates the predicate against one row.
    pub fn matches(&self, row: &EvictionRecord) -> bool {
        match self {
            Predicate::True => true,
            Predicate::PcEquals(pc) => row.pc == *pc,
            Predicate::PcIn(pcs) => pcs.contains(&row.pc),
            Predicate::AddressEquals(addr) => row.address == *addr,
            Predicate::LineOf(addr) => row.address.line(6) == addr.line(6),
            Predicate::SetEquals(set) => row.set == *set,
            Predicate::IsMiss(v) => row.is_miss == *v,
            Predicate::MissTypeIs(t) => row.miss_type == Some(*t),
            Predicate::KindIs(k) => row.kind == *k,
            Predicate::Bypassed(v) => row.bypassed == *v,
            Predicate::ReuseDistanceAtLeast(v) => {
                row.accessed_reuse_distance.is_some_and(|d| d >= *v)
            }
            Predicate::RecencyAtLeast(v) => row.recency.is_some_and(|d| d >= *v),
            Predicate::IndexInRange(lo, hi) => row.index >= *lo && row.index < *hi,
            Predicate::And(a, b) => a.matches(row) && b.matches(row),
            Predicate::Or(a, b) => a.matches(row) || b.matches(row),
            Predicate::Not(p) => !p.matches(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> EvictionRecord {
        EvictionRecord {
            index: 7,
            pc: Pc::new(0x401e31),
            address: Address::new(0x35e798a637f),
            kind: cachemind_sim::access::AccessKind::Load,
            set: SetId::new(12),
            is_miss: true,
            miss_type: Some(MissType::Capacity),
            evicted_address: None,
            accessed_reuse_distance: Some(2304),
            evicted_reuse_distance: None,
            recency: Some(55),
            bypassed: false,
        }
    }

    #[test]
    fn atomic_predicates() {
        let r = row();
        assert!(Predicate::True.matches(&r));
        assert!(Predicate::PcEquals(Pc::new(0x401e31)).matches(&r));
        assert!(!Predicate::PcEquals(Pc::new(0x1)).matches(&r));
        assert!(Predicate::AddressEquals(Address::new(0x35e798a637f)).matches(&r));
        assert!(Predicate::LineOf(Address::new(0x35e798a6340)).matches(&r));
        assert!(Predicate::SetEquals(SetId::new(12)).matches(&r));
        assert!(Predicate::IsMiss(true).matches(&r));
        assert!(Predicate::MissTypeIs(MissType::Capacity).matches(&r));
        assert!(Predicate::ReuseDistanceAtLeast(2304).matches(&r));
        assert!(!Predicate::ReuseDistanceAtLeast(2305).matches(&r));
        assert!(Predicate::IndexInRange(0, 8).matches(&r));
        assert!(!Predicate::IndexInRange(8, 9).matches(&r));
    }

    #[test]
    fn combinators_compose() {
        let r = row();
        let p = Predicate::PcEquals(Pc::new(0x401e31))
            .and(Predicate::IsMiss(true))
            .or(Predicate::SetEquals(SetId::new(999)));
        assert!(p.matches(&r));
        assert!(!p.clone().not().matches(&r));
        assert!(Predicate::PcIn(vec![Pc::new(1), Pc::new(0x401e31)]).matches(&r));
    }
}
