//! # cachemind-policies
//!
//! Cache replacement policies for the CacheMind reproduction.
//!
//! The paper's trace database covers four policies — Belady's optimal, LRU,
//! PARROT (a learned imitation policy) and an MLP-based policy — and its
//! related-work and use-case sections additionally exercise RRIP/DRRIP, DIP,
//! SHiP, Hawkeye and Mockingjay. All of them are implemented here against
//! the [`cachemind_sim::replacement::ReplacementPolicy`] trait:
//!
//! * [`BeladyPolicy`] — the offline MIN oracle (uses the replay driver's
//!   next-use oracle).
//! * [`RripPolicy`] — SRRIP, BRRIP and set-dueling DRRIP.
//! * [`DipPolicy`] — dynamic insertion (LRU/BIP dueling).
//! * [`ShipPolicy`] — signature-based hit prediction over RRIP.
//! * [`HawkeyePolicy`] — OPTgen-trained PC classifier.
//! * [`MockingjayPolicy`] — PC-indexed reuse-distance prediction with
//!   estimated-time-remaining eviction, including the stable-PC training
//!   filter from the paper's use case.
//! * [`ImitationPolicy`] — the PARROT surrogate: a feature-hashed linear
//!   model imitating Belady labels.
//! * [`MlpPolicy`] — a from-scratch multi-layer perceptron reuse predictor.
//! * [`BypassPolicy`] — wraps any policy with a per-PC bypass list (the
//!   §6.3 bypass use case).
//! * [`RandomPolicy`] — a seeded random baseline.
//!
//! # Example
//!
//! ```rust
//! use cachemind_policies::prelude::*;
//! use cachemind_sim::prelude::*;
//!
//! let stream: Vec<MemoryAccess> = (0..256u64)
//!     .map(|i| MemoryAccess::load(Pc::new(0x400000), Address::new((i % 32) * 64), i))
//!     .collect();
//! let replay = LlcReplay::new(CacheConfig::small_llc(), &stream);
//!
//! let lru = replay.run(RecencyPolicy::lru());
//! let opt = replay.run(BeladyPolicy::new());
//! assert!(opt.stats.hits >= lru.stats.hits, "Belady is optimal");
//! ```

pub mod belady;
pub mod bypass;
pub mod dip;
pub mod features;
pub mod hawkeye;
pub mod imitation;
pub mod mlp;
pub mod mockingjay;
pub mod random;
pub mod rrip;
pub mod ship;

pub use belady::BeladyPolicy;
pub use bypass::BypassPolicy;
pub use dip::DipPolicy;
pub use hawkeye::HawkeyePolicy;
pub use imitation::ImitationPolicy;
pub use mlp::MlpPolicy;
pub use mockingjay::MockingjayPolicy;
pub use random::RandomPolicy;
pub use rrip::RripPolicy;
pub use ship::ShipPolicy;

use cachemind_sim::replacement::ReplacementPolicy;

/// The set of policy names the trace database is normally populated with
/// (mirrors the paper's `belady`, `lru`, `mlp`, `parrot` keys).
pub const DATABASE_POLICIES: [&str; 4] = ["belady", "lru", "mlp", "parrot"];

/// Every policy name [`by_name`] accepts, in a stable order.
pub const NAMES: [&str; 16] = [
    "lru",
    "mru",
    "fifo",
    "random",
    "belady",
    "srrip",
    "brrip",
    "drrip",
    "dip",
    "lip",
    "bip",
    "ship",
    "hawkeye",
    "mockingjay",
    "parrot",
    "mlp",
];

/// Constructs a boxed policy by its stable name, one of [`NAMES`].
///
/// ```rust
/// let p = cachemind_policies::by_name("belady").expect("known policy");
/// assert_eq!(p.name(), "belady");
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn ReplacementPolicy>> {
    use cachemind_sim::replacement::RecencyPolicy;
    Some(match name {
        "lru" => Box::new(RecencyPolicy::lru()),
        "mru" => Box::new(RecencyPolicy::mru()),
        "fifo" => Box::new(RecencyPolicy::fifo()),
        "random" => Box::new(RandomPolicy::new(0xCAFE)),
        "belady" => Box::new(BeladyPolicy::new()),
        "srrip" => Box::new(RripPolicy::srrip()),
        "brrip" => Box::new(RripPolicy::brrip()),
        "drrip" => Box::new(RripPolicy::drrip()),
        "dip" => Box::new(DipPolicy::new()),
        "lip" => Box::new(DipPolicy::lip()),
        "bip" => Box::new(DipPolicy::bip()),
        "ship" => Box::new(ShipPolicy::new()),
        "hawkeye" => Box::new(HawkeyePolicy::new()),
        "mockingjay" => Box::new(MockingjayPolicy::new()),
        "parrot" => Box::new(ImitationPolicy::new()),
        "mlp" => Box::new(MlpPolicy::new()),
        _ => return None,
    })
}

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::belady::BeladyPolicy;
    pub use crate::by_name;
    pub use crate::bypass::BypassPolicy;
    pub use crate::dip::DipPolicy;
    pub use crate::hawkeye::HawkeyePolicy;
    pub use crate::imitation::ImitationPolicy;
    pub use crate::mlp::MlpPolicy;
    pub use crate::mockingjay::MockingjayPolicy;
    pub use crate::random::RandomPolicy;
    pub use crate::rrip::RripPolicy;
    pub use crate::ship::ShipPolicy;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_covers_documented_policies() {
        for name in NAMES {
            let p = by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(p.name(), name);
        }
        assert!(by_name("nonsense").is_none());
    }
}
