//! The [`Workload`] container and generation scales.

use serde::{Deserialize, Serialize};

use cachemind_sim::access::MemoryAccess;

use crate::program::ProgramImage;

/// How large a trace to generate.
///
/// The paper simulates 1 billion instructions per workload; that is neither
/// necessary nor useful for a deterministic reproduction, so generators are
/// parameterised by scale. `Tiny` is for unit tests, `Small` for
/// integration tests and examples, `Full` for the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// ~2k accesses — unit tests.
    Tiny,
    /// ~40k accesses — integration tests, examples, trace database default.
    Small,
    /// ~300k accesses — benchmark harness.
    Full,
}

impl Scale {
    /// A multiplier applied to each generator's base iteration counts.
    pub const fn factor(self) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 20,
            Scale::Full => 150,
        }
    }

    /// The scale named by the `CACHEMIND_SCALE` environment variable
    /// (`tiny`, `small` or `full`), and `Small` when it is unset. Any other
    /// value is an error, never a silent default.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("CACHEMIND_SCALE") {
            Ok(value) => value.parse(),
            Err(std::env::VarError::NotPresent) => Ok(Scale::Small),
            Err(e) => Err(format!("CACHEMIND_SCALE: {e}")),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (expected tiny, small or full)")),
        }
    }
}

/// A generated workload: its access stream plus the program image that maps
/// PCs back to functions and disassembly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// Stable workload name (`"mcf"`, `"lbm"`, ...), used as the database
    /// key prefix.
    pub name: String,
    /// A short human-readable description (the paper's `description` field).
    pub description: String,
    /// The synthetic program image behind the PCs.
    pub program: ProgramImage,
    /// The memory access stream (LLC-level; see crate docs).
    pub accesses: Vec<MemoryAccess>,
    /// Total dynamic instruction count (for IPC estimation).
    pub instr_count: u64,
}

impl Workload {
    /// Distinct PCs appearing in the access stream, in first-seen order.
    pub fn unique_pcs(&self) -> Vec<cachemind_sim::addr::Pc> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for a in &self.accesses {
            if seen.insert(a.pc) {
                out.push(a.pc);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("full".parse(), Ok(Scale::Full));
    }

    #[test]
    fn unknown_scale_names_are_rejected() {
        for name in ["ful", "Tiny", "", " small"] {
            let err = name.parse::<Scale>().unwrap_err();
            assert!(err.contains("expected tiny, small or full"), "{name:?}: {err}");
        }
    }
}
