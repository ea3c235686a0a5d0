//! Deterministic identifiers for traces and spans.
//!
//! Span identity is *derived*, never allocated from a counter: a child's id
//! is `splitmix64(parent ^ fnv64(name) ^ key)` where `key` comes from stable
//! domain identity (a path hash, an inode number, a shard index, a journal
//! sequence) rather than execution order. Two runs with the same seed and
//! the same work therefore produce the same span tree even when threads
//! interleave differently, tail-stealing reshuffles batches, or a crashed
//! mover is respawned — which is what makes traces diffable across runs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of one trace (one armed tracer = one trace).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u64);

/// The pair that travels across process/message boundaries (PFTool batches,
/// HSM calls, journal intents) so remote work can parent itself correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanContext {
    pub trace: TraceId,
    pub span: SpanId,
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Sebastiano Vigna's splitmix64 finalizer, the one mixer behind span ids
/// and every fault-plane draw (no state, good avalanche behaviour).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes; used to fold span names (and by callers, paths) into
/// the id derivation.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Derive a child span id from its parent, name, and stable key.
///
/// `key` must be unique among same-named siblings (use the attempt number
/// as part of the key for retry loops); collisions merge spans in analyses.
pub fn derive_span_id(parent: u64, name: &str, key: u64) -> SpanId {
    SpanId(splitmix64(
        parent ^ fnv64(name.as_bytes()) ^ key.rotate_left(17),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_key_sensitive() {
        let a = derive_span_id(7, "hsm.migrate", 42);
        let b = derive_span_id(7, "hsm.migrate", 42);
        let c = derive_span_id(7, "hsm.migrate", 43);
        let d = derive_span_id(8, "hsm.migrate", 42);
        let e = derive_span_id(7, "hsm.recall", 42);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
    }

    #[test]
    fn fnv_distinguishes_names() {
        assert_ne!(fnv64(b"scan.shard"), fnv64(b"scan.sort_merge"));
    }
}
