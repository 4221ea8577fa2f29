// Deterministic counterparts to the seeded concurrency violations:
// ordered iteration, documented atomics, and integer reductions — all of
// which must pass the audit untouched.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

pub fn rows(m: &BTreeMap<u32, u64>) -> Vec<u32> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(*k);
    }
    out
}

pub fn hash_without_ordered_sink(m: &HashMap<u32, u64>) -> u64 {
    m.values().sum()
}

pub fn hits(c: &AtomicU64) -> u64 {
    // ordering: monotonic counter snapshot; staleness is acceptable
    c.load(Ordering::Relaxed)
}
