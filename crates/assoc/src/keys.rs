//! Sorted string key sets with set algebra, plus a sorted-`u32` mirror.
//!
//! Row/column axes of an associative array, and the carrier of the
//! honeyfarm's monthly source sets. [`KeySet`] is the general D4M-style
//! string-keyed form. The paper's correlation primitive runs on
//! [`crate::BitSet`]s interned from those sets
//! ([`crate::BitSet::from_ip_keys`]); [`NumKeySet`] holds the same IP-keyed
//! sets as sorted `u32`s and is the plain reference the bitset's
//! differential suites and benchmark rows compare against.

use serde::{Deserialize, Serialize};

/// A sorted, deduplicated set of string keys supporting binary-search
/// lookup and linear-merge set algebra.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySet {
    keys: Vec<String>,
}

impl KeySet {
    /// The empty key set.
    pub fn new() -> Self {
        Self { keys: Vec::new() }
    }

    /// Build from any iterator of keys; sorts and deduplicates.
    ///
    /// Also reachable through the `FromIterator` impls below; the inherent
    /// name stays because it reads better at call sites that build sets
    /// explicitly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut keys: Vec<String> = iter.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Build from keys known to be sorted and unique (checked in debug).
    pub fn from_sorted_unique(keys: Vec<String>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        Self { keys }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys as a slice.
    pub fn as_slice(&self) -> &[String] {
        &self.keys
    }

    /// Positional index of `key`, if present.
    pub fn index_of(&self, key: &str) -> Option<usize> {
        self.keys.binary_search_by(|k| k.as_str().cmp(key)).ok()
    }

    /// Membership test.
    pub fn contains(&self, key: &str) -> bool {
        self.index_of(key).is_some()
    }

    /// Key at position `i`.
    pub fn key(&self, i: usize) -> &str {
        &self.keys[i]
    }

    /// Iterate over keys in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.keys.iter().map(|s| s.as_str())
    }

    /// Set intersection by linear merge: `O(|a| + |b|)`.
    pub fn intersect(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.keys[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        KeySet { keys: out }
    }

    /// Set union by linear merge.
    pub fn union(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        loop {
            match (self.keys.get(i), other.keys.get(j)) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    std::cmp::Ordering::Less => {
                        out.push(a.clone());
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(b.clone());
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(a.clone());
                        i += 1;
                        j += 1;
                    }
                },
                (Some(a), None) => {
                    out.push(a.clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    out.push(b.clone());
                    j += 1;
                }
                // Both sides exhausted: the merge is complete.
                (None, None) => break,
            }
        }
        KeySet { keys: out }
    }

    /// Set difference `self \ other` by linear merge.
    pub fn minus(&self, other: &KeySet) -> KeySet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() {
            if j >= other.keys.len() {
                out.extend(self.keys[i..].iter().cloned());
                break;
            }
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.keys[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        KeySet { keys: out }
    }

    /// The fraction of `self`'s keys also present in `other` — the paper's
    /// correlation measure. Returns `None` for an empty `self`.
    pub fn overlap_fraction(&self, other: &KeySet) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.intersect(other).len() as f64 / self.len() as f64)
    }

    /// Internal consistency check: keys must be strictly increasing (sorted
    /// and unique). Used by tests and the pipeline's `strict-invariants`
    /// stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("keys not strictly increasing at `{}` >= `{}`", w[0], w[1]));
            }
        }
        Ok(())
    }

    /// Keys with the given prefix (contiguous range via binary search).
    pub fn with_prefix(&self, prefix: &str) -> KeySet {
        let start = self.keys.partition_point(|k| k.as_str() < prefix);
        let mut end = start;
        while end < self.keys.len() && self.keys[end].starts_with(prefix) {
            end += 1;
        }
        KeySet { keys: self.keys[start..end].to_vec() }
    }
}

/// A sorted, deduplicated set of `u32` keys — the sorted-vector form of
/// IP-keyed [`KeySet`]s, and the reference [`crate::BitSet`] is tested
/// and benchmarked against.
///
/// [`crate::convert::ip_key`] renders addresses as *zero-padded* dotted
/// quads, so lexicographic order on those strings equals numeric order on
/// the addresses; a `NumKeySet` is therefore order-isomorphic to its
/// string form, and [`NumKeySet::overlap_fraction`] is bit-identical to
/// [`KeySet::overlap_fraction`] (both divide the same two integer counts).
/// Merges compare machine words instead of strings, and
/// [`NumKeySet::overlap_count`] allocates nothing at all.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumKeySet {
    keys: Vec<u32>,
}

/// Size ratio above which [`NumKeySet::overlap_count`] gallops (binary
/// searches the larger set) instead of merging linearly.
const GALLOP_RATIO: usize = 16;

impl NumKeySet {
    /// The empty key set.
    pub fn new() -> Self {
        Self { keys: Vec::new() }
    }

    /// Build from any iterator of keys; sorts and deduplicates.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut keys: Vec<u32> = iter.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Build from keys known to be sorted and unique (checked in debug).
    pub fn from_sorted_unique(keys: Vec<u32>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        Self { keys }
    }

    /// Intern a string key set whose keys are all [`crate::convert::ip_key`]
    /// renders; `None` if any key is spelled otherwise.
    pub fn from_key_set(ks: &KeySet) -> Option<Self> {
        let parsed: Option<Vec<u32>> =
            ks.iter().map(crate::convert::parse_ip_key).collect();
        // Zero-padded keys sort as their addresses do.
        Some(Self::from_sorted_unique(parsed?))
    }

    /// Render back to the string key domain (zero-padded dotted quads, so
    /// the output is already sorted).
    pub fn to_key_set(&self) -> KeySet {
        KeySet::from_sorted_unique(self.keys.iter().map(|&k| crate::convert::ip_key(k)).collect())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.keys
    }

    /// Membership test.
    pub fn contains(&self, key: u32) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// Iterate over keys in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.keys.iter().copied()
    }

    /// Set intersection: `O(|a| + |b|)` linear merge, no string clones.
    pub fn intersect(&self, other: &NumKeySet) -> NumKeySet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.keys[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        NumKeySet { keys: out }
    }

    /// `|self ∩ other|` without allocating: a linear two-pointer merge for
    /// comparably-sized sets, galloping binary search of the larger set
    /// when it is at least `GALLOP_RATIO` (16) times the smaller.
    pub fn overlap_count(&self, other: &NumKeySet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (&self.keys, &other.keys)
        } else {
            (&other.keys, &self.keys)
        };
        if small.is_empty() {
            return 0;
        }
        if large.len() / small.len() >= GALLOP_RATIO {
            // Gallop: each probe searches only the suffix past the last hit.
            let mut lo = 0usize;
            let mut count = 0usize;
            for &k in small {
                match large[lo..].binary_search(&k) {
                    Ok(p) => {
                        count += 1;
                        lo += p + 1;
                    }
                    Err(p) => lo += p,
                }
                if lo >= large.len() {
                    break;
                }
            }
            count
        } else {
            let (mut i, mut j) = (0, 0);
            let mut count = 0usize;
            while i < small.len() && j < large.len() {
                match small[i].cmp(&large[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            count
        }
    }

    /// The fraction of `self`'s keys also present in `other` — the paper's
    /// correlation measure. Returns `None` for an empty `self`.
    /// Bit-identical to [`KeySet::overlap_fraction`] on the interned sets.
    pub fn overlap_fraction(&self, other: &NumKeySet) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.overlap_count(other) as f64 / self.len() as f64)
    }

    /// Internal consistency check: keys must be strictly increasing.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("keys not strictly increasing at {} >= {}", w[0], w[1]));
            }
        }
        Ok(())
    }
}

impl FromIterator<u32> for NumKeySet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        NumKeySet::from_iter(iter)
    }
}

impl FromIterator<String> for KeySet {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        KeySet::from_iter(iter)
    }
}

impl<'a> FromIterator<&'a str> for KeySet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        KeySet::from_iter(iter.into_iter().map(String::from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(items: &[&str]) -> KeySet {
        items.iter().copied().collect()
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let k = ks(&["b", "a", "b", "c", "a"]);
        assert_eq!(k.as_slice(), &["a", "b", "c"]);
    }

    #[test]
    fn lookup_and_contains() {
        let k = ks(&["alpha", "beta", "gamma"]);
        assert_eq!(k.index_of("beta"), Some(1));
        assert!(k.contains("gamma"));
        assert!(!k.contains("delta"));
        assert_eq!(k.key(0), "alpha");
    }

    #[test]
    fn intersect_union_minus() {
        let a = ks(&["a", "b", "c", "d"]);
        let b = ks(&["b", "d", "e"]);
        assert_eq!(a.intersect(&b).as_slice(), &["b", "d"]);
        assert_eq!(a.union(&b).as_slice(), &["a", "b", "c", "d", "e"]);
        assert_eq!(a.minus(&b).as_slice(), &["a", "c"]);
        assert_eq!(b.minus(&a).as_slice(), &["e"]);
    }

    #[test]
    fn empty_set_algebra() {
        let a = ks(&["x"]);
        let e = KeySet::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.minus(&e), a);
        assert_eq!(e.minus(&a), e);
    }

    #[test]
    fn overlap_fraction_basics() {
        let a = ks(&["a", "b", "c", "d"]);
        let b = ks(&["b", "d", "e"]);
        assert_eq!(a.overlap_fraction(&b), Some(0.5));
        assert_eq!(KeySet::new().overlap_fraction(&a), None);
        assert_eq!(a.overlap_fraction(&KeySet::new()), Some(0.0));
    }

    #[test]
    fn prefix_selection() {
        let k = ks(&["10.0.0.1", "10.0.0.2", "10.1.0.1", "192.168.0.1"]);
        assert_eq!(k.with_prefix("10.0.").len(), 2);
        assert_eq!(k.with_prefix("10.").len(), 3);
        assert_eq!(k.with_prefix("172.").len(), 0);
        assert_eq!(k.with_prefix("").len(), 4);
    }

    #[test]
    fn prefix_at_boundaries() {
        let k = ks(&["aa", "ab", "b"]);
        assert_eq!(k.with_prefix("a").as_slice(), &["aa", "ab"]);
        assert_eq!(k.with_prefix("b").as_slice(), &["b"]);
    }

    #[test]
    fn num_constructors_uphold_invariants() {
        let a = NumKeySet::from_iter([3u32, 1, 2, 2, 1]);
        a.check_invariants().unwrap();
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        let b = NumKeySet::from_sorted_unique(vec![5, 9, 100]);
        b.check_invariants().unwrap();
        let e = NumKeySet::new();
        e.check_invariants().unwrap();
        assert!(e.is_empty());
        let via_strings =
            NumKeySet::from_key_set(&ks(&["001.002.003.004", "010.000.000.001"])).unwrap();
        via_strings.check_invariants().unwrap();
        assert_eq!(via_strings.as_slice(), &[0x0102_0304, 0x0A00_0001]);
        // Collected form too.
        let c: NumKeySet = [9u32, 7].into_iter().collect();
        c.check_invariants().unwrap();
    }

    #[test]
    fn num_from_key_set_rejects_non_ip_keys() {
        assert!(NumKeySet::from_key_set(&ks(&["not-an-ip"])).is_none());
        assert!(NumKeySet::from_key_set(&ks(&["001.002.003.004", "zebra"])).is_none());
        assert!(NumKeySet::from_key_set(&ks(&["001.002.003.004", "1.2.3.5"])).is_none());
    }

    #[test]
    fn num_round_trips_through_string_domain() {
        let num = NumKeySet::from_iter([0u32, 0x0A01_0203, u32::MAX]);
        let back = NumKeySet::from_key_set(&num.to_key_set()).unwrap();
        assert_eq!(num, back);
        num.to_key_set().check_invariants().unwrap();
    }

    #[test]
    fn num_intersect_matches_string_intersect() {
        let xs: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let ys: Vec<u32> = (0..500).map(|i| i * 5 + 1).collect();
        let nx = NumKeySet::from_iter(xs.iter().copied());
        let ny = NumKeySet::from_iter(ys.iter().copied());
        let sx: KeySet = nx.to_key_set();
        let sy: KeySet = ny.to_key_set();
        assert_eq!(nx.intersect(&ny).to_key_set(), sx.intersect(&sy));
        assert_eq!(nx.overlap_count(&ny), sx.intersect(&sy).len());
        // Bit-identical fractions (same integer operands).
        assert_eq!(nx.overlap_fraction(&ny), sx.overlap_fraction(&sy));
        assert_eq!(NumKeySet::new().overlap_fraction(&nx), None);
        assert_eq!(nx.overlap_fraction(&NumKeySet::new()), Some(0.0));
    }

    #[test]
    fn gallop_and_linear_overlap_agree() {
        // Large/small ratio far above GALLOP_RATIO forces the gallop path;
        // compare against the allocation-based intersect (linear merge).
        let big = NumKeySet::from_iter((0..10_000u32).map(|i| i * 7));
        let small = NumKeySet::from_iter([0u32, 7, 13, 69993, 70000, 70001]);
        assert_eq!(small.overlap_count(&big), small.intersect(&big).len());
        assert_eq!(big.overlap_count(&small), small.overlap_count(&big));
        // Probe past the end of the large set stops cleanly.
        let past = NumKeySet::from_iter([1_000_000u32]);
        assert_eq!(past.overlap_count(&big), 0);
    }

    #[test]
    fn num_contains_and_iter() {
        let n = NumKeySet::from_iter([4u32, 2, 8]);
        assert!(n.contains(4));
        assert!(!n.contains(5));
        assert_eq!(n.iter().collect::<Vec<_>>(), vec![2, 4, 8]);
        assert_eq!(n.len(), 3);
    }
}
