//! Subnet-level aggregation of window sources.
//!
//! Aggregating sources by routing prefix is the standard second view of
//! darkspace data (which networks, not just which hosts, drive the
//! traffic) — and the reason the archive anonymizes with *prefix-
//! preserving* CryptoPAN instead of arbitrary hashing: the /8 and /16
//! group structure of the anonymized matrix is exactly that of the raw
//! data, so subnet analyses run on the archive unchanged. The tests here
//! prove that claim and show a non-prefix-preserving permutation
//! destroying the aggregation.

use crate::degree::WindowDegrees;
use std::collections::BTreeMap;

/// One aggregated subnet row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubnetRow {
    /// The prefix value (the top `prefix_len` bits, right-aligned).
    pub prefix: u32,
    /// Sources inside the prefix.
    pub sources: usize,
    /// Total window packets from the prefix.
    pub packets: u64,
}

/// Aggregate a window's sources by their top `prefix_len` bits
/// (`8 ≤ prefix_len ≤ 32`), descending by packet count.
///
/// # Panics
/// Panics if `prefix_len` is 0 or exceeds 32.
pub fn aggregate_by_prefix(window: &WindowDegrees, prefix_len: u8) -> Vec<SubnetRow> {
    assert!((1..=32).contains(&prefix_len), "prefix length out of range");
    let shift = 32 - prefix_len as u32;
    // BTreeMap, not HashMap: rows leave here in prefix order, so ties in
    // the packet-count sort below break identically on every run.
    let mut map: BTreeMap<u32, (usize, u64)> = BTreeMap::new();
    for &(ip, d) in &window.degrees {
        let e = map.entry(ip >> shift).or_insert((0, 0));
        e.0 += 1;
        e.1 += d;
    }
    let mut rows: Vec<SubnetRow> = map
        .into_iter()
        .map(|(prefix, (sources, packets))| SubnetRow { prefix, sources, packets })
        .collect();
    rows.sort_by(|a, b| b.packets.cmp(&a.packets).then(a.prefix.cmp(&b.prefix)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_anonymize::CryptoPan;

    fn window(degrees: Vec<(u32, u64)>) -> WindowDegrees {
        WindowDegrees { label: "w".into(), coord: 0.5, month: 0, degrees }
    }

    fn mapped(w: &WindowDegrees, f: impl Fn(u32) -> u32) -> WindowDegrees {
        let mut degrees: Vec<(u32, u64)> =
            w.degrees.iter().map(|&(ip, d)| (f(ip), d)).collect();
        degrees.sort_unstable();
        window(degrees)
    }

    /// The multiset of per-prefix group sizes: the anonymization-invariant
    /// signature of the subnet structure.
    fn group_size_signature(window: &WindowDegrees, prefix_len: u8) -> Vec<usize> {
        let mut sizes: Vec<usize> =
            aggregate_by_prefix(window, prefix_len).into_iter().map(|r| r.sources).collect();
        sizes.sort_unstable();
        sizes
    }

    #[test]
    fn aggregation_groups_and_sorts() {
        let w = window(vec![
            (0x0A000001, 5),
            (0x0A000002, 3),
            (0x0A010001, 1),
            (0xC0000001, 100),
        ]);
        let rows = aggregate_by_prefix(&w, 16);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].prefix, 0xC000);
        assert_eq!(rows[0].packets, 100);
        assert_eq!(rows[1].prefix, 0x0A00);
        assert_eq!(rows[1].sources, 2);
        assert_eq!(rows[1].packets, 8);
    }

    #[test]
    fn cryptopan_preserves_group_sizes() {
        // The purpose of prefix-preserving anonymization: subnet structure
        // survives. Cluster 60 sources into three /16s plus strays.
        let mut degrees = Vec::new();
        for i in 0..20u32 {
            degrees.push((0x0A0A_0000 | i, 2));
            degrees.push((0x1414_0000 | (i * 7), 3));
            degrees.push((0x1E1E_0000 | (i * 13), 1));
        }
        degrees.push((0x08080808, 9));
        let w = window(degrees);
        let cp = CryptoPan::new(&[0x66u8; 32]);
        let anon = mapped(&w, |ip| cp.anonymize(ip));
        for len in [8u8, 16, 24] {
            assert_eq!(
                group_size_signature(&w, len),
                group_size_signature(&anon, len),
                "/{}", len
            );
        }
    }

    #[test]
    fn random_permutation_destroys_group_sizes() {
        // The same check under a non-prefix-preserving bijection fails:
        // this is why hashing is not enough for subnet analyses.
        let mut degrees = Vec::new();
        for i in 0..40u32 {
            degrees.push((0x0A0A_0000 | i, 2));
        }
        let w = window(degrees);
        let scrambled = mapped(&w, |ip| ip.wrapping_mul(0x9E37_79B9).rotate_left(13));
        assert_ne!(
            group_size_signature(&w, 16),
            group_size_signature(&scrambled, 16)
        );
    }

    #[test]
    fn empty_window_has_empty_aggregation() {
        let w = window(vec![]);
        assert!(aggregate_by_prefix(&w, 16).is_empty());
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn bad_prefix_len_panics() {
        let _ = aggregate_by_prefix(&window(vec![]), 0);
    }
}
