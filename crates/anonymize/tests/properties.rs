//! Property-based tests for CryptoPAN and the sharing workflows.

use obscor_anonymize::cryptopan::{common_prefix_len, CryptoPan};
use obscor_anonymize::sharing::{raw_overlap, Holder};
use obscor_anonymize::MemoCryptoPan;
use proptest::prelude::*;
use std::sync::OnceLock;

fn key_from(key_seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    let mut x = key_seed | 1;
    for b in key.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    key
}

fn cp_from(key_seed: u64) -> CryptoPan {
    CryptoPan::new(&key_from(key_seed))
}

/// Two fixed uncached/memoized pairs under distinct keys. The memo table
/// build is too expensive to repeat per proptest case, so the *schemes*
/// are fixed and the *addresses* range over the full u32 space.
fn memo_pair(second: bool) -> &'static (CryptoPan, MemoCryptoPan) {
    static A: OnceLock<(CryptoPan, MemoCryptoPan)> = OnceLock::new();
    static B: OnceLock<(CryptoPan, MemoCryptoPan)> = OnceLock::new();
    let (cell, seed) = if second {
        (&B, 0x0F1E_2D3C_4B5A_6978u64)
    } else {
        (&A, 0x1234_5678_9ABC_DEF0u64)
    };
    cell.get_or_init(|| {
        let key = key_from(seed);
        (CryptoPan::new(&key), MemoCryptoPan::new(&key))
    })
}

/// Batches that share long prefixes, which full-range draws almost never
/// do: up to 64 picks, with duplicates, from a few hosts of one random
/// /16, /24 or /31 block, or (`straddle`) of a block of that size centred
/// on a /16 boundary. In sorted order they share pad bits past bit 16.
fn clustered_batch() -> impl Strategy<Value = Vec<u32>> {
    (
        any::<u32>(),
        prop::sample::select(vec![16u32, 24, 31]),
        any::<bool>(),
        prop::collection::vec(any::<u32>(), 1..24),
        prop::collection::vec(any::<u32>(), 0..64),
    )
        .prop_map(|(base, prefix_len, straddle, hosts, picks)| {
            let host = u32::MAX >> prefix_len;
            let start =
                if straddle { (base & 0xFFFF_0000).wrapping_sub(host / 2 + 1) } else { base & !host };
            picks
                .iter()
                .map(|&p| start.wrapping_add(hosts[p as usize % hosts.len()] & host))
                .collect()
        })
}

proptest! {
    /// Anonymization is invertible for every address.
    #[test]
    fn round_trip(addr in any::<u32>(), seed in any::<u64>()) {
        let cp = cp_from(seed);
        prop_assert_eq!(cp.deanonymize(cp.anonymize(addr)), addr);
    }

    /// The defining CryptoPAN property: common prefixes are preserved
    /// *exactly* — no longer, no shorter.
    #[test]
    fn prefix_preservation(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
        let cp = cp_from(seed);
        prop_assert_eq!(
            common_prefix_len(cp.anonymize(a), cp.anonymize(b)),
            common_prefix_len(a, b)
        );
    }

    /// Distinct inputs map to distinct outputs (injectivity on samples).
    #[test]
    fn injective(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
        prop_assume!(a != b);
        let cp = cp_from(seed);
        prop_assert_ne!(cp.anonymize(a), cp.anonymize(b));
    }

    /// Every sharing workflow preserves the overlap of two address sets.
    #[test]
    fn workflows_preserve_overlap(
        mut set_a in prop::collection::vec(any::<u32>(), 1..50),
        mut set_b in prop::collection::vec(any::<u32>(), 1..50),
        ka in any::<u64>(),
        kb in any::<u64>(),
        kc in any::<u64>(),
    ) {
        set_a.sort_unstable();
        set_a.dedup();
        set_b.sort_unstable();
        set_b.dedup();
        let truth = raw_overlap(&set_a, &set_b);

        let mut key = [0u8; 32];
        let fill = |seed: u64, key: &mut [u8; 32]| {
            let mut x = seed | 1;
            for b in key.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                *b = (x >> 48) as u8;
            }
        };
        fill(ka, &mut key);
        let holder_a = Holder::new("a", &key);
        fill(kb, &mut key);
        let holder_b = Holder::new("b", &key);
        fill(kc, &mut key);
        let common = CryptoPan::new(&key);

        let (pub_a, pub_b) = (holder_a.publish(&set_a), holder_b.publish(&set_b));

        // Workflow 1.
        let ra = holder_a.deanonymize_subset(&pub_a, pub_a.len()).unwrap();
        let rb = holder_b.deanonymize_subset(&pub_b, pub_b.len()).unwrap();
        prop_assert_eq!(raw_overlap(&ra, &rb), truth);

        // Workflow 2.
        let ca = holder_a.reanonymize_subset(&pub_a, &common, pub_a.len()).unwrap();
        let cb = holder_b.reanonymize_subset(&pub_b, &common, pub_b.len()).unwrap();
        prop_assert_eq!(raw_overlap(&ca, &cb), truth);

        // Workflow 3.
        let ta = holder_a.transformation_table(&pub_a, &common);
        let tb = holder_b.transformation_table(&pub_b, &common);
        prop_assert_eq!(
            raw_overlap(&ta.translate_all(&pub_a), &tb.translate_all(&pub_b)),
            truth
        );
    }

    /// The memoized scheme is bit-identical to uncached CryptoPAN across
    /// the full address range, under more than one key.
    #[test]
    fn memo_equals_uncached(addr in any::<u32>(), second in any::<bool>()) {
        let (cp, memo) = memo_pair(second);
        prop_assert_eq!(memo.anonymize(addr), cp.anonymize(addr));
    }

    /// The memoized scheme inverts itself, and inverts the uncached
    /// scheme's output (they are the same bijection).
    #[test]
    fn memo_round_trip(addr in any::<u32>(), second in any::<bool>()) {
        let (cp, memo) = memo_pair(second);
        prop_assert_eq!(memo.deanonymize(memo.anonymize(addr)), addr);
        prop_assert_eq!(memo.deanonymize(cp.anonymize(addr)), addr);
    }

    /// Prefix preservation holds through the memo table exactly: common
    /// prefixes are neither extended nor shortened.
    #[test]
    fn memo_prefix_preservation(a in any::<u32>(), b in any::<u32>(), second in any::<bool>()) {
        let (_, memo) = memo_pair(second);
        prop_assert_eq!(
            common_prefix_len(memo.anonymize(a), memo.anonymize(b)),
            common_prefix_len(a, b)
        );
    }

    /// The batched sort-by-prefix path equals the uncached scalar scheme
    /// element-wise, duplicates and all, on full-range batches and on
    /// clustered ones whose sorted walk reuses pad bits past bit 16.
    #[test]
    fn memo_slice_equals_scalar(
        addrs in prop::collection::vec(any::<u32>(), 0..64),
        clustered in clustered_batch(),
        second in any::<bool>(),
    ) {
        let (cp, memo) = memo_pair(second);
        for addrs in [addrs, clustered] {
            let mut batched = addrs.clone();
            memo.anonymize_slice(&mut batched);
            let scalar: Vec<u32> = addrs.iter().map(|&a| cp.anonymize(a)).collect();
            prop_assert_eq!(batched, scalar);
        }
    }

    /// Anonymizing a sorted set preserves relative order of shared-prefix
    /// groups: membership counts per /8 are permuted, never merged.
    #[test]
    fn slash8_group_sizes_preserved(
        addrs in prop::collection::vec(any::<u32>(), 1..80),
        seed in any::<u64>(),
    ) {
        let cp = cp_from(seed);
        let count_groups = |v: &[u32]| {
            let mut octets: Vec<u8> = v.iter().map(|a| (a >> 24) as u8).collect();
            octets.sort_unstable();
            octets.dedup();
            octets.len()
        };
        let anon: Vec<u32> = addrs.iter().map(|&a| cp.anonymize(a)).collect();
        prop_assert_eq!(count_groups(&addrs), count_groups(&anon));
    }
}
