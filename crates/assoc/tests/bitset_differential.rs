//! Differential properties: `BitSet ≡ NumKeySet ≡ string-key oracle`.
//!
//! Every public operation of the compressed bitmap substrate is compared
//! against the sorted-`Vec<u32>` [`NumKeySet`] and, through
//! [`NumKeySet::to_key_set`], the string-keyed [`KeySet`] oracle — over
//! random density regimes and the adversarial shapes that sit on the
//! container representation boundaries (empty, singleton, dense runs,
//! full chunks, the array→bitmap promotion edge). Fractions must match
//! *bit for bit*, not approximately: the fast path divides the same two
//! integers as the oracles.
//!
//! Replay seeds live in `proptest-regressions/bitset_differential.txt`.

use obscor_assoc::{BitSet, KeySet, MonthMatrix, NumKeySet};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// One random set in a density regime chosen by `shape`, as sorted
/// unique keys. The regimes deliberately include every container form
/// and both sides of the promotion threshold (`ARRAY_MAX` = 4096).
fn gen_keys(rng: &mut StdRng, shape: u32) -> Vec<u32> {
    let mut keys: Vec<u32> = match shape % 8 {
        // Empty and singleton sets.
        0 => Vec::new(),
        1 => vec![rng.random_range(0u32..1 << 24)],
        // One dense run, possibly crossing a chunk boundary.
        2 => {
            let start = rng.random_range(0u32..100_000);
            let len = rng.random_range(1u32..30_000);
            (start..start + len).collect()
        }
        // A full 2^16 chunk.
        3 => {
            let base = rng.random_range(0u32..4) << 16;
            (base..base + 65_536).collect()
        }
        // The promotion boundary: 4095..=4097 distinct keys in one chunk.
        4 => {
            let target = 4095 + rng.random_range(0u32..3);
            let mut v: Vec<u32> = (0..target * 2).step_by(2).collect();
            v.truncate(target as usize);
            v
        }
        // Sparse scatter across many chunks.
        5 => (0..rng.random_range(1u32..2000))
            .map(|_| rng.random_range(0u32..1 << 28))
            .collect(),
        // Dense scatter confined to one chunk (bitmap container).
        6 => {
            let base = rng.random_range(0u32..8) << 16;
            (0..rng.random_range(4200u32..20_000))
                .map(|_| base + rng.random_range(0u32..65_536))
                .collect()
        }
        // Mixture: run + scatter, so chunks of different kinds coexist.
        _ => {
            let mut v: Vec<u32> = (200_000..210_000).collect();
            v.extend((0..500).map(|_| rng.random_range(0u32..1 << 26)));
            v
        }
    };
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// All three representations of one key list.
fn triplet(keys: &[u32]) -> (BitSet, NumKeySet, KeySet) {
    let num = NumKeySet::from_iter(keys.iter().copied());
    let bits = BitSet::from_num_key_set(&num);
    let strs = num.to_key_set();
    (bits, num, strs)
}

proptest! {
    /// Overlap count, overlap fraction (bit-identical `f64`), intersect,
    /// and union agree with both oracles across random density pairings.
    #[test]
    fn random_density_sets_agree_with_oracles(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape_a = rng.random_range(0u32..8);
        let shape_b = rng.random_range(0u32..8);
        let (ba, na, sa) = triplet(&gen_keys(&mut rng, shape_a));
        let (bb, nb, sb) = triplet(&gen_keys(&mut rng, shape_b));
        ba.check_invariants().unwrap();
        bb.check_invariants().unwrap();
        prop_assert_eq!(ba.len(), na.len());
        prop_assert_eq!(ba.overlap_count(&bb), na.overlap_count(&nb));
        prop_assert_eq!(ba.overlap_count(&bb), sa.intersect(&sb).len());
        // Fractions bit-identical through both oracles.
        prop_assert_eq!(ba.overlap_fraction(&bb), na.overlap_fraction(&nb));
        prop_assert_eq!(ba.overlap_fraction(&bb), sa.overlap_fraction(&sb));
        // Materialized set algebra.
        let isect = ba.intersect(&bb);
        isect.check_invariants().unwrap();
        prop_assert_eq!(isect.to_num_key_set(), na.intersect(&nb));
        prop_assert_eq!(isect.to_num_key_set().to_key_set(), sa.intersect(&sb));
        let un = ba.union(&bb);
        un.check_invariants().unwrap();
        prop_assert_eq!(un.to_num_key_set().to_key_set(), sa.union(&sb));
        // Inclusion-exclusion ties all four numbers together.
        prop_assert_eq!(un.len() + isect.len(), ba.len() + bb.len());
    }

    /// Round trip through the sorted-vector and string domains is lossless.
    #[test]
    fn round_trips_are_lossless(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.random_range(0u32..8);
        let (bits, num, strs) = triplet(&gen_keys(&mut rng, shape));
        prop_assert_eq!(bits.to_num_key_set(), num.clone());
        prop_assert_eq!(BitSet::from_num_key_set(&bits.to_num_key_set()).to_num_key_set(), num);
        prop_assert_eq!(bits.to_num_key_set().to_key_set(), strs);
        // from_iter over shuffled duplicates builds the same set.
        let mut noisy: Vec<u32> = bits.iter().collect();
        noisy.extend(bits.iter().take(10));
        let rebuilt = BitSet::from_iter(noisy);
        rebuilt.check_invariants().unwrap();
        prop_assert_eq!(rebuilt.to_num_key_set(), bits.to_num_key_set());
    }

    /// Random insert/remove streams match a `BTreeSet` model, with
    /// invariants (including promotion/demotion hysteresis bounds)
    /// holding at every checkpoint.
    #[test]
    fn mutation_stream_matches_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = BitSet::new();
        let mut model = std::collections::BTreeSet::new();
        // Concentrate keys in two chunks so containers actually cross the
        // promotion/demotion thresholds during the stream.
        for step in 0..rng.random_range(500u32..6000) {
            let key = (rng.random_range(0u32..2) << 16) + rng.random_range(0u32..9000);
            if rng.random_range(0u32..3) == 0 {
                prop_assert_eq!(bits.remove(key), model.remove(&key));
            } else {
                prop_assert_eq!(bits.insert(key), model.insert(key));
            }
            if step % 512 == 0 {
                bits.check_invariants().unwrap();
            }
        }
        bits.check_invariants().unwrap();
        prop_assert_eq!(bits.len(), model.len());
        let keys: Vec<u32> = bits.iter().collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(keys, expect);
        // contains agrees on hits and misses.
        for _ in 0..100 {
            let probe = (rng.random_range(0u32..2) << 16) + rng.random_range(0u32..9000);
            prop_assert_eq!(bits.contains(probe), model.contains(&probe));
        }
        // optimize() may change physical form but never contents.
        bits.optimize();
        bits.check_invariants().unwrap();
        prop_assert_eq!(bits.len(), model.len());
    }

    /// `rank`/`select` agree with positional indexing of the sorted vector.
    #[test]
    fn rank_select_match_sorted_vector(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.random_range(0u32..8);
        let keys = gen_keys(&mut rng, shape);
        let (bits, _, _) = triplet(&keys);
        // Every 37th member plus random probes (members or not).
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            prop_assert_eq!(bits.rank(k), i);
            prop_assert_eq!(bits.select(i), Some(k));
        }
        prop_assert_eq!(bits.select(keys.len()), None);
        for _ in 0..50 {
            let probe = rng.random_range(0u32..1 << 28);
            prop_assert_eq!(bits.rank(probe), keys.partition_point(|&k| k < probe));
        }
    }

    /// The month-matrix one-sweep overlap equals the pairwise overlaps
    /// for every month, across random month populations and probes.
    #[test]
    fn month_matrix_sweep_matches_pairwise(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_months = rng.random_range(1u32..16) as usize;
        let months: Vec<NumKeySet> = (0..n_months)
            .map(|_| {
                let shape = rng.random_range(0u32..8);
                NumKeySet::from_iter(gen_keys(&mut rng, shape))
            })
            .collect();
        let mm = MonthMatrix::from_months(&months);
        check_month_matrix(&mm, &months, &mut rng)?;
    }
}

/// Invariants, per-month cardinality and round trip, and the one-sweep
/// overlap counts against pairwise `NumKeySet` overlaps on random probes.
fn check_month_matrix(
    mm: &MonthMatrix,
    months: &[NumKeySet],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    mm.check_invariants().unwrap();
    prop_assert_eq!(mm.n_months(), months.len());
    for (m, month) in months.iter().enumerate() {
        prop_assert_eq!(mm.month_len(m), month.len());
        let back = mm.month_set(m);
        back.check_invariants().unwrap();
        prop_assert_eq!(back.to_num_key_set(), month.clone());
    }
    for _ in 0..3 {
        let shape = rng.random_range(0u32..8);
        let probe_keys = gen_keys(rng, shape);
        let probe_num = NumKeySet::from_iter(probe_keys.iter().copied());
        let probe = BitSet::from_num_key_set(&probe_num);
        let counts = mm.overlap_counts(&probe);
        for (m, month) in months.iter().enumerate() {
            prop_assert_eq!(counts[m], probe_num.overlap_count(month));
        }
    }
    Ok(())
}

/// The honeyfarm-background shape: fifteen months of keys scattered over
/// the whole `u32` space, so nearly every key opens its own chunk and the
/// months' chunk lists interleave (each month's chunks fall between the
/// others'). Shared keys put several months in one chunk, in month order.
#[test]
fn month_matrix_interleaved_fifteen_months() {
    let mut rng = StdRng::seed_from_u64(0x15);
    let shared: Vec<u32> = (0..500).map(|_| rng.random()).collect();
    let months: Vec<NumKeySet> = (0..15)
        .map(|m| {
            let own = (0..3000).map(|_| rng.random::<u32>());
            // Every month keeps a different subset of the shared keys, so
            // chunks hold varying month lists.
            let common = shared.iter().copied().filter(|k| (k >> 3) % 15 != m);
            NumKeySet::from_iter(own.chain(common))
        })
        .collect();
    let mm = MonthMatrix::from_months(&months);
    let (arrays, bitmaps, runs) = mm.container_census();
    // Sparse scatter: one array container per (month, occupied chunk).
    assert_eq!((bitmaps, runs), (0, 0));
    assert!(arrays > 15 * 3000 / 2, "chunks should barely repeat within a month: {arrays}");
    check_month_matrix(&mm, &months, &mut rng).unwrap();
    // Probing with a month itself counts its full size in its own row.
    let probe = BitSet::from_num_key_set(&months[7]);
    assert_eq!(mm.overlap_counts(&probe)[7], months[7].len());
}
