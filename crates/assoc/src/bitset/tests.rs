//! Unit suite for the compressed bitmap substrate: container form
//! selection and hysteresis, every container-pair operation combination,
//! rank/select, the month matrix sweep, and constructor invariants.
//!
//! The whole file sits inside an explicitly `#[cfg(test)]`-marked module
//! (not just the gated `mod tests;` declaration in `mod.rs`) so the audit
//! scanner, which classifies each file independently, sees every helper
//! here as test code.

#[cfg(test)]
mod suite {

use crate::bitset::container::{Container, ARRAY_MAX, BITMAP_MIN};
use crate::bitset::{metrics, BitSet, MonthMatrix};
use crate::keys::NumKeySet;

/// Keys that land entirely in chunk 0 with the given lows.
fn set_of(lows: &[u32]) -> BitSet {
    BitSet::from_iter(lows.iter().copied())
}

fn kind_name(k: metrics::Kind) -> &'static str {
    match k {
        metrics::Kind::Array => "array",
        metrics::Kind::Bitmap => "bitmap",
        metrics::Kind::Runs => "runs",
    }
}

/// The container a freshly built single-chunk set uses.
fn only_kind(s: &BitSet) -> &'static str {
    let census = s.container_census();
    match census {
        (1, 0, 0) => "array",
        (0, 1, 0) => "bitmap",
        (0, 0, 1) => "runs",
        other => panic!("expected one container, got census {other:?}"),
    }
}

// --- constructor invariants -----------------------------------------------

#[test]
fn bitset_constructors_uphold_invariants() {
    let e = BitSet::new();
    e.check_invariants().unwrap();
    assert!(e.is_empty());

    let a = BitSet::from_iter([5u32, 1, 5, 1 << 20, 3]);
    a.check_invariants().unwrap();
    assert_eq!(a.len(), 4);

    let b = BitSet::from_sorted_unique(&[1, 2, 3, 70_000, 1 << 30]);
    b.check_invariants().unwrap();
    assert_eq!(b.len(), 5);

    let n = NumKeySet::from_iter([9u32, 7, 7, 1 << 17]);
    let c = BitSet::from_num_key_set(&n);
    c.check_invariants().unwrap();
    assert_eq!(c.to_num_key_set(), n);

    // Collected form too.
    let d: BitSet = [3u32, 1].into_iter().collect();
    d.check_invariants().unwrap();

    // From D4M keys: only `ip_key` renders are kept.
    let keys: crate::KeySet =
        ["001.002.003.004", "1.2.3.5", "+01.002.003.006", "zebra", "255.255.255.255"]
            .into_iter()
            .collect();
    let e = BitSet::from_ip_keys(&keys);
    e.check_invariants().unwrap();
    assert_eq!(e.iter().collect::<Vec<_>>(), vec![0x0102_0304, u32::MAX]);
}

#[test]
fn month_matrix_constructors_uphold_invariants() {
    let months: Vec<NumKeySet> = (0..4)
        .map(|m| NumKeySet::from_iter((0..100u32).map(|i| i * (m + 2) + (m << 16))))
        .collect();
    let sets: Vec<BitSet> = months.iter().map(BitSet::from_num_key_set).collect();
    let mm = MonthMatrix::from_bit_sets(&sets);
    mm.check_invariants().unwrap();
    assert_eq!(mm.n_months(), 4);
    for (m, month) in months.iter().enumerate() {
        assert_eq!(mm.month_len(m), month.len());
        assert_eq!(mm.month_set(m).to_num_key_set(), *month);
    }

    // Empty months are representable: no chunks, zero lens.
    let empty = MonthMatrix::from_bit_sets(&[BitSet::new(), BitSet::new()]);
    empty.check_invariants().unwrap();
    assert_eq!(empty.month_len(0), 0);
    assert_eq!(empty.overlap_counts(&set_of(&[1, 2, 3])), vec![0, 0]);
}

// --- container form selection ---------------------------------------------

#[test]
fn density_picks_container_form() {
    // Sparse scatter: array.
    let sparse = BitSet::from_iter((0..100u32).map(|i| i * 631));
    assert_eq!(only_kind(&sparse), "array");
    sparse.check_invariants().unwrap();

    // Dense scatter above ARRAY_MAX (stride 2 defeats run compression): bitmap.
    let dense = BitSet::from_iter((0..6000u32).map(|i| i * 2));
    assert_eq!(only_kind(&dense), "bitmap");
    dense.check_invariants().unwrap();

    // One contiguous slab: runs.
    let slab = BitSet::from_iter(0..10_000u32);
    assert_eq!(only_kind(&slab), "runs");
    slab.check_invariants().unwrap();

    // A full chunk is a single run.
    let full = BitSet::from_iter(0..65_536u32);
    assert_eq!(only_kind(&full), "runs");
    assert_eq!(full.len(), 65_536);
    full.check_invariants().unwrap();
}

#[test]
fn hysteresis_promotes_above_array_max_only() {
    let mut s = BitSet::from_iter((0..ARRAY_MAX as u32).map(|i| i * 3));
    assert_eq!(only_kind(&s), "array");
    // At the boundary: still an array.
    assert_eq!(s.len(), ARRAY_MAX);
    // One past the boundary: promotes.
    assert!(s.insert(1));
    assert_eq!(only_kind(&s), "bitmap");
    s.check_invariants().unwrap();
    // Removing back to ARRAY_MAX does NOT demote (hysteresis band).
    assert!(s.remove(1));
    assert_eq!(only_kind(&s), "bitmap");
    s.check_invariants().unwrap();
    // Flapping across the promote boundary never changes form again.
    for _ in 0..10 {
        assert!(s.insert(1));
        assert!(s.remove(1));
    }
    assert_eq!(only_kind(&s), "bitmap");
}

#[test]
fn hysteresis_demotes_below_bitmap_min() {
    let mut s = BitSet::from_iter((0..(ARRAY_MAX as u32 + 1)).map(|i| i * 3));
    assert_eq!(only_kind(&s), "bitmap");
    // Shrink to exactly BITMAP_MIN: still a bitmap.
    let keys: Vec<u32> = s.iter().collect();
    for &k in &keys[BITMAP_MIN..] {
        assert!(s.remove(k));
    }
    assert_eq!(s.len(), BITMAP_MIN);
    assert_eq!(only_kind(&s), "bitmap");
    s.check_invariants().unwrap();
    // One below: demotes to an array with identical contents.
    assert!(s.remove(keys[0]));
    assert_eq!(only_kind(&s), "array");
    assert_eq!(s.len(), BITMAP_MIN - 1);
    s.check_invariants().unwrap();
    assert_eq!(
        s.to_num_key_set().as_slice(),
        &keys[1..BITMAP_MIN],
        "demotion must preserve contents"
    );
}

#[test]
fn mutation_matches_rebuild_across_forms() {
    // Drive one set through array → bitmap → runs-optimized → array
    // territory and compare against from_iter rebuilds at every stage.
    let mut s = BitSet::new();
    let mut model: Vec<u32> = Vec::new();
    // Grow a slab (run territory) plus scatter.
    for k in 0..5000u32 {
        s.insert(k);
        model.push(k);
    }
    for k in (100_000..101_000u32).step_by(7) {
        s.insert(k);
        model.push(k);
    }
    s.optimize();
    s.check_invariants().unwrap();
    assert_eq!(s.to_num_key_set(), NumKeySet::from_iter(model.iter().copied()));
    // Punch holes in the slab (runs must split) and re-verify.
    for k in (0..5000u32).step_by(3) {
        assert!(s.remove(k));
        model.retain(|&x| x != k);
    }
    s.check_invariants().unwrap();
    assert_eq!(s.to_num_key_set(), NumKeySet::from_iter(model.iter().copied()));
    // Inserting into run gaps merges runs back.
    for k in (0..5000u32).step_by(3) {
        assert!(s.insert(k));
        assert!(!s.insert(k));
        model.push(k);
    }
    s.optimize();
    s.check_invariants().unwrap();
    assert_eq!(s.to_num_key_set(), NumKeySet::from_iter(model.iter().copied()));
}

// --- cross-form operation grid --------------------------------------------

/// One single-chunk set per physical form, with varied contents.
fn form_zoo() -> Vec<(&'static str, BitSet)> {
    vec![
        ("empty", BitSet::new()),
        ("singleton", set_of(&[777])),
        ("array", BitSet::from_iter((0..1000u32).map(|i| i * 61))),
        ("bitmap", BitSet::from_iter((0..9000u32).map(|i| i * 7))),
        ("runs", BitSet::from_iter(2000..30_000u32)),
        ("full-chunk", BitSet::from_iter(0..65_536u32)),
        ("multi-chunk", BitSet::from_iter((0..40_000u32).map(|i| i * 11))),
    ]
}

#[test]
fn operation_grid_matches_num_key_set() {
    let zoo = form_zoo();
    for (na, a) in &zoo {
        let oa = a.to_num_key_set();
        for (nb, b) in &zoo {
            let ob = b.to_num_key_set();
            let ctx = format!("{na} vs {nb}");
            assert_eq!(a.overlap_count(b), oa.overlap_count(&ob), "overlap {ctx}");
            assert_eq!(a.overlap_fraction(b), oa.overlap_fraction(&ob), "fraction {ctx}");
            let isect = a.intersect(b);
            isect.check_invariants().unwrap();
            assert_eq!(isect.to_num_key_set(), oa.intersect(&ob), "intersect {ctx}");
            let un = a.union(b);
            un.check_invariants().unwrap();
            let mut expect: Vec<u32> = oa.iter().chain(ob.iter()).collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(un.to_num_key_set().as_slice(), &expect[..], "union {ctx}");
        }
    }
}

#[test]
fn rank_select_round_trip() {
    for (name, s) in form_zoo() {
        let keys: Vec<u32> = s.iter().collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.rank(k), i, "rank of {k} in {name}");
            assert_eq!(s.select(i), Some(k), "select {i} in {name}");
        }
        assert_eq!(s.select(keys.len()), None, "select past end in {name}");
        // rank of a key past everything is the cardinality.
        assert_eq!(s.rank(u32::MAX), keys.iter().filter(|&&k| k < u32::MAX).count());
        assert_eq!(s.rank(0), 0);
    }
}

#[test]
fn contains_and_membership_queries() {
    for (name, s) in form_zoo() {
        let oracle = s.to_num_key_set();
        // Probe members, near-misses, and chunk edges.
        let probes: Vec<u32> = oracle
            .iter()
            .take(50)
            .flat_map(|k| [k, k.wrapping_add(1), k.wrapping_sub(1)])
            .chain([0, 65_535, 65_536, u32::MAX])
            .collect();
        for p in probes {
            assert_eq!(s.contains(p), oracle.contains(p), "contains({p}) in {name}");
        }
    }
}

// --- month matrix ----------------------------------------------------------

#[test]
fn month_matrix_sweep_equals_pairwise() {
    // 15 months of mixed-density sets spanning several chunks, with
    // overlap structure (stride multiples share keys across months).
    let months: Vec<NumKeySet> = (0..15usize)
        .map(|m| {
            let base = (m as u32 % 3) << 16;
            match m % 4 {
                0 => NumKeySet::from_iter((0..4000u32).map(|i| base + i * 2)),
                1 => NumKeySet::from_iter(base..base + 9000),
                2 => NumKeySet::from_iter((0..500u32).map(|i| base + i * 131)),
                _ => NumKeySet::new(),
            }
        })
        .collect();
    let sets: Vec<BitSet> = months.iter().map(BitSet::from_num_key_set).collect();
    let mm = MonthMatrix::from_bit_sets(&sets);
    mm.check_invariants().unwrap();

    let probes = [
        NumKeySet::from_iter((0..3000u32).map(|i| i * 3)),
        NumKeySet::from_iter(0..70_000u32),
        NumKeySet::from_iter([5u32, 1 << 16, (2 << 16) + 4, 1 << 24]),
        NumKeySet::new(),
    ];
    for probe in &probes {
        let bits = BitSet::from_num_key_set(probe);
        let counts = mm.overlap_counts(&bits);
        assert_eq!(counts.len(), 15);
        for (m, month) in months.iter().enumerate() {
            assert_eq!(counts[m], probe.overlap_count(month), "month {m}");
        }
    }
}

// --- metrics gating --------------------------------------------------------

#[test]
fn census_reports_forms_without_metrics() {
    // container_census is a pure query: usable with metrics off, and the
    // Kind names stay stable for the bench labels.
    let s = BitSet::from_iter(0..70_000u32);
    let (arrays, bitmaps, runs) = s.container_census();
    assert_eq!(arrays + bitmaps + runs, 2, "two chunks");
    assert_eq!(kind_name(metrics::Kind::Array), "array");
    assert_eq!(kind_name(metrics::Kind::Bitmap), "bitmap");
    assert_eq!(kind_name(metrics::Kind::Runs), "runs");
}

// --- container edge cases (direct, crate-private) --------------------------

#[test]
fn container_boundary_keys() {
    // Keys at word and chunk boundaries exercise the mask edges.
    let edges: Vec<u16> = vec![0, 1, 63, 64, 65, 127, 128, 65_534, 65_535];
    let c = Container::from_sorted(&edges);
    c.check_invariants().unwrap();
    for &k in &edges {
        assert!(c.contains(k));
    }
    assert!(!c.contains(2));
    assert_eq!(c.to_vec(), edges);

    // A runs container touching both chunk ends.
    let mut r = Container::from_sorted(&[0]);
    for k in 1..200u16 {
        r.insert(k);
    }
    r.insert(65_535);
    r.optimize();
    r.check_invariants().unwrap();
    assert_eq!(r.card(), 201);
    assert_eq!(r.rank(65_535), 200);
    assert_eq!(r.select(200), Some(65_535));

    // Removing the interior of a run splits it cleanly.
    assert!(r.remove(100));
    r.check_invariants().unwrap();
    assert!(!r.contains(100));
    assert!(r.contains(99) && r.contains(101));
}

#[test]
fn select_walks_bitmap_words() {
    // Bitmap select must skip whole words by popcount, including words
    // that are all-zero or all-ones.
    let keys: Vec<u16> = (0..ARRAY_MAX as u32 + 64)
        .map(|i| (i * 3 % 60_000) as u16)
        .collect::<std::collections::BTreeSet<u16>>()
        .into_iter()
        .collect();
    let c = Container::from_sorted(&keys);
    assert_eq!(kind_name(c.kind()), "bitmap");
    for (i, &k) in keys.iter().enumerate().step_by(97) {
        assert_eq!(c.select(i), Some(k));
        assert_eq!(c.rank(k), i);
    }
    assert_eq!(c.select(keys.len()), None);
}

}
