//! Unit suite for the compressed bitmap substrate: container form
//! selection, every container-pair overlap count, key read-outs, the
//! month matrix sweep, and constructor and form invariants.
//!
//! The whole file sits inside an explicitly `#[cfg(test)]`-marked module
//! (not just the gated `mod tests;` declaration in `mod.rs`) so the audit
//! scanner, which classifies each file independently, sees every helper
//! here as test code.

#[cfg(test)]
mod suite {

use crate::bitset::container::{Container, ARRAY_MAX, CHUNK_WORDS};
use crate::bitset::{metrics, BitSet, MonthMatrix};
use crate::keys::NumKeySet;

/// The set of `keys`, given in any order and with repeats.
fn set_of(keys: impl IntoIterator<Item = u32>) -> BitSet {
    BitSet::from_num_key_set(&NumKeySet::from_iter(keys))
}

/// The set's keys as the sorted-vector reference.
fn num_of(s: &BitSet) -> NumKeySet {
    NumKeySet::from_sorted_unique(s.iter().collect())
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
    let e = BitSet::default();
    e.check_invariants().unwrap();
    assert!(e.is_empty());

    let a = set_of([5u32, 1, 5, 1 << 20, 3]);
    a.check_invariants().unwrap();
    assert_eq!(a.len(), 4);

    let b = BitSet::from_sorted_unique(&[1, 2, 3, 70_000, 1 << 30]);
    b.check_invariants().unwrap();
    assert_eq!(b.len(), 5);

    let n = NumKeySet::from_iter([9u32, 7, 7, 1 << 17]);
    let c = BitSet::from_num_key_set(&n);
    c.check_invariants().unwrap();
    assert_eq!(num_of(&c), n);

    // From D4M keys: only `ip_key` renders are kept.
    let keys: crate::KeySet =
        ["001.002.003.004", "1.2.3.5", "+01.002.003.006", "zebra", "255.255.255.255"]
            .into_iter()
            .collect();
    let e = BitSet::from_ip_keys(&keys);
    e.check_invariants().unwrap();
    assert_eq!(e.iter().collect::<Vec<_>>(), vec![0x0102_0304, u32::MAX]);
}

/// The by-value constructor over `sets` builds the borrowing one's
/// matrix: both uphold their invariants and agree in every row length, in
/// the container census and in the sweep counts of `probes`.
fn by_value_matrix_equals_borrowed(sets: &[BitSet], probes: &[BitSet]) -> MonthMatrix {
    let borrowed = MonthMatrix::from_bit_sets(sets);
    let moved = MonthMatrix::from_months(sets.to_vec());
    borrowed.check_invariants().unwrap();
    moved.check_invariants().unwrap();
    assert_eq!(moved.n_months(), borrowed.n_months());
    for m in 0..borrowed.n_months() {
        assert_eq!(moved.month_len(m), borrowed.month_len(m), "month {m}");
    }
    assert_eq!(moved.container_census(), borrowed.container_census());
    for probe in probes {
        assert_eq!(moved.overlap_counts(probe), borrowed.overlap_counts(probe));
    }
    moved
}

#[test]
fn month_matrix_constructors_uphold_invariants() {
    let months: Vec<NumKeySet> = (0..4)
        .map(|m| NumKeySet::from_iter((0..100u32).map(|i| i * (m + 2) + (m << 16))))
        .collect();
    let sets: Vec<BitSet> = months.iter().map(BitSet::from_num_key_set).collect();
    let mm = by_value_matrix_equals_borrowed(&sets, &sets);
    assert_eq!(mm.n_months(), 4);
    for (m, month) in months.iter().enumerate() {
        // A month probed against the matrix finds all of itself in its row.
        assert_eq!(mm.overlap_counts(&sets[m])[m], mm.month_len(m));
        assert_eq!(mm.month_len(m), month.len());
    }

    // Empty months are representable: no chunks, zero lens.
    let empty = by_value_matrix_equals_borrowed(&[BitSet::default(), BitSet::default()], &[]);
    assert_eq!(empty.month_len(0), 0);
    assert_eq!(empty.overlap_counts(&set_of([1, 2, 3])), vec![0, 0]);
}

// --- container form selection ---------------------------------------------

#[test]
fn density_picks_container_form() {
    // Sparse scatter: array.
    let sparse = set_of((0..100u32).map(|i| i * 631));
    assert_eq!(only_kind(&sparse), "array");
    sparse.check_invariants().unwrap();

    // Dense scatter above ARRAY_MAX (stride 2 defeats run compression): bitmap.
    let dense = set_of((0..6000u32).map(|i| i * 2));
    assert_eq!(only_kind(&dense), "bitmap");
    dense.check_invariants().unwrap();

    // One contiguous slab: runs.
    let slab = set_of(0..10_000u32);
    assert_eq!(only_kind(&slab), "runs");
    slab.check_invariants().unwrap();

    // A full chunk is a single run.
    let full = set_of(0..65_536u32);
    assert_eq!(only_kind(&full), "runs");
    assert_eq!(full.len(), 65_536);
    full.check_invariants().unwrap();
}

#[test]
fn array_max_is_the_array_bitmap_edge() {
    // Stride 3 defeats run compression, so the key count alone decides.
    let at = set_of((0..ARRAY_MAX as u32).map(|i| i * 3));
    assert_eq!(at.len(), ARRAY_MAX);
    assert_eq!(only_kind(&at), "array");
    at.check_invariants().unwrap();
    let past = set_of((0..=ARRAY_MAX as u32).map(|i| i * 3));
    assert_eq!(past.len(), ARRAY_MAX + 1);
    assert_eq!(only_kind(&past), "bitmap");
    past.check_invariants().unwrap();
    assert_eq!(num_of(&past), NumKeySet::from_iter((0..=ARRAY_MAX as u32).map(|i| i * 3)));
    // A contiguous slab of as many keys is one run on either side.
    for n in [ARRAY_MAX, ARRAY_MAX + 1] {
        let slab = set_of(0..n as u32);
        assert_eq!(only_kind(&slab), "runs", "{n}-key slab");
        assert_eq!(slab.len(), n);
        slab.check_invariants().unwrap();
    }
}

#[test]
fn runs_cost_less_than_half_the_dense_form() {
    // `n_runs` runs of five keys, three keys apart, in chunk 0.
    let runs_of_five =
        |n_runs: u32| set_of((0..n_runs).flat_map(|r| (0..5).map(move |k| r * 8 + k)));
    // Arrays: 100 runs cost 400 bytes, the array form 2 bytes a key.
    let four = set_of((0..100u32).flat_map(|r| (0..4).map(move |k| r * 8 + k)));
    assert_eq!((four.len(), only_kind(&four)), (400, "array"), "exactly half stays an array");
    assert_eq!(only_kind(&runs_of_five(100)), "runs");
    // Bitmaps: 1024 runs cost 4 KiB, exactly half the 8 KiB bitmap.
    assert_eq!(only_kind(&runs_of_five(1024)), "bitmap");
    let runs = runs_of_five(1023);
    assert_eq!((runs.len(), only_kind(&runs)), (5115, "runs"));
    for s in [four, runs_of_five(100), runs_of_five(1024), runs] {
        s.check_invariants().unwrap();
    }
}

#[test]
fn check_invariants_holds_each_container_to_its_form() {
    let stride3 = |n: usize| -> Vec<u16> { (0..n).map(|i| (i * 3) as u16).collect() };
    let bitmap_of = |keys: &[u16]| {
        let mut words = Box::new([0u64; CHUNK_WORDS]);
        for &k in keys {
            words[usize::from(k >> 6)] |= 1u64 << (k & 63);
        }
        Container::Bitmap { words, card: keys.len() }
    };
    // A bitmap of at most ARRAY_MAX keys belongs in an array, and an
    // array of more in a bitmap.
    assert!(bitmap_of(&stride3(ARRAY_MAX)).check_invariants().is_err());
    bitmap_of(&stride3(ARRAY_MAX + 1)).check_invariants().unwrap();
    assert!(Container::Array(stride3(ARRAY_MAX + 1)).check_invariants().is_err());
    Container::Array(stride3(ARRAY_MAX)).check_invariants().unwrap();
    // Runs costing at least half the dense form belong in an array.
    assert!(Container::Runs(vec![(0, 0), (2, 2)]).check_invariants().is_err());
    Container::Runs(vec![(0, 9), (20, 29)]).check_invariants().unwrap();
}

// --- cross-form operation grid --------------------------------------------

/// One single-chunk set per physical form, with varied contents.
fn form_zoo() -> Vec<(&'static str, BitSet)> {
    vec![
        ("empty", BitSet::default()),
        ("singleton", set_of([777])),
        ("array", set_of((0..1000u32).map(|i| i * 61))),
        ("bitmap", set_of((0..9000u32).map(|i| i * 7))),
        ("runs", set_of(2000..30_000u32)),
        ("full-chunk", set_of(0..65_536u32)),
        ("multi-chunk", set_of((0..40_000u32).map(|i| i * 11))),
    ]
}

#[test]
fn operation_grid_matches_num_key_set() {
    let zoo = form_zoo();
    // The three single-chunk forms all meet, so the grid runs all nine
    // container-pair overlap kernels.
    for (name, s) in &zoo[2..5] {
        assert_eq!(only_kind(s), *name);
    }
    for (na, a) in &zoo {
        let oa = num_of(a);
        for (nb, b) in &zoo {
            let ob = num_of(b);
            let ctx = format!("{na} vs {nb}");
            assert_eq!(a.overlap_count(b), oa.overlap_count(&ob), "overlap {ctx}");
            let (fa, fo) = (a.overlap_fraction(b), oa.overlap_fraction(&ob));
            assert_eq!(fa.map(f64::to_bits), fo.map(f64::to_bits), "fraction {ctx}");
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
    let probes = [
        NumKeySet::from_iter((0..3000u32).map(|i| i * 3)),
        NumKeySet::from_iter(0..70_000u32),
        NumKeySet::from_iter([5u32, 1 << 16, (2 << 16) + 4, 1 << 24]),
        NumKeySet::new(),
    ];
    let probe_bits: Vec<BitSet> = probes.iter().map(BitSet::from_num_key_set).collect();
    let mm = by_value_matrix_equals_borrowed(&sets, &probe_bits);
    for (probe, bits) in probes.iter().zip(&probe_bits) {
        let counts = mm.overlap_counts(bits);
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
    let s = set_of(0..70_000u32);
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
    assert_eq!(c.card(), edges.len());
    assert_eq!(c.to_vec(), edges);
    // The same keys in chunk 1 read out of a set with the high half rejoined.
    let keys: Vec<u32> = edges.iter().map(|&k| (1 << 16) | u32::from(k)).collect();
    assert_eq!(BitSet::from_sorted_unique(&keys).iter().collect::<Vec<_>>(), keys);

    // A runs container touching both chunk ends.
    let keys: Vec<u16> = (0..200u16).chain([65_535]).collect();
    let r = Container::from_sorted(&keys);
    assert_eq!(kind_name(r.kind()), "runs");
    r.check_invariants().unwrap();
    assert_eq!(r.card(), 201);
    assert_eq!(r.to_vec(), keys);
}

#[test]
fn bitmap_read_out_walks_words() {
    // The key walk crosses empty, partial and full words: stride-3 keys
    // (too many runs for the runs form) plus two full words.
    let keys: Vec<u16> = (0..ARRAY_MAX as u16)
        .map(|i| i * 3)
        .chain(25_600..25_728)
        .collect::<std::collections::BTreeSet<u16>>()
        .into_iter()
        .collect();
    let c = Container::from_sorted(&keys);
    assert_eq!(kind_name(c.kind()), "bitmap");
    c.check_invariants().unwrap();
    assert_eq!(c.card(), keys.len());
    assert_eq!(c.to_vec(), keys);
}

}
