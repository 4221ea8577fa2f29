//! Figs 4–6 against two independent references.
//!
//! * **String sets.** The correlation primitive computed from its
//!   definition: a degree bin's fraction is the share of its sources
//!   whose D4M key (`ip_key`) is a member of a honeyfarm month's key set.
//!   [`reference`] does exactly that with `BTreeSet` membership and shares
//!   nothing with the production path but `ip_key` and `log2_bin`. Month
//!   key sets mix `ip_key` renders with other spellings of the same
//!   addresses and with garbage: those are different D4M keys, so they
//!   must never count.
//! * **The counting semiring.** The D4M methodology behind the paper
//!   computes set correlations as sparse matrix products: build
//!   observation pattern matrices (rows are months or degree bins,
//!   columns are source IPs) and get every Fig 4–6 overlap count from one
//!   co-occurrence product `C = A B'` over `(+, &)`
//!   ([`temporal_curves_algebraic`]). The matrices also obey the D4M
//!   identities on scenario data.
//!
//! The production path (`_bits` over `MonthMatrix`) must equal both, bit
//! for bit.

use obscor::anonymize::sharing::Holder;
use obscor::assoc::convert::{ip_key, parse_ip_key};
use obscor::assoc::KeySet;
use obscor::core::peak::peak_correlation;
use obscor::core::temporal::{temporal_curves, TemporalCurve};
use obscor::core::WindowDegrees;
use obscor::honeyfarm::observe_all_months;
use obscor::hypersparse::{ops, reduce, Coo, Csr, Index};
use obscor::netmodel::Scenario;
use obscor::stats::binning::bin_representative;
use obscor::stats::log2_bin;
use obscor::telescope::{build_matrix, capture_window};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// The string-set reference.

/// `(bin, n_sources, fraction bits per month)` for every degree bin of at
/// least `min` sources, by string-set membership.
fn reference(window: &WindowDegrees, months: &[KeySet], min: usize) -> Vec<(u32, usize, Vec<u64>)> {
    let mut bins: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for &(ip, d) in &window.degrees {
        bins.entry(log2_bin(d)).or_default().insert(ip_key(ip));
    }
    let months: Vec<BTreeSet<&str>> = months.iter().map(|m| m.iter().collect()).collect();
    bins.into_iter()
        .filter(|(_, keys)| keys.len() >= min)
        .map(|(bin, keys)| {
            let fractions = months
                .iter()
                .map(|month| {
                    let shared = keys.iter().filter(|k| month.contains(k.as_str())).count();
                    (shared as f64 / keys.len() as f64).to_bits()
                })
                .collect();
            (bin, keys.len(), fractions)
        })
        .collect()
}

/// `ip` as `ip_key` renders it (`style` 0), or as one of the other
/// spellings a lenient dotted-quad parser reads as the same address.
fn spell(ip: u32, style: u32) -> String {
    let [a, b, c, d] = ip.to_be_bytes();
    match style {
        0 => ip_key(ip),
        1 => format!("{a}.{b}.{c}.{d}"),
        2 => format!("+{a:02}.{b:03}.{c:03}.{d:03}"),
        _ => format!("{a:04}.{b:02}.{c:03}.{d:03}"),
    }
}

const GARBAGE: [&str; 6] =
    ["scanner-x", "", "256.000.000.001", "001.002.003", "001.002.003.004.005", " 001.002.003.004"];

/// A random window over a few /16s (so bins span several chunks) with
/// degrees spread over ten log2 bins, and 1–5 months whose key sets hold
/// window sources and outsiders in every spelling, plus garbage.
fn random_case(rng: &mut StdRng) -> (WindowDegrees, Vec<KeySet>) {
    let base = rng.random_range(0u32..256) << 24;
    let mut ips = BTreeSet::new();
    for _ in 0..rng.random_range(0usize..300) {
        ips.insert(base | (rng.random_range(0u32..4) << 16) | rng.random_range(0u32..2048));
    }
    let mut degrees = Vec::new();
    for ip in ips {
        let bin = rng.random_range(0u32..10);
        degrees.push((ip, rng.random_range(1u64..=1 << bin)));
    }
    let n_months = rng.random_range(1usize..6);
    let mut months = Vec::new();
    for _ in 0..n_months {
        let mut keys = Vec::new();
        for &(ip, _) in &degrees {
            if rng.random_bool(0.6) {
                keys.push(spell(ip, rng.random_range(0u32..4)));
            }
        }
        for _ in 0..rng.random_range(0usize..50) {
            let outsider = base | rng.random_range(0u32..1 << 20);
            keys.push(spell(outsider, rng.random_range(0u32..4)));
        }
        for g in GARBAGE {
            if rng.random_bool(0.3) {
                keys.push(g.to_string());
            }
        }
        months.push(keys.into_iter().collect::<KeySet>());
    }
    let month = rng.random_range(0..n_months);
    let window = WindowDegrees { label: "w".into(), coord: month as f64 + 0.5, month, degrees };
    (window, months)
}

// ---------------------------------------------------------------------------
// The counting-semiring reference.

/// Count shared columns for every row pair: `C(i, j) = |cols(A_i) ∩
/// cols(B_j)|`, rows indexed by the *positional* order of the occupied
/// rows of `A` and `B`. Entries with zero intersection are not stored.
fn cooccurrence(a: &Csr<u64>, b: &Csr<u64>) -> Csr<u64> {
    let mut coo = Coo::new();
    for i in 0..a.n_rows() {
        let (ca, _) = a.row_at(i);
        for j in 0..b.n_rows() {
            let (cb, _) = b.row_at(j);
            let shared = intersect_count(ca, cb);
            if shared > 0 {
                coo.push(i as Index, j as Index, shared);
            }
        }
    }
    coo.into_csr()
}

/// Linear merge intersection count of two sorted index slices.
fn intersect_count(a: &[Index], b: &[Index]) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The month × source pattern matrix: row `m` holds a 1 for every source
/// key observed in month `m`. Keys not spelled as `ip_key` renders them
/// can never equal a window source, so they are skipped.
fn month_source_matrix(monthly_sources: &[KeySet]) -> Csr<u64> {
    let mut coo = Coo::new();
    for (m, keys) in monthly_sources.iter().enumerate() {
        for key in keys.iter() {
            if let Some(ip) = parse_ip_key(key) {
                coo.push(m as Index, ip, 1u64);
            }
        }
    }
    coo.into_csr()
}

/// The degree-bin × source pattern matrix of one window: row `i`
/// (positional) holds the sources whose window degree falls in the
/// returned `bins[i]`. Only bins with at least `min_sources` sources are
/// emitted.
fn bin_source_matrix(window: &WindowDegrees, min_sources: usize) -> (Vec<u32>, Csr<u64>) {
    let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for &(_, d) in &window.degrees {
        *sizes.entry(log2_bin(d)).or_default() += 1;
    }
    let bins: Vec<u32> =
        sizes.into_iter().filter(|&(_, n)| n >= min_sources).map(|(bin, _)| bin).collect();
    let mut coo = Coo::new();
    for &(ip, d) in &window.degrees {
        if let Ok(row) = bins.binary_search(&log2_bin(d)) {
            coo.push(row as Index, ip, 1u64);
        }
    }
    (bins, coo.into_csr())
}

/// A window's temporal correlation curves by matrix algebra: one
/// co-occurrence product gives every `(bin, month)` overlap count.
fn temporal_curves_algebraic(
    window: &WindowDegrees,
    monthly_sources: &[KeySet],
    min_sources: usize,
) -> Vec<TemporalCurve> {
    let (bins, bin_matrix) = bin_source_matrix(window, min_sources);
    if bins.is_empty() {
        return Vec::new();
    }
    let month_matrix = month_source_matrix(monthly_sources);
    let counts = cooccurrence(&bin_matrix, &month_matrix);
    // Months with no sources are not stored: map positional month rows
    // back to month indices.
    let occupied_months: Vec<usize> =
        month_matrix.row_keys().iter().map(|&m| m as usize).collect();
    bins.iter()
        .enumerate()
        .map(|(row, &bin)| {
            let n_sources = bin_matrix.row_at(row).0.len();
            let months: Vec<usize> = (0..monthly_sources.len()).collect();
            let lags: Vec<f64> =
                months.iter().map(|&m| (m as f64 + 0.5) - window.coord).collect();
            let fractions: Vec<f64> = months
                .iter()
                .map(|&m| {
                    let pos = occupied_months.iter().position(|&om| om == m);
                    let shared = pos
                        .and_then(|p| counts.get(row as Index, p as Index))
                        .unwrap_or(0);
                    shared as f64 / n_sources.max(1) as f64
                })
                .collect();
            TemporalCurve {
                window_label: window.label.clone(),
                coord: window.coord,
                bin,
                d: bin_representative(bin),
                n_sources,
                months,
                lags,
                fractions,
            }
        })
        .collect()
}

/// A pattern matrix from `(row, columns)` lists.
fn pattern(rows: &[(Index, &[Index])]) -> Csr<u64> {
    let mut coo = Coo::new();
    for &(r, cols) in rows {
        for &c in cols {
            coo.push(r, c, 1u64);
        }
    }
    coo.into_csr()
}

fn arb_triples() -> impl Strategy<Value = Vec<(Index, Index, u64)>> {
    prop::collection::vec((0u32..2_000, 0u32..2_000, 1u64..16), 0..400)
}

proptest! {
    /// `peak_correlation`, `temporal_curves` and the counting-semiring
    /// `temporal_curves_algebraic` all equal the reference, bit for bit.
    #[test]
    fn correlations_match_the_string_set_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (window, months) = random_case(&mut rng);
        let min = rng.random_range(1usize..4);
        let want = reference(&window, &months, min);

        let curves = temporal_curves(&window, &months, min);
        let got: Vec<(u32, usize, Vec<u64>)> = curves
            .iter()
            .map(|c| (c.bin, c.n_sources, c.fractions.iter().map(|f| f.to_bits()).collect()))
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(temporal_curves_algebraic(&window, &months, min), curves);

        let peak = peak_correlation(&window, &months[window.month], 8.0, min);
        let got: Vec<(u32, usize, u64)> =
            peak.points.iter().map(|p| (p.bin, p.n_sources, p.fraction.to_bits())).collect();
        let want: Vec<(u32, usize, u64)> =
            want.iter().map(|(bin, n, f)| (*bin, *n, f[window.month])).collect();
        prop_assert_eq!(got, want);
    }

    /// Self co-occurrence has row degrees on the diagonal and is symmetric.
    #[test]
    fn self_cooccurrence_structure(t in arb_triples()) {
        let a = ops::zero_norm(&Coo::from_triples(t).into_csr());
        let c = cooccurrence(&a, &a);
        for i in 0..a.n_rows() {
            let (cols, _) = a.row_at(i);
            prop_assert_eq!(c.get(i as Index, i as Index), Some(cols.len() as u64));
        }
        for (i, j, v) in c.iter() {
            prop_assert_eq!(c.get(j, i), Some(v));
        }
    }
}

#[test]
fn cooccurrence_counts_shared_columns() {
    let a = pattern(&[(0, &[1, 2, 3]), (1, &[3, 4])]);
    let b = pattern(&[(0, &[2, 3]), (1, &[9])]);
    let c = cooccurrence(&a, &b);
    assert_eq!(c.get(0, 0), Some(2)); // {2,3}
    assert_eq!(c.get(1, 0), Some(1)); // {3}
    assert_eq!(c.get(0, 1), None); // no overlap with {9}
    assert_eq!(c.get(1, 1), None);
}

#[test]
fn cooccurrence_diagonal_is_row_degree() {
    let a = pattern(&[(0, &[1, 2, 3]), (5, &[7]), (9, &[1, 9, 17, 33])]);
    let c = cooccurrence(&a, &a);
    assert_eq!(c.get(0, 0), Some(3));
    assert_eq!(c.get(1, 1), Some(1));
    assert_eq!(c.get(2, 2), Some(4));
}

#[test]
fn cooccurrence_is_symmetric_for_self_product() {
    let a = pattern(&[(0, &[1, 2]), (1, &[2, 3]), (2, &[3, 4])]);
    let c = cooccurrence(&a, &a);
    for (i, j, v) in c.iter() {
        assert_eq!(c.get(j, i), Some(v), "asymmetry at ({i},{j})");
    }
}

#[test]
fn empty_operands() {
    let e = Csr::<u64>::empty();
    let a = pattern(&[(0, &[1])]);
    assert!(cooccurrence(&a, &e).is_empty());
    assert!(cooccurrence(&e, &a).is_empty());
}

/// Twelve sources of degree 3 and ten of degree 200: two bins.
fn small_window() -> WindowDegrees {
    let mut degrees: Vec<(u32, u64)> = (1..=12u32).map(|ip| (ip, 3u64)).collect();
    degrees.extend((101..=110u32).map(|ip| (ip, 200u64)));
    WindowDegrees { label: "w".into(), coord: 4.5, month: 4, degrees }
}

fn months(present: &[&[u32]]) -> Vec<KeySet> {
    present.iter().map(|ips| ips.iter().map(|&ip| ip_key(ip)).collect()).collect()
}

#[test]
fn month_matrix_shape() {
    let gn = months(&[&[1, 2, 3], &[], &[2]]);
    let m = month_source_matrix(&gn);
    assert_eq!(m.n_rows(), 2); // empty month not stored
    assert_eq!(m.nnz(), 4);
    assert_eq!(m.get(0, 1), Some(1));
    assert_eq!(m.get(2, 2), Some(1));
}

#[test]
fn bin_matrix_partitions_sources() {
    let w = small_window();
    let (bins, m) = bin_source_matrix(&w, 1);
    assert_eq!(bins.len(), 2);
    let total: usize = (0..m.n_rows()).map(|i| m.row_at(i).0.len()).sum();
    assert_eq!(total, w.degrees.len());
}

#[test]
fn algebraic_path_equals_keyset_path() {
    let w = small_window();
    let gn = months(&[
        &[1, 2, 101],
        &[1],
        &[],
        &[101, 102, 103, 9],
        &[1, 2, 3, 4, 101, 102],
        &[5, 105],
    ]);
    let a = temporal_curves_algebraic(&w, &gn, 1);
    let b = temporal_curves(&w, &gn, 1);
    assert_eq!(a, b);
}

#[test]
fn algebraic_path_respects_min_sources() {
    let w = small_window();
    let gn = months(&[&[1]]);
    let a = temporal_curves_algebraic(&w, &gn, 11);
    let b = temporal_curves(&w, &gn, 11);
    assert_eq!(a, b);
    assert_eq!(a.len(), 1); // only the 12-source bin survives
}

#[test]
fn empty_inputs() {
    let w = WindowDegrees { label: "e".into(), coord: 0.5, month: 0, degrees: vec![] };
    assert!(temporal_curves_algebraic(&w, &months(&[&[1]]), 1).is_empty());
    let curves = temporal_curves_algebraic(&small_window(), &[], 1);
    assert!(curves.iter().all(|c| c.fractions.is_empty()));
}

// ---------------------------------------------------------------------------
// The counting-semiring reference on scenario data.

struct Fixture {
    degrees: Vec<WindowDegrees>,
    monthly: Vec<KeySet>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let s = Scenario::paper_scaled(1 << 14, 303);
        let holder = Holder::new("t", &[3u8; 32]);
        let degrees = s.caida_windows[..2]
            .iter()
            .map(|spec| {
                let w = capture_window(&s, spec);
                let month = s.window_month(spec).expect("window on grid");
                WindowDegrees::from_matrix(&w.label, w.coord, month, &build_matrix(&w), &holder)
            })
            .collect();
        let months = observe_all_months(&s);
        let monthly = months.into_iter().map(|m| m.source_keys().clone()).collect();
        Fixture { degrees, monthly }
    })
}

#[test]
fn algebraic_curves_match_keyset_curves_on_scenario_data() {
    let f = fixture();
    for wd in &f.degrees {
        for min in [1usize, 10, 50] {
            let a = temporal_curves_algebraic(wd, &f.monthly, min);
            let b = temporal_curves(wd, &f.monthly, min);
            assert_eq!(a, b, "window {} min {min}", wd.label);
        }
    }
}

#[test]
fn month_matrix_row_sums_are_month_sizes() {
    let f = fixture();
    let m = month_source_matrix(&f.monthly);
    for (&row, (_, fanout)) in
        m.row_keys().iter().zip(reduce::source_fan_out(&m))
    {
        assert_eq!(
            fanout as usize,
            f.monthly[row as usize].len(),
            "month {row} size mismatch"
        );
    }
}

#[test]
fn month_cooccurrence_diagonal_is_month_size() {
    let f = fixture();
    let m = month_source_matrix(&f.monthly);
    let c = cooccurrence(&m, &m);
    for i in 0..m.n_rows() {
        let month = m.row_keys()[i] as usize;
        assert_eq!(
            c.get(i as u32, i as u32),
            Some(f.monthly[month].len() as u64),
            "diagonal {i}"
        );
    }
}

#[test]
fn adjacent_months_share_more_than_distant_months() {
    // The drifting beam in one product: the month×month co-occurrence
    // matrix must concentrate near its diagonal.
    let f = fixture();
    let m = month_source_matrix(&f.monthly);
    let c = cooccurrence(&m, &m);
    let get = |i: usize, j: usize| c.get(i as u32, j as u32).unwrap_or(0) as f64;
    let mut adjacent = 0.0;
    let mut distant = 0.0;
    let n = m.n_rows();
    let mut pairs: f64 = 0.0;
    for i in 0..n {
        if i + 1 < n {
            adjacent += get(i, i + 1) / get(i, i).max(1.0);
        }
        if i + 6 < n {
            distant += get(i, i + 6) / get(i, i).max(1.0);
            pairs += 1.0;
        }
    }
    let adjacent_mean = adjacent / (n - 1) as f64;
    let distant_mean = distant / pairs.max(1.0);
    assert!(
        adjacent_mean > distant_mean,
        "adjacent overlap {adjacent_mean:.3} should exceed 6-month overlap {distant_mean:.3}"
    );
}

#[test]
fn bin_matrix_row_sizes_match_bin_bit_sets() {
    let f = fixture();
    for wd in &f.degrees {
        let (bins, m) = bin_source_matrix(wd, 5);
        let bit_sets = wd.bin_bit_sets(5);
        assert_eq!(bins.len(), bit_sets.len());
        for (i, bin) in bins.iter().enumerate() {
            assert_eq!(
                m.row_at(i).0.len(),
                bit_sets[bin].len(),
                "bin {bin} size mismatch"
            );
        }
    }
}
