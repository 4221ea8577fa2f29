//! Integration: the algebraic (SpGEMM) correlation path agrees with the
//! key-set path on real scenario data, and the observation matrices obey
//! the D4M identities.

use obscor::anonymize::sharing::Holder;
use obscor::core::algebra::{
    bin_source_matrix, month_source_matrix, temporal_curves_algebraic,
};
use obscor::core::temporal::temporal_curves;
use obscor::core::WindowDegrees;
use obscor::honeyfarm::observe_all_months;
use obscor::hypersparse::spgemm::cooccurrence;
use obscor::hypersparse::reduce;
use obscor::netmodel::Scenario;
use std::sync::OnceLock;

struct Fixture {
    degrees: Vec<WindowDegrees>,
    monthly: Vec<obscor::assoc::KeySet>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let s = Scenario::paper_scaled(1 << 14, 303);
        let holder = Holder::new("t", &[3u8; 32]);
        let degrees =
            (0..2).map(|w| WindowDegrees::capture(&s, w, &holder)).collect();
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
