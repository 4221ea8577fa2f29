//! Integration: anonymization changes nothing the analysis measures.
//!
//! Table II's claim — "these formulas are unaffected by matrix
//! permutations and will work on anonymized data" — checked end to end on
//! captured telescope windows, plus the trusted-sharing guarantee that
//! cross-observatory overlap survives every workflow.

use obscor::anonymize::sharing::{raw_overlap, Holder};
use obscor::anonymize::CryptoPan;
use obscor::hypersparse::reduce::{self, NetworkQuantities};
use obscor::netmodel::Scenario;
use obscor::stats::binning::differential_cumulative;
use obscor::stats::DegreeHistogram;
use obscor::telescope::{capture_window, matrix};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::paper_scaled(1 << 14, 808))
}

#[test]
fn every_table2_quantity_survives_anonymization() {
    let s = scenario();
    let w = capture_window(s, &s.caida_windows[0]);
    let raw = matrix::build_matrix(&w);
    let cp = CryptoPan::new(&[0x11u8; 32]);
    let anon = matrix::build_matrix_with(&w, |ip| cp.anonymize(ip));
    assert_eq!(
        NetworkQuantities::compute(&raw),
        NetworkQuantities::compute(&anon)
    );
}

#[test]
fn degree_distribution_survives_anonymization() {
    let s = scenario();
    let w = capture_window(s, &s.caida_windows[1]);
    let cp = CryptoPan::new(&[0x22u8; 32]);
    let raw = matrix::build_matrix(&w);
    let anon = matrix::build_matrix_with(&w, |ip| cp.anonymize(ip));
    let hist = |m: &obscor::hypersparse::Csr<u64>| {
        DegreeHistogram::from_degrees(reduce::source_packets(m).into_iter().map(|(_, d)| d))
    };
    let (h_raw, h_anon) = (hist(&raw), hist(&anon));
    assert_eq!(h_raw, h_anon, "histograms must be identical");
    // And therefore the Fig 3 curve is identical too.
    assert_eq!(
        differential_cumulative(&h_raw).values,
        differential_cumulative(&h_anon).values
    );
}

#[test]
fn anonymized_correlation_recovers_raw_overlap() {
    let s = scenario();
    let w0 = capture_window(s, &s.caida_windows[0]);
    let w1 = capture_window(s, &s.caida_windows[1]);
    let srcs = |w: &obscor::telescope::TelescopeWindow| {
        let mut v: Vec<u32> = w.window.packets.iter().map(|p| p.src.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let (a, b) = (srcs(&w0), srcs(&w1));
    let truth = raw_overlap(&a, &b);
    assert!(truth > 0, "six-week windows must share beam sources");

    let holder_a = Holder::new("a", &[1u8; 32]);
    let holder_b = Holder::new("b", &[2u8; 32]);
    let (pub_a, pub_b) = (holder_a.publish(&a), holder_b.publish(&b));

    // Naive anonymized intersection is (essentially) empty.
    assert!(
        raw_overlap(&pub_a, &pub_b) * 100 < truth,
        "different schemes must not correlate"
    );

    // Workflow 2: common scheme.
    let common = CryptoPan::new(&[3u8; 32]);
    let ca = holder_a.reanonymize_subset(&pub_a, &common, pub_a.len()).unwrap();
    let cb = holder_b.reanonymize_subset(&pub_b, &common, pub_b.len()).unwrap();
    assert_eq!(raw_overlap(&ca, &cb), truth);

    // Workflow 3: transformation tables.
    let ta = holder_a.transformation_table(&pub_a, &common);
    let tb = holder_b.transformation_table(&pub_b, &common);
    assert_eq!(
        raw_overlap(&ta.translate_all(&pub_a), &tb.translate_all(&pub_b)),
        truth
    );
}

#[test]
fn prefix_structure_survives_anonymization() {
    // CryptoPAN's defining property on real traffic: sources from the
    // same /16 stay together under anonymization.
    let s = scenario();
    let w = capture_window(s, &s.caida_windows[0]);
    let cp = CryptoPan::new(&[0x33u8; 32]);
    let mut srcs: Vec<u32> = w.window.packets.iter().map(|p| p.src.0).collect();
    srcs.sort_unstable();
    srcs.dedup();
    for pair in srcs.windows(2).take(500) {
        let common_raw = (pair[0] ^ pair[1]).leading_zeros();
        let common_anon = (cp.anonymize(pair[0]) ^ cp.anonymize(pair[1])).leading_zeros();
        assert_eq!(common_raw, common_anon, "prefix length changed for {pair:?}");
    }
}
