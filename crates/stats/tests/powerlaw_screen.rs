//! The screened CSN scan is bit-identical to the full scan.
//!
//! The oracle below is the scan `fit_power_law` replaced: for every
//! distinct degree in ascending order, stop once fewer than `min_tail`
//! observations remain, skip cutoffs where `mle_alpha` has no tail, run
//! `ks_distance` on the rest, and keep the first strictly smaller KS
//! distance. α, the cutoff, the tail size and the KS distance must agree
//! to the bit.

use obscor_stats::powerlaw::{fit_power_law, ks_distance, mle_alpha, PowerLawFit};
use obscor_stats::zipf::ZipfMandelbrot;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Every candidate cutoff through the exact `mle_alpha` + `ks_distance`.
fn oracle(degrees: &[u64], min_tail: usize) -> Option<PowerLawFit> {
    let mut distinct: Vec<u64> = degrees.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut best: Option<PowerLawFit> = None;
    for &d_min in &distinct {
        let n_tail = degrees.iter().filter(|&&d| d >= d_min).count();
        if n_tail < min_tail {
            break;
        }
        let Some(alpha) = mle_alpha(degrees, d_min) else { continue };
        let ks = ks_distance(degrees, d_min, alpha);
        if best.map(|b| ks < b.ks).unwrap_or(true) {
            best = Some(PowerLawFit { alpha, d_min, n_tail, ks });
        }
    }
    best
}

fn bits(fit: Option<PowerLawFit>) -> Option<(u64, u64, usize, u64)> {
    fit.map(|f| (f.alpha.to_bits(), f.d_min, f.n_tail, f.ks.to_bits()))
}

/// `fit_power_law` against the oracle at every `min_tail` the property
/// draws from.
fn assert_matches_oracle(degrees: &[u64]) {
    let n = degrees.len();
    for min_tail in [0, 1, 2, 50, n, n + 1] {
        assert_eq!(
            bits(fit_power_law(degrees, min_tail)),
            bits(oracle(degrees, min_tail)),
            "min_tail {min_tail}, {n} degrees"
        );
    }
}

/// The oracle's work: each candidate sums about `4·d_max` powers. Halve a
/// sample until that stays small enough for a debug build.
fn within_oracle_budget(mut degrees: Vec<u64>) -> Vec<u64> {
    let cost = |d: &[u64]| {
        let mut distinct = d.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let d_max = distinct.last().copied().unwrap_or(0);
        distinct.len() as u64 * (4 * d_max).max(1000)
    };
    while cost(&degrees) > 2_000_000 {
        degrees.truncate(degrees.len() / 2);
    }
    degrees
}

proptest! {
    /// Zipf–Mandelbrot samples, α in [1.05, 3.5], δ ∈ {0, 2}, up to a few
    /// thousand degrees on supports up to 10^4: the screened fit equals
    /// the full scan at every `min_tail`.
    #[test]
    fn screened_fit_matches_full_scan(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = rng.random_range(1.05f64..3.5);
        let delta = if rng.random_range(0u32..2) == 0 { 0.0 } else { 2.0 };
        let support = 10u64.pow(rng.random_range(1u32..5));
        let n = rng.random_range(1usize..3000);
        let degrees = ZipfMandelbrot::new(alpha, delta, support).sample_n(&mut rng, n);
        let degrees = within_oracle_budget(degrees);
        let n = degrees.len();
        for min_tail in [0, 1, 2, 50, n, n + 1] {
            prop_assert_eq!(
                bits(fit_power_law(&degrees, min_tail)),
                bits(oracle(&degrees, min_tail))
            );
        }
    }
}

#[test]
fn empty_input_has_no_fit() {
    assert_eq!(fit_power_law(&[], 0), None);
    assert_matches_oracle(&[]);
}

#[test]
fn a_single_value_has_no_fit() {
    assert_eq!(fit_power_law(&[7], 0), None);
    assert_matches_oracle(&[7]);
}

#[test]
fn all_values_equal() {
    // Small cutoffs keep a finite estimate; at 5000 the fitted α is near
    // 10^4, its powers underflow, and the cutoff must survive the screen.
    for (value, n) in [(1, 40), (7, 100), (5000, 60)] {
        let degrees = vec![value; n];
        assert!(fit_power_law(&degrees, 2).is_some());
        assert_matches_oracle(&degrees);
    }
}

#[test]
fn heavy_head_at_one() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut degrees = ZipfMandelbrot::new(2.2, 0.0, 2000).sample_n(&mut rng, 300);
    degrees.extend(std::iter::repeat_n(1, 4000));
    assert_matches_oracle(&degrees);
}

#[test]
fn sparse_tail_with_a_wide_gap() {
    let mut degrees: Vec<u64> =
        (1..=40).flat_map(|d| std::iter::repeat_n(d, 41 - d as usize)).collect();
    degrees.extend([2_500, 2_600, 7_000, 9_000, 9_001, 10_000]);
    assert_matches_oracle(&degrees);
}

#[test]
fn steep_narrow_tail_past_the_underflow_guard() {
    let mut rng = StdRng::seed_from_u64(11);
    let degrees: Vec<u64> = (0..150).map(|_| 1000 + rng.random_range(0..=24u64)).collect();
    assert_matches_oracle(&degrees);
}
