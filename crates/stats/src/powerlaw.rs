//! Discrete power-law tail estimation (Clauset–Shalizi–Newman).
//!
//! The paper's grid fit treats the whole Zipf–Mandelbrot body; the CSN
//! method estimates the *tail* exponent by maximum likelihood above a
//! cutoff `d_min` chosen to minimize the Kolmogorov–Smirnov distance —
//! the standard of the paper's own ref 48. Having both estimators lets
//! experiments cross-check the Fig 3 exponents.

use std::collections::BTreeMap;

/// A fitted discrete power-law tail `p(d) ∝ d^{-α}` for `d ≥ d_min`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLawFit {
    /// Tail exponent.
    pub alpha: f64,
    /// Tail cutoff.
    pub d_min: u64,
    /// Number of observations in the tail.
    pub n_tail: usize,
    /// KS distance between the empirical tail and the fitted model.
    pub ks: f64,
}

/// MLE of the tail exponent above a fixed `d_min` (CSN eq. 3.7, the
/// continuous approximation `α ≈ 1 + n / Σ ln(d_i / (d_min − 1/2))`,
/// accurate for `d_min ≳ 6` and serviceable above 2).
///
/// Returns `None` if fewer than 2 observations lie in the tail.
pub fn mle_alpha(degrees: &[u64], d_min: u64) -> Option<f64> {
    assert!(d_min >= 1, "cutoff must be positive");
    let tail: Vec<u64> = degrees.iter().copied().filter(|&d| d >= d_min).collect();
    if tail.len() < 2 {
        return None;
    }
    let shift = d_min as f64 - 0.5;
    let log_sum: f64 = tail.iter().map(|&d| (d as f64 / shift).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / log_sum)
}

/// KS distance between the empirical tail distribution (of `degrees ≥
/// d_min`) and the fitted power law with exponent `alpha`.
pub fn ks_distance(degrees: &[u64], d_min: u64, alpha: f64) -> f64 {
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for &d in degrees.iter().filter(|&&d| d >= d_min) {
        *counts.entry(d).or_insert(0) += 1;
    }
    let n: usize = counts.values().sum();
    if n == 0 {
        return 1.0;
    }
    // Model tail normalization via the (generalized) zeta over d >= d_min,
    // truncated once terms are negligible.
    let d_max = *counts.keys().next_back().unwrap();
    let horizon = (d_max * 4).max(d_min + 1000);
    let zeta: f64 = (d_min..=horizon).map(|d| (d as f64).powf(-alpha)).sum();
    let mut model_cdf = 0.0;
    let mut empirical_cdf = 0.0;
    let mut worst: f64 = 0.0;
    let mut next_model_d = d_min;
    for (&d, &c) in &counts {
        // advance model cdf through every degree up to d.
        while next_model_d <= d {
            model_cdf += (next_model_d as f64).powf(-alpha) / zeta;
            next_model_d += 1;
        }
        empirical_cdf += c as f64 / n as f64;
        worst = worst.max((model_cdf - empirical_cdf).abs());
    }
    worst
}

/// Full CSN fit: scan candidate cutoffs, fit α by MLE at each, keep the
/// cutoff with the smallest KS distance. Candidates are the distinct
/// observed degrees up to the point where fewer than `min_tail`
/// observations remain.
///
/// The scan is screen-then-verify (DESIGN.md §18): each candidate's KS
/// distance is first estimated from the degree histogram at a cost of
/// O(distinct tail values) powers, the estimates discard every cutoff
/// that cannot hold the minimum, and only the survivors run the exact
/// [`mle_alpha`] + [`ks_distance`], in scan order. The result is the
/// full scan's to the bit.
pub fn fit_power_law(degrees: &[u64], min_tail: usize) -> Option<PowerLawFit> {
    let (candidates, margin) = Histogram::new(degrees).screen(min_tail);
    let estimates: Vec<f64> = candidates.iter().map(|c| c.estimate).collect();
    let mut best: Option<PowerLawFit> = None;
    for i in survivors(&estimates, margin)? {
        let Candidate { d_min, n_tail, .. } = candidates[i];
        let Some(alpha) = mle_alpha(degrees, d_min) else { continue };
        let ks = ks_distance(degrees, d_min, alpha);
        if best.map(|b| ks < b.ks).unwrap_or(true) {
            best = Some(PowerLawFit { alpha, d_min, n_tail, ks });
        }
    }
    best
}

/// Which candidates can hold the smallest KS distance, given estimates
/// that each lie within `margin` of it: those whose estimate minus
/// `margin` is at most the smallest estimate plus `margin`, in input
/// order. A non-finite estimate bounds nothing, so it always survives.
/// `None` when there are no candidates.
fn survivors(estimates: &[f64], margin: f64) -> Option<Vec<usize>> {
    if estimates.is_empty() {
        return None;
    }
    let cut = estimates
        .iter()
        .filter(|e| e.is_finite())
        .fold(f64::INFINITY, |cut, &e| cut.min(e + margin));
    let survives = |e: f64| !e.is_finite() || e - margin <= cut;
    Some((0..estimates.len()).filter(|&i| survives(estimates[i])).collect())
}

/// One cutoff of the scan with its screening estimate.
#[derive(Clone, Copy)]
struct Candidate {
    d_min: u64,
    n_tail: usize,
    /// The KS distance estimated from the histogram (NaN when the
    /// estimate cannot be trusted).
    estimate: f64,
}

/// The degrees as a sorted `(degree, count)` histogram with suffix
/// counts: `above[j]` observations are `≥ values[j]`.
struct Histogram {
    values: Vec<u64>,
    counts: Vec<usize>,
    /// One longer than `values`; the last entry is 0.
    above: Vec<usize>,
}

/// Relative Euler–Maclaurin remainder allowed per summed run.
const EM_TOLERANCE: f64 = 1e-13;
/// Runs shorter than this are summed term by term.
const DIRECT_RUN: u64 = 4;
/// An estimate is not trusted once `d_min^{-α}` falls below `e^{-600}`,
/// where the exact path's powers approach the subnormal range.
const UNDERFLOW_GUARD: f64 = 600.0;

impl Histogram {
    fn new(degrees: &[u64]) -> Self {
        let mut sorted = degrees.to_vec();
        sorted.sort_unstable();
        let runs = sorted.chunk_by(|a, b| a == b);
        let (values, counts): (Vec<u64>, Vec<usize>) = runs.map(|r| (r[0], r.len())).unzip();
        let mut above = vec![0; values.len() + 1];
        for j in (0..values.len()).rev() {
            above[j] = above[j + 1] + counts[j];
        }
        Histogram { values, counts, above }
    }

    /// Every candidate of the scan with its estimate, and a margin that
    /// bounds every finite estimate's distance from the exact KS value.
    fn screen(&self, min_tail: usize) -> (Vec<Candidate>, f64) {
        let mut candidates = Vec::new();
        let mut margin: f64 = 0.0;
        let mut partial = Vec::with_capacity(self.values.len());
        for (j, &d_min) in self.values.iter().enumerate() {
            let n_tail = self.above[j];
            if n_tail < min_tail {
                break;
            }
            let Some(alpha) = self.mle_alpha(j) else { continue };
            let (estimate, bound) = self.ks_estimate(j, alpha, &mut partial);
            margin = margin.max(bound);
            candidates.push(Candidate { d_min, n_tail, estimate });
        }
        (candidates, margin)
    }

    /// [`mle_alpha`] at cutoff `values[j]`, with the log sum taken per
    /// distinct value: the same terms, so the same `None` cases, but a
    /// different summation order.
    fn mle_alpha(&self, j: usize) -> Option<f64> {
        let d_min = self.values[j];
        assert!(d_min >= 1, "cutoff must be positive");
        let n_tail = self.above[j];
        if n_tail < 2 {
            return None;
        }
        let shift = d_min as f64 - 0.5;
        let tail = self.values[j..].iter().zip(&self.counts[j..]);
        let log_sum: f64 = tail.map(|(&d, &c)| c as f64 * (d as f64 / shift).ln()).sum();
        if log_sum <= 0.0 {
            return None;
        }
        Some(1.0 + n_tail as f64 / log_sum)
    }

    /// [`ks_distance`] at cutoff `values[j]` estimated from the histogram:
    /// the model CDF at each distinct tail value comes from partial sums
    /// of `d^{-α}` between consecutive values. Returns the estimate and a
    /// bound on its distance from the exact value (DESIGN.md §18).
    fn ks_estimate(&self, j: usize, alpha: f64, partial: &mut Vec<f64>) -> (f64, f64) {
        let values = &self.values[j..];
        let (d_min, d_max) = (values[0], values[values.len() - 1]);
        if alpha * (d_min as f64).ln() > UNDERFLOW_GUARD {
            return (f64::NAN, 0.0);
        }
        let horizon = (d_max * 4).max(d_min + 1000);
        let power = PowerSum::new(alpha);
        partial.clear();
        let mut below = 0.0;
        let mut next = d_min;
        for &d in values {
            below += power.sum(next, d);
            partial.push(below);
            next = d + 1;
        }
        let zeta = below + power.sum(next, horizon);
        let n = self.above[j];
        let ks = partial
            .iter()
            .zip(&self.above[j + 1..])
            .map(|(&p, &rest)| (p / zeta - (n - rest) as f64 / n as f64).abs())
            .fold(0.0, f64::max);
        // The bound (DESIGN.md §18), doubled for second-order terms: the
        // rounding of the sequential sums on both paths, the histogram α's
        // distance from `mle_alpha`'s times the CDF's sensitivity to α,
        // and the Euler–Maclaurin remainder.
        let k = values.len() as u64;
        let sums = 2 * (horizon - d_min + 2) + power.em_from + 8 * (k + 4);
        let alpha_gap = alpha * (horizon as f64 / d_min as f64).ln() * (n as u64 + k + 5) as f64;
        let bound = 2.0 * ((sums as f64 + alpha_gap) * f64::EPSILON + 2.0 * EM_TOLERANCE);
        (ks, bound)
    }
}

/// Partial sums `Σ_{x=a}^{b} x^{-α}` for one α: terms below `em_from`
/// and short runs directly, longer runs by Euler–Maclaurin through the
/// `B_6` term.
struct PowerSum {
    alpha: f64,
    /// The first integer from which a run's Euler–Maclaurin remainder is
    /// at most `EM_TOLERANCE` of its first term.
    em_from: u64,
    /// `B_2/2!·α`, `B_4/4!·(α)_3` and `B_6/6!·(α)_5`, with `(α)_k` the
    /// rising factorial.
    corrections: [f64; 3],
}

impl PowerSum {
    fn new(alpha: f64) -> Self {
        let rising = |k: u32| (0..k).map(|i| alpha + f64::from(i)).product::<f64>();
        // |R| ≤ 2|B_8|/8!·(α)_7·a^{-α-7} over a run starting at a.
        let em_from = (rising(7) / 604_800.0 / EM_TOLERANCE).powf(1.0 / 7.0).ceil() as u64 + 1;
        let corrections = [rising(1) / 12.0, -rising(3) / 720.0, rising(5) / 30_240.0];
        PowerSum { alpha, em_from, corrections }
    }

    fn sum(&self, a: u64, b: u64) -> f64 {
        let mut total = 0.0;
        let mut x = a;
        while x <= b && (x < self.em_from || b - x < DIRECT_RUN) {
            total += (x as f64).powf(-self.alpha);
            x += 1;
        }
        if x <= b {
            total += self.euler_maclaurin(x, b);
        }
        total
    }

    /// `∫_a^b f + (f(a) + f(b))/2 + Σ_k B_{2k}/(2k)!·(f^{(2k-1)}(b) − f^{(2k-1)}(a))`
    /// for `f(x) = x^{-α}`. The integral goes through `exp_m1`, so α near 1
    /// keeps its digits.
    fn euler_maclaurin(&self, a: u64, b: u64) -> f64 {
        let (af, bf) = (a as f64, b as f64);
        let (fa, fb) = (af.powf(-self.alpha), bf.powf(-self.alpha));
        let log_ratio = ((b - a) as f64 / af).ln_1p();
        let one_minus = 1.0 - self.alpha;
        let integral = af * fa * (one_minus * log_ratio).exp_m1() / one_minus;
        // f^{(2k-1)}(x) = −(α)_{2k-1}·f(x)/x^{2k-1}.
        let (mut ga, mut gb) = (fa / af, fb / bf);
        let (ia2, ib2) = (1.0 / (af * af), 1.0 / (bf * bf));
        let mut corrections = 0.0;
        for c in self.corrections {
            corrections += c * (ga - gb);
            ga *= ia2;
            gb *= ib2;
        }
        integral + 0.5 * (fa + fb) + corrections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfMandelbrot;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn power_law_sample(alpha: f64, n: usize, seed: u64) -> Vec<u64> {
        // ZM with delta = 0 is a pure (truncated) power law.
        let zm = ZipfMandelbrot::new(alpha, 0.0, 1 << 16);
        let mut rng = StdRng::seed_from_u64(seed);
        zm.sample_n(&mut rng, n)
    }

    #[test]
    fn mle_recovers_planted_exponent() {
        let degrees = power_law_sample(2.2, 100_000, 1);
        let alpha = mle_alpha(&degrees, 5).unwrap();
        assert!((alpha - 2.2).abs() < 0.1, "recovered {alpha}");
    }

    #[test]
    fn mle_needs_a_tail() {
        assert!(mle_alpha(&[1, 1, 1], 5).is_none());
        assert!(mle_alpha(&[], 1).is_none());
        assert!(mle_alpha(&[10], 5).is_none());
    }

    #[test]
    fn ks_prefers_the_true_exponent() {
        let degrees = power_law_sample(2.0, 50_000, 2);
        let at_truth = ks_distance(&degrees, 4, 2.0);
        let too_steep = ks_distance(&degrees, 4, 3.0);
        let too_flat = ks_distance(&degrees, 4, 1.3);
        assert!(at_truth < too_steep, "{at_truth} vs steep {too_steep}");
        assert!(at_truth < too_flat, "{at_truth} vs flat {too_flat}");
    }

    #[test]
    fn full_fit_recovers_exponent_and_small_cutoff() {
        let degrees = power_law_sample(1.8, 80_000, 3);
        let fit = fit_power_law(&degrees, 100).unwrap();
        assert!((fit.alpha - 1.8).abs() < 0.15, "alpha {}", fit.alpha);
        assert!(fit.d_min <= 16, "pure sample should not need a big cutoff: {}", fit.d_min);
        assert!(fit.n_tail >= 100);
        assert!(fit.ks < 0.05, "KS {}", fit.ks);
    }

    #[test]
    fn cutoff_skips_a_corrupted_head() {
        // Flatten the head: replace the dim half with uniform junk; the
        // scan must move d_min past it.
        let mut degrees = power_law_sample(2.0, 40_000, 4);
        for (i, d) in degrees.iter_mut().enumerate() {
            if *d <= 3 {
                *d = 1 + (i as u64 % 8); // uniform 1..=8 noise
            }
        }
        let fit = fit_power_law(&degrees, 200).unwrap();
        assert!(fit.d_min > 3, "cutoff {} should skip the corrupted head", fit.d_min);
        assert!((fit.alpha - 2.0).abs() < 0.35, "alpha {}", fit.alpha);
    }

    #[test]
    fn ks_on_empty_tail_is_one() {
        assert_eq!(ks_distance(&[1, 2, 3], 100, 2.0), 1.0);
    }

    #[test]
    fn survivors_keep_every_candidate_that_can_hold_the_minimum() {
        assert_eq!(survivors(&[], 0.1), None);
        assert_eq!(survivors(&[0.5, 0.5], 0.0), Some(vec![0, 1]));
        assert_eq!(survivors(&[0.3, 0.1, 0.5, 0.12], 0.01), Some(vec![1, 3]));
        assert_eq!(survivors(&[0.3, 0.1, 0.5, 0.13], 0.01), Some(vec![1]));
        assert_eq!(survivors(&[0.3, f64::NAN, 0.1, f64::INFINITY], 0.01), Some(vec![1, 2, 3]));
        assert_eq!(survivors(&[f64::NAN, f64::NAN], 0.0), Some(vec![0, 1]));
    }

    /// The inputs of the screen's differential tests: sampled tails, a
    /// constant input, a heavy head at 1, a sparse tail with a gap, and a
    /// steep narrow tail.
    fn screen_inputs() -> Vec<Vec<u64>> {
        let mut inputs: Vec<Vec<u64>> = [(1.05, 0.0), (1.6, 2.0), (2.4, 0.0), (3.5, 2.0)]
            .iter()
            .enumerate()
            .map(|(i, &(alpha, delta))| {
                let mut rng = StdRng::seed_from_u64(20 + i as u64);
                ZipfMandelbrot::new(alpha, delta, 10_000).sample_n(&mut rng, 1500)
            })
            .collect();
        inputs.push(vec![7; 100]);
        let mut head = power_law_sample(2.2, 300, 5);
        head.extend(std::iter::repeat_n(1, 4000));
        inputs.push(head);
        let mut sparse: Vec<u64> =
            (1..=40u64).flat_map(|d| std::iter::repeat_n(d, 41 - d as usize)).collect();
        sparse.extend([2_500, 2_600, 7_000, 9_000, 9_001, 10_000]);
        inputs.push(sparse);
        // A narrow tail just above 1000: its steepest cutoffs sit beyond
        // the underflow guard, the ones before it just inside.
        let mut rng = StdRng::seed_from_u64(11);
        inputs.push((0..150).map(|_| 1000 + rng.random_range(0..=24u64)).collect());
        inputs
    }

    #[test]
    fn every_estimate_lies_well_inside_the_margin() {
        for degrees in screen_inputs() {
            let (candidates, margin) = Histogram::new(&degrees).screen(2);
            assert!(margin > 0.0 && margin < 1e-8, "margin {margin}");
            // Cutoffs past the underflow guard carry no estimate.
            let trusted: Vec<Candidate> =
                candidates.iter().copied().filter(|c| c.estimate.is_finite()).collect();
            assert!(!trusted.is_empty());
            for c in trusted {
                let alpha = mle_alpha(&degrees, c.d_min).expect("candidates have a tail");
                let exact = ks_distance(&degrees, c.d_min, alpha);
                assert!(
                    (c.estimate - exact).abs() <= margin / 4.0,
                    "d_min {}: estimate {} vs exact {exact}, margin {margin}",
                    c.d_min,
                    c.estimate
                );
            }
        }
    }

    #[test]
    fn histogram_alpha_matches_mle_alpha_up_to_summation_order() {
        for degrees in screen_inputs() {
            let h = Histogram::new(&degrees);
            for (j, &d_min) in h.values.iter().enumerate() {
                match (h.mle_alpha(j), mle_alpha(&degrees, d_min)) {
                    (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-12 * b, "{a} vs {b}"),
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn power_sums_match_direct_sums() {
        let direct =
            |alpha: f64, a: u64, b: u64| (a..=b).map(|x| (x as f64).powf(-alpha)).sum::<f64>();
        for alpha in [1.0 + 1e-9, 1.05, 1.5, 2.0, 3.5, 12.0] {
            let power = PowerSum::new(alpha);
            let runs = [(1, 1), (1, 40), (3, 100_000), (90, 95), (200, 20_000), (5_000, 400_000)];
            for (a, b) in runs {
                let (got, want) = (power.sum(a, b), direct(alpha, a, b));
                let close = (got - want).abs() <= 1e-12 * want;
                assert!(close, "α {alpha} [{a}, {b}]: {got} vs {want}");
            }
        }
    }
}
