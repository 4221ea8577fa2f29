//! The table-driven temporal fits are bit-identical to scoring every grid
//! point on its own.
//!
//! The oracles below are the allocating bodies the fits replaced: for
//! every grid point, collect `peak * model.eval(lag)` into a `Vec`, score
//! it with the `| |^{1/2}` norm, and keep the first point with the
//! strictly smallest residual. Every field must agree to the bit, in
//! debug and in release builds.

use obscor_stats::fit::{
    default_mc_alpha_grid, default_mc_beta_grid, default_width_grid, fit_cauchy, fit_gaussian,
    fit_modified_cauchy_grid, refine_modified_cauchy, ModCauchyFit, SingleParamFit,
    TemporalModel,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn peak_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The `| |^{1/2}` norm of `predicted − values` on the collected
/// `predicted[i] = peak * model.eval(lag_i)`: each `|x − y|.sqrt()`
/// summed in lag order, then squared as `s * s`, as the library writes
/// it. `powf(0.5)` and `powf(2.0)` would compile to the same `sqrt` and
/// multiply only in optimized builds; a debug build calls `pow`, an ULP
/// away in about 0.1 % of calls.
fn oracle_residual(lags: &[f64], values: &[f64], peak: f64, model: TemporalModel) -> f64 {
    let predicted: Vec<f64> = lags.iter().map(|&t| peak * model.eval(t)).collect();
    let s: f64 = predicted.iter().zip(values).map(|(x, y)| (x - y).abs().sqrt()).sum();
    s * s
}

/// `fit_modified_cauchy_grid` as it was: one `Vec` per grid point.
fn oracle_grid(
    lags: &[f64],
    values: &[f64],
    alphas: &[f64],
    betas: &[f64],
) -> Option<ModCauchyFit> {
    assert_eq!(lags.len(), values.len());
    if lags.is_empty() {
        return None;
    }
    let peak = peak_of(values);
    if peak <= 0.0 || peak.is_nan() {
        return None;
    }
    let mut best: Option<ModCauchyFit> = None;
    for &alpha in alphas {
        for &beta in betas {
            let model = TemporalModel::ModifiedCauchy { alpha, beta };
            let residual = oracle_residual(lags, values, peak, model);
            if best.map(|b| residual < b.residual).unwrap_or(true) {
                best = Some(ModCauchyFit { alpha, beta, peak, residual });
            }
        }
    }
    best
}

/// The one-parameter scan (Gaussian σ or Cauchy γ) as it was.
fn oracle_single(
    lags: &[f64],
    values: &[f64],
    params: &[f64],
    make: impl Fn(f64) -> TemporalModel,
) -> Option<SingleParamFit> {
    assert_eq!(lags.len(), values.len());
    if lags.is_empty() {
        return None;
    }
    let peak = peak_of(values);
    if peak <= 0.0 || peak.is_nan() {
        return None;
    }
    let mut best: Option<SingleParamFit> = None;
    for &p in params {
        let residual = oracle_residual(lags, values, peak, make(p));
        if best.map(|b| residual < b.residual).unwrap_or(true) {
            best = Some(SingleParamFit { param: p, peak, residual });
        }
    }
    best
}

/// `refine_modified_cauchy` as it was.
fn oracle_refine(lags: &[f64], values: &[f64], start: ModCauchyFit) -> ModCauchyFit {
    let eval = |alpha: f64, beta: f64| {
        oracle_residual(lags, values, start.peak, TemporalModel::ModifiedCauchy { alpha, beta })
    };
    let mut best = start;
    let (mut alpha_step, mut beta_step) = (1.3f64, 1.5f64);
    for _ in 0..6 {
        for k in -4i32..=4 {
            let beta = best.beta * beta_step.powi(k).max(1e-6);
            let residual = eval(best.alpha, beta);
            if residual < best.residual {
                best = ModCauchyFit { beta, residual, ..best };
            }
        }
        for k in -4i32..=4 {
            let alpha = (best.alpha * alpha_step.powi(k)).max(1e-3);
            let residual = eval(alpha, best.beta);
            if residual < best.residual {
                best = ModCauchyFit { alpha, residual, ..best };
            }
        }
        alpha_step = alpha_step.sqrt();
        beta_step = beta_step.sqrt();
    }
    best
}

fn gaussian(sigma: f64) -> TemporalModel {
    TemporalModel::Gaussian { sigma }
}

fn cauchy(gamma: f64) -> TemporalModel {
    TemporalModel::Cauchy { gamma }
}

fn mc_bits(fit: Option<ModCauchyFit>) -> Option<[u64; 4]> {
    fit.map(|f| [f.alpha.to_bits(), f.beta.to_bits(), f.peak.to_bits(), f.residual.to_bits()])
}

fn single_bits(fit: Option<SingleParamFit>) -> Option<[u64; 3]> {
    fit.map(|f| [f.param.to_bits(), f.peak.to_bits(), f.residual.to_bits()])
}

/// Random month lags: symmetric integers around 0, an asymmetric
/// half-month-offset span (the pipeline's `month + 0.5 − coord`), or
/// arbitrary reals that may or may not contain 0.
fn random_lags(rng: &mut StdRng) -> Vec<f64> {
    match rng.random_range(0u32..3) {
        0 => {
            let k = rng.random_range(0i32..8);
            (-k..=k).map(f64::from).collect()
        }
        1 => {
            let coord = f64::from(rng.random_range(0i32..15)) + rng.random_range(0.0f64..1.0);
            (0..rng.random_range(1i32..16)).map(|m| f64::from(m) + 0.5 - coord).collect()
        }
        _ => {
            let mut lags: Vec<f64> =
                (0..rng.random_range(1usize..16)).map(|_| rng.random_range(-9.0f64..9.0)).collect();
            if rng.random_range(0u32..2) == 0 {
                lags.push(0.0);
            }
            lags
        }
    }
}

/// Random curve values: all zero (no fit), uniform noise with some exact
/// zeros, or a planted modified Cauchy under a random peak.
fn random_values(rng: &mut StdRng, lags: &[f64]) -> Vec<f64> {
    match rng.random_range(0u32..6) {
        0 => vec![0.0; lags.len()],
        1 | 2 => {
            let mut value = || match rng.random_range(0u32..4) {
                0 => 0.0,
                _ => rng.random_range(0.0f64..1.0),
            };
            lags.iter().map(|_| value()).collect()
        }
        _ => {
            let alpha = rng.random_range(0.2f64..3.0);
            let beta = rng.random_range(0.05f64..50.0);
            let peak = rng.random_range(0.01f64..1.0);
            let truth = TemporalModel::ModifiedCauchy { alpha, beta };
            lags.iter().map(|&t| peak * truth.eval(t)).collect()
        }
    }
}

/// `n` points drawn with replacement from `from`, so sub-grids can repeat
/// a point (a repeat ties with itself and must not replace the first).
fn pick(rng: &mut StdRng, from: &[f64], n: usize) -> Vec<f64> {
    (0..n).map(|_| from[rng.random_range(0..from.len())]).collect()
}

proptest! {
    /// Random curves against random sub-grids of the default grids (some
    /// empty, some with duplicated points): the modified-Cauchy grid fit,
    /// its refinement, and the Gaussian and Cauchy scans all match their
    /// oracles to the bit.
    #[test]
    fn fits_match_allocating_oracles(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lags = random_lags(&mut rng);
        let values = random_values(&mut rng, &lags);
        let n_alpha = rng.random_range(0usize..12);
        let n_beta = rng.random_range(0usize..12);
        let alphas = pick(&mut rng, &default_mc_alpha_grid(), n_alpha);
        let betas = pick(&mut rng, &default_mc_beta_grid(), n_beta);

        let grid = fit_modified_cauchy_grid(&lags, &values, &alphas, &betas);
        prop_assert_eq!(mc_bits(grid), mc_bits(oracle_grid(&lags, &values, &alphas, &betas)));
        let fits = peak_of(&values) > 0.0 && n_alpha > 0 && n_beta > 0;
        prop_assert_eq!(grid.is_some(), fits);
        if let Some(start) = grid {
            let refined = refine_modified_cauchy(&lags, &values, start);
            let oracle = oracle_refine(&lags, &values, start);
            prop_assert_eq!(mc_bits(Some(refined)), mc_bits(Some(oracle)));
        }

        let widths = default_width_grid();
        prop_assert_eq!(
            single_bits(fit_gaussian(&lags, &values)),
            single_bits(oracle_single(&lags, &values, &widths, gaussian))
        );
        prop_assert_eq!(
            single_bits(fit_cauchy(&lags, &values)),
            single_bits(oracle_single(&lags, &values, &widths, cauchy))
        );
    }
}

/// The pipeline's shape: 15 half-month-offset lags of a noisy curve
/// against the full 80 × 60 default grid.
#[test]
fn default_grid_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(42);
    let (alphas, betas) = (default_mc_alpha_grid(), default_mc_beta_grid());
    for coord in [0.5, 4.5, 7.25, 14.5] {
        let lags: Vec<f64> = (0..15).map(|m| f64::from(m) + 0.5 - coord).collect();
        let truth = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 2.0 };
        let values: Vec<f64> =
            lags.iter().map(|&t| 0.6 * truth.eval(t) + rng.random_range(0.0f64..0.05)).collect();
        let fit = fit_modified_cauchy_grid(&lags, &values, &alphas, &betas);
        assert!(fit.is_some());
        assert_eq!(mc_bits(fit), mc_bits(oracle_grid(&lags, &values, &alphas, &betas)));
    }
}

/// With every lag 0, every model predicts the peak everywhere, so every
/// grid point scores the same residual: the first point must win.
#[test]
fn all_zero_lags_tie_and_the_first_point_wins() {
    let lags = [0.0; 5];
    let values = [0.9, 0.3, 0.5, 0.0, 0.7];
    let (alphas, betas) = ([2.5, 0.5, 2.5, 1.0], [4.0, 0.02, 4.0]);
    let fit = fit_modified_cauchy_grid(&lags, &values, &alphas, &betas).expect("positive peak");
    assert_eq!((fit.alpha, fit.beta, fit.peak), (2.5, 4.0, 0.9));
    assert_eq!(mc_bits(Some(fit)), mc_bits(oracle_grid(&lags, &values, &alphas, &betas)));
    let widths = default_width_grid();
    for (fit, oracle) in [
        (fit_gaussian(&lags, &values), oracle_single(&lags, &values, &widths, gaussian)),
        (fit_cauchy(&lags, &values), oracle_single(&lags, &values, &widths, cauchy)),
    ] {
        assert_eq!(fit.map(|f| f.param), Some(widths[0]));
        assert_eq!(single_bits(fit), single_bits(oracle));
    }
}

#[test]
fn empty_and_all_zero_curves_give_none() {
    let grids = (default_mc_alpha_grid(), default_mc_beta_grid());
    assert!(fit_modified_cauchy_grid(&[], &[], &grids.0, &grids.1).is_none());
    assert!(fit_modified_cauchy_grid(&[1.0, 2.0], &[0.0, 0.0], &grids.0, &grids.1).is_none());
    assert!(fit_modified_cauchy_grid(&[1.0], &[0.5], &[], &grids.1).is_none());
    assert!(fit_gaussian(&[-1.0, 1.0], &[0.0, 0.0]).is_none());
    assert!(fit_cauchy(&[], &[]).is_none());
}
