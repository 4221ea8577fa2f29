//! Temporal correlation models and their grid fits.
//!
//! Fig 5 of the paper compares three shapes for the decay of
//! cross-observatory source overlap with month lag `τ = t − t0`:
//!
//! * Gaussian: `exp(−τ² / 2σ²)`,
//! * Cauchy:   `γ² / (γ² + τ²)`,
//! * modified Cauchy: `β / (β + |τ|^α)` — the paper's contribution, which
//!   reduces to the Cauchy at `α = 2, β = γ²`.
//!
//! All models are normalized to 1 at `τ = 0`; fits follow the paper's
//! procedure exactly: "generating all distributions over a range of
//! possible α and β values, normalizing to the peak in the data, and then
//! selecting the α and β that minimize the `| |^{1/2}` norm".

/// A unit-peak temporal correlation model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TemporalModel {
    /// `exp(−τ²/2σ²)`.
    Gaussian {
        /// Standard deviation in months.
        sigma: f64,
    },
    /// `γ²/(γ² + τ²)`.
    Cauchy {
        /// Half-width in months.
        gamma: f64,
    },
    /// `β/(β + |τ|^α)`.
    ModifiedCauchy {
        /// Lag exponent (`α = 1` is typical in the paper's Fig 7).
        alpha: f64,
        /// Scale factor (the one-month drop is `1/(β+1)`, Fig 8).
        beta: f64,
    },
}

impl TemporalModel {
    /// Evaluate at month lag `tau` (value is 1 at `tau = 0`).
    pub fn eval(&self, tau: f64) -> f64 {
        let t = tau.abs();
        match *self {
            TemporalModel::Gaussian { sigma } => (-t * t / (2.0 * sigma * sigma)).exp(),
            TemporalModel::Cauchy { gamma } => gamma * gamma / (gamma * gamma + t * t),
            TemporalModel::ModifiedCauchy { alpha, beta } => beta / (beta + t.powf(alpha)),
        }
    }

    /// The drop from the peak after one month, `1 − f(1)`.
    pub fn one_month_drop(&self) -> f64 {
        1.0 - self.eval(1.0)
    }
}

/// The relative one-month drop implied by a modified-Cauchy `β`:
/// `1 − β/(β+1) = 1/(β+1)` (the quantity plotted in Fig 8).
pub fn one_month_drop(beta: f64) -> f64 {
    1.0 / (beta + 1.0)
}

/// Result of a modified-Cauchy grid fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModCauchyFit {
    /// Best-fit lag exponent.
    pub alpha: f64,
    /// Best-fit scale factor.
    pub beta: f64,
    /// The peak value the model was normalized to.
    pub peak: f64,
    /// `| |^{1/2}` residual at the optimum.
    pub residual: f64,
}

impl ModCauchyFit {
    /// The fitted model (unit peak).
    pub fn model(&self) -> TemporalModel {
        TemporalModel::ModifiedCauchy { alpha: self.alpha, beta: self.beta }
    }

    /// Evaluate the fitted curve (including the peak scale) at `tau`.
    pub fn eval(&self, tau: f64) -> f64 {
        self.peak * self.model().eval(tau)
    }
}

/// Result of a one-parameter (Gaussian/Cauchy) grid fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SingleParamFit {
    /// Best-fit width parameter (σ or γ).
    pub param: f64,
    /// Peak normalization.
    pub peak: f64,
    /// `| |^{1/2}` residual at the optimum.
    pub residual: f64,
}

/// The peak every model is normalized to: the largest value. `None` on
/// empty input or a peak that is not positive.
fn fit_peak(lags: &[f64], values: &[f64]) -> Option<f64> {
    assert_eq!(lags.len(), values.len());
    let peak = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!lags.is_empty() && peak > 0.0).then_some(peak)
}

/// The paper's objective, the `| |^{1/2}` norm of `peak · unit − values`:
/// the same operations as `residual_pnorm(&predicted, values, 0.5)` on
/// `predicted[i] = peak * unit[i]` — each `|x − y|^{1/2}` summed in lag
/// order, then squared — without collecting `predicted`.
fn half_norm_residual(unit: impl Iterator<Item = f64>, peak: f64, values: &[f64]) -> f64 {
    unit.zip(values).map(|(u, &v)| (peak * u - v).abs().powf(0.5)).sum::<f64>().powf(2.0)
}

/// Default α grid: 0.05 .. 4.0.
pub fn default_mc_alpha_grid() -> Vec<f64> {
    (1..=80).map(|i| i as f64 * 0.05).collect()
}

/// Default β grid: 60 points log-spaced in [0.02, 100].
pub fn default_mc_beta_grid() -> Vec<f64> {
    let (lo, hi, n) = (0.02f64, 100.0f64, 60usize);
    let step = (hi / lo).powf(1.0 / (n as f64 - 1.0));
    (0..n).map(|i| lo * step.powi(i as i32)).collect()
}

/// Fit the modified Cauchy to `(lag, value)` samples by grid scan.
/// Returns `None` on empty input or a non-positive peak (or empty grids).
///
/// The factor `|lag|^α` depends only on α, so it is computed once per α
/// into one reused row, and each β is scored from that row in place. Every
/// residual is the one [`TemporalModel::eval`] would give at that grid
/// point, bit for bit; on a tie the first point in α-major, β-minor order
/// wins.
pub fn fit_modified_cauchy_grid(
    lags: &[f64],
    values: &[f64],
    alphas: &[f64],
    betas: &[f64],
) -> Option<ModCauchyFit> {
    let peak = fit_peak(lags, values)?;
    let mut best: Option<ModCauchyFit> = None;
    let mut row = vec![0.0f64; lags.len()];
    for &alpha in alphas {
        for (r, &t) in row.iter_mut().zip(lags) {
            *r = t.abs().powf(alpha);
        }
        for &beta in betas {
            let unit = row.iter().map(|&r| beta / (beta + r));
            let residual = half_norm_residual(unit, peak, values);
            if best.is_none_or(|b| residual < b.residual) {
                best = Some(ModCauchyFit { alpha, beta, peak, residual });
            }
        }
    }
    best
}

/// [`fit_modified_cauchy_grid`] with the default grids, followed by local
/// coordinate refinement.
///
/// The paper's procedure is the pure grid scan; the refinement pass
/// (alternating 1-D bracket shrinks on β and α around the grid optimum)
/// removes the grid-quantization error so the modified Cauchy — which
/// contains the standard Cauchy at `α = 2, β = γ²` — never loses to a
/// denser one-parameter scan by discretization alone.
pub fn fit_modified_cauchy(lags: &[f64], values: &[f64]) -> Option<ModCauchyFit> {
    let coarse =
        fit_modified_cauchy_grid(lags, values, &default_mc_alpha_grid(), &default_mc_beta_grid())?;
    Some(refine_modified_cauchy(lags, values, coarse))
}

/// Shrinking-bracket coordinate descent around a starting fit.
pub fn refine_modified_cauchy(lags: &[f64], values: &[f64], start: ModCauchyFit) -> ModCauchyFit {
    let eval = |alpha: f64, beta: f64| {
        let model = TemporalModel::ModifiedCauchy { alpha, beta };
        half_norm_residual(lags.iter().map(|&t| model.eval(t)), start.peak, values)
    };
    let mut best = start;
    let (mut alpha_step, mut beta_step) = (1.3f64, 1.5f64);
    for _ in 0..6 {
        // 1-D scan in β around the incumbent.
        for k in -4i32..=4 {
            let beta = best.beta * beta_step.powi(k).max(1e-6);
            let residual = eval(best.alpha, beta);
            if residual < best.residual {
                best = ModCauchyFit { beta, residual, ..best };
            }
        }
        // 1-D scan in α.
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

fn fit_single_param(
    lags: &[f64],
    values: &[f64],
    params: &[f64],
    make: impl Fn(f64) -> TemporalModel,
) -> Option<SingleParamFit> {
    let peak = fit_peak(lags, values)?;
    let mut best: Option<SingleParamFit> = None;
    for &p in params {
        let model = make(p);
        let residual = half_norm_residual(lags.iter().map(|&t| model.eval(t)), peak, values);
        if best.is_none_or(|b| residual < b.residual) {
            best = Some(SingleParamFit { param: p, peak, residual });
        }
    }
    best
}

/// Default width grid for the one-parameter models: 0.05 .. 20 months.
pub fn default_width_grid() -> Vec<f64> {
    (1..=400).map(|i| i as f64 * 0.05).collect()
}

/// Fit a Gaussian `exp(−τ²/2σ²)` by grid scan over σ.
pub fn fit_gaussian(lags: &[f64], values: &[f64]) -> Option<SingleParamFit> {
    fit_single_param(lags, values, &default_width_grid(), |sigma| TemporalModel::Gaussian {
        sigma,
    })
}

/// Fit a Cauchy `γ²/(γ²+τ²)` by grid scan over γ.
pub fn fit_cauchy(lags: &[f64], values: &[f64]) -> Option<SingleParamFit> {
    fit_single_param(lags, values, &default_width_grid(), |gamma| TemporalModel::Cauchy {
        gamma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_peak_at_one() {
        for m in [
            TemporalModel::Gaussian { sigma: 2.0 },
            TemporalModel::Cauchy { gamma: 1.5 },
            TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 4.0 },
        ] {
            assert!((m.eval(0.0) - 1.0).abs() < 1e-12);
            assert!(m.eval(3.0) < 1.0);
            assert!((m.eval(3.0) - m.eval(-3.0)).abs() < 1e-12, "symmetric in lag");
        }
    }

    #[test]
    fn modified_cauchy_reduces_to_cauchy() {
        // α = 2, β = γ² gives the standard Cauchy.
        let gamma = 1.7f64;
        let mc = TemporalModel::ModifiedCauchy { alpha: 2.0, beta: gamma * gamma };
        let c = TemporalModel::Cauchy { gamma };
        for tau in [0.0, 0.5, 1.0, 3.0, 7.5] {
            assert!((mc.eval(tau) - c.eval(tau)).abs() < 1e-12);
        }
    }

    #[test]
    fn one_month_drop_formula() {
        assert!((one_month_drop(1.0) - 0.5).abs() < 1e-12);
        assert!((one_month_drop(4.0) - 0.2).abs() < 1e-12);
        let m = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 4.0 };
        assert!((m.one_month_drop() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn paper_typical_models() {
        // "f ∝ 1/(1 + |t−t0|)" for d ≈ 10^3: α = 1, β = 1 → 50% drop.
        let typical = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 1.0 };
        assert!((typical.one_month_drop() - 0.5).abs() < 1e-12);
        // "4/(4 + |t−t0|)": 20% drop.
        let bright = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 4.0 };
        assert!((bright.one_month_drop() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_planted_modified_cauchy() {
        let truth = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 2.0 };
        let lags: Vec<f64> = (-7..=7).map(|m| m as f64).collect();
        let values: Vec<f64> = lags.iter().map(|&t| 0.6 * truth.eval(t)).collect();
        let fit = fit_modified_cauchy(&lags, &values).unwrap();
        assert!((fit.alpha - 1.0).abs() < 0.06, "alpha {}", fit.alpha);
        assert!((fit.beta - 2.0).abs() / 2.0 < 0.15, "beta {}", fit.beta);
        assert!((fit.peak - 0.6).abs() < 1e-12);
        // β = 2.0 is not exactly on the log-spaced grid, so the residual is
        // nonzero; the 1/2-norm over 15 points scales a mean per-point
        // error e to roughly 225·e, so 0.5 ≈ 2e-3 per point.
        assert!(fit.residual < 0.5, "residual {}", fit.residual);
    }

    #[test]
    fn modified_cauchy_beats_gaussian_on_heavy_tail() {
        // Data generated by a modified Cauchy has a heavy tail the Gaussian
        // cannot reproduce: the paper's Fig 5 comparison.
        let truth = TemporalModel::ModifiedCauchy { alpha: 1.0, beta: 1.5 };
        let lags: Vec<f64> = (-7..=7).map(|m| m as f64).collect();
        let values: Vec<f64> = lags.iter().map(|&t| 0.5 * truth.eval(t)).collect();
        let mc = fit_modified_cauchy(&lags, &values).unwrap();
        let g = fit_gaussian(&lags, &values).unwrap();
        let c = fit_cauchy(&lags, &values).unwrap();
        assert!(mc.residual < g.residual);
        assert!(mc.residual <= c.residual + 1e-12);
        assert!(c.residual < g.residual, "even plain Cauchy beats Gaussian");
    }

    #[test]
    fn fit_handles_asymmetric_lags() {
        // CAIDA windows sit mid-span: lags need not be symmetric.
        let truth = TemporalModel::ModifiedCauchy { alpha: 1.5, beta: 4.0 };
        let lags: Vec<f64> = (-4..=10).map(|m| m as f64).collect();
        let values: Vec<f64> = lags.iter().map(|&t| truth.eval(t)).collect();
        let fit = fit_modified_cauchy(&lags, &values).unwrap();
        assert!((fit.alpha - 1.5).abs() < 0.06);
    }

    #[test]
    fn empty_and_zero_inputs_give_none() {
        assert!(fit_modified_cauchy(&[], &[]).is_none());
        assert!(fit_modified_cauchy(&[0.0, 1.0], &[0.0, 0.0]).is_none());
        assert!(fit_gaussian(&[], &[]).is_none());
        assert!(fit_cauchy(&[0.0], &[0.0]).is_none());
    }

    #[test]
    fn fitted_eval_includes_peak() {
        let lags = [0.0, 1.0, 2.0];
        let vals = [0.8, 0.4, 0.3];
        let fit = fit_modified_cauchy(&lags, &vals).unwrap();
        assert!((fit.eval(0.0) - 0.8).abs() < 1e-12);
        assert!(fit.eval(2.0) < 0.8);
    }

    #[test]
    fn default_grids_are_sane() {
        let a = default_mc_alpha_grid();
        let b = default_mc_beta_grid();
        assert!(a.iter().all(|&x| x > 0.0));
        assert!(b.iter().all(|&x| x > 0.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b[0] - 0.02).abs() < 1e-9 && (b[b.len() - 1] - 100.0).abs() < 1e-6);
    }
}
