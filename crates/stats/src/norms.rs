//! p-norms, including the fractional norms used for heavy-tailed fits.
//!
//! The paper fits its temporal models by minimizing the `| |^{1/2}` norm of
//! the residual. Fractional norms (`0 < p < 1`) weight many small errors
//! more heavily relative to a few large ones than the familiar `p ≥ 1`
//! norms do, which keeps a fit honest across the faint tail of a
//! heavy-tailed curve instead of letting the bright head dominate.

/// The p-norm `(Σ |x_i|^p)^{1/p}` for `p > 0`.
///
/// # Panics
/// Panics if `p <= 0` or not finite.
pub fn pnorm(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p.is_finite(), "p-norm requires finite p > 0");
    xs.iter().map(|x| x.abs().powf(p)).sum::<f64>().powf(1.0 / p)
}

/// The p-norm of the element-wise difference of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length or `p` is invalid.
pub fn residual_pnorm(a: &[f64], b: &[f64], p: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "residual requires equal lengths");
    assert!(p > 0.0 && p.is_finite(), "p-norm requires finite p > 0");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs().powf(p))
        .sum::<f64>()
        .powf(1.0 / p)
}

/// The paper's fit objective, the `| |^{1/2}` norm of `predicted − values`:
/// each `|x − y|.sqrt()` summed in order, then the sum `s` squared as
/// `s * s`. Every fit scores through this one function.
///
/// It is `residual_pnorm(predicted, values, 0.5)` with the exponents
/// written in, because `powf(0.5)` and `powf(2.0)` compile to `sqrt` and a
/// multiply only in optimized builds: a debug build calls `pow`, an ULP
/// away in about 0.1 % of calls, and would fit other bits. Written out,
/// every build profile computes the same bits.
pub(crate) fn half_norm(predicted: impl Iterator<Item = f64>, values: &[f64]) -> f64 {
    let s: f64 = predicted.zip(values).map(|(x, &y)| (x - y).abs().sqrt()).sum();
    s * s
}

/// The zero-"norm": the number of nonzero entries (the `| |_0` of
/// Table II applied to a vector).
pub fn zero_norm(xs: &[f64]) -> usize {
    // audit:allow(float-eq) — the zero-"norm" counts exact nonzeros by definition (Table II)
    xs.iter().filter(|x| **x != 0.0).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_is_euclidean() {
        assert!((pnorm(&[3.0, 4.0], 2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn p1_is_sum_of_abs() {
        assert!((pnorm(&[1.0, -2.0, 3.0], 1.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn half_norm_known_value() {
        // (|1|^.5 + |4|^.5)^2 = (1 + 2)^2 = 9.
        assert!((pnorm(&[1.0, 4.0], 0.5) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn half_norm_weights_small_errors_relatively_more() {
        // Same 2-norm, but the spread-out error vector has larger 1/2-norm.
        let concentrated = [2.0, 0.0, 0.0, 0.0];
        let spread = [1.0, 1.0, 1.0, 1.0];
        assert!(pnorm(&spread, 0.5) > pnorm(&concentrated, 0.5));
        assert_eq!(pnorm(&concentrated, 2.0), pnorm(&spread, 2.0));
    }

    #[test]
    fn residual_is_zero_for_equal() {
        let v = [0.5, 0.25, 0.125];
        assert_eq!(residual_pnorm(&v, &v, 0.5), 0.0);
    }

    #[test]
    fn residual_matches_manual() {
        let a = [1.0, 2.0];
        let b = [0.0, 4.0];
        assert!((residual_pnorm(&a, &b, 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_norm_is_zero() {
        assert_eq!(pnorm(&[], 0.5), 0.0);
    }

    #[test]
    fn zero_norm_counts_nonzeros() {
        assert_eq!(zero_norm(&[0.0, 1.0, -2.0, 0.0]), 2);
        assert_eq!(zero_norm(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "p > 0")]
    fn invalid_p_panics() {
        let _ = pnorm(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        let _ = residual_pnorm(&[1.0], &[1.0, 2.0], 1.0);
    }
}
