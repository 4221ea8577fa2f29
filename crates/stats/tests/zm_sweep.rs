//! The shared Zipf–Mandelbrot grid sweep is bit-identical to fitting each
//! distribution on its own.
//!
//! The oracle below is the per-fit loop the sweep replaced: for every
//! `(α, δ)` grid point, build `ZipfMandelbrot::new(α, δ, d_max).binned()`,
//! resize it to the data's bins, normalize, score with `residual_pnorm`,
//! and keep the `min_by(total_cmp)` winner (the first point on a tie).
//! α, δ and the residual must agree to the bit, in debug and in release
//! builds.

use obscor_stats::binning::{log2_bin, Log2Binned};
use obscor_stats::zipf::{
    default_alpha_grid, default_delta_grid, fit_zipf_mandelbrot, fit_zipf_mandelbrot_many,
    ZipfMandelbrot, ZmFit,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// `residual_pnorm(a, b, 0.5)` with the body written out.
///
/// Inside the library that call is inlined in optimized builds, so
/// `p = 0.5` reaches `powf` as a constant, which compiles to `sqrt` (and
/// `powf(2.0)` to a multiply). Called across the crate boundary,
/// `residual_pnorm` keeps a runtime exponent and calls `pow`, an ULP
/// away in about 0.1 % of calls. Written out here, the constant reaches
/// `powf` in the oracle too, in every build profile.
fn half_norm(a: &[f64], b: &[f64]) -> f64 {
    let p = 0.5;
    a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(p)).sum::<f64>().powf(1.0 / p)
}

/// One independent fit per grid point, exactly as each call used to run.
fn oracle(data: &Log2Binned, d_max: u64, alphas: &[f64], deltas: &[f64]) -> Option<ZmFit> {
    if data.is_empty() || alphas.is_empty() || deltas.is_empty() {
        return None;
    }
    let target = data.normalized();
    let grid: Vec<(f64, f64)> =
        alphas.iter().flat_map(|&a| deltas.iter().map(move |&d| (a, d))).collect();
    grid.iter()
        .map(|&(alpha, delta)| {
            let mut m = ZipfMandelbrot::new(alpha, delta, d_max).binned().values;
            m.resize(target.len(), 0.0);
            m.truncate(target.len());
            let total: f64 = m.iter().sum();
            if total > 0.0 {
                for v in &mut m {
                    *v /= total;
                }
            }
            let residual = half_norm(&m, &target.values);
            ZmFit { alpha, delta, residual }
        })
        .min_by(|a, b| a.residual.total_cmp(&b.residual))
}

fn bits(fit: Option<ZmFit>) -> Option<(u64, u64, u64)> {
    fit.map(|f| (f.alpha.to_bits(), f.delta.to_bits(), f.residual.to_bits()))
}

/// A random binned input: usually the bins a `d_max` support produces,
/// sometimes a few more or fewer (the fit pads or truncates the model),
/// sometimes empty.
fn random_input(rng: &mut StdRng, d_max: u64) -> Log2Binned {
    if rng.random_range(0u32..8) == 0 {
        return Log2Binned::default();
    }
    let natural = log2_bin(d_max) as usize + 1;
    let len = match rng.random_range(0u32..4) {
        0 => (natural + rng.random_range(1usize..3)).max(1),
        1 => natural.saturating_sub(rng.random_range(1usize..3)).max(1),
        _ => natural,
    };
    Log2Binned { values: (0..len).map(|_| rng.random_range(0.0f64..1.0)).collect() }
}

/// A random grid drawn from the defaults (kept small so the oracle's
/// per-point tables stay cheap). The δs also come from outside the
/// defaults: integers, which the sweep reads from its shared power table
/// when they are no larger than the longest support (1000 often is not),
/// and fractions, which take the per-point `powf` branch.
fn random_grid(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let pick = |rng: &mut StdRng, from: Vec<f64>, n: usize| -> Vec<f64> {
        (0..n).map(|_| from[rng.random_range(0..from.len())]).collect()
    };
    let n_alpha = rng.random_range(1usize..7);
    let n_delta = rng.random_range(1usize..5);
    let mut delta_menu = default_delta_grid();
    delta_menu.extend([3.0, 33.0, 1000.0, 0.1, 1.5]);
    (pick(rng, default_alpha_grid(), n_alpha), pick(rng, delta_menu, n_delta))
}

proptest! {
    /// 1–9 random inputs with equal or unequal `d_max` (including 2),
    /// some empty: every element matches its own oracle fit to the bit.
    #[test]
    fn sweep_matches_per_fit_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1usize..10);
        let shared = rng.random_range(0u32..3) == 0;
        let common = rng.random_range(2u64..3000);
        let d_maxes: Vec<u64> = (0..n)
            .map(|_| match rng.random_range(0u32..5) {
                _ if shared => common,
                0 => 2,
                _ => rng.random_range(2u64..3000),
            })
            .collect();
        let data: Vec<Log2Binned> = d_maxes.iter().map(|&d| random_input(&mut rng, d)).collect();
        let (alphas, deltas) = random_grid(&mut rng);
        let inputs: Vec<(&Log2Binned, u64)> = data.iter().zip(d_maxes.iter().copied()).collect();
        let fits = fit_zipf_mandelbrot_many(&inputs, &alphas, &deltas);
        prop_assert_eq!(fits.len(), n);
        for ((d, &d_max), fit) in data.iter().zip(&d_maxes).zip(&fits) {
            prop_assert_eq!(bits(*fit), bits(oracle(d, d_max, &alphas, &deltas)));
            prop_assert_eq!(fit.is_none(), d.is_empty());
            prop_assert_eq!(bits(*fit), bits(fit_zipf_mandelbrot(d, d_max, &alphas, &deltas)));
        }
    }
}

/// The pipeline's shape: nine sampled distributions with their own
/// supports against the full default grid.
#[test]
fn default_grid_matches_oracle_on_sampled_data() {
    let (alphas, deltas) = (default_alpha_grid(), default_delta_grid());
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<(Log2Binned, u64)> = (0..9)
        .map(|i| {
            let truth = ZipfMandelbrot::new(1.2 + 0.2 * f64::from(i), f64::from(i % 3), 1 << 11);
            let h = obscor_stats::DegreeHistogram::from_degrees(truth.sample_n(&mut rng, 5_000));
            (obscor_stats::differential_cumulative(&h), h.d_max().max(2))
        })
        .collect();
    let inputs: Vec<(&Log2Binned, u64)> = data.iter().map(|(b, d)| (b, *d)).collect();
    let fits = fit_zipf_mandelbrot_many(&inputs, &alphas, &deltas);
    for ((b, d_max), fit) in data.iter().zip(fits) {
        assert!(fit.is_some());
        assert_eq!(bits(fit), bits(oracle(b, *d_max, &alphas, &deltas)));
    }
}

/// A one-bin target normalizes every model to `[1.0]`, so every grid
/// point scores residual 0: the first point in α-major, δ-minor order
/// must win, as `min_by` keeps the first of equal elements.
#[test]
fn exact_tie_keeps_the_first_grid_point() {
    let one_bin = Log2Binned { values: vec![0.7] };
    let (alphas, deltas) = ([2.5, 1.0, 3.0], [4.0, 0.0, 1.0]);
    for d_max in [2u64, 3, 1000] {
        let fits = fit_zipf_mandelbrot_many(&[(&one_bin, d_max), (&one_bin, 2)], &alphas, &deltas);
        for fit in fits {
            let fit = fit.expect("non-empty input fits");
            assert_eq!((fit.alpha, fit.delta, fit.residual), (2.5, 4.0, 0.0));
            assert_eq!(bits(Some(fit)), bits(oracle(&one_bin, d_max, &alphas, &deltas)));
        }
    }
}

#[test]
fn empty_inputs_and_grids_give_none() {
    let data = Log2Binned { values: vec![0.5, 0.5] };
    let empty = Log2Binned::default();
    let fits = fit_zipf_mandelbrot_many(&[(&empty, 2), (&data, 2)], &[1.5], &[0.0]);
    assert!(fits[0].is_none());
    assert!(fits[1].is_some());
    assert_eq!(fit_zipf_mandelbrot_many(&[(&data, 2)], &[], &[0.0]), vec![None]);
    assert_eq!(fit_zipf_mandelbrot_many(&[(&data, 2)], &[1.5], &[]), vec![None]);
    assert!(fit_zipf_mandelbrot_many(&[], &[1.5], &[0.0]).is_empty());
}
