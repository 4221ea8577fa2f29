//! Integration: forecasting on real scenario data.

use obscor::core::forecast::{forecast_all, forecast_curve};
use obscor::core::temporal::TemporalCurve;
use obscor::core::{pipeline, AnalysisConfig};
use obscor::netmodel::Scenario;

/// The pipeline's temporal curves of the first `windows` windows, in
/// degree bins of at least `min_sources` sources.
fn curves(
    scenario: &Scenario,
    config: &AnalysisConfig,
    windows: usize,
    min_sources: usize,
) -> Vec<TemporalCurve> {
    let labels: Vec<&str> =
        scenario.caida_windows[..windows].iter().map(|w| w.label.as_str()).collect();
    let mut curves = pipeline::run(scenario, config).curves;
    curves.retain(|c| c.n_sources >= min_sources && labels.contains(&c.window_label.as_str()));
    curves
}

#[test]
fn scenario_forecasts_are_produced_and_bounded() {
    let scenario = Scenario::paper_scaled(1 << 15, 404);
    let config = AnalysisConfig::fast();
    let curves = curves(&scenario, &config, 1, 30);
    assert!(!curves.is_empty());

    let evals = forecast_all(&curves, 10, &config);
    assert!(!evals.is_empty(), "first window leaves a held-out tail");
    for e in &evals {
        assert_eq!(e.held_out, vec![10, 11, 12, 13, 14]);
        assert_eq!(e.predicted.len(), 5);
        // Predictions are probabilities.
        assert!(e.predicted.iter().all(|p| (0.0..=1.0).contains(p)));
        // Errors are bounded by the trivial worst case.
        assert!(e.model_mae() <= 1.0);
        assert!(e.baseline_mae() <= 1.0);
    }
}

#[test]
fn model_is_competitive_with_persistence_overall() {
    let scenario = Scenario::paper_scaled(1 << 15, 405);
    let config = AnalysisConfig::fast();
    let curves = curves(&scenario, &config, 2, 30);
    let evals = forecast_all(&curves, 10, &config);
    assert!(evals.len() >= 5, "need several curves, got {}", evals.len());
    let model: f64 = evals.iter().map(|e| e.model_mae()).sum::<f64>() / evals.len() as f64;
    let baseline: f64 =
        evals.iter().map(|e| e.baseline_mae()).sum::<f64>() / evals.len() as f64;
    // The model need not win every curve (persistence is strong on flat
    // dim curves), but it must not be grossly worse in aggregate.
    assert!(
        model <= baseline * 1.5,
        "model MAE {model:.4} vs persistence {baseline:.4}"
    );
}

#[test]
fn forecast_respects_cutoff_boundaries() {
    let scenario = Scenario::paper_scaled(1 << 14, 406);
    let config = AnalysisConfig::fast();
    let curves = curves(&scenario, &config, 1, 20);
    if let Some(curve) = curves.first() {
        for cutoff in [6usize, 10, 13] {
            if let Some(e) = forecast_curve(curve, cutoff, &config) {
                assert_eq!(e.cutoff, cutoff);
                assert_eq!(e.held_out.len(), 15 - cutoff);
                assert_eq!(e.held_out[0], cutoff);
            }
        }
    }
}
