//! Forecasting: predict future observatory-outpost overlap from the
//! fitted modified-Cauchy beam model, with a held-out evaluation.
//!
//! ```sh
//! cargo run --release --example forecasting
//! ```

use obscor::core::forecast::forecast_all;
use obscor::core::{pipeline, AnalysisConfig};
use obscor::netmodel::Scenario;

fn main() {
    let scenario = Scenario::paper_scaled(1 << 17, 71);
    let config = AnalysisConfig::default();
    println!(
        "world: {} sources; fitting on months 0..10, predicting months 10..15\n",
        scenario.population.len()
    );

    // The measured temporal curves of the first two windows, in degree
    // bins of at least 30 sources.
    let first_two: Vec<&str> =
        scenario.caida_windows[..2].iter().map(|w| w.label.as_str()).collect();
    let mut curves = pipeline::run(&scenario, &config).curves;
    curves.retain(|c| c.n_sources >= 30 && first_two.contains(&c.window_label.as_str()));

    let cutoff = 10;
    let evals = forecast_all(&curves, cutoff, &config);
    println!(
        "{} curves evaluated (windows early enough to leave a held-out tail)\n",
        evals.len()
    );
    println!("window                bin     model MAE  persistence MAE  winner");
    let mut wins = 0;
    for e in &evals {
        let winner = if e.model_wins() { "model" } else { "persistence" };
        if e.model_wins() {
            wins += 1;
        }
        println!(
            "{:<21} d=2^{:<3} {:>9.4} {:>16.4}  {winner}",
            e.window_label,
            e.bin,
            e.model_mae(),
            e.baseline_mae()
        );
    }
    println!(
        "\nmodified-Cauchy forecast beats persistence on {wins}/{} curves",
        evals.len()
    );

    // Show one forecast in detail.
    if let Some(e) = evals.iter().max_by_key(|e| e.held_out.len()) {
        println!(
            "\ndetail: window {} bin 2^{} (fit on months 0..{}):",
            e.window_label, e.bin, e.cutoff
        );
        println!("  month  predicted  actual");
        for ((m, p), a) in e.held_out.iter().zip(&e.predicted).zip(&e.actual) {
            println!("  {m:>5} {p:>10.3} {a:>7.3}");
        }
    }
}
