//! Integration: the pipeline's `MetricsSnapshot` — JSON schema round-trip,
//! merge algebra on real snapshots, and metric-name stability.
//!
//! The name-stability test doubles as the strict-invariants check: CI runs
//! this same binary with `--features obscor/strict-invariants`, and the
//! pinned name list must hold under both configurations — the invariant
//! layer may add *work*, never metrics.

use obscor::core::{pipeline, AnalysisConfig, PaperAnalysis};
use obscor::netmodel::Scenario;
use obscor_obs::MetricsSnapshot;
use std::sync::{Mutex, OnceLock};

fn run(seed: u64) -> PaperAnalysis {
    // The pipeline deltas the process-global registry around each run, so
    // concurrent runs in this test binary would bleed into each other's
    // snapshots. Serializing them keeps every delta exact.
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let s = Scenario::paper_scaled(1 << 13, seed);
    pipeline::run(&s, &AnalysisConfig::fast())
}

fn metrics() -> &'static MetricsSnapshot {
    static M: OnceLock<MetricsSnapshot> = OnceLock::new();
    M.get_or_init(|| run(7).metrics)
}

/// Every metric name the pipeline emits, pinned. A missing name means an
/// instrumentation point was dropped; a new name must be added here (and to
/// DESIGN.md §10) deliberately.
const PINNED_NAMES: [&str; 82] = [
    "config.min_bin_sources",
    "config.month_count",
    "config.n_v",
    "config.window_count",
    "core.binning.values_total",
    "core.degrees.sources_total",
    "core.fit_curves.dropped_total",
    "core.fit_curves.fitted_total",
    "core.temporal_curves.curves_total",
    "core.zm_fit.fits_total",
    "hypersparse.accumulator.carry_merges_total",
    "hypersparse.accumulator.leaves_total",
    "hypersparse.accumulator.merges_total",
    "hypersparse.accumulator.pushed_total",
    "hypersparse.leaf_compact.triples",
    "span.core.binning.calls_total",
    "span.core.binning.ns",
    "span.core.degrees.calls_total",
    "span.core.degrees.ns",
    "span.core.fit_curves.calls_total",
    "span.core.fit_curves.ns",
    "span.core.tail_fit.calls_total",
    "span.core.tail_fit.ns",
    "span.core.temporal_curves.calls_total",
    "span.core.temporal_curves.ns",
    "span.core.zm_fit.calls_total",
    "span.core.zm_fit.ns",
    "span.hypersparse.accumulator.finalize.calls_total",
    "span.hypersparse.accumulator.finalize.ns",
    "span.hypersparse.carry_merge.calls_total",
    "span.hypersparse.carry_merge.ns",
    "span.hypersparse.leaf_compact.calls_total",
    "span.hypersparse.leaf_compact.ns",
    "span.pipeline.run.calls_total",
    "span.pipeline.run.ns",
    "span.stage.capture.calls_total",
    "span.stage.capture.ns",
    "span.stage.classes.calls_total",
    "span.stage.classes.ns",
    "span.stage.curves.calls_total",
    "span.stage.curves.ns",
    "span.stage.degrees.calls_total",
    "span.stage.degrees.ns",
    "span.stage.distributions.calls_total",
    "span.stage.distributions.ns",
    "span.stage.fits.calls_total",
    "span.stage.fits.ns",
    "span.stage.honeyfarm.calls_total",
    "span.stage.honeyfarm.ns",
    "span.stage.matrices.calls_total",
    "span.stage.matrices.ns",
    "span.stage.quadrants.calls_total",
    "span.stage.quadrants.ns",
    "span.stage.quantities.calls_total",
    "span.stage.quantities.ns",
    "span.stage.scaling.calls_total",
    "span.stage.scaling.ns",
    "span.stage.subnets.calls_total",
    "span.stage.subnets.ns",
    "span.stage.teardown.calls_total",
    "span.stage.teardown.ns",
    "span.telescope.build_matrix.calls_total",
    "span.telescope.build_matrix.ns",
    "span.telescope.capture_window.calls_total",
    "span.telescope.capture_window.ns",
    "stage.capture.windows_total",
    "stage.curves.computed_total",
    "stage.degrees.windows_total",
    "stage.distributions.computed_total",
    "stage.fits.fitted_total",
    "stage.honeyfarm.months_total",
    "stage.honeyfarm.sources_total",
    "stage.matrices.built_total",
    "stage.matrices.nnz_total",
    "stage.peaks.computed_total",
    "stage.quadrants.entries_total",
    "stage.quantities.computed_total",
    "telescope.build_matrix.edges_total",
    "telescope.build_matrix.leaf_capacity",
    "telescope.capture.discarded_packets_total",
    "telescope.capture.valid_packets_total",
    "telescope.capture.windows_total",
];

#[test]
fn pipeline_metric_names_are_pinned() {
    let names = metrics().metric_names();
    let got: Vec<&str> = names.iter().map(String::as_str).collect();
    // metric_names() is a BTreeSet, so both sides are sorted; a plain
    // equality diff points straight at the added/removed name.
    assert_eq!(got, PINNED_NAMES, "pipeline metric names drifted");
}

#[test]
fn snapshot_round_trips_byte_identically() {
    let snap = metrics();
    let json = snap.to_json();
    let back = MetricsSnapshot::from_json(&json).expect("pipeline snapshot parses");
    assert_eq!(&back, snap, "decode(encode(s)) != s");
    assert_eq!(back.to_json(), json, "re-encoding is not byte-stable");
}

#[test]
fn merge_of_real_snapshots_is_associative_and_commutative() {
    let (a, b, c) = (run(1).metrics, run(2).metrics, run(3).metrics);
    let ab_c = {
        let mut m = a.clone();
        m.merge(&b);
        m.merge(&c);
        m
    };
    let a_bc = {
        let mut bc = b.clone();
        bc.merge(&c);
        let mut m = a.clone();
        m.merge(&bc);
        m
    };
    assert_eq!(ab_c, a_bc, "merge is not associative on pipeline snapshots");
    let ba = {
        let mut m = b.clone();
        m.merge(&a);
        m
    };
    let ab = {
        let mut m = a.clone();
        m.merge(&b);
        m
    };
    assert_eq!(ab, ba, "merge is not commutative on pipeline snapshots");
}

#[test]
fn counters_reflect_the_run_deterministically() {
    let m = metrics();
    // 5 windows of 2^13 valid packets each; every pushed edge is counted.
    assert_eq!(m.counters["telescope.capture.valid_packets_total"], 5 * (1 << 13));
    assert_eq!(m.counters["stage.capture.windows_total"], 5);
    assert_eq!(m.counters["stage.matrices.built_total"], 5);
    assert_eq!(m.gauges["config.n_v"], 1 << 13);
    // Conservation: every valid packet becomes exactly one pushed triple.
    assert_eq!(
        m.counters["hypersparse.accumulator.pushed_total"],
        m.counters["telescope.build_matrix.edges_total"]
    );
    // The span histogram algebra holds on real data: count equals calls.
    assert_eq!(
        m.histograms["span.telescope.capture_window.ns"].count,
        m.counters["span.telescope.capture_window.calls_total"]
    );
    // 5 windows + 4 first-window quantities, each tail-fitted once.
    assert_eq!(m.counters["span.core.tail_fit.calls_total"], 9);
    // Each window is reduced as its fold closes: Table II, the degrees and
    // the binning open once per window, and the one shared ZM sweep that
    // fits all nine distributions opens `stage.distributions` once more.
    assert_eq!(m.counters["span.stage.quantities.calls_total"], 5);
    assert_eq!(m.counters["span.stage.degrees.calls_total"], 5);
    assert_eq!(m.counters["span.stage.distributions.calls_total"], 6);
    assert_eq!(m.counters["span.core.zm_fit.calls_total"], 1);
    // Each window is 8 leaves of 1,024 packets joined by 7 carry merges,
    // and every carry merge runs under its own span.
    assert_eq!(m.counters["hypersparse.accumulator.leaves_total"], 5 * 8);
    assert_eq!(m.counters["hypersparse.accumulator.carry_merges_total"], 5 * 7);
    assert_eq!(
        m.counters["span.hypersparse.carry_merge.calls_total"],
        m.counters["hypersparse.accumulator.carry_merges_total"]
    );
}

#[test]
fn stage_spans_add_up_to_at_most_the_run() {
    let m = metrics();
    let stages: u64 = m
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("span.stage.") && name.ends_with(".ns"))
        .map(|(_, h)| h.sum)
        .sum();
    let run = m.histograms["span.pipeline.run.ns"].sum;
    assert!(stages > 0 && stages <= run, "stage spans {stages} ns > pipeline.run {run} ns");
}
