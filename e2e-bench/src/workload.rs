//! The workloads, the metrics they report, and the result format.
//!
//! The names here are the ones `BENCHMARK.json` declares; the contract
//! test (`tests/benchmark_contract.rs`) keeps the two in step.

use crate::json::quote;
use crate::{reproduce, stream};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported by every workload with
/// `--trace 0`. Times are scaled to the reference host speed
/// ([`crate::calibrate`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_pps", "pkt/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported by every workload with
/// `--trace 1`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netmodel.scenario_ms", "ms"),
    ("telescope.capture_ms", "ms"),
    ("telescope.packets", "count"),
    ("hypersparse.build_ms", "ms"),
    ("hypersparse.leaves", "count"),
    ("hypersparse.merges", "count"),
    ("hypersparse.nnz", "count"),
    ("hypersparse.quantities_ms", "ms"),
    ("hypersparse.spill_build_ms", "ms"),
    ("hypersparse.spill_evictions", "count"),
    ("hypersparse.spill_reloads", "count"),
    ("hypersparse.spill_bytes_written", "bytes"),
    ("hypersparse.spill_bytes_read", "bytes"),
    ("hypersparse.peak_live_bytes", "bytes"),
    ("hypersparse.build_rss_mb", "MiB"),
    ("core.degrees_ms", "ms"),
    ("honeyfarm.months_ms", "ms"),
    ("honeyfarm.sources", "count"),
    ("honeyfarm.months_rss_mb", "MiB"),
    ("assoc.sets_ms", "ms"),
    ("assoc.containers", "count"),
    ("assoc.sets_rss_mb", "MiB"),
    ("core.quadrants_ms", "ms"),
    ("core.distributions_ms", "ms"),
    ("core.quantity_distributions_ms", "ms"),
    ("core.binning_values", "count"),
    ("core.distributions_rss_mb", "MiB"),
    ("core.peaks_ms", "ms"),
    ("core.curves_ms", "ms"),
    ("core.curves", "count"),
    ("core.fits_ms", "ms"),
    ("core.fits", "count"),
    ("core.extensions_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("telescope.stream.snapshot_p50_ms", "ms"),
    ("telescope.stream.snapshot_p95_ms", "ms"),
    ("telescope.stream.push_busy_pct", "%"),
    ("telescope.stream.blocked", "count"),
    ("telescope.stream.leaves", "count"),
    ("telescope.stream.merges", "count"),
    ("anonymize.batch_us", "us"),
    ("anonymize.dup_ratio", "ratio"),
    ("hypersparse.leaf_compact_us", "us"),
    ("hypersparse.window_fold_ms", "ms"),
    ("trace.total_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.calibration_ms", "ms"),
];

/// What a workload drives.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Back-to-back `pipeline::run` calls with `AnalysisConfig::default()`
    /// (what `obscor reproduce` runs).
    Reproduce(reproduce::Plan),
    /// Captures replayed through an `IngestService` with one worker (what
    /// `obscor serve` runs).
    Stream(stream::Plan),
}

/// A named workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    let reproduce = |name, nv, spill| Workload {
        name,
        kind: Kind::Reproduce(reproduce::Plan { nv, spill }),
    };
    let stream = |name, window, rate_pps, distinct, saturation_packets, anonymize| Workload {
        name,
        kind: Kind::Stream(stream::Plan {
            window,
            rate_pps,
            distinct,
            open_windows: None,
            saturation_packets,
            anonymize,
            worker_delay_micros: 0,
        }),
    };
    vec![
        reproduce("reproduce-nv17", 1 << 17, false),
        reproduce("spilled-nv17", 1 << 17, true),
        stream("stream-plain", 1 << 14, 2.0e6, 64, 1 << 22, false),
        stream("stream-anon", 1 << 11, 5.0e4, 256, 1 << 16, true),
    ]
}

impl Workload {
    /// The workload `name`.
    pub fn named(name: &str) -> Option<Workload> {
        workloads().into_iter().find(|w| w.name == name)
    }

    /// This workload shrunk to smoke size: `N_V = 2^12`, windows of `2^10`
    /// packets, 16-window saturation passes, and traced open loops of 16
    /// windows at a tenth of the rate.
    pub fn smoke(mut self) -> Workload {
        match &mut self.kind {
            Kind::Reproduce(p) => p.nv = 1 << 12,
            Kind::Stream(p) => {
                p.window = 1 << 10;
                p.rate_pps /= 10.0;
                p.distinct = 16;
                p.open_windows = Some(16);
                p.saturation_packets = 16 << 10;
            }
        }
        self
    }

    /// This workload at window size `nv` (reproduce workloads only).
    pub fn with_nv(mut self, nv: usize) -> Workload {
        if let Kind::Reproduce(p) = &mut self.kind {
            p.nv = nv;
        }
        self
    }
}

/// The measured values and check counts of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Correctness checks attempted.
    pub attempted: u64,
    /// Correctness checks that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind some values, printed beside them.
    pub samples: BTreeMap<&'static str, usize>,
    /// Context printed as `#` lines above the metrics (unscaled times,
    /// calibration readings).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one correctness check; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a `#` line of context to the report.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Set metric `name` and the number of samples behind it.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// The report: the notes as `# <workload> <note>` lines, one
    /// `<workload> <metric> <value> <unit>` line per declared metric (with
    /// `n=<samples>` where known) and the result JSON line. End-to-end
    /// metrics must all be present; an unexercised layer metric reads 0.
    pub fn render(&self, workload: &str, trace: bool) -> (Vec<String>, String) {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut lines: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("# {workload} {n}"))
            .collect();
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("workload {workload} did not measure {name}"),
            };
            assert!(
                value.is_finite(),
                "{workload} {name} is not finite: {value}"
            );
            let n = self
                .samples
                .get(name)
                .map(|n| format!(" n={n}"))
                .unwrap_or_default();
            lines.push(format!("{workload} {name} {value} {unit}{n}"));
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            ));
        }
        // A run that checked nothing verified nothing: count it as one
        // failed check.
        let (attempted, failed) = if self.attempted == 0 {
            (1, 1)
        } else {
            (self.attempted, self.failed)
        };
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        );
        (lines, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.extend(workloads().iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate names");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn render_fills_unexercised_layers_with_zero() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("trace.total_ms", 12.5);
        let (lines, json) = o.render("w", true);
        assert_eq!(lines.len(), PER_LAYER.len());
        assert!(lines.contains(&"w trace.total_ms 12.5 ms".to_string()));
        assert!(lines.contains(&"w core.curves 0 count".to_string()));
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Value::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "did not measure")]
    fn render_refuses_a_missing_end_to_end_metric() {
        Outcome::default().render("w", false);
    }
}
