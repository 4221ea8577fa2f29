//! The reproduce workloads: back-to-back `pipeline::run` calls.

use crate::calibrate::{Calibration, Kernel};
use crate::stats::{fnv1a, median_peak_rss_mb, with_peak_rss, FNV_OFFSET};
use crate::workload::Outcome;
use crate::{scratch_dir, timed_setup};
use obscor_core::validate::validate;
use obscor_core::{pipeline, AnalysisConfig, PaperAnalysis, SpillSettings};
use obscor_netmodel::Scenario;
use obscor_obs::time_fn;
use obscor_stats::summary::median;

/// A reproduce workload at a given size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Window size `N_V`.
    pub nv: usize,
    /// Zero-budget out-of-core matrix build.
    pub spill: bool,
}

impl Plan {
    /// The analysis configuration `obscor reproduce` runs, spilling every
    /// carry to the benchmark's scratch directory when `spill` is set.
    pub fn config(&self) -> AnalysisConfig {
        let config = AnalysisConfig::default();
        if self.spill {
            config.with_spill(SpillSettings {
                memory_budget: 0,
                spill_dir: Some(scratch_dir()),
            })
        } else {
            config
        }
    }

    /// The workload's scenario for `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::paper_scaled(self.nv, seed)
    }

    /// Check one analysis and return the digest of its TSV export. Strict
    /// validation needs the large bins of `N_V >= 2^15`.
    pub fn check(&self, out: &mut Outcome, a: &PaperAnalysis) -> u64 {
        let v = validate(a, self.nv >= 1 << 15);
        out.check(v.all_passed(), || {
            format!("validation failed\n{}", v.render())
        });
        if self.spill {
            let exact = a.spill.len() == a.quantities.len()
                && a.spill
                    .iter()
                    .all(|r| r.is_exact() && r.stats.evictions > 0);
            out.check(exact, || "spilled build degraded or never evicted".into());
        }
        fnv1a(FNV_OFFSET, a.to_tsv().as_bytes())
    }

    /// Check a run's digest against the pin for its `(N_V, seed)`, if
    /// there is one. The pin does not name the workload: the spilled build
    /// must give the in-memory digest.
    pub fn check_digest(&self, out: &mut Outcome, seed: u64, digest: u64) {
        eprintln!("tsv digest {digest:016x} (N_V {}, seed {seed})", self.nv);
        if let Some(pin) = pinned(self.nv, seed) {
            out.check(digest == pin, || {
                format!("tsv digest {digest:016x} != pinned {pin:016x}")
            });
        }
    }
}

/// The digest `pins.tsv` pins for `(nv, seed)`.
pub fn pinned(nv: usize, seed: u64) -> Option<u64> {
    let key = [nv.to_string(), seed.to_string()];
    include_str!("../pins.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f.len() == 3 && f[..2] == key)
                .then(|| u64::from_str_radix(f[2], 16).ok())
                .flatten()
        })
}

/// Run `pipeline::run` on the workload's scenario, each run followed by a
/// reading of the [`Kernel::Sort`] calibration, as long as the next run
/// fits in `seconds` (at least once), and report the end-to-end metrics:
/// throughput over the median scaled run time, and the median over runs of
/// the process's peak RSS during the run.
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (scenario, setup_s) = timed_setup(|| plan.scenario(seed), drop);
    out.set("setup_s", setup_s);
    let config = plan.config();
    let mut cal = Calibration::start(Kernel::Sort);
    let (mut run_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut packets = 0u64;
    let mut peaks = Vec::new();
    let mut first: Option<u64> = None;
    let (mut elapsed_ns, mut last_ns) = (0u64, 0u64);
    while run_s.is_empty() || ((elapsed_ns + last_ns) as f64) < seconds * 1e9 {
        let ((), ns) = time_fn(|| {
            let ((a, ns), peak) = with_peak_rss(|| time_fn(|| pipeline::run(&scenario, &config)));
            peaks.push(peak);
            wall_s.push(ns as f64 / 1e9);
            run_s.push(ns as f64 / 1e9 * cal.factor());
            packets = a.quantities.iter().map(|(_, q)| q.valid_packets).sum();
            let digest = plan.check(&mut out, &a);
            match first {
                None => first = Some(digest),
                Some(d) => out.check(d == digest, || {
                    "the scenario gave a different TSV on a repeat run".into()
                }),
            }
        });
        elapsed_ns += ns;
        last_ns = ns;
    }
    out.set("peak_rss_mb", median_peak_rss_mb(&peaks));
    if let Some(digest) = first {
        plan.check_digest(&mut out, seed, digest);
    }
    let median_s = |s: &[f64]| median(s).expect("the loop runs at least once");
    out.set_sampled(
        "throughput_pps",
        packets as f64 / median_s(&run_s),
        run_s.len(),
    );
    out.note(format!(
        "unscaled throughput_pps {} pkt/s, calibration kernel {} ms n={}",
        packets as f64 / median_s(&wall_s),
        cal.median_ms(),
        cal.samples()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_are_keyed_by_size_and_seed() {
        assert!(pinned(1 << 12, 42).is_some());
        assert!(pinned(1 << 12, 7).is_some());
        assert_eq!(pinned(1 << 12, 43), None);
        assert_eq!(pinned(1 << 13, 42), None);
    }
}
