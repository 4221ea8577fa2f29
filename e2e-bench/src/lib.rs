//! `obscor-bench`: the end-to-end benchmark of the obscor workspace.
//!
//! Four workloads drive the public API the way its users do: two run the
//! batch reproduction (`pipeline::run`, what `obscor reproduce` runs), in
//! memory and spilled to disk, and two run the streaming ingest service
//! (`IngestService`, what `obscor serve` runs, with one worker), without
//! and with anonymization. Each prints the end-to-end metrics declared in
//! the repository's `BENCHMARK.json`, or, traced, the per-layer metrics.
//! Timed metrics are scaled to a reference host speed ([`calibrate`]).
//! See `README.md` beside this crate for what each workload and metric is
//! for.

pub mod calibrate;
pub mod cli;
pub mod json;
pub mod reproduce;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;

use crate::calibrate::{Calibration, Kernel};
use crate::cli::Args;
use crate::workload::{Kind, Outcome, Workload};
use obscor_stats::summary::median;
use std::path::PathBuf;

/// Set-ups timed per run; the median of their scaled times is reported.
const SETUP_REPEATS: usize = 15;

/// The benchmark's own scratch directory (spill files), inside this
/// package so the benchmark writes only inside its checkout.
pub(crate) fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(std::process::id().to_string())
}

/// Run `make` `SETUP_REPEATS` times, each followed by a reading of the
/// [`Kernel::Sort`] calibration (set-ups build scenarios: sorting and
/// hashing), handing all but the last result to `discard`; returns the
/// last result and the median scaled set-up seconds.
pub(crate) fn timed_setup<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut cal = Calibration::start(Kernel::Sort);
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let (v, ns) = obscor_obs::time_fn(&mut make);
        secs.push(ns as f64 / 1e9 * cal.factor());
        kept = Some(v);
    }
    (
        kept.expect("SETUP_REPEATS is positive"),
        median(&secs).expect("SETUP_REPEATS is positive"),
    )
}

/// Run one workload in this process.
pub fn run_workload(w: &Workload, args: &Args) -> Outcome {
    match &w.kind {
        Kind::Reproduce(plan) => {
            let out = if args.trace {
                trace::run(plan, args.seed)
            } else {
                reproduce::run(plan, args.seed, args.seconds)
            };
            // Spill media delete their own directories; this removes the
            // per-process parent and, once empty, the scratch root.
            let dir = scratch_dir();
            let _ = std::fs::remove_dir(&dir);
            let _ = dir.parent().map(std::fs::remove_dir);
            out
        }
        Kind::Stream(plan) if args.trace => plan.trace(args.seed, args.seconds),
        Kind::Stream(plan) => plan.run(args.seed, args.seconds),
    }
}
