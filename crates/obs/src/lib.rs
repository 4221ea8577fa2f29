//! Pipeline observability: a dependency-free metrics layer for the whole
//! workspace.
//!
//! The paper this repository reproduces is fundamentally a performance
//! paper — insert rates and stage costs are headline results — so every
//! pipeline stage records what it does through this crate:
//!
//! * [`Counter`] — monotonic event counts (`stage.capture.packets_total`)
//! * [`Gauge`] — instantaneous values (`config.window_count`)
//! * [`Histogram`] — log2-bucketed distributions (durations, batch sizes)
//! * [`SpanTimer`] — RAII wall-clock spans; dropping one records
//!   `span.<name>.ns` (histogram) and `span.<name>.calls_total` (counter)
//!
//! All metrics live in a process-global [`Registry`] (lock-free to update,
//! locked only on name lookup) and can be frozen into a
//! [`MetricsSnapshot`], which serializes to the stable `obscor.metrics.v1`
//! JSON schema (see the [`snapshot`](mod@snapshot) module) consumed by
//! `obscor --metrics <path>` and the bench crate's `BENCH_pipeline.json`.
//!
//! # Naming scheme
//!
//! Dot-separated lowercase paths, most-general first:
//!
//! * `span.<stage>.ns` / `span.<stage>.calls_total` — reserved for
//!   [`SpanTimer`]; never written directly.
//! * `stage.<stage>.<what>_total` — counters of work done inside a stage.
//! * `hypersparse.<structure>.<what>` — data-structure internals
//!   (leaf compactions, carry merges).
//! * `config.<knob>` — gauges mirroring run configuration.
//!
//! # Scoping a run
//!
//! The global registry lives for the whole process, so a caller that wants
//! metrics for *one* pipeline run (e.g. parallel tests) snapshots before and
//! takes [`MetricsSnapshot::delta_since`] after:
//!
//! ```
//! let before = obscor_obs::snapshot();
//! {
//!     let _span = obscor_obs::span("demo.stage");
//!     obscor_obs::counter("demo.items_total").add(3);
//! }
//! let run = obscor_obs::snapshot().delta_since(&before);
//! assert_eq!(run.counters["demo.items_total"], 3);
//! assert_eq!(run.counters["span.demo.stage.calls_total"], 1);
//! ```
//!
//! # Levels
//!
//! A metric is recorded whenever the code path that records it runs, with
//! one exception: the *detail* families inside hot loops
//! (`hypersparse.radix.*`, `anonymize.cache.*`, `assoc.bitset.*`) record
//! only at [`Level::Detail`]. Their sites check [`detail`]; the CLI sets
//! the level once, from `--fast-path-metrics`.
//!
//! This crate is deliberately dependency-free (it sits below every other
//! workspace crate) and is the single sanctioned home of `Instant::now()` —
//! the `instant-timing` rule in `cargo xtask audit` rejects ad-hoc timing
//! elsewhere so measurements cannot bypass the registry.

pub mod fault;
mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use fault::FaultClass;
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SCHEMA};
pub use span::{time_fn, SpanTimer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How much the process records (see the crate docs' *Levels*).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Level {
    /// Every metric whose code path runs, except the detail families.
    #[default]
    Run,
    /// [`Level::Run`] plus the detail families.
    Detail,
}

static DETAIL: AtomicBool = AtomicBool::new(false);

/// Set the process-wide metrics level.
pub fn set_level(level: Level) {
    DETAIL.store(level == Level::Detail, Ordering::Relaxed); // ordering: publishes no data; a stale read only records or skips a detail metric
}

/// Whether detail families record ([`Level::Detail`]): the one check a
/// detail site makes, one relaxed load.
#[inline]
pub fn detail() -> bool {
    DETAIL.load(Ordering::Relaxed) // ordering: level read; pairs with nothing (see `set_level`)
}

/// The global counter named `name` (created at zero on first use).
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// The global gauge named `name` (created at zero on first use).
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// The global histogram named `name` (created empty on first use).
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Start an RAII timing span against the global registry.
pub fn span(name: &str) -> SpanTimer {
    SpanTimer::start(name)
}

/// Freeze the current state of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}
