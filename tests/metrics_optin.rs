//! Integration: the metric families outside the default schema, and the
//! one level that gates the detail ones.
//!
//! The default 82-name schema is pinned byte-for-byte by
//! `tests/metrics_schema.rs`; this binary (a separate process, so the
//! level it sets cannot leak into that pin) proves the two halves of the
//! contract:
//!
//! 1. at the default `Level::Run`, the detail families
//!    (`hypersparse.radix.*`, `anonymize.cache.*`, `assoc.bitset.*`) emit
//!    **nothing**, while the path families (`hypersparse.spill.*`,
//!    `telescope.ingest.*`, `ingest.backpressure.*`) appear exactly,
//!    because their paths (a store-owning fold, the ingest service) ran;
//!    and
//! 2. once `obscor_obs::set_level(Level::Detail)` is called, the 14
//!    detail names appear too — the exact documented set, and nothing
//!    else.

use obscor::anonymize::MemoCryptoPan;
use obscor::assoc::BitSet;
use obscor::hypersparse::spill::{MemMedium, SpillConfig};
use obscor::hypersparse::{Coo, HierarchicalAccumulator};
use obscor::telescope::{IngestConfig, IngestService};
use obscor_obs::{Level, MetricsSnapshot};
use std::sync::Arc;

/// Every name outside the default schema, sorted — the schema-pin
/// strategy applied to the detail and path families (a new name must be
/// added here and to DESIGN.md §12 deliberately).
const OPTIN_NAMES: [&str; 29] = [
    "anonymize.cache.batch_dup_hits_total",
    "anonymize.cache.prefix_hits_total",
    "anonymize.cache.suffix_aes_total",
    "anonymize.cache.table_builds_total",
    "assoc.bitset.containers_array_total",
    "assoc.bitset.containers_bitmap_total",
    "assoc.bitset.containers_runs_total",
    "assoc.bitset.words_scanned_total",
    "hypersparse.radix.compactions_total",
    "hypersparse.radix.digit_passes_total",
    "hypersparse.radix.keys_total",
    "hypersparse.radix.skipped_digits_total",
    "hypersparse.spill.bytes_read_total",
    "hypersparse.spill.bytes_written_total",
    "hypersparse.spill.evictions_total",
    "hypersparse.spill.reloads_total",
    "ingest.backpressure.blocked",
    "span.hypersparse.radix.digit_passes.calls_total",
    "span.hypersparse.radix.digit_passes.ns",
    "span.hypersparse.spill.merge.level0.calls_total",
    "span.hypersparse.spill.merge.level0.ns",
    "span.hypersparse.spill.merge.level1.calls_total",
    "span.hypersparse.spill.merge.level1.ns",
    "span.hypersparse.spill.merge.level2.calls_total",
    "span.hypersparse.spill.merge.level2.ns",
    "telescope.ingest.leaves_total",
    "telescope.ingest.merges_total",
    "telescope.ingest.packets_total",
    "telescope.ingest.windows_closed_total",
];

/// The detail families: recorded only at `Level::Detail`.
fn is_detail(name: &str) -> bool {
    name.starts_with("hypersparse.radix.")
        || name.starts_with("span.hypersparse.radix.")
        || name.starts_with("anonymize.cache.")
        || name.starts_with("assoc.bitset.")
}

/// The path families: recorded whenever their path runs, at any level.
fn is_path(name: &str) -> bool {
    name.starts_with("hypersparse.spill.")
        || name.starts_with("span.hypersparse.spill.")
        || name.starts_with("telescope.ingest.")
        || name.starts_with("ingest.backpressure.")
}

/// Run every exercise and return the sorted detail- and path-family names
/// the runs recorded, with the run's metric delta.
fn exercise_all() -> (Vec<String>, MetricsSnapshot) {
    let before = obscor_obs::snapshot();
    exercise_fast_paths();
    exercise_bitset();
    exercise_spilled_fold();
    exercise_streaming_ingest();
    let delta = obscor_obs::snapshot().delta_since(&before);
    let names =
        delta.metric_names().into_iter().filter(|n| is_detail(n) || is_path(n)).collect();
    (names, delta)
}

/// Drive every fast path far enough to touch all detail metric sites:
/// a compaction big enough to take the radix arm of `into_csr` (at or
/// above `RADIX_THRESHOLD`), a memo table build, scalar anonymization, and
/// a batch with duplicates.
fn exercise_fast_paths() {
    let n = 40_000u32;
    let triples: Vec<(u32, u32, u64)> =
        (0..n).map(|i| (i % 2048, i % 509, 1u64)).collect();
    let csr = Coo::from_triples(triples).into_csr();
    assert!(csr.nnz() > 0);

    let memo = MemoCryptoPan::new(&[0x42u8; 32]);
    let a = memo.anonymize(0x0A00_0001);
    assert_eq!(memo.deanonymize(a), 0x0A00_0001);
    let mut batch = vec![0x0A00_0001, 0x0A00_0001, 0x0A00_0002, 0xC0A8_0001];
    memo.anonymize_slice(&mut batch);
    assert_eq!(batch[0], batch[1]);
}

/// Drive the compressed-bitmap substrate through every `assoc.bitset.*`
/// site with a deterministic footprint: one set of each container form
/// and one overlap. Even keys defeat run compression, so 4096 of them
/// make an array and 8192 a bitmap; a contiguous slab makes one run.
fn exercise_bitset() {
    let keys = |range: std::ops::Range<u32>, step: u32| -> Vec<u32> {
        range.map(|k| step * k).collect()
    };
    let array = BitSet::from_sorted_unique(&keys(0..4096, 2));
    let bitmap = BitSet::from_sorted_unique(&keys(1..8193, 2));
    let runs = BitSet::from_sorted_unique(&keys(0..1024, 1));
    let census = [array.container_census(), bitmap.container_census(), runs.container_census()];
    assert_eq!(census, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]);
    // The one run covers the bitmap's first 16 words.
    assert_eq!(bitmap.overlap_count(&runs), 511);
}

/// Drive the out-of-core fold through every `hypersparse.spill.*` site
/// with a *deterministic* name footprint: exactly 8 leaves under a zero
/// budget evict/reload every carry and merge at carry levels 0, 1, and 2
/// only (the finalize step sees a single part, so no tree merge adds a
/// level name).
fn exercise_spilled_fold() {
    let config = SpillConfig { leaf_capacity: 4, memory_budget: Some(0) };
    let mut acc = HierarchicalAccumulator::<u64>::spilling(config, Arc::new(MemMedium::new()));
    for i in 0..32u32 {
        acc.push_edge(i % 8, i % 3);
    }
    let (m, report) = acc.finalize_with_report();
    assert!(m.nnz() > 0);
    assert!(report.is_exact());
    assert_eq!(report.stats.leaves, 8);
    assert_eq!(report.stats.carry_merges, 7, "8 leaves = 4+2+1 carry merges");
    assert_eq!(report.stats.tree_merges, 0, "one surviving part needs no tree");
    assert!(report.stats.evictions >= 8);
    assert!(report.stats.reloads >= 7);
}

/// Drive the streaming ingest service far enough to touch every
/// `telescope.ingest.*` site and — via a depth-1 queue, per-packet shard
/// batches, and a deliberately slow worker — the backpressure counter.
fn exercise_streaming_ingest() {
    let mut cfg = IngestConfig::new(1, 32);
    cfg.queue_depth = 1;
    cfg.shard_batch = 1;
    cfg.leaf_capacity = 8; // 64 packets / 8 → multiple leaves → merges ≥ 1
    cfg.worker_delay_micros = 1500;
    let mut svc = IngestService::new(cfg);
    for i in 0..64u32 {
        svc.push(i % 16, i % 5);
    }
    let (snaps, drain) = svc.finish();
    assert!(drain.is_exact());
    assert_eq!(snaps.len(), 2);
    assert!(
        drain.blocked > 0,
        "slow depth-1 ingest must hit backpressure so its counter is exercised"
    );
    assert!(snaps.iter().any(|s| s.merges > 0), "need a carry merge to exercise merges_total");
}

/// One test for both phases: the level is process-wide, so the `Run`
/// phase must observably complete before anything raises it.
#[test]
fn fast_path_metrics_are_opt_in_with_a_pinned_name_set() {
    // Phase 1: the default level — the detail families run silent, the
    // path families record because their paths ran.
    let (got, run) = exercise_all();
    let path_names: Vec<&str> = OPTIN_NAMES.into_iter().filter(|n| is_path(n)).collect();
    assert_eq!(path_names.len(), 15);
    assert_eq!(got, path_names, "path-family names drifted, or a detail name leaked");

    // The spilled fold: every byte written was read back (nothing is
    // left stranded on the medium), and the per-level merge timings
    // match the 4 + 2 + 1 carry-merge shape of an 8-leaf fold exactly.
    assert!(run.counters["hypersparse.spill.evictions_total"] >= 8);
    assert!(run.counters["hypersparse.spill.reloads_total"] >= 7);
    assert!(run.counters["hypersparse.spill.bytes_written_total"] >= 1);
    assert_eq!(
        run.counters["hypersparse.spill.bytes_read_total"],
        run.counters["hypersparse.spill.bytes_written_total"]
    );
    for (level, calls) in [(0u32, 4u64), (1, 2), (2, 1)] {
        let name = format!("span.hypersparse.spill.merge.level{level}");
        assert_eq!(run.counters[&format!("{name}.calls_total")], calls, "{name}");
        assert_eq!(run.histograms[&format!("{name}.ns")].count, calls, "{name}");
    }
    // The spilling and ingest folds time every carry merge under its own
    // span, as the resident fold does.
    assert_eq!(
        run.counters["span.hypersparse.carry_merge.calls_total"],
        run.counters["hypersparse.accumulator.carry_merges_total"]
    );
    assert!(run.counters["hypersparse.accumulator.carry_merges_total"] >= 7);
    // Streaming ingest: exact totals for the 64-packet run.
    assert_eq!(run.counters["telescope.ingest.windows_closed_total"], 2);
    assert_eq!(run.counters["telescope.ingest.packets_total"], 64);
    assert!(run.counters["telescope.ingest.leaves_total"] >= 4);
    assert!(run.counters["telescope.ingest.merges_total"] >= 1);
    assert!(run.counters["ingest.backpressure.blocked"] >= 1);

    // Phase 2: `Level::Detail` — the 14 detail names join, and the whole
    // set is exactly the pin.
    obscor_obs::set_level(Level::Detail);
    let (got, detail) = exercise_all();
    assert_eq!(got, OPTIN_NAMES, "detail- and path-family names drifted");
    assert_eq!(got.iter().filter(|n| is_detail(n)).count(), 14);

    // The counters carry real work, and the span algebra holds.
    assert!(detail.counters["hypersparse.radix.keys_total"] >= 40_000);
    assert!(detail.counters["anonymize.cache.table_builds_total"] >= 1);
    assert!(detail.counters["anonymize.cache.prefix_hits_total"] >= 1);
    assert!(detail.counters["anonymize.cache.batch_dup_hits_total"] >= 1);
    // The bitset drive: each container counts once, by its form, and the
    // overlap scans 16 bitmap words.
    assert_eq!(detail.counters["assoc.bitset.containers_array_total"], 1);
    assert_eq!(detail.counters["assoc.bitset.containers_bitmap_total"], 1);
    assert_eq!(detail.counters["assoc.bitset.containers_runs_total"], 1);
    assert_eq!(detail.counters["assoc.bitset.words_scanned_total"], 16);
    assert_eq!(
        detail.histograms["span.hypersparse.radix.digit_passes.ns"].count,
        detail.counters["span.hypersparse.radix.digit_passes.calls_total"]
    );
    // The level gates detail names only: the path families count the
    // same work at either level.
    for name in ["hypersparse.spill.bytes_written_total", "telescope.ingest.packets_total"] {
        assert_eq!(detail.counters[name], run.counters[name], "{name}");
    }
}
