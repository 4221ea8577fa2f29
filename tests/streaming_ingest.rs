//! Integration: the `telescope::stream` ingest service is bit-identical
//! to the batch build path for every (workers, queue depth, window size,
//! interleaving) combination, drains exactly, and blocks — never drops —
//! under backpressure (DESIGN.md §15).

use obscor::hypersparse::reduce::NetworkQuantities;
use obscor::hypersparse::{Coo, Csr};
use obscor::netmodel::Scenario;
use obscor::telescope::matrix::{build_matrix, build_matrix_with};
use obscor::telescope::{capture_window, IngestConfig, IngestService};
use obscor_anonymize::MemoCryptoPan;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::time::Duration;

/// A deterministic synthetic `(src, dst)` stream, heavy-tailed enough to
/// exercise dedup inside leaves.
fn pairs(n: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let src: u32 = rng.random_range(0u32..512) * 7 + 1;
            let dst: u32 = rng.random_range(0u32..64) + (10 << 24);
            (src, dst)
        })
        .collect()
}

/// The batch oracle for one window: a flat accumulation of its pairs.
fn oracle(window: &[(u32, u32)]) -> Csr<u64> {
    Coo::from_triples(window.iter().map(|&(s, d)| (s, d, 1u64))).into_csr()
}

/// Stream `all` through a service built from `cfg` and return the window
/// snapshots (in index order) plus the drain report.
fn stream_all(
    cfg: IngestConfig,
    all: &[(u32, u32)],
) -> (Vec<obscor::telescope::WindowSnapshot>, obscor::telescope::DrainReport) {
    let mut svc = IngestService::new(cfg);
    let mut snaps = Vec::new();
    for &(s, d) in all {
        svc.push(s, d);
        // Exercise the non-blocking receive path opportunistically.
        while let Some(snap) = svc.try_snapshot() {
            snaps.push(snap);
        }
    }
    let (rest, drain) = svc.finish();
    snaps.extend(rest);
    snaps.sort_by_key(|s| s.index);
    (snaps, drain)
}

#[test]
fn streamed_equals_batch_across_worker_queue_window_grid() {
    let all = pairs(5000, 11);
    // Window sizes deliberately include non-multiples of the shard batch
    // (and of the packet count, forcing a partial final window).
    for &workers in &[1usize, 2, 4, 8] {
        for &queue_depth in &[1usize, 4] {
            for &window_packets in &[700usize, 1024, 2500] {
                let mut cfg = IngestConfig::new(workers, window_packets);
                cfg.queue_depth = queue_depth;
                cfg.shard_batch = 256;
                cfg.leaf_capacity = 128;
                let (snaps, drain) = stream_all(cfg, &all);
                let label = format!("workers={workers} depth={queue_depth} win={window_packets}");
                assert!(drain.is_exact(), "{label}: inexact drain {drain:?}");
                assert_eq!(drain.received, all.len() as u64, "{label}");
                let expected_windows = all.len().div_ceil(window_packets);
                assert_eq!(snaps.len(), expected_windows, "{label}");
                for (i, (snap, chunk)) in snaps.iter().zip(all.chunks(window_packets)).enumerate() {
                    assert_eq!(snap.index, i as u64, "{label}");
                    assert_eq!(snap.packets, chunk.len() as u64, "{label}");
                    assert_eq!(snap.partial, chunk.len() < window_packets, "{label} window {i}");
                    assert_eq!(snap.matrix, oracle(chunk), "{label}: window {i} diverged");
                }
            }
        }
    }
}

#[test]
fn single_worker_queue_depth_one_still_bit_identical() {
    // The degenerate topology: one worker, no pipelining slack at all.
    let all = pairs(900, 3);
    let mut cfg = IngestConfig::new(1, 400);
    cfg.queue_depth = 1;
    cfg.shard_batch = 7; // non-divisor of everything above
    cfg.leaf_capacity = 13;
    let (snaps, drain) = stream_all(cfg, &all);
    assert!(drain.is_exact());
    assert_eq!(snaps.len(), 3);
    assert!(snaps[2].partial, "100-packet tail must be a partial window");
    for (snap, chunk) in snaps.iter().zip(all.chunks(400)) {
        assert_eq!(snap.matrix, oracle(chunk));
    }
}

#[test]
fn streamed_matches_telescope_batch_capture() {
    // End-to-end against the real batch path: the same captured window,
    // streamed, must reproduce build_matrix byte for byte.
    let scenario = Scenario::paper_scaled(1 << 14, 42);
    let window = capture_window(&scenario, &scenario.caida_windows[0]);
    let batch = build_matrix(&window);
    let coords: Vec<(u32, u32)> =
        window.window.packets.iter().map(|p| (p.src.0, p.dst.0)).collect();
    let (snaps, drain) = stream_all(IngestConfig::new(4, coords.len()), &coords);
    assert!(drain.is_exact());
    assert_eq!(snaps.len(), 1);
    assert!(!snaps[0].partial);
    assert_eq!(snaps[0].matrix, batch, "streamed capture diverged from build_matrix");
}

#[test]
fn streamed_anonymized_matches_memoized_batch_build() {
    let scenario = Scenario::paper_scaled(1 << 14, 43);
    let window = capture_window(&scenario, &scenario.caida_windows[1]);
    let key = [0x5Au8; 32];
    let memo = MemoCryptoPan::new(&key);
    let batch = build_matrix_with(&window, |ip| memo.anonymize(ip));
    let coords: Vec<(u32, u32)> =
        window.window.packets.iter().map(|p| (p.src.0, p.dst.0)).collect();
    let mut svc = IngestService::with_anonymizer(
        IngestConfig::new(4, coords.len()),
        MemoCryptoPan::new(&key),
    );
    svc.push_pairs(&coords);
    let (snaps, drain) = svc.finish();
    assert!(drain.is_exact());
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].matrix, batch, "anonymized stream diverged from memoized batch");
}

proptest! {
    /// Randomized per-worker batch boundaries: any (workers, queue depth,
    /// shard batch, window size) keeps the matrices — and the analysis
    /// goldens computed from them — identical to the batch build.
    #[test]
    fn random_shard_geometry_preserves_analysis_goldens(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(200..3000);
        let all = pairs(n, seed ^ 0x9E37_79B9);
        let window_packets = rng.random_range(64..=n.max(65));
        let mut cfg = IngestConfig::new(
            rng.random_range(1..=8),
            window_packets,
        );
        cfg.queue_depth = rng.random_range(1..=8);
        cfg.shard_batch = rng.random_range(1..=300);
        cfg.leaf_capacity = rng.random_range(8..=600);
        let (snaps, drain) = stream_all(cfg, &all);
        prop_assert!(drain.is_exact());
        prop_assert_eq!(snaps.len(), n.div_ceil(window_packets));
        for (snap, chunk) in snaps.iter().zip(all.chunks(window_packets)) {
            let batch = oracle(chunk);
            prop_assert_eq!(&snap.matrix, &batch);
            // Analysis goldens, not just raw bytes: the Table II network
            // quantities reduced from both matrices must agree exactly.
            let a = NetworkQuantities::compute(&snap.matrix);
            let b = NetworkQuantities::compute(&batch);
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn mid_window_drain_flushes_partial_with_exact_accounting() {
    let all = pairs(1000, 21);
    let mut cfg = IngestConfig::new(4, 384); // 2 full windows + 232-packet tail
    cfg.shard_batch = 100;
    cfg.leaf_capacity = 64;
    let (snaps, drain) = stream_all(cfg, &all);
    assert_eq!(drain.received, 1000);
    assert_eq!(drain.compacted, 1000, "every received packet must be compacted");
    assert_eq!(drain.in_flight, 0, "nothing may remain in flight after a drain");
    assert_eq!(drain.windows_closed, 3);
    assert!(drain.partial_flushed);
    assert_eq!(snaps.len(), 3);
    assert!(!snaps[0].partial && !snaps[1].partial && snaps[2].partial);
    assert_eq!(snaps[2].packets, 232);
    assert_eq!(snaps[2].matrix, oracle(&all[768..]));
}

#[test]
fn drain_with_no_partial_window_flushes_nothing_extra() {
    let all = pairs(800, 22);
    let (snaps, drain) = stream_all(IngestConfig::new(2, 400), &all);
    assert!(drain.is_exact());
    assert!(!drain.partial_flushed, "exact boundary drain must not flag a partial");
    assert_eq!(snaps.len(), 2);
    assert!(snaps.iter().all(|s| !s.partial));
}

/// Run `f` under a 10-second deadlock watchdog: the drain must complete
/// and report back well before the timeout or the test fails (rather than
/// hanging the whole suite).
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(v) => {
            worker.join().expect("watchdogged closure panicked");
            v
        }
        Err(_) => panic!("streaming drain deadlocked (10s watchdog expired)"),
    }
}

#[test]
fn drain_joins_cleanly_under_watchdog() {
    // The full shutdown protocol — flush, close broadcast, channel drop,
    // worker join, collector join — must terminate even with minimal
    // queue slack and a mid-window stop.
    let (snaps, drain) = with_watchdog(|| {
        let all = pairs(1500, 23);
        let mut cfg = IngestConfig::new(8, 999);
        cfg.queue_depth = 1;
        cfg.shard_batch = 17;
        cfg.leaf_capacity = 29;
        stream_all(cfg, &all)
    });
    assert!(drain.is_exact());
    assert!(drain.partial_flushed);
    assert_eq!(snaps.len(), 2);
}

#[test]
fn empty_stream_drains_clean_under_watchdog() {
    let drain = with_watchdog(|| {
        let svc = IngestService::new(IngestConfig::new(4, 1024));
        let (snaps, drain) = svc.finish();
        assert!(snaps.is_empty(), "no packets → no snapshots");
        drain
    });
    assert!(drain.is_exact());
    assert_eq!(drain.received, 0);
    assert_eq!(drain.windows_closed, 0);
    assert!(!drain.partial_flushed);
}

#[test]
fn slow_consumer_blocks_but_never_drops() {
    // Queue depth 1, shard batch 1, and an artificially slow worker: the
    // producer MUST hit backpressure, and every packet must still arrive.
    let (snaps, drain) = with_watchdog(|| {
        let all = pairs(50, 24);
        let mut cfg = IngestConfig::new(1, 20);
        cfg.queue_depth = 1;
        cfg.shard_batch = 1;
        cfg.leaf_capacity = 4;
        cfg.worker_delay_micros = 2000;
        stream_all(cfg, &all)
    });
    assert!(drain.blocked > 0, "depth-1 queue with a slow worker must block the producer");
    assert_eq!(drain.received, 50);
    assert_eq!(drain.compacted, 50, "backpressure must block, never drop");
    assert_eq!(drain.in_flight, 0);
    let streamed: u64 = snaps.iter().map(|s| s.packets).sum();
    assert_eq!(streamed, 50, "snapshots must account for the exact final packet count");
}

#[test]
fn worker_skew_does_not_change_snapshots() {
    // Determinism under scheduling skew: a deliberately slow pool and a
    // fast pool must produce identical matrices AND identical leaf/merge
    // stats, because leaves merge in (worker, seq) order — not completion
    // order.
    let all = pairs(1200, 25);
    let mut fast = IngestConfig::new(4, 500);
    fast.shard_batch = 32;
    fast.leaf_capacity = 48;
    let mut slow = fast.clone();
    slow.worker_delay_micros = 3000;
    let (a, da) = stream_all(fast, &all);
    let (b, db) = with_watchdog(move || stream_all(slow, &all));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.matrix, y.matrix, "window {} matrix changed under skew", x.index);
        assert_eq!(x.leaves, y.leaves, "window {} leaf count changed under skew", x.index);
        assert_eq!(x.merges, y.merges, "window {} merge count changed under skew", x.index);
    }
    assert_eq!(da.received, db.received);
    assert_eq!(da.windows_closed, db.windows_closed);
}
