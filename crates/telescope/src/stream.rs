//! Streaming line-rate ingest service.
//!
//! The batch pipeline captures a whole window, then analyzes it. The
//! operational setting the paper models — a darknet telescope watching live
//! traffic — is a stream, and the GraphBLAS-on-the-edge line of work builds
//! its matrices *while the packets arrive*: memoized-CryptoPAN
//! anonymization at line rate, cache-sized leaf matrices compacted as they
//! fill, and a hierarchical fold that keeps memory bounded.
//! [`IngestService`] is that architecture:
//!
//! ```text
//!                 bounded(queue_depth)            unbounded
//!  producer ──┬──> worker 0: leaf Coo ─ radix ──┐
//!  (caller    ├──> worker 1: leaf Coo ─ radix ──┼──> collector ──> snapshots
//!   thread)   ├──> ...                          │    (reorders,
//!             └──> worker N-1                   │     merges, closes)
//! ```
//!
//! * The **producer** is the caller: [`IngestService::push`] accumulates
//!   packets into shard batches and round-robins them over `workers`
//!   bounded channels. A full channel **blocks** the producer (after
//!   counting the stall in `ingest.backpressure.blocked`) — packets are
//!   never dropped.
//! * Each **worker** owns a leaf [`Coo`] builder; when it reaches
//!   `leaf_capacity` triples it is compacted straight to CSR through the
//!   radix kernel (`Coo::into_csr`) and handed to the collector
//!   tagged with a `(worker, seq)` sequence number.
//! * The **collector** buffers each window's leaves and, once every worker
//!   has acknowledged the window's close marker, merges them **in
//!   `(worker, seq)` order** — *not* completion order — into the one
//!   window fold ([`window_fold`], a
//!   [`obscor_hypersparse::HierarchicalAccumulator`]) via
//!   [`obscor_hypersparse::HierarchicalAccumulator::push_csr_leaf`], then
//!   emits a [`WindowSnapshot`].
//!
//! # Determinism and bit-identity
//!
//! For `u64` packet counts the final CSR is the canonical form of a
//! multiset of edges, so *any* leaf partition and merge order yields the
//! same matrix — the differential tests in `tests/streaming_ingest.rs`
//! prove the streamed window is byte-equal to `capture_window` + batch
//! build for every (workers, queue-depth, window-size) combination. The
//! sequence-ordered merge closes the remaining hazard: merge *statistics*
//! (leaf/merge counts per level) and any future non-integer `Value` would
//! observe completion order, which varies run to run. Ordering leaves by
//! `(worker, seq)` makes the whole fold a pure function of the input
//! partition.
//!
//! # Window-close protocol
//!
//! The producer cuts shard batches at window boundaries (a batch never
//! spans two windows) and broadcasts a `Close` marker to every worker
//! after the last batch of a window. Channels are FIFO, so by the time a
//! worker sees `Close(k)` it has folded every one of its window-`k`
//! batches; it flushes its partial leaf and acknowledges with a
//! `WindowDone` carrying exact packet counts. The collector closes window
//! `k` when all `workers` acknowledgements are in. [`IngestService::finish`]
//! sends a final mid-window `Close` (flagged partial), drops the channels,
//! and joins everything — the [`DrainReport`] proves exact accounting:
//! `received == compacted` and `in_flight == 0`.
//!
//! # Metrics
//!
//! Only an [`IngestService`] records
//! `telescope.ingest.{packets,windows_closed,leaves,merges}_total` and
//! `ingest.backpressure.blocked`, so a default `reproduce` never shows
//! them; all are pinned by `tests/metrics_optin.rs`.

use crate::matrix::{leaf_capacity_for, window_fold, SpillSettings};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use obscor_anonymize::MemoCryptoPan;
use obscor_hypersparse::{Coo, Csr, SpillReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of an [`IngestService`].
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Worker threads packets are sharded across.
    pub workers: usize,
    /// Valid packets per window; a snapshot is emitted every `window_packets`.
    pub window_packets: usize,
    /// Shard batches buffered per worker channel before producers block.
    pub queue_depth: usize,
    /// Packets accumulated by the producer before handing a batch to a
    /// worker. Window boundaries always cut a batch short.
    pub shard_batch: usize,
    /// Triples per worker leaf before radix compaction to CSR.
    pub leaf_capacity: usize,
    /// Artificial per-batch worker delay in microseconds. `0` in
    /// production; the backpressure tests and benches use it to force a
    /// deliberately slow consumer.
    pub worker_delay_micros: u64,
    /// Out-of-core settings of the collector's window fold. `None` (the
    /// default) keeps the fold fully in memory; `Some` makes it the
    /// spilling [`window_fold`], evicting carry parts to disk whenever the
    /// budget is exceeded. The emitted matrix is bit-identical either way.
    pub spill: Option<SpillSettings>,
}

impl IngestConfig {
    /// A config with the defaults the batch path uses: the batch leaf
    /// capacity ([`leaf_capacity_for`]: an eighth of the window, between
    /// 1024 and the paper's `2^17` packets), 1024-packet shard batches, and
    /// queue depth 4.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `window_packets == 0`.
    pub fn new(workers: usize, window_packets: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(window_packets > 0, "window must hold at least one packet");
        Self {
            workers,
            window_packets,
            queue_depth: 4,
            shard_batch: 1024,
            leaf_capacity: leaf_capacity_for(window_packets),
            worker_delay_micros: 0,
            spill: None,
        }
    }

    /// Internal consistency check used by [`IngestService::new`].
    fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.window_packets > 0, "window must hold at least one packet");
        assert!(self.queue_depth > 0, "queue depth must be positive");
        assert!(self.shard_batch > 0, "shard batch must be positive");
        assert!(self.leaf_capacity > 0, "leaf capacity must be positive");
    }
}

/// One closed window, emitted by the collector.
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// Zero-based window index in stream order.
    pub index: u64,
    /// The window's traffic matrix — byte-equal to the batch build of the
    /// same packets.
    pub matrix: Csr<u64>,
    /// Valid packets folded into this window.
    pub packets: u64,
    /// Compacted leaves merged into the matrix.
    pub leaves: u64,
    /// Pairwise carry merges performed by the hierarchical fold.
    pub merges: u64,
    /// Whether this window was cut short by a drain ([`IngestService::finish`]
    /// before the boundary) rather than closing at `window_packets`.
    pub partial: bool,
    /// Spill/merge accounting when the window was folded out-of-core
    /// ([`IngestConfig::spill`] set); `None` for the in-memory fold.
    pub spill: Option<SpillReport>,
    /// Why a budgeted window was folded in memory instead: the fault that
    /// kept its spill directory from being created. `None` when no budget
    /// is configured or the window spilled as asked.
    pub spill_fallback: Option<String>,
}

/// Exact end-of-stream accounting returned by [`IngestService::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Packets accepted by [`IngestService::push`].
    pub received: u64,
    /// Packets that reached the collector inside compacted leaves.
    pub compacted: u64,
    /// Packets sent to workers but not yet collected — always `0` after a
    /// completed drain.
    pub in_flight: u64,
    /// Windows closed (including a final partial window, if any).
    pub windows_closed: u64,
    /// Producer sends that found a worker queue full and blocked.
    pub blocked: u64,
    /// Whether the drain flushed a partial (mid-window) snapshot.
    pub partial_flushed: bool,
}

impl DrainReport {
    /// The drain invariant: every received packet was compacted and
    /// nothing is still in flight.
    pub fn is_exact(&self) -> bool {
        self.received == self.compacted && self.in_flight == 0
    }
}

/// Counters shared between producer, workers, and collector.
struct Shared {
    /// Packets handed to workers whose leaf has not yet reached the
    /// collector.
    in_flight: AtomicU64,
    /// Producer sends that hit a full queue and blocked.
    blocked: AtomicU64,
    /// Windows closed so far, published by the collector.
    windows_closed: AtomicU64,
}

/// Producer → worker protocol.
enum ToWorker {
    /// One shard batch of `(src, dst)` pairs, all from the same window.
    Batch(Vec<(u32, u32)>),
    /// The window the worker is currently folding is complete (or, when
    /// `partial`, being drained mid-window): flush and acknowledge.
    Close {
        /// Window index being closed.
        window: u64,
        /// Whether this close is a mid-window drain flush.
        partial: bool,
    },
}

/// Worker → collector protocol.
enum ToCollector {
    /// One compacted leaf, tagged with its deterministic merge key.
    Leaf {
        /// Window the leaf belongs to.
        window: u64,
        /// Producing worker (first half of the merge key).
        worker: usize,
        /// Per-(worker, window) leaf sequence number (second half).
        seq: u64,
        /// Packets (pre-dedup triples) folded into the leaf.
        packets: u64,
        /// The compacted leaf matrix.
        csr: Csr<u64>,
    },
    /// A worker acknowledges a window close with its exact totals.
    WindowDone {
        /// Window index being acknowledged.
        window: u64,
        /// Leaves this worker contributed to the window.
        leaves: u64,
        /// Packets this worker folded into the window.
        packets: u64,
        /// Whether the close was a mid-window drain flush.
        partial: bool,
    },
}

/// Collector totals returned through its join handle.
struct CollectorReport {
    compacted: u64,
    windows_closed: u64,
}

/// A long-lived streaming ingest service; see the module docs for the
/// architecture.
pub struct IngestService {
    cfg: IngestConfig,
    shared: Arc<Shared>,
    senders: Vec<Sender<ToWorker>>,
    workers: Vec<JoinHandle<()>>,
    collector: JoinHandle<CollectorReport>,
    snapshots: Receiver<WindowSnapshot>,
    /// Producer-side shard batch being accumulated.
    batch: Vec<(u32, u32)>,
    next_worker: usize,
    window: u64,
    in_window: u64,
    received: u64,
}

impl IngestService {
    /// Spawn the worker pool and collector for raw (non-anonymized)
    /// ingest.
    ///
    /// # Panics
    /// Panics if any `cfg` field is zero where a positive value is
    /// required.
    pub fn new(cfg: IngestConfig) -> Self {
        Self::spawn(cfg, None)
    }

    /// Spawn the pool with line-rate memoized-CryptoPAN anonymization:
    /// every batch is anonymized inside the worker through
    /// [`MemoCryptoPan::anonymize_slice`] before it is folded, so the
    /// emitted matrices match [`crate::matrix::build_matrix_with`] over
    /// [`MemoCryptoPan::anonymize`] under the same key.
    ///
    /// # Panics
    /// Panics if any `cfg` field is zero where a positive value is
    /// required.
    pub fn with_anonymizer(cfg: IngestConfig, pan: MemoCryptoPan) -> Self {
        Self::spawn(cfg, Some(Arc::new(pan)))
    }

    fn spawn(cfg: IngestConfig, pan: Option<Arc<MemoCryptoPan>>) -> Self {
        cfg.validate();
        let shared = Arc::new(Shared {
            in_flight: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            windows_closed: AtomicU64::new(0),
        });
        let (leaf_tx, leaf_rx) = unbounded::<ToCollector>();
        let (snap_tx, snap_rx) = unbounded::<WindowSnapshot>();
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for id in 0..cfg.workers {
            let (tx, rx) = bounded::<ToWorker>(cfg.queue_depth);
            senders.push(tx);
            let out = leaf_tx.clone();
            let cfg_w = cfg.clone();
            let pan_w = pan.clone();
            workers.push(std::thread::spawn(move || worker_loop(id, &cfg_w, &rx, &out, pan_w.as_deref())));
        }
        drop(leaf_tx); // collector's input closes when the last worker exits
        let cfg_c = cfg.clone();
        let shared_c = Arc::clone(&shared);
        let collector =
            std::thread::spawn(move || collector_loop(&cfg_c, &leaf_rx, &snap_tx, &shared_c));
        Self {
            cfg,
            shared,
            senders,
            workers,
            collector,
            snapshots: snap_rx,
            batch: Vec::new(),
            next_worker: 0,
            window: 0,
            in_window: 0,
            received: 0,
        }
    }

    /// Ingest one valid packet's `(src, dst)` coordinate. Closes the
    /// current window automatically when it reaches `window_packets`.
    ///
    /// # Panics
    /// Panics if a worker thread has died (its receiver is gone).
    pub fn push(&mut self, src: u32, dst: u32) {
        if self.batch.is_empty() {
            self.batch.reserve(self.cfg.shard_batch);
        }
        self.batch.push((src, dst));
        self.received += 1;
        self.in_window += 1;
        if self.in_window >= self.cfg.window_packets as u64 {
            // Boundary: ship the (short) final batch, then broadcast the
            // close marker so every worker flushes this window.
            self.flush_batch();
            self.broadcast_close(false);
            self.window += 1;
            self.in_window = 0;
        } else if self.batch.len() >= self.cfg.shard_batch {
            self.flush_batch();
        }
    }

    /// Ingest a slice of `(src, dst)` coordinates.
    pub fn push_pairs(&mut self, pairs: &[(u32, u32)]) {
        for &(s, d) in pairs {
            self.push(s, d);
        }
    }

    /// Packets accepted so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Windows closed so far (snapshots may still be queued for receipt).
    pub fn windows_closed(&self) -> u64 {
        // ordering: the collector's snapshot send happens-before its Release store, which this Acquire pairs with
        self.shared.windows_closed.load(Ordering::Acquire)
    }

    /// Receive the next closed-window snapshot if one is ready, without
    /// blocking.
    pub fn try_snapshot(&self) -> Option<WindowSnapshot> {
        self.snapshots.try_recv().ok()
    }

    /// Shut down: flush the shard batch and any partial window, close the
    /// channels, join every worker and the collector, and return all
    /// not-yet-received snapshots plus the exact drain accounting.
    ///
    /// # Panics
    /// Panics if a worker or the collector panicked.
    pub fn finish(mut self) -> (Vec<WindowSnapshot>, DrainReport) {
        self.flush_batch();
        let partial = self.in_window > 0;
        if partial {
            // Mid-window drain: flush what the workers hold, flagged
            // partial so downstream can tell it from a boundary close.
            self.broadcast_close(true);
        }
        drop(self.senders); // workers' rx.iter() ends, they flush + exit
        for handle in self.workers {
            // audit:allow(panic-path) — propagating a worker panic to the caller is the documented contract
            handle.join().expect("ingest worker panicked");
        }
        // audit:allow(panic-path) — propagating a collector panic to the caller is the documented contract
        let report = self.collector.join().expect("ingest collector panicked");
        let mut snapshots = Vec::new();
        while let Ok(s) = self.snapshots.try_recv() {
            snapshots.push(s);
        }
        let drain = DrainReport {
            received: self.received,
            compacted: report.compacted,
            // ordering: the worker/collector joins above happens-before this load, so any residue is a real bug
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
            windows_closed: report.windows_closed,
            // ordering: counter read after the joins; no concurrent writers remain
            blocked: self.shared.blocked.load(Ordering::Relaxed),
            partial_flushed: partial,
        };
        (snapshots, drain)
    }

    /// Hand the accumulated shard batch to the next worker (round-robin).
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        self.shared.in_flight.fetch_add(batch.len() as u64, Ordering::Relaxed); // ordering: counter; exactness is settled by the joins in finish
        self.send_to(self.next_worker, ToWorker::Batch(batch));
        self.next_worker = (self.next_worker + 1) % self.senders.len();
    }

    /// Broadcast a window-close marker to every worker.
    fn broadcast_close(&self, partial: bool) {
        for tx in &self.senders {
            tx.send(ToWorker::Close { window: self.window, partial })
                // audit:allow(panic-path) — documented `# Panics` contract: a dead worker is unrecoverable
                .expect("ingest worker terminated early");
        }
    }

    /// Send to worker `w`, counting (never dropping) backpressure stalls.
    fn send_to(&self, w: usize, msg: ToWorker) {
        let msg = match self.senders[w].try_send(msg) {
            Ok(()) => return,
            Err(TrySendError::Full(m)) => {
                self.shared.blocked.fetch_add(1, Ordering::Relaxed); // ordering: counter; read only after the joins in finish
                obscor_obs::counter("ingest.backpressure.blocked").inc();
                m
            }
            Err(TrySendError::Disconnected(_)) => {
                // audit:allow(panic-path) — documented `# Panics` contract: a dead worker is unrecoverable
                panic!("ingest worker terminated early");
            }
        };
        // Queue full: block until the slow consumer drains a slot.
        self.senders[w]
            .send(msg)
            // audit:allow(panic-path) — documented `# Panics` contract: a dead worker is unrecoverable
            .expect("ingest worker terminated early");
    }
}

/// Worker body: fold batches into a leaf `Coo`, radix-compact full leaves,
/// flush on every close marker.
fn worker_loop(
    id: usize,
    cfg: &IngestConfig,
    rx: &Receiver<ToWorker>,
    out: &Sender<ToCollector>,
    pan: Option<&MemoCryptoPan>,
) {
    let mut leaf = Coo::<u64>::with_capacity(cfg.leaf_capacity);
    let mut seq = 0u64; // leaf sequence within the current window
    let mut leaves = 0u64;
    let mut packets = 0u64;
    let mut window = 0u64;
    let mut addrs: Vec<u32> = Vec::new(); // anonymization scratch
    for msg in rx.iter() {
        match msg {
            ToWorker::Batch(mut batch) => {
                if cfg.worker_delay_micros > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(cfg.worker_delay_micros));
                }
                if let Some(pan) = pan {
                    // Line-rate anonymization: one batched prefix-sorted
                    // pass over both endpoints of the whole shard.
                    addrs.clear();
                    addrs.reserve(batch.len() * 2);
                    for &(s, d) in &batch {
                        addrs.push(s);
                        addrs.push(d);
                    }
                    pan.anonymize_slice(&mut addrs);
                    for (pair, anon) in batch.iter_mut().zip(addrs.chunks_exact(2)) {
                        *pair = (anon[0], anon[1]);
                    }
                }
                for (s, d) in batch {
                    leaf.push_edge(s, d);
                    packets += 1;
                    if leaf.len() >= cfg.leaf_capacity {
                        emit_leaf(&mut leaf, cfg.leaf_capacity, window, id, &mut seq, &mut leaves, out);
                    }
                }
            }
            ToWorker::Close { window: w, partial } => {
                debug_assert_eq!(w, window, "close marker out of order");
                if !leaf.is_empty() {
                    emit_leaf(&mut leaf, cfg.leaf_capacity, window, id, &mut seq, &mut leaves, out);
                }
                let done = ToCollector::WindowDone { window, leaves, packets, partial };
                // audit:allow(panic-path) — a dead collector is unrecoverable; the panic propagates through finish's join
                out.send(done).expect("ingest collector terminated early");
                window = w + 1;
                seq = 0;
                leaves = 0;
                packets = 0;
            }
        }
    }
}

/// Compact the worker's current leaf and ship it, tagged `(worker, seq)`.
fn emit_leaf(
    leaf: &mut Coo<u64>,
    capacity: usize,
    window: u64,
    worker: usize,
    seq: &mut u64,
    leaves: &mut u64,
    out: &Sender<ToCollector>,
) {
    let full = std::mem::replace(leaf, Coo::with_capacity(capacity));
    let packets = full.len() as u64;
    let csr = full.into_csr(); // radix kernel at and above RADIX_THRESHOLD
    let msg = ToCollector::Leaf { window, worker, seq: *seq, packets, csr };
    *seq += 1;
    *leaves += 1;
    // audit:allow(panic-path) — a dead collector is unrecoverable; the panic propagates through finish's join
    out.send(msg).expect("ingest collector terminated early");
}

/// Per-window collector state while the window is still open.
#[derive(Default)]
struct OpenWindow {
    /// Buffered leaves keyed for the deterministic merge: `(worker, seq)`.
    leaves: Vec<(usize, u64, Csr<u64>)>,
    done: usize,
    packets: u64,
    /// Leaves the workers claim to have emitted — must match the buffer.
    reported_leaves: u64,
    partial: bool,
}

/// Collector body: reorder leaves, close windows when every worker has
/// acknowledged, emit snapshots.
fn collector_loop(
    cfg: &IngestConfig,
    rx: &Receiver<ToCollector>,
    out: &Sender<WindowSnapshot>,
    shared: &Shared,
) -> CollectorReport {
    // Windows under construction. BTreeMap (not HashMap) so any future
    // iteration over still-open windows is deterministic.
    let mut open: BTreeMap<u64, OpenWindow> = BTreeMap::new();
    let mut compacted = 0u64;
    let mut closed = 0u64;
    for msg in rx.iter() {
        match msg {
            ToCollector::Leaf { window, worker, seq, packets, csr } => {
                compacted += packets;
                shared.in_flight.fetch_sub(packets, Ordering::Relaxed); // ordering: counter; exactness is settled by the joins in finish
                open.entry(window).or_default().leaves.push((worker, seq, csr));
            }
            ToCollector::WindowDone { window, leaves, packets, partial } => {
                let state = open.entry(window).or_default();
                state.done += 1;
                state.packets += packets;
                state.reported_leaves += leaves;
                state.partial |= partial;
                if state.done == cfg.workers {
                    // audit:allow(panic-path) — the entry was created three lines up; remove cannot miss
                    let state = open.remove(&window).expect("open window state");
                    // Channels are FIFO per worker, so every acknowledged
                    // leaf precedes its WindowDone; a mismatch here is a
                    // protocol bug, not a race.
                    assert_eq!(
                        state.leaves.len() as u64,
                        state.reported_leaves,
                        "window {window}: leaf buffer disagrees with worker acknowledgements"
                    );
                    if state.packets == 0 {
                        // A drain that lands exactly on a boundary closes
                        // an empty window; emit nothing.
                        continue;
                    }
                    let snap = close_window(window, state, cfg);
                    closed += 1;
                    // A dropped snapshot receiver just means the service
                    // handle is gone; keep draining so workers can exit.
                    let _ = out.send(snap);
                    // ordering: the snapshot send above happens-before this Release store, paired with the Acquire in windows_closed
                    shared.windows_closed.store(closed, Ordering::Release);
                }
            }
        }
    }
    CollectorReport { compacted, windows_closed: closed }
}

/// Fold a closed window's leaves — in `(worker, seq)` order — through
/// one [`window_fold`] and build its snapshot. The fold's carry-merge
/// count is the same resident or spilling: residency never changes the
/// merge tree.
fn close_window(index: u64, mut state: OpenWindow, cfg: &IngestConfig) -> WindowSnapshot {
    // The determinism fix: leaves arrive in worker-completion order, which
    // varies run to run; the merge must not. Sort by the sequence key
    // before folding.
    state.leaves.sort_unstable_by_key(|&(worker, seq, _)| (worker, seq));
    let n_leaves = state.leaves.len() as u64;
    let (mut fold, fallback) = window_fold(cfg.leaf_capacity, cfg.spill.as_ref());
    for (_, _, csr) in state.leaves {
        fold.push_csr_leaf(csr);
    }
    let (matrix, report) = fold.finalize_with_report();
    let merges = report.stats.carry_merges;
    let spilled = cfg.spill.is_some() && fallback.is_none();
    obscor_obs::counter("telescope.ingest.windows_closed_total").inc();
    obscor_obs::counter("telescope.ingest.packets_total").add(state.packets);
    obscor_obs::counter("telescope.ingest.leaves_total").add(n_leaves);
    obscor_obs::counter("telescope.ingest.merges_total").add(merges);
    WindowSnapshot {
        index,
        matrix,
        packets: state.packets,
        leaves: n_leaves,
        merges,
        partial: state.partial,
        spill: spilled.then_some(report),
        // A spill directory that cannot be created degrades to the
        // resident fold rather than dropping the window; the snapshot
        // carries the reason.
        spill_fallback: fallback.map(|fault| fault.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 33) % 4096) as u32, ((state >> 11) % 4096) as u32)
            })
            .collect()
    }

    fn flat(pairs: &[(u32, u32)]) -> Csr<u64> {
        Coo::from_triples(pairs.iter().map(|&(s, d)| (s, d, 1u64))).into_csr()
    }

    #[test]
    fn one_window_matches_flat_build() {
        let p = pairs(10_000, 42);
        let mut cfg = IngestConfig::new(3, 10_000);
        cfg.leaf_capacity = 512;
        cfg.shard_batch = 333;
        let mut svc = IngestService::new(cfg);
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert_eq!(snaps.len(), 1);
        assert!(!snaps[0].partial);
        assert_eq!(snaps[0].packets, 10_000);
        assert_eq!(snaps[0].matrix, flat(&p));
        assert!(drain.is_exact(), "{drain:?}");
        assert_eq!(drain.windows_closed, 1);
    }

    #[test]
    fn windows_split_exactly_at_boundaries() {
        let p = pairs(2_500, 7);
        let mut cfg = IngestConfig::new(2, 1_000);
        cfg.leaf_capacity = 128;
        cfg.shard_batch = 64;
        let mut svc = IngestService::new(cfg);
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].matrix, flat(&p[..1_000]));
        assert_eq!(snaps[1].matrix, flat(&p[1_000..2_000]));
        assert_eq!(snaps[2].matrix, flat(&p[2_000..]));
        assert!(snaps[2].partial && !snaps[0].partial && !snaps[1].partial);
        assert!(drain.partial_flushed);
        assert!(drain.is_exact(), "{drain:?}");
    }

    #[test]
    fn empty_service_drains_clean() {
        let svc = IngestService::new(IngestConfig::new(4, 100));
        let (snaps, drain) = svc.finish();
        assert!(snaps.is_empty());
        assert_eq!(drain, DrainReport {
            received: 0,
            compacted: 0,
            in_flight: 0,
            windows_closed: 0,
            blocked: drain.blocked,
            partial_flushed: false,
        });
    }

    #[test]
    fn boundary_exact_drain_emits_no_partial() {
        let p = pairs(2_000, 9);
        let mut cfg = IngestConfig::new(2, 1_000);
        cfg.leaf_capacity = 64;
        let mut svc = IngestService::new(cfg);
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert_eq!(snaps.len(), 2);
        assert!(snaps.iter().all(|s| !s.partial));
        assert!(!drain.partial_flushed);
        assert!(drain.is_exact(), "{drain:?}");
    }

    #[test]
    fn spilled_windows_match_the_in_memory_fold() {
        let p = pairs(6_000, 77);
        let mut cfg = IngestConfig::new(3, 2_000);
        cfg.leaf_capacity = 256;
        cfg.shard_batch = 128;
        // Zero budget: every carry part must be evicted to disk.
        cfg.spill = Some(SpillSettings::with_budget(0));
        let mut svc = IngestService::new(cfg);
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert!(drain.is_exact(), "{drain:?}");
        assert_eq!(snaps.len(), 3);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.matrix, flat(&p[i * 2_000..(i + 1) * 2_000]), "window {i}");
            assert!(s.spill_fallback.is_none(), "window {i}: {:?}", s.spill_fallback);
            let report = s.spill.as_ref().expect("budgeted fold must report spill stats");
            assert!(report.is_exact(), "window {i}: {report:?}");
            assert!(report.stats.evictions > 0, "window {i} never spilled");
        }
    }

    #[test]
    fn unbudgeted_snapshots_carry_no_spill_report() {
        let p = pairs(1_000, 3);
        let mut svc = IngestService::new(IngestConfig::new(2, 1_000));
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert!(drain.is_exact(), "{drain:?}");
        assert!(snaps.iter().all(|s| s.spill.is_none() && s.spill_fallback.is_none()));
    }

    #[test]
    fn unusable_spill_dir_falls_back_in_memory_and_says_so() {
        // A regular file: no spill directory can be created under it.
        let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let p = pairs(3_000, 21);
        let mut cfg = IngestConfig::new(2, 1_000);
        cfg.leaf_capacity = 128;
        cfg.spill = Some(SpillSettings { memory_budget: 0, spill_dir: Some(file) });
        let mut svc = IngestService::new(cfg);
        svc.push_pairs(&p);
        let (snaps, drain) = svc.finish();
        assert!(drain.is_exact(), "{drain:?}");
        assert_eq!(snaps.len(), 3);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.matrix, flat(&p[i * 1_000..(i + 1) * 1_000]), "window {i}");
            let reason = s.spill_fallback.as_deref().expect("the fallback must be reported");
            assert!(reason.starts_with("spill i/o error"), "window {i}: {reason}");
            assert!(s.spill.is_none(), "window {i} never spilled");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = IngestConfig::new(0, 100);
    }
}
