//! The stream workloads: captures replayed through a fresh `IngestService`
//! as fast as it accepts them (saturation passes), and, in the traced run,
//! an open loop.
//!
//! In the open loop one generator thread (the caller) offers pre-generated
//! windows at a fixed absolute rate. Each window's latency runs from the
//! time its last packet was *due* to the moment `try_snapshot` hands its
//! snapshot back, so a stall that delays later sends stays in their
//! latency instead of vanishing from it (coordinated omission).

use crate::calibrate::{Calibration, Kernel};
use crate::stats::{median_peak_rss_mb, with_peak_rss};
use crate::workload::Outcome;
use obscor_anonymize::MemoCryptoPan;
use obscor_hypersparse::{Coo, Csr, HierarchicalAccumulator};
use obscor_netmodel::Scenario;
use obscor_obs::time_fn;
use obscor_pcap::PacketFilter;
use obscor_stats::summary::{median, quantile};
use obscor_telescope::matrix::PAPER_LEAF_COUNT;
use obscor_telescope::{DrainReport, IngestConfig, IngestService, WindowSnapshot};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Packets the generator hands the service per push (the service's own
/// shard batch), and the grain of its schedule.
const BATCH: usize = 1024;

/// Longest the generator sleeps before polling for snapshots again.
const POLL: Duration = Duration::from_micros(50);

/// How long the generator waits for outstanding snapshots after its last
/// send before it gives up on them (they then fail the check).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Key the service anonymizes under (the same demo key as `obscor serve`).
const ANON_KEY: [u8; 32] = [0x5A; 32];

/// Window size of the scenario the packets are drawn from.
const SCENARIO_NV: usize = 1 << 20;

/// Service workers of the workloads. One: with the generator and the
/// collector beside it the service already runs three threads, and on a
/// 2-CPU host a second worker made saturation both slower and far less
/// repeatable (its CPU time per pass varied by half). With one worker the
/// round-robin sharding and the collector's cross-worker ordering are
/// trivial, so no workload measures them.
pub const WORKERS: usize = 1;

/// A stream workload at a given size.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Packets per window.
    pub window: usize,
    /// Offered open-loop rate, packets per second.
    pub rate_pps: f64,
    /// Distinct pre-generated windows, replayed in order.
    pub distinct: usize,
    /// Windows of each open loop of the traced run; `None` offers windows
    /// for half the run's seconds.
    pub open_windows: Option<usize>,
    /// Packets pushed by each saturation pass.
    pub saturation_packets: usize,
    /// Anonymize inside the service.
    pub anonymize: bool,
    /// Artificial per-batch worker delay (0 in the workloads; the
    /// coordinated-omission test uses it for a slow consumer).
    pub worker_delay_micros: u64,
}

/// `distinct` windows of `window` valid `(src, dst)` pairs, drawn from
/// the first sampling instant of the paper-shaped scenario for `seed` —
/// the same deterministic source `obscor serve` drains.
pub fn generate(seed: u64, window: usize, distinct: usize) -> Vec<Vec<(u32, u32)>> {
    let scenario = Scenario::paper_scaled(SCENARIO_NV, seed);
    let octet = scenario.population.config.darkspace_octet;
    let (source, filter) =
        obscor_telescope::window_traffic_source(&scenario, &scenario.caida_windows[0], octet);
    let pairs: Vec<(u32, u32)> = source
        .filter(|p| filter.accept(p))
        .take(window * distinct)
        .map(|p| (p.src.0, p.dst.0))
        .collect();
    pairs.chunks(window).map(<[_]>::to_vec).collect()
}

impl Plan {
    /// A fresh service for one phase of the workload.
    pub fn service(&self, pan: Option<MemoCryptoPan>) -> IngestService {
        let mut cfg = IngestConfig::new(WORKERS, self.window);
        cfg.worker_delay_micros = self.worker_delay_micros;
        match pan {
            Some(pan) => IngestService::with_anonymizer(cfg, pan),
            None => IngestService::new(cfg),
        }
    }

    /// The anonymizer one service phase needs, if the workload anonymizes.
    fn pan(&self) -> Option<MemoCryptoPan> {
        self.anonymize.then(|| MemoCryptoPan::new(&ANON_KEY))
    }

    /// The batch build each snapshot must equal: the accumulator
    /// construction of `telescope::matrix::build_matrix_with` over the
    /// window's pairs, anonymized address by address when the workload
    /// anonymizes.
    fn oracles(&self, windows: &[Vec<(u32, u32)>]) -> Vec<Csr<u64>> {
        let pan = self.pan();
        let mut memo: HashMap<u32, u32> = HashMap::new();
        let mut map = |ip: u32| match &pan {
            None => ip,
            Some(pan) => *memo.entry(ip).or_insert_with(|| pan.anonymize(ip)),
        };
        windows
            .iter()
            .map(|pairs| {
                let leaf = (pairs.len() / PAPER_LEAF_COUNT).max(1024);
                let mut acc = HierarchicalAccumulator::with_leaf_capacity(leaf);
                for &(s, d) in pairs {
                    acc.push_edge(map(s), map(d));
                }
                acc.finalize()
            })
            .collect()
    }
}

/// Checks every snapshot against the batch build of its window.
struct SnapshotCheck<'a> {
    /// Batch builds of the distinct windows.
    oracles: &'a [Csr<u64>],
    /// Packets per window.
    window: usize,
}

impl SnapshotCheck<'_> {
    /// Check one snapshot: complete, and byte-equal to its batch build
    /// unless its matrix was dropped (`with_matrix` false).
    fn check(&self, out: &mut Outcome, s: &WindowSnapshot, with_matrix: bool) {
        let oracle = &self.oracles[s.index as usize % self.oracles.len()];
        let ok =
            !s.partial && s.packets == self.window as u64 && (!with_matrix || s.matrix == *oracle);
        out.check(ok, || {
            format!("window {} differs from its batch build", s.index)
        });
    }

    /// Check a drain: exact accounting and every window received.
    fn check_drain(&self, out: &mut Outcome, drain: &DrainReport, received: usize, windows: usize) {
        let ok = drain.is_exact() && received == windows && drain.windows_closed == windows as u64;
        out.check(ok, || {
            format!("drain {drain:?}: {received}/{windows} snapshots received")
        });
    }
}

/// What one open-loop run measured.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Per window: ms from its last packet's due time to its snapshot.
    pub latency_ms: Vec<f64>,
    /// Per batch: ms the generator sent it after its due time.
    pub late_ms: Vec<f64>,
    /// Generator time inside `push_pairs`.
    pub push_ns: u64,
    /// Generator time receiving and checking snapshots.
    pub snapshot_ns: u64,
    /// Generator time asleep.
    pub sleep_ns: u64,
    /// Wall time from the first due time to the drain.
    pub wall_ns: u64,
    /// Leaves and carry merges over every snapshot.
    pub leaves: u64,
    /// See `leaves`.
    pub merges: u64,
}

/// Offer `n_windows` windows (replaying `windows` in order) to `svc` at
/// `rate_pps`, then drain it. Packet `i` is due `i / rate_pps` seconds
/// after the start; each `BATCH` is sent once its last packet is due,
/// and the generator polls for snapshots while it waits. `on_snapshot`
/// sees every snapshot after its receipt time is taken. Only a `traced`
/// run times the generator's pushes, snapshot handling and sleeps.
pub fn open_loop(
    mut svc: IngestService,
    windows: &[Vec<(u32, u32)>],
    n_windows: usize,
    rate_pps: f64,
    traced: bool,
    mut on_snapshot: impl FnMut(&WindowSnapshot),
) -> (OpenLoop, DrainReport, usize) {
    let window = windows[0].len();
    let mut g = Generator {
        // audit:allow(instant-timing) — the open-loop schedule needs one clock read between pushes, which a closure-scoped stopwatch cannot give
        t0: Instant::now(),
        ns_per_packet: 1e9 / rate_pps,
        window,
        traced,
        r: OpenLoop::default(),
        received: 0,
    };
    for k in 0..n_windows {
        for (b, batch) in windows[k % windows.len()].chunks(BATCH).enumerate() {
            let due = g.due_ns(k * window + b * BATCH + batch.len() - 1);
            loop {
                g.poll(&svc, &mut on_snapshot);
                if g.now_ns() >= due {
                    break;
                }
                g.sleep_toward(due);
            }
            g.r.late_ms.push((g.now_ns() - due) / 1e6);
            g.r.push_ns += stopwatch(traced, || svc.push_pairs(batch));
        }
    }
    let deadline = g.now_ns() + DRAIN_TIMEOUT.as_nanos() as f64;
    while g.received < n_windows && g.now_ns() < deadline {
        g.sleep_toward(g.now_ns() + POLL.as_nanos() as f64);
        g.poll(&svc, &mut on_snapshot);
    }
    let (rest, drain) = svc.finish();
    for s in rest {
        g.receive(s, &mut on_snapshot);
    }
    g.r.wall_ns = g.now_ns() as u64;
    (g.r, drain, g.received)
}

/// The open-loop generator's clock and tallies.
struct Generator {
    t0: Instant,
    ns_per_packet: f64,
    window: usize,
    traced: bool,
    r: OpenLoop,
    received: usize,
}

impl Generator {
    fn now_ns(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64
    }

    /// When packet `i` of the stream is due, in ns after the start.
    fn due_ns(&self, i: usize) -> f64 {
        i as f64 * self.ns_per_packet
    }

    fn receive(&mut self, s: WindowSnapshot, on_snapshot: &mut impl FnMut(&WindowSnapshot)) {
        let last_due = self.due_ns((s.index as usize + 1) * self.window - 1);
        self.r.latency_ms.push((self.now_ns() - last_due) / 1e6);
        self.r.leaves += s.leaves;
        self.r.merges += s.merges;
        self.r.snapshot_ns += stopwatch(self.traced, || on_snapshot(&s));
        self.received += 1;
    }

    fn poll(&mut self, svc: &IngestService, on_snapshot: &mut impl FnMut(&WindowSnapshot)) {
        while let Some(s) = svc.try_snapshot() {
            self.receive(s, on_snapshot);
        }
    }

    /// Sleep toward `due`, but no longer than one poll interval.
    fn sleep_toward(&mut self, due: f64) {
        let wait = Duration::from_nanos((due - self.now_ns()).max(0.0) as u64).min(POLL);
        self.r.sleep_ns += stopwatch(self.traced, || std::thread::sleep(wait));
    }
}

/// Nanoseconds `f` took when `on`, else 0 without reading the clock.
fn stopwatch(on: bool, f: impl FnOnce()) -> u64 {
    if on {
        time_fn(f).1
    } else {
        f();
        0
    }
}

impl Plan {
    /// Windows of each open loop of a traced run of `seconds` (at least
    /// 16).
    fn open_windows(&self, seconds: f64) -> usize {
        self.open_windows.unwrap_or_else(|| {
            ((seconds / 2.0 * self.rate_pps / self.window as f64) as usize).max(16)
        })
    }

    fn saturation_windows(&self) -> usize {
        self.saturation_packets.div_ceil(self.window)
    }

    /// One saturation pass, the replay of a capture: start a service, push
    /// the pass's windows as fast as it accepts them, and drain it. Only
    /// the service's start, the pushes, the polls and the drain are timed;
    /// the snapshots are checked after. Returns the packets pushed, the
    /// pass's wall time in ns, and the drain.
    ///
    /// The pass keeps the matrices of the first replay of the distinct
    /// windows and drops later ones on receipt, as a consumer would,
    /// keeping only their headers. Keeping every matrix made the pass
    /// about 6 % slower on the baseline host: the collector then builds
    /// each snapshot in fresh memory.
    fn saturation_pass(
        &self,
        out: &mut Outcome,
        check: &SnapshotCheck,
        windows: &[Vec<(u32, u32)>],
    ) -> (usize, u64, DrainReport) {
        let n = self.saturation_windows();
        let with_matrix = |s: &WindowSnapshot| (s.index as usize) < windows.len();
        let ((snapshots, drain, packets), ns) = time_fn(|| {
            let mut svc = self.service(self.pan());
            let mut snapshots = Vec::with_capacity(n);
            let mut keep = |mut s: WindowSnapshot| {
                if !with_matrix(&s) {
                    s.matrix = Csr::empty();
                }
                snapshots.push(s);
            };
            let mut packets = 0usize;
            for pairs in windows.iter().cycle().take(n) {
                svc.push_pairs(pairs);
                packets += pairs.len();
                while let Some(s) = svc.try_snapshot() {
                    keep(s);
                }
            }
            let (rest, drain) = svc.finish();
            rest.into_iter().for_each(keep);
            (snapshots, drain, packets)
        });
        for s in &snapshots {
            check.check(out, s, with_matrix(s));
        }
        check.check_drain(out, &drain, snapshots.len(), n);
        (packets, ns, drain)
    }

    /// One checked open loop of `n` windows over `svc`.
    fn checked_open_loop(
        &self,
        out: &mut Outcome,
        check: &SnapshotCheck,
        windows: &[Vec<(u32, u32)>],
        svc: IngestService,
        n: usize,
        traced: bool,
    ) -> OpenLoop {
        let (r, drain, received) = open_loop(svc, windows, n, self.rate_pps, traced, |s| {
            check.check(out, s, true)
        });
        check.check_drain(out, &drain, received, n);
        r
    }

    /// The end-to-end run: the set-up (generating the windows), then
    /// saturation passes, each followed by a reading of the
    /// [`Kernel::Sbox`] calibration, as long as the next pass fits in
    /// `seconds` (at least one). Throughput is over the median scaled pass
    /// time. Peak RSS is the median over passes of the process's peak
    /// during the pass: the collector's unbounded leaf queue grows with
    /// scheduling luck.
    pub fn run(&self, seed: u64, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let (windows, setup_s) =
            crate::timed_setup(|| generate(seed, self.window, self.distinct), drop);
        out.set("setup_s", setup_s);
        let oracles = self.oracles(&windows);
        let check = SnapshotCheck {
            oracles: &oracles,
            window: self.window,
        };
        let mut cal = Calibration::start(Kernel::Sbox);
        let (mut pass_s, mut wall_s) = (Vec::new(), Vec::new());
        let mut packets = 0;
        let mut peaks = Vec::new();
        let (mut elapsed_ns, mut last_ns) = (0u64, 0u64);
        while pass_s.is_empty() || ((elapsed_ns + last_ns) as f64) < seconds * 1e9 {
            let ((), ns) = time_fn(|| {
                let ((pushed, ns, _), peak) =
                    with_peak_rss(|| self.saturation_pass(&mut out, &check, &windows));
                peaks.push(peak);
                packets = pushed;
                wall_s.push(ns as f64 / 1e9);
                pass_s.push(ns as f64 / 1e9 * cal.factor());
            });
            elapsed_ns += ns;
            last_ns = ns;
        }
        out.set("peak_rss_mb", median_peak_rss_mb(&peaks));
        let median_s = |s: &[f64]| median(s).expect("the loop runs at least once");
        out.set_sampled(
            "throughput_pps",
            packets as f64 / median_s(&pass_s),
            pass_s.len(),
        );
        out.note(format!(
            "unscaled throughput_pps {} pkt/s, calibration kernel {} ms n={}",
            packets as f64 / median_s(&wall_s),
            cal.median_ms(),
            cal.samples()
        ));
        out
    }

    /// The traced run: an untraced and a traced open loop, one saturation
    /// pass, and replays of the workload's own batches, leaves and
    /// windows through the layers the workers and collector call.
    pub fn trace(&self, seed: u64, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut cal = Calibration::start(Kernel::Sbox);
        let (_, ns) = time_fn(|| Scenario::paper_scaled(SCENARIO_NV, seed));
        out.set("netmodel.scenario_ms", ns as f64 / 1e6);
        let windows = generate(seed, self.window, self.distinct);
        let oracles = self.oracles(&windows);
        let check = SnapshotCheck {
            oracles: &oracles,
            window: self.window,
        };
        let n = self.open_windows(seconds);
        let svc = self.service(self.pan());
        let untraced = self.checked_open_loop(&mut out, &check, &windows, svc, n, false);
        let svc = self.service(self.pan());
        let traced = self.checked_open_loop(&mut out, &check, &windows, svc, n, true);
        let (_, _, drain) = self.saturation_pass(&mut out, &check, &windows);
        out.set("telescope.stream.blocked", drain.blocked as f64);

        let wall = traced.wall_ns as f64;
        out.set(
            "gen.late_p99_ms",
            quantile(&traced.late_ms, 0.99).unwrap_or(f64::NAN),
        );
        out.set(
            "gen.late_max_ms",
            quantile(&traced.late_ms, 1.0).unwrap_or(f64::NAN),
        );
        out.set(
            "telescope.stream.push_busy_pct",
            100.0 * traced.push_ns as f64 / wall,
        );
        out.set("telescope.stream.leaves", traced.leaves as f64);
        out.set("telescope.stream.merges", traced.merges as f64);
        out.set("trace.total_ms", wall / 1e6);
        let attributed = (traced.push_ns + traced.snapshot_ns + traced.sleep_ns) as f64;
        out.set("trace.unattributed_pct", 100.0 * (wall - attributed) / wall);
        out.set(
            "telescope.stream.snapshot_p50_ms",
            median(&untraced.latency_ms).unwrap_or(f64::NAN),
        );
        out.set(
            "telescope.stream.snapshot_p95_ms",
            quantile(&untraced.latency_ms, 0.95).unwrap_or(f64::NAN),
        );
        let p50 = |r: &OpenLoop| median(&r.latency_ms).unwrap_or(f64::NAN);
        out.set(
            "trace.overhead_pct",
            100.0 * (p50(&traced) - p50(&untraced)) / p50(&untraced),
        );
        self.replay(&mut out, &windows);
        cal.factor();
        out.set("host.calibration_ms", cal.median_ms());
        out
    }

    /// Replay the workload's batches through `anonymize_slice`, its
    /// leaves through compaction, and its windows through the collector's
    /// fold, timing each call.
    fn replay(&self, out: &mut Outcome, windows: &[Vec<(u32, u32)>]) {
        let leaf_capacity = IngestConfig::new(WORKERS, self.window).leaf_capacity;
        let pan = self.pan();
        let (mut batch_us, mut leaf_us, mut fold_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut addrs_total, mut dups) = (0usize, 0usize);
        for pairs in windows {
            let mut pairs = pairs.clone();
            if let Some(pan) = &pan {
                for batch in pairs.chunks_mut(BATCH) {
                    let mut addrs: Vec<u32> = batch.iter().flat_map(|&(s, d)| [s, d]).collect();
                    let mut unique = addrs.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    addrs_total += addrs.len();
                    dups += addrs.len() - unique.len();
                    let ((), ns) = time_fn(|| pan.anonymize_slice(&mut addrs));
                    batch_us.push(ns as f64 / 1e3);
                    for (pair, anon) in batch.iter_mut().zip(addrs.chunks_exact(2)) {
                        *pair = (anon[0], anon[1]);
                    }
                }
            }
            let mut leaves = Vec::new();
            for chunk in pairs.chunks(leaf_capacity) {
                let mut coo = Coo::<u64>::with_capacity(leaf_capacity);
                for &(s, d) in chunk {
                    coo.push_edge(s, d);
                }
                let (csr, ns) = time_fn(|| coo.into_csr());
                leaf_us.push(ns as f64 / 1e3);
                leaves.push(csr);
            }
            let (m, ns) = time_fn(|| {
                let mut acc = HierarchicalAccumulator::<u64>::with_leaf_capacity(leaf_capacity);
                for leaf in leaves {
                    acc.push_csr_leaf(leaf);
                }
                acc.finalize()
            });
            fold_ms.push(ns as f64 / 1e6);
            std::hint::black_box(m);
        }
        if pan.is_some() {
            out.set("anonymize.batch_us", median(&batch_us).unwrap_or(f64::NAN));
            out.set("anonymize.dup_ratio", dups as f64 / addrs_total as f64);
        }
        out.set(
            "hypersparse.leaf_compact_us",
            median(&leaf_us).unwrap_or(f64::NAN),
        );
        out.set(
            "hypersparse.window_fold_ms",
            median(&fold_ms).unwrap_or(f64::NAN),
        );
    }
}
