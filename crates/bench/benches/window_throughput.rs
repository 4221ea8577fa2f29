//! Substrate bench: synthetic packet generation, windowing, the libpcap
//! codec at capture rates — and the window-ingest fast-path report.
//!
//! Before the criterion benches run, this binary times each ingest
//! fast path against the differential oracle it replaced (serial sort
//! compaction vs the radix kernel, uncached CryptoPAN vs the memoized
//! prefix table, string key sets vs numeric key sets) and writes the
//! comparison — plus sustained `telescope::stream` throughput rows at
//! several worker counts and the out-of-core fold's cost with its
//! per-level merge timings — as `BENCH_ingest.json` (schema
//! `obscor.bench.ingest.v5`, path override `OBSCOR_BENCH_INGEST_OUT`) —
//! the before/after record DESIGN.md §12/§15/§16/§17 and CI's
//! bench-smoke step point at.
//!
//! v4 added the compressed-bitmap rows (`overlap_fraction_numeric_vs_
//! bitmap` at fixture scale, `overlap_count_numeric_vs_bitmap_dense` and
//! `temporal_sweep_pairwise_vs_month_matrix` at paper density) and a
//! top-level `host_cpus` field so the streaming worker-scaling rows can
//! be read against the parallelism the box actually had (DESIGN.md §15).
//! v5 takes every repeated timing over `reps = 5` runs and writes the
//! fastest and slowest run beside the median (`*_min_ns`, `*_max_ns`),
//! so a row's own spread shows how far a regenerated file may move
//! without any code change.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use obscor_anonymize::{CryptoPan, MemoCryptoPan};
use obscor_assoc::convert::ip_key;
use obscor_assoc::{BitSet, KeySet, MonthMatrix, NumKeySet};
use obscor_bench::{fixture, BenchFixture};
use obscor_hypersparse::{Coo, Index};
use obscor_netmodel::{PacketStream, TrafficConfig};
use obscor_pcap::{AcceptAll, ConstantPacketWindower, PcapReader, PcapWriter};
use obscor_telescope::{capture_window, matrix, IngestConfig, IngestService};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

const INGEST_KEY: [u8; 32] = [0x5Au8; 32];
const INGEST_REPS: usize = 5;

/// The median, fastest and slowest of `INGEST_REPS` timed runs.
#[derive(Clone, Copy)]
struct Timing {
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Timing {
    /// `"<prefix>_ns": median, "<prefix>_min_ns": min, "<prefix>_max_ns": max`.
    fn json(&self, prefix: &str) -> String {
        format!(
            "\"{prefix}_ns\": {}, \"{prefix}_min_ns\": {}, \"{prefix}_max_ns\": {}",
            self.median_ns, self.min_ns, self.max_ns
        )
    }
}

/// One before/after row of the ingest report.
struct Comparison {
    name: &'static str,
    baseline: Timing,
    fast: Timing,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline.median_ns as f64 / (self.fast.median_ns.max(1)) as f64
    }
}

/// One sustained-throughput row of the streaming section.
struct StreamingRow {
    workers: usize,
    queue_depth: usize,
    window_packets: usize,
    timing: Timing,
    packets_per_sec: f64,
}

/// Accumulated merge timing of one carry level of the out-of-core fold.
struct SpillLevelRow {
    level: usize,
    calls: u64,
    total_ns: u64,
}

/// `INGEST_REPS` timed runs of `f` (wall-clock, via the obs stopwatch).
fn timed<R>(mut f: impl FnMut() -> R) -> Timing {
    let mut times: Vec<u64> = (0..INGEST_REPS)
        .map(|_| {
            let (out, ns) = obscor_obs::time_fn(&mut f);
            black_box(out);
            ns
        })
        .collect();
    times.sort_unstable();
    Timing { median_ns: times[times.len() / 2], min_ns: times[0], max_ns: times[times.len() - 1] }
}

/// Time the ingest fast paths against their oracles and write the report.
fn ingest_report(f: &BenchFixture) {
    let (n_v, seed) = (f.scenario.n_v, f.scenario.seed);
    let w = capture_window(&f.scenario, &f.scenario.caida_windows[0]);

    // 1. Triple compaction: serial sort-and-dedup vs the radix kernel.
    let triples: Vec<(Index, Index, u64)> =
        w.window.packets.iter().map(|p| (p.src.0, p.dst.0, 1u64)).collect();
    let proto = Coo::from_triples(triples);
    let compaction = Comparison {
        name: "compaction_serial_vs_radix",
        baseline: timed(|| proto.clone().into_csr_serial()),
        fast: timed(|| proto.clone().into_csr_radix()),
    };

    // 2. CryptoPAN: 32-AES scalar vs the 16-AES prefix-table path,
    //    scalar and batched, on the window's source addresses (with the
    //    natural duplicate structure of real ingest).
    let addrs: Vec<u32> = w.window.packets.iter().map(|p| p.src.0).collect();
    let uncached = CryptoPan::new(&INGEST_KEY);
    let (memo, table_build_ns) = obscor_obs::time_fn(|| MemoCryptoPan::new(&INGEST_KEY));
    let scalar_baseline = timed(|| {
        addrs.iter().map(|&a| u64::from(uncached.anonymize(a))).sum::<u64>()
    });
    let cryptopan_scalar = Comparison {
        name: "cryptopan_uncached_vs_memo_scalar",
        baseline: scalar_baseline,
        fast: timed(|| {
            addrs.iter().map(|&a| u64::from(memo.anonymize(a))).sum::<u64>()
        }),
    };
    let cryptopan_batched = Comparison {
        name: "cryptopan_uncached_vs_memo_batched",
        baseline: scalar_baseline,
        fast: timed(|| {
            let mut out = addrs.clone();
            memo.anonymize_slice(&mut out);
            out
        }),
    };

    // 3. End-to-end anonymized matrix build, uncached vs memoized.
    let matrix_build = Comparison {
        name: "anonymized_matrix_uncached_vs_memo",
        baseline: timed(|| matrix::build_matrix_with(&w, |ip| uncached.anonymize(ip))),
        fast: timed(|| matrix::build_matrix_with(&w, |ip| memo.anonymize(ip))),
    };

    // 4. Correlation set ops: string key sets vs numeric key sets on the
    //    first window's sources against its coeval honeyfarm month.
    let wd = &f.degrees[0];
    let month = &f.monthly_sources[wd.month];
    let str_keys: KeySet = wd.degrees.iter().map(|&(ip, _)| ip_key(ip)).collect();
    let num_keys: NumKeySet = wd.degrees.iter().map(|&(ip, _)| ip).collect();
    let num_month = NumKeySet::from_key_set(month).expect("monthly keys are dotted quads");
    let overlap = Comparison {
        name: "overlap_fraction_string_vs_numeric",
        baseline: timed(|| str_keys.overlap_fraction(month)),
        fast: timed(|| num_keys.overlap_fraction(&num_month)),
    };

    // 4b. Compressed bitmap substrate at fixture scale: the same window
    //     sources against the same coeval month, sorted-vec merge walk vs
    //     roaring-container popcounts. Fixture sets at N_V = 2^16 are
    //     sparse (array containers), so this row shows the small-set
    //     behaviour honestly; the paper-density rows below show the
    //     regime the substrate is built for.
    let bit_keys = BitSet::from_num_key_set(&num_keys);
    let bit_month = BitSet::from_num_key_set(&num_month);
    assert_eq!(
        bit_keys.overlap_fraction(&bit_month),
        num_keys.overlap_fraction(&num_month),
        "bitmap overlap must be bit-identical to the numeric path"
    );
    let overlap_bitmap = Comparison {
        name: "overlap_fraction_numeric_vs_bitmap",
        baseline: timed(|| num_keys.overlap_fraction(&num_month)),
        fast: timed(|| bit_keys.overlap_fraction(&bit_month)),
    };

    // 4c. Paper-density set ops: ~2^21 draws from a 2^24 address space
    //     give ~8K keys per 2^16 chunk — the bitmap-container regime of
    //     the paper's full observatory months — where the merge walk
    //     touches every key but the word-parallel path popcounts 64 at a
    //     time. The temporal row sweeps all months in one merge-join of
    //     the probe's chunks (the `MonthMatrix` one-sweep algorithm)
    //     against the month-at-a-time pairwise walks it replaced.
    let mut dense_rng = StdRng::seed_from_u64(seed ^ 0x0b17);
    let mut dense_set = || {
        NumKeySet::from_iter(
            (0..1u32 << 21).map(|_| dense_rng.random_range(0u32..1 << 24)),
        )
    };
    let dense_a = dense_set();
    let dense_b = dense_set();
    let dense_months: Vec<NumKeySet> = (0..15).map(|_| dense_set()).collect();
    let dense_bit_a = BitSet::from_num_key_set(&dense_a);
    let dense_bit_b = BitSet::from_num_key_set(&dense_b);
    let dense_month_bits: Vec<BitSet> =
        dense_months.iter().map(BitSet::from_num_key_set).collect();
    let dense_matrix = MonthMatrix::from_bit_sets(&dense_month_bits);
    assert_eq!(
        dense_bit_a.overlap_count(&dense_bit_b),
        dense_a.overlap_count(&dense_b),
        "dense bitmap overlap must be bit-identical to the numeric path"
    );
    let sweep_counts = dense_matrix.overlap_counts(&dense_bit_a);
    for (m, month) in dense_months.iter().enumerate() {
        assert_eq!(
            sweep_counts[m],
            dense_a.overlap_count(month),
            "one-sweep month counts must be bit-identical to pairwise"
        );
    }
    let overlap_dense = Comparison {
        name: "overlap_count_numeric_vs_bitmap_dense",
        baseline: timed(|| dense_a.overlap_count(&dense_b)),
        fast: timed(|| dense_bit_a.overlap_count(&dense_bit_b)),
    };
    let temporal_sweep = Comparison {
        name: "temporal_sweep_pairwise_vs_month_matrix",
        baseline: timed(|| {
            dense_months
                .iter()
                .map(|month| dense_a.overlap_count(month))
                .sum::<usize>()
        }),
        fast: timed(|| {
            dense_matrix.overlap_counts(&dense_bit_a).iter().sum::<usize>()
        }),
    };

    let comparisons = [
        compaction,
        cryptopan_scalar,
        cryptopan_batched,
        matrix_build,
        overlap,
        overlap_bitmap,
        overlap_dense,
        temporal_sweep,
    ];

    // 5. Sustained streaming throughput: the same captured window pushed
    //    through the `telescope::stream` service at several worker
    //    counts, as packets/sec over the median wall-clock of a full
    //    window (push → shard → compact → fold → snapshot → drain).
    let coords: Vec<(u32, u32)> =
        w.window.packets.iter().map(|p| (p.src.0, p.dst.0)).collect();
    let streaming: Vec<StreamingRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let cfg = IngestConfig::new(workers, coords.len());
            let timing = timed(|| {
                let mut svc = IngestService::new(cfg.clone());
                svc.push_pairs(&coords);
                let (snaps, drain) = svc.finish();
                assert!(drain.is_exact(), "bench drain must be exact");
                snaps
            });
            StreamingRow {
                workers,
                queue_depth: cfg.queue_depth,
                window_packets: coords.len(),
                timing,
                packets_per_sec: coords.len() as f64 * 1e9 / timing.median_ns.max(1) as f64,
            }
        })
        .collect();

    // 6. Out-of-core fold (DESIGN.md §16): the same window built through
    //    the spill scheduler under a zero budget (every carry evicted to
    //    a real temp directory — the fully out-of-core worst case)
    //    against the plain in-memory build, with the per-level merge
    //    timings the spill spans record.
    let ooc_baseline = timed(|| matrix::build_matrix(&w));
    let mut spill_stats = obscor_hypersparse::SpillStats::default();
    let before = obscor_obs::snapshot();
    let ooc_spilled = timed(|| {
        let (m, report) =
            matrix::build_matrix_spilled(&w, Some(0), None).expect("temp spill dir");
        assert!(report.is_exact(), "bench spill fold must be exact");
        spill_stats = report.stats;
        m
    });
    let spill_delta = obscor_obs::snapshot().delta_since(&before);
    let mut spill_levels: Vec<SpillLevelRow> = spill_delta
        .counters
        .iter()
        .filter_map(|(name, &calls)| {
            let level = name
                .strip_prefix("span.hypersparse.spill.merge.level")?
                .strip_suffix(".calls_total")?;
            let ns = spill_delta
                .histograms
                .get(&format!("span.hypersparse.spill.merge.level{level}.ns"))?;
            Some(SpillLevelRow { level: level.parse().ok()?, calls, total_ns: ns.sum })
        })
        .collect();
    spill_levels.sort_by_key(|r| r.level);
    let out_of_core = Comparison {
        name: "window_fold_in_memory_vs_spilled",
        baseline: ooc_baseline,
        fast: ooc_spilled,
    };

    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!("\n=== WINDOW INGEST FAST PATH (N_V = {n_v}, host_cpus = {host_cpus}) ===");
    eprintln!("memo_table_build {table_build_ns} ns");
    for c in &comparisons {
        eprintln!(
            "{:<38} baseline {:>12} ns  fast {:>12} ns  speedup {:>7.2}x",
            c.name,
            c.baseline.median_ns,
            c.fast.median_ns,
            c.speedup()
        );
    }
    for r in &streaming {
        eprintln!(
            "streaming workers={} depth={}            median {:>12} ns  {:>12.0} packets/sec",
            r.workers, r.queue_depth, r.timing.median_ns, r.packets_per_sec
        );
    }
    eprintln!(
        "{:<38} baseline {:>12} ns  fast {:>12} ns  speedup {:>7.2}x",
        out_of_core.name,
        out_of_core.baseline.median_ns,
        out_of_core.fast.median_ns,
        out_of_core.speedup()
    );
    for r in &spill_levels {
        eprintln!(
            "spill merge level{}                      calls {:>12}      {:>12} ns total",
            r.level, r.calls, r.total_ns
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"obscor.bench.ingest.v5\",\n");
    json.push_str(&format!("  \"n_v\": {n_v},\n"));
    json.push_str(&format!("  \"reps\": {INGEST_REPS},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"memo_table_build_ns\": {table_build_ns},\n"));
    json.push_str("  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", {}, {}, \"speedup\": {:.3}}}{}\n",
            c.name,
            c.baseline.json("baseline"),
            c.fast.json("fast"),
            c.speedup(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming\": [\n");
    for (i, r) in streaming.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"queue_depth\": {}, \"window_packets\": {}, \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"packets_per_sec\": {:.0}}}{}\n",
            r.workers,
            r.queue_depth,
            r.window_packets,
            r.timing.median_ns,
            r.timing.min_ns,
            r.timing.max_ns,
            r.packets_per_sec,
            if i + 1 < streaming.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"out_of_core\": {\n");
    json.push_str("    \"budget\": 0,\n");
    json.push_str(&format!(
        "    {}, {}, \"relative_cost\": {:.3},\n",
        out_of_core.baseline.json("in_memory"),
        out_of_core.fast.json("spilled"),
        out_of_core.fast.median_ns as f64 / out_of_core.baseline.median_ns.max(1) as f64
    ));
    json.push_str(&format!(
        "    \"evictions\": {}, \"reloads\": {}, \"peak_live_bytes\": {},\n",
        spill_stats.evictions, spill_stats.reloads, spill_stats.peak_live_bytes
    ));
    json.push_str("    \"merge_levels\": [\n");
    for (i, r) in spill_levels.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"level\": {}, \"calls\": {}, \"total_ns\": {}}}{}\n",
            r.level,
            r.calls,
            r.total_ns,
            if i + 1 < spill_levels.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    let out = std::env::var("OBSCOR_BENCH_INGEST_OUT")
        .unwrap_or_else(|_| "BENCH_ingest.json".to_string());
    std::fs::write(&out, &json).expect("write ingest fast-path report");
    eprintln!("ingest report -> {out}");
}

fn bench(c: &mut Criterion) {
    let f = fixture(1 << 16, 42);
    let scenario = &f.scenario;

    ingest_report(&f);

    let mut g = c.benchmark_group("window_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(scenario.n_v as u64));

    g.bench_function("packet_generation_raw", |b| {
        b.iter(|| {
            let rng = StdRng::seed_from_u64(1);
            let stream = PacketStream::at_instant(
                &scenario.population,
                7.0,
                TrafficConfig::default(),
                0,
                rng,
            );
            let count = stream.take(scenario.n_v).count();
            black_box(count)
        })
    });

    g.bench_function("windower", |b| {
        b.iter(|| {
            let rng = StdRng::seed_from_u64(1);
            let stream = PacketStream::at_instant(
                &scenario.population,
                7.0,
                TrafficConfig::default(),
                0,
                rng,
            );
            let mut w = ConstantPacketWindower::new(stream, AcceptAll, scenario.n_v);
            black_box(w.next())
        })
    });

    g.bench_function("capture_window_end_to_end", |b| {
        b.iter(|| black_box(capture_window(scenario, &scenario.caida_windows[0])))
    });

    let w = capture_window(scenario, &scenario.caida_windows[0]);
    g.bench_function("pcap_write", |b| {
        b.iter(|| {
            let mut writer = PcapWriter::new();
            for p in &w.window.packets {
                writer.write_packet(p);
            }
            black_box(writer.into_bytes())
        })
    });
    let bytes = {
        let mut writer = PcapWriter::new();
        for p in &w.window.packets {
            writer.write_packet(p);
        }
        writer.into_bytes()
    };
    g.bench_function("pcap_parse_and_verify_checksums", |b| {
        b.iter(|| black_box(PcapReader::new(&bytes).unwrap().read_all().unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
