//! `obscor` — reproduce the tables and figures of *Temporal Correlation
//! of Internet Observatories and Outposts* on a synthetic world.
//!
//! ```text
//! obscor reproduce [--nv <packets>] [--seed <u64>] [--fast] [--tsv] [--only <artifact>]
//! obscor generate  [--nv <packets>] [--seed <u64>] [--window <0..4>] --out <file.pcap>
//! obscor info      [--nv <packets>] [--seed <u64>]
//! ```
//!
//! * `reproduce` runs the full pipeline and prints every table and figure
//!   (or one artifact: `table1`, `table2`, `fig1`, `fig3`, `fig4`,
//!   `fig5`, `fig6`, `fig7`, `fig8`).
//! * `generate` captures one telescope window and writes it as a real
//!   libpcap file (openable in tcpdump/wireshark).
//! * `forecast` fits the temporal model on the first `--cutoff` months
//!   and scores its predictions for the held-out months against a
//!   persistence baseline.
//! * `info` prints the scenario calibration summary.

use obscor_core::{pipeline, AnalysisConfig, ArchiveConfig, SpillSettings};
use obscor_netmodel::Scenario;
use obscor_obs::Level;
use obscor_pcap::PcapWriter;
use obscor_telescope::{capture_window, FaultPlan, IngestConfig, IngestService};
use std::process::ExitCode;

const DEFAULT_NV: usize = 1 << 20;
/// The supported window sizes: the scenario's documented minimum up to
/// the paper's window of 2^30 packets.
const NV_RANGE: std::ops::RangeInclusive<usize> = 1 << 12..=1 << 30;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  obscor reproduce [--nv N] [--seed S] [--fast] [--tsv] [--check] [--only ARTIFACT]
                   [--metrics FILE] [--fast-path-metrics]
                   [--fault-plan SEED:RATE] [--strict-archive]
                   [--memory-budget BYTES] [--spill-dir PATH]
  obscor generate  [--nv N] [--seed S] [--window 0..4] [--filter EXPR] --out FILE
  obscor serve     [--nv N] [--seed S] [--window 0..4] [--workers W]
                   [--window-packets P] [--queue-depth D] [--windows K]
                   [--anonymize] [--check] [--metrics FILE] [--fast-path-metrics]
                   [--memory-budget BYTES] [--spill-dir PATH]
  obscor forecast  [--nv N] [--seed S] [--cutoff K]
  obscor info      [--nv N] [--seed S]

Flags given without a subcommand run `reproduce` (e.g. `obscor --metrics m.json`).
--nv N (accepts 2^K) is the window size in packets, 2^12..=2^30.
serve runs the streaming line-rate ingest service on the scenario's live
traffic stream: packets are sharded over --workers threads through bounded
queues (depth --queue-depth; full queues block the producer, never drop),
leaves compact through the radix kernel as they fill, and one `snapshot` line
is printed per closed window (--windows windows of --window-packets valid
packets each, defaulting to N_V). --anonymize applies line-rate memoized
CryptoPAN inside the workers. --check verifies each streamed window against
the batch-built matrix of the same packets. --metrics writes the run's
telescope.ingest.* observability delta as obscor.metrics.v1 JSON.
--metrics FILE writes the run's per-stage observability report (span timings,
counters, gauges) as obscor.metrics.v1 JSON.
--fast-path-metrics (reproduce and serve) also records the detail metric
families: hypersparse.radix.* compaction counters, anonymize.cache.* hit rates
and assoc.bitset.* container counters. They are off by default to keep the
pinned metric schema stable.
--fault-plan SEED:RATE builds the window matrices through the leaf archive and
injects seeded faults (truncation, bit flips, missing leaves, flaky reads) at
the given per-leaf rate; the restore retries transient faults, quarantines
corrupt leaves, and reports per-window packet coverage.
--strict-archive fails the run (exit 1) if any window restores degraded.
--memory-budget BYTES (accepts 2^N) builds each window matrix out-of-core:
carry-level CSR parts spill to disk whenever tracked live bytes exceed the
budget, and the merge scheduler reloads them on demand — the matrices are
bit-identical to the in-memory build. Applies to both reproduce and serve;
per-window spill accounting (evictions, reloads, peak live bytes) is printed
and hypersparse.spill.* metrics are recorded.
--spill-dir PATH puts the spill files under PATH (default: system temp dir).

ARTIFACT: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 classes subnets scaling";

struct Options {
    nv: usize,
    seed: u64,
    fast: bool,
    tsv: bool,
    check: bool,
    only: Option<String>,
    window: usize,
    out: Option<String>,
    cutoff: usize,
    filter: Option<String>,
    metrics: Option<String>,
    fast_path_metrics: bool,
    fault_plan: Option<FaultPlan>,
    strict_archive: bool,
    workers: usize,
    window_packets: Option<usize>,
    queue_depth: usize,
    serve_windows: usize,
    anonymize: bool,
    memory_budget: Option<u64>,
    spill_dir: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        nv: DEFAULT_NV,
        seed: 42,
        fast: false,
        tsv: false,
        check: false,
        only: None,
        window: 0,
        out: None,
        cutoff: 10,
        filter: None,
        metrics: None,
        fast_path_metrics: false,
        fault_plan: None,
        strict_archive: false,
        workers: 4,
        window_packets: None,
        queue_depth: 4,
        serve_windows: 3,
        anonymize: false,
        memory_budget: None,
        spill_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nv" => {
                let v = value("--nv")?;
                o.nv = parse_nv(&v)?;
                if !NV_RANGE.contains(&o.nv) {
                    return Err(format!("--nv {v} is outside the supported 2^12..=2^30"));
                }
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--fast" => o.fast = true,
            "--tsv" => o.tsv = true,
            "--check" => o.check = true,
            "--only" => o.only = Some(value("--only")?),
            "--window" => {
                o.window = value("--window")?.parse().map_err(|_| "bad --window")?;
                if o.window > 4 {
                    return Err("--window must be 0..=4".into());
                }
            }
            "--out" => o.out = Some(value("--out")?),
            "--filter" => o.filter = Some(value("--filter")?),
            "--metrics" => o.metrics = Some(value("--metrics")?),
            "--fast-path-metrics" => o.fast_path_metrics = true,
            "--fault-plan" => o.fault_plan = Some(FaultPlan::parse(&value("--fault-plan")?)?),
            "--strict-archive" => o.strict_archive = true,
            "--workers" => {
                o.workers = value("--workers")?.parse().map_err(|_| "bad --workers")?;
                if o.workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--window-packets" => {
                let v = value("--window-packets")?;
                let p = parse_nv(&v).map_err(|_| "bad --window-packets")?;
                if p == 0 {
                    return Err("--window-packets must be positive".into());
                }
                o.window_packets = Some(p);
            }
            "--queue-depth" => {
                o.queue_depth =
                    value("--queue-depth")?.parse().map_err(|_| "bad --queue-depth")?;
                if o.queue_depth == 0 {
                    return Err("--queue-depth must be positive".into());
                }
            }
            "--windows" => {
                o.serve_windows = value("--windows")?.parse().map_err(|_| "bad --windows")?;
                if o.serve_windows == 0 {
                    return Err("--windows must be positive".into());
                }
            }
            "--anonymize" => o.anonymize = true,
            "--memory-budget" => {
                let v = value("--memory-budget")?;
                let b = parse_nv(&v).map_err(|_| "bad --memory-budget")?;
                o.memory_budget = Some(b as u64);
            }
            "--spill-dir" => o.spill_dir = Some(value("--spill-dir")?),
            "--cutoff" => {
                o.cutoff = value("--cutoff")?.parse().map_err(|_| "bad --cutoff")?;
                if !(4..15).contains(&o.cutoff) {
                    return Err("--cutoff must be 4..=14".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// Accept `1048576` or `2^20`.
fn parse_nv(s: &str) -> Result<usize, String> {
    if let Some(exp) = s.strip_prefix("2^") {
        let e: u32 = exp.parse().map_err(|_| "bad exponent in --nv")?;
        if e >= usize::BITS {
            return Err("--nv exponent too large".into());
        }
        Ok(1usize << e)
    } else {
        s.parse().map_err(|_| "bad --nv".into())
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    // Bare flags imply the default subcommand: `obscor --metrics m.json`
    // is `obscor reproduce --metrics m.json`.
    let (cmd, rest) = if cmd.starts_with('-') && !matches!(cmd.as_str(), "--help" | "-h") {
        ("reproduce", &args[..])
    } else {
        (cmd.as_str(), rest)
    };
    let o = parse(rest)?;
    if o.fast_path_metrics {
        obscor_obs::set_level(Level::Detail);
        eprintln!("detail metrics enabled (hypersparse.radix.*, anonymize.cache.*, assoc.bitset.*)");
    }
    match cmd {
        "reproduce" => reproduce(o),
        "generate" => generate(o),
        "serve" => serve(o),
        "forecast" => forecast(o),
        "info" => info(o),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn build_scenario(o: &Options) -> Scenario {
    eprintln!(
        "building scenario: N_V = {} (sqrt = {:.0}), seed = {}",
        o.nv,
        (o.nv as f64).sqrt(),
        o.seed
    );
    Scenario::paper_scaled(o.nv, o.seed)
}

fn reproduce(o: Options) -> Result<(), String> {
    let scenario = build_scenario(&o);
    let mut config = if o.fast { AnalysisConfig::fast() } else { AnalysisConfig::default() };
    if o.fault_plan.is_some() || o.strict_archive {
        let archive =
            ArchiveConfig { fault_plan: o.fault_plan.clone(), ..ArchiveConfig::default() };
        if let Some(plan) = &o.fault_plan {
            eprintln!(
                "archive path: {} leaves/window, fault plan seed {} rate {}",
                archive.n_leaves, plan.seed, plan.rate
            );
        }
        config = config.with_archive(archive);
    }
    if let Some(budget) = o.memory_budget {
        if config.archive.is_some() {
            return Err("--memory-budget cannot be combined with the archive path \
                        (--fault-plan/--strict-archive)"
                .into());
        }
        eprintln!(
            "out-of-core build: memory budget {budget} bytes, spill dir {}",
            o.spill_dir.as_deref().unwrap_or("<temp>")
        );
        config = config.with_spill(SpillSettings {
            memory_budget: budget,
            spill_dir: o.spill_dir.as_deref().map(std::path::PathBuf::from),
        });
    }
    eprintln!(
        "population: {} sources; capturing 5 windows x {} packets + 15 honeyfarm months...",
        scenario.population.len(),
        scenario.n_v
    );
    let analysis = pipeline::run(&scenario, &config);
    for r in &analysis.restore {
        eprintln!(
            "restore {}: coverage {:.6} ({}/{} packets), {}/{} leaves, \
             {} recovered after retry, {} retries, {} quarantined",
            r.label,
            r.coverage(),
            r.packets_restored,
            r.packets_expected,
            r.n_restored(),
            r.n_leaves,
            r.recovered,
            r.retries,
            r.quarantined.len()
        );
        for q in &r.quarantined {
            eprintln!("  quarantined leaf {} ({}): {}", q.index, q.class, q.reason);
        }
    }
    for r in &analysis.spill {
        eprintln!(
            "spill: coverage {:.6} ({}/{} packets), {} leaves, {} merges, \
             {} evictions, {} reloads, peak {} live bytes, {} quarantined",
            r.coverage(),
            r.packets_restored,
            r.packets_expected,
            r.stats.leaves,
            r.stats.merges(),
            r.stats.evictions,
            r.stats.reloads,
            r.stats.peak_live_bytes,
            r.quarantined.len()
        );
        for q in &r.quarantined {
            eprintln!(
                "  quarantined part: level {} leaves [{}, {}): {}",
                q.level,
                q.first_leaf,
                q.first_leaf + q.n_leaves,
                q.error
            );
        }
    }
    for (label, fault) in &analysis.spill_fallbacks {
        eprintln!("spill: window {label} fell back to the in-memory build: {fault}");
    }
    if o.strict_archive && analysis.restore.iter().any(|r| !r.is_complete()) {
        let degraded =
            analysis.restore.iter().filter(|r| !r.is_complete()).count();
        return Err(format!(
            "--strict-archive: {degraded}/{} windows restored degraded",
            analysis.restore.len()
        ));
    }
    if let Some(path) = &o.metrics {
        let json = analysis.metrics.to_json();
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} metrics ({} bytes) to {path}",
            analysis.metrics.metric_names().len(),
            json.len()
        );
    }
    if o.check {
        let v = obscor_core::validate::validate(&analysis, !o.fast);
        eprintln!("{}", v.render());
        if !v.all_passed() {
            return Err("self-validation failed".into());
        }
    }
    if o.tsv {
        println!("{}", analysis.to_tsv());
        return Ok(());
    }
    let out = match o.only.as_deref() {
        None => analysis.render_all(),
        Some("table1") => analysis.render_table1(),
        Some("table2") => analysis.render_table2(),
        Some("fig1") => analysis.render_fig1(),
        Some("fig2") => analysis.render_fig2(),
        Some("fig3") => analysis.render_fig3(),
        Some("fig4") => analysis.render_fig4(),
        Some("fig5") => analysis.render_fig5(),
        Some("fig6") => analysis.render_fig6(),
        Some("fig7") => analysis.render_fig7(),
        Some("fig8") => analysis.render_fig8(),
        Some("classes") => analysis.render_classes(),
        Some("subnets") => analysis.render_subnets(),
        Some("scaling") => analysis.render_scaling(),
        Some(other) => return Err(format!("unknown artifact {other}")),
    };
    println!("{out}");
    Ok(())
}

fn generate(o: Options) -> Result<(), String> {
    let out_path = o.out.clone().ok_or("generate needs --out")?;
    let scenario = build_scenario(&o);
    let spec = &scenario.caida_windows[o.window];
    eprintln!("capturing window {} ({})...", o.window, spec.label);
    let w = capture_window(&scenario, spec);
    let expr = match &o.filter {
        Some(text) => {
            Some(obscor_pcap::parse_filter(text).map_err(|e| format!("bad --filter: {e}"))?)
        }
        None => None,
    };
    let mut writer = PcapWriter::new();
    let mut kept = 0usize;
    for p in &w.window.packets {
        use obscor_pcap::PacketFilter;
        if expr.as_ref().map(|e| e.accept(p)).unwrap_or(true) {
            writer.write_packet(p);
            kept += 1;
        }
    }
    if expr.is_some() {
        eprintln!("filter kept {kept}/{} packets", w.packets());
    }
    let bytes = writer.into_bytes();
    std::fs::write(&out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "wrote {} packets ({} bytes, {:.0} s span) to {}",
        kept,
        bytes.len(),
        w.duration_secs(),
        out_path
    );
    Ok(())
}

/// Key used by `serve --anonymize` (a fixed demo key, like `generate`'s
/// fixed seed defaults — real deployments would load one).
const SERVE_ANON_KEY: [u8; 32] = [0x5Au8; 32];

fn serve(o: Options) -> Result<(), String> {
    use obscor_pcap::PacketFilter;
    let scenario = build_scenario(&o);
    let window_packets = o.window_packets.unwrap_or(scenario.n_v);
    let mut cfg = IngestConfig::new(o.workers, window_packets);
    cfg.queue_depth = o.queue_depth;
    cfg.memory_budget = o.memory_budget;
    cfg.spill_dir = o.spill_dir.as_deref().map(std::path::PathBuf::from);
    let before = obscor_obs::snapshot();
    let spec = &scenario.caida_windows[o.window];
    eprintln!(
        "serving {} windows x {} packets from instant {} ({} workers, queue depth {}{})",
        o.serve_windows,
        window_packets,
        spec.label,
        o.workers,
        o.queue_depth,
        if o.anonymize { ", anonymized" } else { "" }
    );
    let octet = scenario.population.config.darkspace_octet;
    let (source, filter) =
        obscor_telescope::window_traffic_source(&scenario, spec, octet);
    let mut svc = if o.anonymize {
        IngestService::with_anonymizer(
            cfg,
            obscor_anonymize::MemoCryptoPan::new(&SERVE_ANON_KEY),
        )
    } else {
        IngestService::new(cfg)
    };
    // --check retains each open window's packets and rebuilds the batch
    // oracle at close; the streamed matrix must be byte-equal.
    let mut oracle: Vec<(u32, u32)> = Vec::new();
    let mut checked = 0usize;
    let target = (o.serve_windows * window_packets) as u64;
    let mut fed = 0u64;
    let mut emit = |snap: &obscor_telescope::WindowSnapshot,
                    oracle: &mut Vec<(u32, u32)>|
     -> Result<(), String> {
        if o.check {
            let taken: Vec<_> = oracle.drain(..snap.packets as usize).collect();
            let batch = batch_oracle_matrix(&taken, o.anonymize);
            if batch != snap.matrix {
                return Err(format!("window {} diverged from the batch build", snap.index));
            }
            checked += 1;
        }
        if let Some(fault) = &snap.spill_fallback {
            eprintln!(
                "spill: window {} fell back to the in-memory fold: {fault}",
                snap.index
            );
        }
        let spill = match &snap.spill {
            None => String::new(),
            Some(r) => format!(
                " evictions={} reloads={} peak_live_bytes={}",
                r.stats.evictions, r.stats.reloads, r.stats.peak_live_bytes
            ),
        };
        println!(
            "snapshot window={} packets={} nnz={} sources={} leaves={} merges={} partial={}{}",
            snap.index,
            snap.packets,
            snap.matrix.nnz(),
            snap.matrix.n_rows(),
            snap.leaves,
            snap.merges,
            snap.partial,
            spill
        );
        Ok(())
    };
    for p in source {
        if !filter.accept(&p) {
            continue;
        }
        svc.push(p.src.0, p.dst.0);
        if o.check {
            oracle.push((p.src.0, p.dst.0));
        }
        fed += 1;
        while let Some(snap) = svc.try_snapshot() {
            emit(&snap, &mut oracle)?;
        }
        if fed >= target {
            break;
        }
    }
    let (rest, drain) = svc.finish();
    for snap in rest {
        emit(&snap, &mut oracle)?;
    }
    println!(
        "drain received={} compacted={} in_flight={} windows={} blocked={} partial={}",
        drain.received,
        drain.compacted,
        drain.in_flight,
        drain.windows_closed,
        drain.blocked,
        drain.partial_flushed
    );
    if !drain.is_exact() {
        return Err(format!("drain accounting is not exact: {drain:?}"));
    }
    if o.check {
        eprintln!("check: {checked}/{} windows byte-equal to the batch build", o.serve_windows);
    }
    if let Some(path) = &o.metrics {
        let delta = obscor_obs::snapshot().delta_since(&before);
        let json = delta.to_json();
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} metrics ({} bytes) to {path}",
            delta.metric_names().len(),
            json.len()
        );
    }
    Ok(())
}

/// The batch path's matrix for one serve window: the same accumulator
/// construction `telescope::matrix::build_matrix_with` uses, applied to the
/// retained packet list.
fn batch_oracle_matrix(pairs: &[(u32, u32)], anonymize: bool) -> obscor_hypersparse::Csr<u64> {
    use obscor_hypersparse::HierarchicalAccumulator;
    let leaf = obscor_telescope::leaf_capacity_for(pairs.len());
    let mut acc = HierarchicalAccumulator::with_leaf_capacity(leaf);
    if anonymize {
        let pan = obscor_anonymize::MemoCryptoPan::new(&SERVE_ANON_KEY);
        for &(s, d) in pairs {
            acc.push_edge(pan.anonymize(s), pan.anonymize(d));
        }
    } else {
        for &(s, d) in pairs {
            acc.push_edge(s, d);
        }
    }
    acc.finalize()
}

fn forecast(o: Options) -> Result<(), String> {
    use obscor_core::forecast::forecast_all;
    use obscor_core::temporal::temporal_curves;
    let scenario = build_scenario(&o);
    let config = if o.fast { AnalysisConfig::fast() } else { AnalysisConfig::default() };
    eprintln!("measuring temporal curves...");
    let holder = obscor_anonymize::sharing::Holder::new("telescope", &[5u8; 32]);
    let months = obscor_honeyfarm::observe_all_months(&scenario);
    let monthly: Vec<_> = months.iter().map(|m| m.source_keys().clone()).collect();
    let mut curves = Vec::new();
    for w in 0..scenario.caida_windows.len() {
        let wd = obscor_core::WindowDegrees::capture(&scenario, w, &holder);
        curves.extend(temporal_curves(&wd, &monthly, config.min_bin_sources.max(30)));
    }
    let evals = forecast_all(&curves, o.cutoff, &config);
    println!("fit on months 0..{}, predict months {}..15", o.cutoff, o.cutoff);
    println!("window                bin     model MAE  persistence MAE  winner");
    let mut wins = 0usize;
    for e in &evals {
        if e.model_wins() {
            wins += 1;
        }
        println!(
            "{:<21} d=2^{:<3} {:>9.4} {:>16.4}  {}",
            e.window_label,
            e.bin,
            e.model_mae(),
            e.baseline_mae(),
            if e.model_wins() { "model" } else { "persistence" }
        );
    }
    println!("model beats persistence on {wins}/{} curves", evals.len());
    Ok(())
}

fn info(o: Options) -> Result<(), String> {
    let scenario = build_scenario(&o);
    println!("scenario calibration");
    println!("  N_V                  {}", scenario.n_v);
    println!("  sqrt(N_V) knee       {:.0} (log2 = {:.1})", scenario.sqrt_nv(), scenario.bright_log2());
    println!("  population           {} sources", scenario.population.len());
    println!("  brightness->degree   {:.3}", scenario.brightness_to_degree);
    println!("  months               {} ({} .. {})",
        scenario.grid.len(), scenario.grid.label(0), scenario.grid.label(scenario.grid.len() - 1));
    println!("  windows:");
    for w in &scenario.caida_windows {
        println!("    {} (t = {:.2} months)", w.label, w.coord);
    }
    Ok(())
}


#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.nv, DEFAULT_NV);
        assert_eq!(o.seed, 42);
        assert!(!o.fast && !o.tsv);
        assert!(o.only.is_none() && o.out.is_none());
    }

    #[test]
    fn nv_forms() {
        assert_eq!(parse(&args("--nv 65536")).unwrap().nv, 65536);
        assert_eq!(parse(&args("--nv 2^18")).unwrap().nv, 1 << 18);
        assert!(parse(&args("--nv 2^99")).is_err());
        assert!(parse(&args("--nv banana")).is_err());
        assert!(parse(&args("--nv")).is_err());
        for outside in ["0", "4095", "2^11", "2^31"] {
            assert!(parse(&args(&format!("--nv {outside}"))).is_err(), "--nv {outside}");
        }
        assert_eq!(parse(&args("--nv 2^12")).unwrap().nv, 1 << 12);
        assert_eq!(parse(&args("--nv 2^30")).unwrap().nv, 1 << 30);
    }

    #[test]
    fn all_flags_together() {
        let o = parse(&args("--nv 2^14 --seed 7 --fast --tsv --only fig4 --window 3 --out x.pcap"))
            .unwrap();
        assert_eq!(o.nv, 1 << 14);
        assert_eq!(o.seed, 7);
        assert!(o.fast && o.tsv);
        assert_eq!(o.only.as_deref(), Some("fig4"));
        assert_eq!(o.window, 3);
        assert_eq!(o.out.as_deref(), Some("x.pcap"));
    }

    #[test]
    fn window_bounds() {
        assert!(parse(&args("--window 4")).is_ok());
        assert!(parse(&args("--window 5")).is_err());
        assert!(parse(&args("--window x")).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        assert!(parse(&args("--frobnicate")).is_err());
    }

    #[test]
    fn serve_flag_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.workers, 4);
        assert_eq!(o.queue_depth, 4);
        assert_eq!(o.serve_windows, 3);
        assert!(o.window_packets.is_none());
        assert!(!o.anonymize);
    }

    #[test]
    fn serve_flags_parse() {
        let o = parse(&args(
            "--workers 8 --window-packets 2^12 --queue-depth 2 --windows 5 --anonymize",
        ))
        .unwrap();
        assert_eq!(o.workers, 8);
        assert_eq!(o.window_packets, Some(1 << 12));
        assert_eq!(o.queue_depth, 2);
        assert_eq!(o.serve_windows, 5);
        assert!(o.anonymize);
        // --window-packets shares parse_nv, so plain integers work too.
        assert_eq!(parse(&args("--window-packets 1500")).unwrap().window_packets, Some(1500));
    }

    #[test]
    fn serve_flags_reject_zero_and_garbage() {
        assert!(parse(&args("--workers 0")).is_err());
        assert!(parse(&args("--workers x")).is_err());
        assert!(parse(&args("--queue-depth 0")).is_err());
        assert!(parse(&args("--windows 0")).is_err());
        assert!(parse(&args("--window-packets 0")).is_err());
    }

    #[test]
    fn metrics_flag_parses() {
        let o = parse(&args("--metrics out.json")).unwrap();
        assert_eq!(o.metrics.as_deref(), Some("out.json"));
        assert!(parse(&args("--metrics")).is_err());
    }

    #[test]
    fn fast_path_metrics_flag_parses() {
        assert!(!parse(&args("--metrics m.json")).unwrap().fast_path_metrics);
        let o = parse(&args("--metrics m.json --fast-path-metrics")).unwrap();
        assert!(o.fast_path_metrics);
    }

    #[test]
    fn fault_plan_flag_parses() {
        let o = parse(&args("--fault-plan 7:0.25")).unwrap();
        let plan = o.fault_plan.expect("plan parsed");
        assert_eq!(plan.seed, 7);
        assert!((plan.rate - 0.25).abs() < 1e-12);
        assert!(!o.strict_archive);
        assert!(parse(&args("--fault-plan")).is_err());
        assert!(parse(&args("--fault-plan 7")).is_err());
        assert!(parse(&args("--fault-plan 7:2.0")).is_err());
    }

    #[test]
    fn strict_archive_flag_parses() {
        assert!(parse(&args("--strict-archive")).unwrap().strict_archive);
        let both = parse(&args("--fault-plan 1:0.1 --strict-archive")).unwrap();
        assert!(both.strict_archive && both.fault_plan.is_some());
    }

    #[test]
    fn memory_budget_flag_parses() {
        assert!(parse(&[]).unwrap().memory_budget.is_none());
        assert!(parse(&[]).unwrap().spill_dir.is_none());
        let o = parse(&args("--memory-budget 2^26 --spill-dir /tmp/spill")).unwrap();
        assert_eq!(o.memory_budget, Some(1 << 26));
        assert_eq!(o.spill_dir.as_deref(), Some("/tmp/spill"));
        // A zero budget is legal: it forces eviction on every carry.
        assert_eq!(parse(&args("--memory-budget 0")).unwrap().memory_budget, Some(0));
        assert!(parse(&args("--memory-budget")).is_err());
        assert!(parse(&args("--memory-budget lots")).is_err());
        assert!(parse(&args("--spill-dir")).is_err());
    }

    #[test]
    fn subcommand_dispatch_errors() {
        assert!(run(vec![]).is_err());
        assert!(run(args("unknowncmd")).is_err());
        assert!(run(args("help")).is_ok());
        // generate without --out fails before doing any work.
        assert!(run(args("generate --nv 2^12")).is_err());
    }
}
