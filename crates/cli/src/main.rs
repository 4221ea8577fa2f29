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
//!   (or the one artifact `--only` names; the usage lists them).
//! * `generate` captures one telescope window and writes it as a real
//!   libpcap file (openable in tcpdump/wireshark).
//! * `forecast` fits the temporal model on the first `--cutoff` months
//!   and scores its predictions for the held-out months against a
//!   persistence baseline.
//! * `info` prints the scenario calibration summary.

use obscor_core::{pipeline, AnalysisConfig, ArchiveConfig, PaperAnalysis, SpillSettings};
use obscor_netmodel::Scenario;
use obscor_obs::Level;
use obscor_pcap::PcapWriter;
use obscor_telescope::{
    capture_window, leaf_capacity_for, push_edges, window_fold, FaultPlan, IngestConfig,
    IngestService,
};
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
  obscor forecast  [--nv N] [--seed S] [--fast] [--cutoff K]
  obscor info      [--nv N] [--seed S]

Flags given without a subcommand run `reproduce` (e.g. `obscor --metrics m.json`).
A subcommand refuses any flag it does not list above.
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
bit-identical to the in-memory build. Applies to both reproduce and serve,
and combines with --fault-plan (the restored leaves fold out-of-core);
per-window spill accounting (evictions, reloads, peak live bytes) is
printed and hypersparse.spill.* metrics are recorded.
--spill-dir PATH puts the spill files under PATH (default: system temp dir);
it needs --memory-budget.

ARTIFACT: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 classes subnets scaling";

/// A render that prints one artifact of the analysis.
type Render = fn(&PaperAnalysis) -> String;

/// The artifacts `--only` can name, each with the render that prints it.
const ARTIFACTS: [(&str, Render); 13] = [
    ("table1", PaperAnalysis::render_table1),
    ("table2", PaperAnalysis::render_table2),
    ("fig1", PaperAnalysis::render_fig1),
    ("fig2", PaperAnalysis::render_fig2),
    ("fig3", PaperAnalysis::render_fig3),
    ("fig4", PaperAnalysis::render_fig4),
    ("fig5", PaperAnalysis::render_fig5),
    ("fig6", PaperAnalysis::render_fig6),
    ("fig7", PaperAnalysis::render_fig7),
    ("fig8", PaperAnalysis::render_fig8),
    ("classes", PaperAnalysis::render_classes),
    ("subnets", PaperAnalysis::render_subnets),
    ("scaling", PaperAnalysis::render_scaling),
];

/// A subcommand: its name, what it runs, and every flag it reads.
type Subcommand = (&'static str, fn(Options) -> Result<(), String>, &'static [&'static str]);

/// The subcommands, each with the flags it reads (as the usage lists
/// them). `run` refuses any other flag before any work, so no flag is
/// silently ignored.
const SUBCOMMANDS: [Subcommand; 5] = [
    (
        "reproduce",
        reproduce,
        &[
            "--nv", "--seed", "--fast", "--tsv", "--check", "--only", "--metrics",
            "--fast-path-metrics", "--fault-plan", "--strict-archive", "--memory-budget",
            "--spill-dir",
        ],
    ),
    ("generate", generate, &["--nv", "--seed", "--window", "--filter", "--out"]),
    (
        "serve",
        serve,
        &[
            "--nv", "--seed", "--window", "--workers", "--window-packets", "--queue-depth",
            "--windows", "--anonymize", "--check", "--metrics", "--fast-path-metrics",
            "--memory-budget", "--spill-dir",
        ],
    ),
    ("forecast", forecast, &["--nv", "--seed", "--fast", "--cutoff"]),
    ("info", info, &["--nv", "--seed"]),
];

/// The render of the artifact called `name`.
fn artifact(name: &str) -> Result<Render, String> {
    ARTIFACTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, render)| render)
        .ok_or_else(|| format!("unknown artifact {name}"))
}

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
    spill: Option<SpillSettings>,
    /// Every flag given, in order, for the subcommand to vet.
    given: Vec<String>,
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
        spill: None,
        given: Vec::new(),
    };
    let mut memory_budget: Option<u64> = None;
    let mut spill_dir: Option<String> = None;
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
            "--only" => {
                let v = value("--only")?;
                artifact(&v)?;
                o.only = Some(v);
            }
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
                memory_budget = Some(u64::try_from(b).map_err(|_| "bad --memory-budget")?);
            }
            "--spill-dir" => spill_dir = Some(value("--spill-dir")?),
            "--cutoff" => {
                o.cutoff = value("--cutoff")?.parse().map_err(|_| "bad --cutoff")?;
                if !(4..15).contains(&o.cutoff) {
                    return Err("--cutoff must be 4..=14".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        o.given.push(flag.clone());
    }
    o.spill = match (memory_budget, spill_dir) {
        (Some(memory_budget), dir) => {
            Some(SpillSettings { memory_budget, spill_dir: dir.map(std::path::PathBuf::from) })
        }
        (None, Some(_)) => return Err("--spill-dir needs --memory-budget".into()),
        (None, None) => None,
    };
    Ok(o)
}

/// The packets `serve` feeds: `windows` windows of `window_packets` each,
/// refused when the product does not fit in a count.
fn serve_target(windows: usize, window_packets: usize) -> Result<u64, String> {
    windows.checked_mul(window_packets).and_then(|n| u64::try_from(n).ok()).ok_or_else(|| {
        format!("--windows {windows} x --window-packets {window_packets} packets overflows")
    })
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
    if matches!(cmd, "help" | "--help" | "-h") {
        if let Some(flag) = rest.first() {
            return Err(format!("help does not read {flag}"));
        }
        println!("{USAGE}");
        return Ok(());
    }
    let &(_, command, reads) = SUBCOMMANDS
        .iter()
        .find(|(name, _, _)| *name == cmd)
        .ok_or_else(|| format!("unknown subcommand {cmd}"))?;
    let o = parse(rest)?;
    if let Some(flag) = o.given.iter().find(|flag| !reads.contains(&flag.as_str())) {
        return Err(format!("{cmd} does not read {flag}"));
    }
    if o.fast_path_metrics {
        obscor_obs::set_level(Level::Detail);
        eprintln!("detail metrics enabled (hypersparse.radix.*, anonymize.cache.*, assoc.bitset.*)");
    }
    command(o)
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
        if let Some(plan) = &o.fault_plan {
            eprintln!(
                "archive path: fault plan seed {} rate {}, drawn per window",
                plan.seed, plan.rate
            );
        }
        config = config.with_archive(ArchiveConfig { fault_plan: o.fault_plan.clone() });
    }
    if let Some(spill) = &o.spill {
        eprintln!(
            "out-of-core build: memory budget {} bytes, spill dir {}",
            spill.memory_budget,
            spill.spill_dir.as_deref().map_or("<temp>".into(), |d| d.display().to_string())
        );
        config = config.with_spill(spill.clone());
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
        Some(name) => artifact(name)?(&analysis),
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
    let window_packets = o.window_packets.unwrap_or(o.nv);
    let target = serve_target(o.serve_windows, window_packets)?;
    let scenario = build_scenario(&o);
    let mut cfg = IngestConfig::new(o.workers, window_packets);
    cfg.queue_depth = o.queue_depth;
    cfg.spill = o.spill.clone();
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
    // --check retains each open window's packets and folds them through
    // the batch build at close; the streamed matrix must be byte-equal.
    let mut oracle: Vec<(u32, u32)> = Vec::new();
    let oracle_pan =
        o.anonymize.then(|| obscor_anonymize::MemoCryptoPan::new(&SERVE_ANON_KEY));
    let oracle_map = |ip: u32| oracle_pan.as_ref().map_or(ip, |pan| pan.anonymize(ip));
    let mut checked = 0usize;
    let mut fed = 0u64;
    let mut emit = |snap: &obscor_telescope::WindowSnapshot,
                    oracle: &mut Vec<(u32, u32)>|
     -> Result<(), String> {
        if o.check {
            let taken = oracle.drain(..snap.packets as usize);
            let (mut fold, _) = window_fold(leaf_capacity_for(taken.len()), None);
            push_edges(&mut fold, taken.map(|(s, d)| (oracle_map(s), oracle_map(d))));
            if fold.finalize() != snap.matrix {
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

fn forecast(o: Options) -> Result<(), String> {
    use obscor_core::forecast::forecast_all;
    let scenario = build_scenario(&o);
    let config = if o.fast { AnalysisConfig::fast() } else { AnalysisConfig::default() };
    eprintln!("measuring temporal curves...");
    let min_sources = config.min_bin_sources.max(30);
    let mut curves = pipeline::run(&scenario, &config).curves;
    curves.retain(|c| c.n_sources >= min_sources);
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
    use std::collections::BTreeSet;

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
    fn only_accepts_every_listed_artifact_and_nothing_else() {
        for (name, _) in ARTIFACTS {
            let o = parse(&args(&format!("--only {name}"))).unwrap();
            assert_eq!(o.only.as_deref(), Some(name));
        }
        for unknown in ["fig9", "Table1", ""] {
            assert!(parse(&["--only".to_string(), unknown.to_string()]).is_err(), "{unknown:?}");
        }
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        assert!(USAGE.ends_with(&format!("ARTIFACT: {}", names.join(" "))), "the usage lists them");
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
        assert!(parse(&[]).unwrap().spill.is_none());
        let o = parse(&args("--memory-budget 2^26 --spill-dir /tmp/spill")).unwrap();
        let spill = o.spill.expect("spill settings parsed");
        assert_eq!(spill.memory_budget, 1 << 26);
        assert_eq!(spill.spill_dir.as_deref(), Some(std::path::Path::new("/tmp/spill")));
        // Either order: the directory may come first.
        let o = parse(&args("--spill-dir /tmp/spill --memory-budget 0")).unwrap();
        let want = SpillSettings { memory_budget: 0, spill_dir: Some("/tmp/spill".into()) };
        assert_eq!(o.spill, Some(want));
        // A zero budget is legal: it forces eviction on every carry.
        let zero = parse(&args("--memory-budget 0")).unwrap().spill;
        assert_eq!(zero, Some(SpillSettings::with_budget(0)));
        assert!(parse(&args("--memory-budget")).is_err());
        assert!(parse(&args("--memory-budget lots")).is_err());
        assert!(parse(&args("--spill-dir")).is_err());
    }

    #[test]
    fn spill_dir_without_a_budget_is_a_usage_error() {
        let err = parse(&args("--spill-dir /tmp/spill")).err().expect("a lone --spill-dir");
        assert!(err.contains("--memory-budget"), "{err}");
        for cmd in ["reproduce", "serve"] {
            let err = run(args(&format!("{cmd} --nv 2^12 --spill-dir /nonexistent/x")));
            assert!(err.is_err_and(|e| e.contains("--memory-budget")), "{cmd}");
        }
    }

    /// Every numeric flag, with the range its `Ok` values must lie in.
    #[allow(clippy::type_complexity)]
    const NUMERIC_FLAGS: [(&str, fn(&Options) -> bool); 10] = [
        ("--nv", |o| NV_RANGE.contains(&o.nv)),
        ("--seed", |_| true),
        ("--window", |o| o.window <= 4),
        ("--cutoff", |o| (4..=14).contains(&o.cutoff)),
        ("--workers", |o| o.workers > 0),
        ("--queue-depth", |o| o.queue_depth > 0),
        ("--windows", |o| o.serve_windows > 0),
        ("--window-packets", |o| o.window_packets.is_some_and(|p| p > 0)),
        ("--memory-budget", |o| o.spill.is_some()),
        ("--fault-plan", |o| {
            o.fault_plan.as_ref().is_some_and(|p| (0.0..=1.0).contains(&p.rate))
        }),
    ];

    #[test]
    fn numeric_flags_parse_to_ok_or_err_and_never_panic() {
        let forty_digits = "1".repeat(40);
        let spellings = [
            "", "-1", "+7", " 7", "0x10", "1e3", "2^", "2^-1", "2^64", "2^4294967296",
            "18446744073709551616", &forty_digits, "NaN", "7:", ":0.5", "7:nan", "7:1e309",
        ];
        for (flag, in_range) in NUMERIC_FLAGS {
            for spelling in spellings {
                let argv = [flag.to_string(), spelling.to_string()];
                let parsed = std::panic::catch_unwind(|| parse(&argv));
                let Ok(parsed) = parsed else { panic!("{flag} {spelling:?} panicked") };
                let Ok(o) = parsed else { continue };
                assert!(in_range(&o), "{flag} {spelling:?} parsed out of range");
                // The serve target derived from any accepted value is a
                // result, never a panic.
                let window_packets = o.window_packets.unwrap_or(o.nv);
                let target = std::panic::catch_unwind(|| {
                    serve_target(o.serve_windows, window_packets)
                });
                assert!(target.is_ok(), "{flag} {spelling:?}: serve target panicked");
            }
        }
    }

    #[test]
    fn each_subcommand_reads_the_flags_its_usage_lists() {
        let synopsis = USAGE.split("\n\n").next().expect("the usage opens with a synopsis");
        for (name, _, reads) in SUBCOMMANDS {
            let block = synopsis
                .split("\n  obscor ")
                .find(|block| block.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("no usage line for {name}"));
            let listed: BTreeSet<&str> = block
                .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                .filter(|word| word.starts_with("--"))
                .collect();
            assert_eq!(listed, reads.iter().copied().collect(), "{name}");
        }
    }

    #[test]
    fn subcommands_refuse_flags_they_do_not_read() {
        for (line, flag) in [
            ("info --nv 2^12 --only fig1 --tsv --memory-budget 0", "--only"),
            ("serve --nv 2^12 --windows 1 --fault-plan 7:0.3", "--fault-plan"),
            ("forecast --nv 2^12 --memory-budget 0", "--memory-budget"),
            ("generate --out x.pcap --fast-path-metrics", "--fast-path-metrics"),
            ("reproduce --workers 2", "--workers"),
            ("--nv 2^12 --cutoff 8", "--cutoff"),
            ("help --nv", "--nv"),
        ] {
            let err = run(args(line)).expect_err(line);
            assert!(err.ends_with(&format!("does not read {flag}")), "{line}: {err}");
        }
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
