//! End-to-end tests of the `obscor` binary.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn obscor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obscor"))
}

/// A per-test scratch directory, removed on drop.
///
/// Each test gets its own directory (process id + a process-wide sequence
/// number), so tests that run concurrently — in this process or in a
/// stale parallel invocation of the whole suite — can never collide on a
/// shared fixed path, and nothing survives the test to pollute the next
/// run.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    fn new(test: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "obscor_cli_e2e_{}_{}_{}",
            test,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leaked dir on panic is acceptable, a panic in
        // drop is not.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[test]
fn info_prints_calibration() {
    let out = obscor().args(["info", "--nv", "2^13", "--seed", "9"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("scenario calibration"));
    assert!(stdout.contains("sqrt(N_V) knee"));
    assert!(stdout.contains("2020-06-17-12:00:00"));
}

#[test]
fn reproduce_single_artifact() {
    let out = obscor()
        .args(["reproduce", "--nv", "2^13", "--seed", "9", "--fast", "--only", "table1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("TABLE I"));
    assert!(stdout.contains("2021-04"));
    assert!(!stdout.contains("FIG 4"), "--only must print one artifact");
}

#[test]
fn reproduce_tsv_is_machine_readable() {
    let out = obscor()
        .args(["reproduce", "--nv", "2^13", "--seed", "9", "--fast", "--tsv"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().any(|l| l.starts_with("fig4\t")));
    assert!(stdout.lines().any(|l| l.starts_with("fit\t")));
}

#[test]
fn reproduce_check_passes_strict_and_non_strict() {
    // --fast implies non-strict validation, which must pass at tiny N_V;
    // without it the science checks are strict, and they must pass at
    // 2^15 for more than one seed.
    for (nv, seed, fast) in [("2^13", "9", true), ("2^15", "42", false), ("2^15", "7", false)] {
        let mut cmd = obscor();
        cmd.args(["reproduce", "--nv", nv, "--seed", seed, "--check", "--only", "fig1"]);
        if fast {
            cmd.arg("--fast");
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        let case = format!("--nv {nv} --seed {seed} (fast: {fast})");
        assert!(out.status.success(), "{case} stderr:\n{stderr}");
        assert!(stderr.contains("SELF-VALIDATION"), "{case} stderr:\n{stderr}");
        let passed = stderr.lines().filter(|l| l.starts_with("[PASS] ")).count();
        assert_eq!(passed, 8, "{case}: every check must pass; stderr:\n{stderr}");
    }
}

#[test]
fn generate_writes_a_readable_pcap() {
    let dir = ScratchDir::new("generate");
    let path = dir.file("w0.pcap");
    let out = obscor()
        .args([
            "generate",
            "--nv",
            "2^12",
            "--seed",
            "9",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let bytes = std::fs::read(&path).unwrap();
    // Global header magic, LE.
    assert_eq!(&bytes[..4], &0xA1B2_C3D4u32.to_le_bytes());
    let packets = obscor_pcap::PcapReader::new(&bytes).unwrap().read_all().unwrap();
    assert_eq!(packets.len(), 1 << 12);
}

#[test]
fn generate_with_filter_keeps_matching_packets_only() {
    let dir = ScratchDir::new("filter");
    let path = dir.file("filtered.pcap");
    let out = obscor()
        .args([
            "generate",
            "--nv",
            "2^12",
            "--seed",
            "9",
            "--filter",
            "proto tcp and not port 6667",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("filter kept"));
    let bytes = std::fs::read(&path).unwrap();
    let packets = obscor_pcap::PcapReader::new(&bytes).unwrap().read_all().unwrap();
    assert!(!packets.is_empty());
    assert!(packets
        .iter()
        .all(|p| p.proto == obscor_pcap::Protocol::Tcp && p.dst_port != 6667));
}

#[test]
fn metrics_flag_writes_schema_valid_json_with_all_stage_spans() {
    let dir = ScratchDir::new("metrics");
    let path = dir.file("metrics.json");
    // No subcommand: bare flags run the default `reproduce`.
    let out = obscor()
        .args([
            "--nv",
            "2^13",
            "--seed",
            "9",
            "--fast",
            "--only",
            "table1",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("wrote") && stderr.contains("metrics"), "stderr:\n{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let snap = obscor_obs::MetricsSnapshot::from_json(&text).expect("schema-valid JSON");
    // Every pipeline stage must surface both a span timing and a call
    // counter (the ISSUE's acceptance criterion).
    for stage in [
        "pipeline.run",
        "stage.capture",
        "stage.matrices",
        "stage.quantities",
        "stage.degrees",
        "stage.honeyfarm",
        "stage.quadrants",
        "stage.distributions",
        "stage.peaks",
        "stage.curves",
        "stage.fits",
        "stage.classes",
        "stage.teardown",
        "telescope.capture_window",
        "telescope.build_matrix",
        "hypersparse.leaf_compact",
        "hypersparse.accumulator.finalize",
        "hypersparse.merge_all",
        "core.degrees",
        "core.binning",
        "core.zm_fit",
        "core.peak_correlation",
        "core.temporal_curves",
        "core.fit_curves",
    ] {
        let h = format!("span.{stage}.ns");
        let c = format!("span.{stage}.calls_total");
        assert!(snap.histograms.contains_key(&h), "missing histogram {h}");
        assert!(snap.counters.get(&c).copied().unwrap_or(0) > 0, "missing counter {c}");
    }
    // Work counters reflect the run: 5 windows of 2^13 valid packets each.
    assert_eq!(snap.counters["telescope.capture.valid_packets_total"], 5 * (1 << 13));
    assert_eq!(snap.counters["stage.capture.windows_total"], 5);
    assert_eq!(snap.gauges["config.n_v"], 1 << 13);
    assert!(snap.counters["stage.honeyfarm.sources_total"] > 0, "the honeyfarm saw no sources");
}

/// The metric names of the `obscor.metrics.v1` file at `path`.
fn metric_names(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).unwrap();
    obscor_obs::MetricsSnapshot::from_json(&text).expect("schema-valid JSON").metric_names()
}

/// The detail families `--fast-path-metrics` turns on.
fn is_detail(name: &str) -> bool {
    ["hypersparse.radix.", "span.hypersparse.radix.", "anonymize.cache.", "assoc.bitset."]
        .iter()
        .any(|family| name.starts_with(family))
}

#[test]
fn reproduce_fast_path_metrics_adds_only_detail_names() {
    let dir = ScratchDir::new("reproduce_detail");
    let mut names = Vec::new();
    for (file, detail) in [("run.json", false), ("detail.json", true)] {
        let path = dir.file(file);
        let mut cmd = obscor();
        cmd.args(["reproduce", "--nv", "2^12", "--seed", "9", "--fast", "--only", "table1"])
            .arg("--metrics")
            .arg(&path);
        if detail {
            cmd.arg("--fast-path-metrics");
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "stderr:\n{stderr}");
        names.push(metric_names(&path));
    }
    let (run, detail) = (&names[0], &names[1]);
    assert!(run.iter().all(|n| !is_detail(n)), "a default run recorded detail names: {run:?}");
    let gained: Vec<&String> = detail.difference(run).collect();
    assert!(gained.iter().all(|n| is_detail(n)), "non-detail names gained: {gained:?}");
    assert!(run.is_subset(detail), "the detail run lost names");
    // The correlation path always runs on the compressed bitmaps, so the
    // container census is there once the level allows it.
    assert!(
        gained.iter().any(|n| n.starts_with("assoc.bitset.containers_")),
        "no assoc.bitset.containers_* name: {gained:?}"
    );
}

#[test]
fn serve_fast_path_metrics_records_detail_names() {
    let dir = ScratchDir::new("serve_detail");
    let path = dir.file("serve.json");
    let out = obscor()
        .args(["serve", "--nv", "2^12", "--seed", "9", "--workers", "2", "--windows", "1"])
        .args(["--window-packets", "4096", "--anonymize", "--fast-path-metrics", "--metrics"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "stderr:\n{stderr}");
    let names = metric_names(&path);
    for name in [
        "anonymize.cache.prefix_hits_total",
        "hypersparse.radix.compactions_total",
        "telescope.ingest.packets_total",
    ] {
        assert!(names.contains(name), "missing {name}: {names:?}");
    }
}

#[test]
fn unusable_spill_dir_is_reported_per_window() {
    let dir = ScratchDir::new("spill_fallback");
    // A regular file: no spill directory can be created under it.
    let file = dir.file("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    let out = obscor()
        .args(["reproduce", "--nv", "2^12", "--seed", "9", "--fast", "--only", "table2"])
        .args(["--memory-budget", "0", "--spill-dir", file.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The in-memory build is the same matrix, so the run still succeeds.
    assert!(out.status.success(), "stderr:\n{stderr}");
    let fallbacks: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("spill: window ") && l.contains(" fell back to the in-memory build: "))
        .collect();
    assert_eq!(fallbacks.len(), 5, "one fallback line per window:\n{stderr}");
    assert!(fallbacks[0].starts_with("spill: window 2020-06-17-12:00:00 fell back"), "{stderr}");
}

#[test]
fn fault_plan_reports_degraded_coverage() {
    let out = obscor()
        .args([
            "reproduce",
            "--nv",
            "2^12",
            "--seed",
            "9",
            "--fast",
            "--only",
            "table2",
            "--fault-plan",
            "7:0.3",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // Without --strict-archive, a degraded restore is a reported result,
    // not a failure.
    assert!(out.status.success(), "stderr:\n{stderr}");
    let coverages: Vec<f64> = stderr
        .lines()
        .filter(|l| l.starts_with("restore "))
        .map(|l| {
            let tail = l.split("coverage ").nth(1).expect("coverage field");
            tail.split_whitespace().next().unwrap().parse().expect("coverage value")
        })
        .collect();
    assert_eq!(coverages.len(), 5, "one restore line per window:\n{stderr}");
    assert!(
        coverages.iter().any(|c| *c < 1.0),
        "seed 7 at rate 0.3 must degrade some window:\n{stderr}"
    );
    assert!(coverages.iter().all(|c| (0.0..=1.0).contains(c)));
    assert!(stderr.contains("quarantined leaf"), "stderr:\n{stderr}");
}

#[test]
fn strict_archive_fails_on_degraded_restore_and_passes_clean() {
    let out = obscor()
        .args([
            "reproduce",
            "--nv",
            "2^12",
            "--seed",
            "9",
            "--fast",
            "--only",
            "table2",
            "--fault-plan",
            "7:0.3",
            "--strict-archive",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "strict mode must fail under faults");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--strict-archive"), "stderr:\n{stderr}");
    assert!(stderr.contains("restored degraded"), "stderr:\n{stderr}");

    // A zero-rate plan (and the clean archive path) restores fully, so
    // strict mode passes — the flag gates on outcome, not on mode.
    let clean = obscor()
        .args([
            "reproduce",
            "--nv",
            "2^12",
            "--seed",
            "9",
            "--fast",
            "--only",
            "table2",
            "--fault-plan",
            "7:0.0",
            "--strict-archive",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(clean.stderr).unwrap();
    assert!(clean.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("coverage 1.000000"), "stderr:\n{stderr}");
}

#[test]
fn bad_invocations_fail_with_usage() {
    for args in [
        vec!["reproduce", "--only", "fig99"],
        vec!["generate"], // missing --out
        vec!["nonsense"],
        vec!["reproduce", "--nv", "banana"],
        vec!["generate", "--filter", "proto banana", "--out", "/tmp/x.pcap"],
        vec!["reproduce", "--fault-plan", "7"],
        vec!["reproduce", "--fault-plan", "7:1.5"],
    ] {
        let out = obscor().args(&args).output().unwrap();
        assert!(!out.status.success(), "should fail: {args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "no usage in stderr for {args:?}");
    }
}
