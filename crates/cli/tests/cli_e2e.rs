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
fn deeply_nested_filter_is_a_usage_error() {
    // 20,000 nested parentheses used to overflow the parser's stack and
    // abort the process; now the parser refuses them with a typed error.
    let dir = ScratchDir::new("deep_filter");
    let path = dir.file("x.pcap");
    let n = 20_000;
    let filter = format!("{}port 80{}", "(".repeat(n), ")".repeat(n));
    let out = obscor()
        .args(["generate", "--nv", "2^12", "--filter", &filter, "--out", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("bad --filter"), "stderr:\n{stderr}");
    assert!(stderr.contains("nested too deeply"), "stderr:\n{stderr}");
    assert!(!path.exists(), "a refused filter must write no capture");
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
        "stage.curves",
        "stage.fits",
        "stage.classes",
        "stage.teardown",
        "telescope.capture_window",
        "telescope.build_matrix",
        "hypersparse.leaf_compact",
        "hypersparse.carry_merge",
        "hypersparse.accumulator.finalize",
        "core.degrees",
        "core.binning",
        "core.zm_fit",
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
fn serve_anonymized_check_is_byte_equal() {
    // The workers' batched, prefix-sharing anonymization against the
    // scalar memoized anonymizer of the batch build, on telescope windows.
    let out = obscor()
        .args(["serve", "--nv", "2^14", "--seed", "42", "--workers", "2", "--windows", "2"])
        .args(["--window-packets", "4096", "--anonymize", "--check"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("check: 2/2 windows byte-equal"), "stderr:\n{stderr}");
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
        vec!["reproduce", "--nv", "2^12", "--fast", "--tsv", "--only", "fig9"],
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
        if args.contains(&"--only") {
            // An unknown artifact is refused before any work is done.
            assert!(!stderr.contains("building scenario"), "ran before refusing {args:?}");
        }
    }
}

#[test]
fn subcommands_refuse_flags_they_do_not_read() {
    for (args, flag) in [
        (&["info", "--nv", "2^12", "--only", "fig1", "--tsv", "--memory-budget", "0"][..], "--only"),
        (&["serve", "--nv", "2^12", "--windows", "1", "--only", "fig1", "--tsv"], "--only"),
        // A fault plan `serve` would not inject is refused, not ignored.
        (&["serve", "--nv", "2^12", "--windows", "1", "--fault-plan", "7:0.3"], "--fault-plan"),
        (&["forecast", "--nv", "2^12", "--memory-budget", "0"], "--memory-budget"),
        (&["generate", "--nv", "2^12", "--out", "/nonexistent/x.pcap", "--check"], "--check"),
        (&["--nv", "2^12", "--fast", "--workers", "2"], "--workers"),
    ] {
        let out = obscor().args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr:\n{stderr}");
        assert!(stderr.contains(&format!("does not read {flag}")), "{args:?} stderr:\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?} stderr:\n{stderr}");
        assert!(!stderr.contains("building scenario"), "{args:?} ran before refusing");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

/// The standard 64-bit FNV-1a digest, as `tests/paper_reproduction.rs`
/// computes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The digest of `obscor <args>`'s stdout; the run must succeed.
fn stdout_digest(args: &[&str]) -> u64 {
    let out = obscor().args(args).output().unwrap();
    assert!(out.status.success(), "{args:?} stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    fnv1a(&out.stdout)
}

/// The degraded archive run CI's fault-injection smoke also makes.
const FAULT_RUN: [&str; 9] =
    ["--nv", "2^14", "--seed", "42", "--fast", "--only", "table1", "--fault-plan", "7:0.3"];

#[test]
fn fault_plan_restore_reports_and_counters_are_pinned() {
    let dir = ScratchDir::new("fault_pins");
    let path = dir.file("faults.json");
    let out = obscor().args(FAULT_RUN).arg("--tsv").arg("--metrics").arg(&path).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert_eq!(fnv1a(&out.stdout), 825_850_157_173_287_554, "stdout digest moved");

    // Each window draws its own assignment from the plan (the windows'
    // 8 leaves are the fold's leaves), so the windows lose different
    // leaves.
    let lines: Vec<&str> = stderr.lines().collect();
    let restores: Vec<usize> =
        (0..lines.len()).filter(|&i| lines[i].starts_with("restore ")).collect();
    assert_eq!(restores.len(), 5, "one restore line per window:\n{stderr}");
    let pinned: [(&str, &[&str]); 5] = [
        (
            "coverage 0.625000 (10240/16384 packets), 5/8 leaves, \
             0 recovered after retry, 9 retries, 3 quarantined",
            &["1 (transient)", "4 (transient)", "6 (transient)"],
        ),
        (
            "coverage 0.750000 (12288/16384 packets), 6/8 leaves, \
             0 recovered after retry, 0 retries, 2 quarantined",
            &["4 (permanent)", "7 (permanent)"],
        ),
        (
            "coverage 0.750000 (12288/16384 packets), 6/8 leaves, \
             1 recovered after retry, 4 retries, 2 quarantined",
            &["1 (transient)", "6 (permanent)"],
        ),
        (
            "coverage 0.750000 (12288/16384 packets), 6/8 leaves, \
             1 recovered after retry, 1 retries, 2 quarantined",
            &["1 (permanent)", "4 (permanent)"],
        ),
        (
            "coverage 0.625000 (10240/16384 packets), 5/8 leaves, \
             1 recovered after retry, 1 retries, 3 quarantined",
            &["2 (permanent)", "4 (permanent)", "7 (permanent)"],
        ),
    ];
    let mut leaf_sets = BTreeSet::new();
    for (&i, (summary, leaves)) in restores.iter().zip(pinned) {
        assert!(lines[i].ends_with(summary), "{}", lines[i]);
        // Index and class only: the reason wording belongs to the store.
        let quarantined: Vec<&str> = lines[i + 1..i + 1 + leaves.len()]
            .iter()
            .map(|l| l.trim().strip_prefix("quarantined leaf ").expect("quarantine line"))
            .map(|l| l.split_once(':').expect("a reason").0)
            .collect();
        assert_eq!(quarantined, leaves, "{stderr}");
        leaf_sets.insert(quarantined.iter().map(|q| q.split(' ').next()).collect::<Vec<_>>());
    }
    assert!(leaf_sets.len() > 1, "every window lost the same leaves:\n{stderr}");

    let text = std::fs::read_to_string(&path).unwrap();
    let snap = obscor_obs::MetricsSnapshot::from_json(&text).expect("schema-valid JSON");
    for (name, want) in [
        ("telescope.restore.leaves_total", 40),
        ("telescope.restore.retries_total", 15),
        ("telescope.restore.recovered_total", 3),
        ("telescope.restore.quarantined_total", 12),
        ("telescope.restore.transient_faults_total", 19),
        ("telescope.restore.permanent_faults_total", 8),
        ("telescope.faults.injected_total", 15),
        ("telescope.faults.drop_total", 6),
        ("telescope.faults.truncate_total", 4),
        ("telescope.faults.transient_total", 3),
        ("telescope.faults.bitflip_total", 2),
        ("stage.matrices.nnz_total", 35_368),
    ] {
        assert_eq!(snap.counters.get(name).copied(), Some(want), "{name}");
    }
}

#[test]
fn zero_rate_fault_plan_prints_the_direct_bytes() {
    let direct = ["--nv", "2^14", "--seed", "42", "--fast", "--only", "table1", "--tsv"];
    let mut clean = FAULT_RUN.to_vec();
    clean[8] = "7:0.0";
    clean.push("--tsv");
    assert_eq!(stdout_digest(&direct), 2_883_744_622_206_496_623);
    assert_eq!(stdout_digest(&clean), 2_883_744_622_206_496_623);
}

#[test]
fn zero_rate_archive_folds_the_direct_runs_leaves() {
    let dir = ScratchDir::new("archive_leaves");
    let mut counts = Vec::new();
    for (file, plan) in [("direct.json", None), ("archived.json", Some("7:0.0"))] {
        let path = dir.file(file);
        let mut cmd = obscor();
        cmd.args(&FAULT_RUN[..7]).arg("--metrics").arg(&path);
        if let Some(plan) = plan {
            cmd.args(["--fault-plan", plan]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = obscor_obs::MetricsSnapshot::from_json(&text).expect("schema-valid JSON");
        let count = |name: &str| snap.counters.get(name).copied();
        counts.push((
            count("hypersparse.accumulator.leaves_total"),
            count("hypersparse.accumulator.carry_merges_total"),
        ));
        // The direct fold is fed one 2048-packet leaf at a time, and the
        // gauge reports the fold's leaf, not the size of one push.
        if plan.is_none() {
            assert_eq!(snap.gauges.get("telescope.build_matrix.leaf_capacity"), Some(&2048));
        }
    }
    // 5 windows of 2^14 packets: 8 leaves and 7 carry merges each, on
    // both paths.
    assert_eq!(counts, [(Some(40), Some(35)), (Some(40), Some(35))]);
}

#[test]
fn archive_cut_follows_the_window_not_the_fold_leaf() {
    // At N_V = 5000 the fold's leaf is 1024 packets, so the archive cuts
    // each window into 5 leaves of 1000. The bytes are the ones the
    // archive wrote from a held window.
    let args = ["--nv", "5000", "--seed", "42", "--fast", "--fault-plan", "7:0.3"];
    let out = obscor().args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert_eq!(fnv1a(&out.stdout), 11_881_472_204_937_137_844, "stdout digest moved");
    let restores: Vec<&str> = stderr.lines().filter(|l| l.starts_with("restore ")).collect();
    assert_eq!(restores.len(), 5, "{stderr}");
    assert!(
        restores[0].ends_with(
            "coverage 0.600000 (3000/5000 packets), 3/5 leaves, \
             0 recovered after retry, 6 retries, 2 quarantined"
        ),
        "{stderr}"
    );
    assert!(restores.iter().all(|l| l.contains("000/5000 packets), ")), "{stderr}");
}

#[test]
fn archive_path_combines_with_a_memory_budget() {
    let dir = ScratchDir::new("archive_budget");
    let mut args = FAULT_RUN.to_vec();
    args[8] = "7:0.0";
    let spill_dir = dir.file("spill");
    let metrics = dir.file("metrics.json");
    let out = obscor()
        .args(args)
        .args(["--memory-budget", "0", "--tsv", "--spill-dir"])
        .arg(&spill_dir)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "stderr:\n{stderr}");
    // The direct run's bytes: a budget and a clean archive change nothing.
    assert_eq!(fnv1a(&out.stdout), 2_883_744_622_206_496_623, "stderr:\n{stderr}");
    let restores = stderr.lines().filter(|l| l.starts_with("restore ")).collect::<Vec<_>>();
    assert_eq!(restores.len(), 5, "{stderr}");
    assert!(restores.iter().all(|l| l.contains("coverage 1.000000")), "{stderr}");
    let spills: Vec<&str> = stderr.lines().filter(|l| l.starts_with("spill: ")).collect();
    assert_eq!(spills.len(), 5, "one spill line per window:\n{stderr}");
    // A restored leaf counts the packets it holds, not its entries.
    for line in spills {
        assert!(line.starts_with("spill: coverage 1.000000 (16384/16384 packets)"), "{line}");
        assert!(!line.contains(" 0 evictions"), "{line}");
    }
    let text = std::fs::read_to_string(&metrics).unwrap();
    let snap = obscor_obs::MetricsSnapshot::from_json(&text).expect("schema-valid JSON");
    let pushed = snap.counters["hypersparse.accumulator.pushed_total"];
    assert_eq!(pushed, snap.counters["telescope.capture.valid_packets_total"]);
    assert_eq!(pushed, 5 * 16384);
}

#[test]
fn spill_dir_without_a_memory_budget_is_a_usage_error() {
    for args in [
        vec!["reproduce", "--nv", "2^12", "--fast", "--only", "table1"],
        vec!["serve", "--nv", "2^12", "--windows", "1", "--window-packets", "4096"],
    ] {
        let out = obscor().args(&args).args(["--spill-dir", "/nonexistent/x"]).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr:\n{stderr}");
        assert!(stderr.contains("--memory-budget"), "{args:?} stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn serve_target_overflow_is_a_usage_error() {
    let out = obscor()
        .args(["serve", "--nv", "2^12", "--windows", "4611686018427387905"])
        .args(["--window-packets", "4"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("--windows") && stderr.contains("--window-packets"), "{stderr}");
    assert!(stderr.contains("overflows"), "{stderr}");
    assert!(out.stdout.is_empty(), "no window may be served");
}

#[test]
fn forecast_output_is_pinned() {
    for (args, want) in [
        (["forecast", "--nv", "2^14", "--seed", "42", "--fast"], 13_908_410_633_721_930_485),
        (["forecast", "--nv", "2^15", "--seed", "7", "--fast"], 13_143_127_946_532_499_506),
    ] {
        assert_eq!(stdout_digest(&args), want, "{args:?}");
    }
}
