//! `BENCHMARK.json` describes this benchmark, and a smoke run of every
//! workload reports exactly what it declares.

mod common;

use obscor_e2e_bench::json::{self, Value};
use obscor_e2e_bench::workload::{workloads, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is not a list"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` pairs of a metric list.
fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
    list(v, key)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn as_pairs(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = list(&b, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    let paths = list(&b, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("a path");
        assert!(
            !p.starts_with('/') && !p.split('/').any(|c| c == ".."),
            "{p}"
        );
        assert!(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(p)
            .is_dir());
    }
    let seconds = b
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let wl = list(&b, "workloads");
    assert!((2..=8).contains(&wl.len()));
    for w in wl {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(is_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let e2e = list(&b, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let layers = list(&b, "per_layer");
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    let mut names = Vec::new();
    for m in wl.iter().chain(e2e).chain(layers) {
        let name = str_of(m, "name");
        assert!(is_name(name), "{name:?}");
        names.push(name);
        if let Some(better) = m.get("better") {
            assert!(matches!(better.as_str(), Some("lower" | "higher")), "{m:?}");
            let unit = str_of(m, "unit");
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
}

#[test]
fn benchmark_json_matches_the_binary() {
    let b = benchmark_json();
    let declared_workloads: Vec<&str> = list(&b, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let built: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    assert_eq!(declared_workloads, built);
    assert_eq!(declared(&b, "end_to_end"), as_pairs(END_TO_END));
    assert_eq!(declared(&b, "per_layer"), as_pairs(PER_LAYER));
}

fn assert_reports(trace: bool) {
    let b = benchmark_json();
    let want = declared(&b, if trace { "per_layer" } else { "end_to_end" });
    for w in workloads() {
        let report = common::smoke(w.name, 42, trace);
        let got: Vec<(String, String)> = report
            .lines
            .iter()
            .map(|l| (l.metric.clone(), l.unit.clone()))
            .collect();
        assert_eq!(
            got, want,
            "{}: reported metrics differ from BENCHMARK.json",
            w.name
        );
        assert!(report.lines.iter().all(|l| l.workload == w.name));
        let r = &report.result;
        assert_eq!(keys(r), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            r.get("correct"),
            Some(&Value::Bool(true)),
            "{}: {r:?}",
            w.name
        );
        assert_eq!(
            r.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(r
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|a| a >= 1.0));
        let metrics = r
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), want.len());
        for (line, (name, m)) in report.lines.iter().zip(metrics) {
            assert_eq!(name, &line.metric);
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(line.value));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(line.unit.as_str())
            );
            if !trace {
                assert!(line.value > 0.0, "{} {name} reads {}", w.name, line.value);
            }
        }
    }
}

#[test]
fn smoke_runs_report_every_end_to_end_metric_and_pass_their_checks() {
    assert_reports(false);
}

#[test]
fn traced_smoke_runs_report_every_layer_metric_and_pass_their_checks() {
    assert_reports(true);
}
