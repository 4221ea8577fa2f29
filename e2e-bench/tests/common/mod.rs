//! Runs the `obscor-bench` binary and parses its report.

// Each test crate uses a different part of this module.
#![allow(dead_code)]

use obscor_e2e_bench::json::{self, Value};
use std::process::Command;

/// One report line: `<workload> <metric> <value> <unit>`.
#[derive(Debug)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
}

/// The report of one run: its metric lines and its result JSON.
pub struct Report {
    pub lines: Vec<Line>,
    pub result: Value,
}

impl Report {
    /// The value of `metric` on its report line.
    pub fn value(&self, metric: &str) -> f64 {
        self.lines
            .iter()
            .find(|l| l.metric == metric)
            .map(|l| l.value)
            .unwrap_or_else(|| {
                panic!("no {metric} line");
            })
    }
}

/// Smoke-run `workload` at `seed`, traced or not, and parse its report.
pub fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
    let out = Command::new(env!("CARGO_BIN_EXE_obscor-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("spawn obscor-bench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result {last:?}: {e}"));
    let lines = stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert!(f.len() == 4 || f.len() == 5, "malformed line {l:?}");
            Line {
                workload: f[0].to_string(),
                metric: f[1].to_string(),
                value: f[2]
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value in {l:?}")),
                unit: f[3].to_string(),
            }
        })
        .collect();
    Report { lines, result }
}
