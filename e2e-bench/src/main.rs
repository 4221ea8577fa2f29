//! `obscor-bench`: run one workload, or every workload each in its own
//! child process (so peak RSS is per workload). See `README.md`.

use obscor_e2e_bench::cli::{parse_args, Args, USAGE};
use obscor_e2e_bench::json::{self, quote, Value};
use obscor_e2e_bench::run_workload;
use obscor_e2e_bench::workload::{workloads, Workload};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("obscor-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args, &argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obscor-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// Run properties every report records: the numbers depend on the CPU
/// count, and the vendored `rayon` runs `par_iter` serially.
fn context_json(args: &Args) -> String {
    format!(
        "\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"host_cpus\": {}, \"rayon_sequential\": true",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        host_cpus()
    )
}

fn write_out(args: &Args, body: &str) -> Result<(), String> {
    match &args.out {
        Some(path) => std::fs::write(path, format!("{{{}, {body}}}\n", context_json(args)))
            .map_err(|e| format!("writing {path}: {e}")),
        None => Ok(()),
    }
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let mut w = Workload::named(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if args.smoke {
        w = w.smoke();
    }
    if let Some(nv) = args.nv {
        w = w.with_nv(nv);
    }
    eprintln!(
        "{name}: {w:?}, seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace
    );
    let outcome = run_workload(&w, args);
    let (lines, result) = outcome.render(name, args.trace);
    println!("# host_cpus {}", host_cpus());
    println!("# rayon_sequential true");
    for line in lines {
        println!("{line}");
    }
    write_out(
        args,
        &format!("\"workloads\": {{{}: {result}}}", quote(name)),
    )?;
    println!("{result}");
    Ok(())
}

/// Run every workload in a child process of this binary, forwarding its
/// report lines; the last line is the combined result, metrics keyed
/// `<workload>.<metric>`.
fn run_all(args: &Args, argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child_args: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                it.next();
            }
            _ => child_args.push(a.clone()),
        }
    }
    println!("# host_cpus {}", host_cpus());
    println!("# rayon_sequential true");
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    let mut results = Vec::new();
    for w in workloads() {
        let output = Command::new(&exe)
            .args(&child_args)
            .args(["--workload", w.name])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = match (output.status.success(), json::parse(last)) {
            (true, Ok(v)) => v,
            _ => return Err(format!("workload {} failed ({})", w.name, output.status)),
        };
        for line in stdout
            .lines()
            .filter(|l| !l.starts_with('{') && !l.starts_with('#'))
        {
            println!("{line}");
        }
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&format!("{}.{name}", w.name)),
                quote(unit)
            ));
        }
        results.push(format!("{}: {last}", quote(w.name)));
    }
    write_out(args, &format!("\"workloads\": {{{}}}", results.join(", ")))?;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0.0,
        metrics.join(", ")
    );
    Ok(())
}
