//! The open-loop harness measures latency from each packet's due time, so
//! a consumer that cannot keep up shows as latency that grows with the
//! length of the run (no coordinated omission), and the generator
//! reports how late it ran.

use obscor_e2e_bench::stream::{generate, open_loop, Plan};
use obscor_stats::summary::quantile;

/// The workloads' one worker, sleeping 10 ms per 1024-packet batch
/// (~100k packets/s), offered 400k packets/s.
fn slow_plan() -> Plan {
    Plan {
        window: 1024,
        rate_pps: 400_000.0,
        distinct: 8,
        open_windows: None,
        saturation_packets: 0,
        anonymize: false,
        worker_delay_micros: 10_000,
    }
}

/// `(p95 latency, max lateness)` in ms of an open loop of `n_windows`.
fn run(plan: &Plan, windows: &[Vec<(u32, u32)>], n_windows: usize) -> (f64, f64) {
    let (r, drain, received) = open_loop(
        plan.service(None),
        windows,
        n_windows,
        plan.rate_pps,
        false,
        |_| {},
    );
    assert!(drain.is_exact(), "{drain:?}");
    assert_eq!(received, n_windows);
    (
        quantile(&r.latency_ms, 0.95).unwrap(),
        quantile(&r.late_ms, 1.0).unwrap(),
    )
}

#[test]
fn overload_latency_grows_with_run_length() {
    let plan = slow_plan();
    let windows = generate(42, plan.window, plan.distinct);
    let (short_p95, short_late) = run(&plan, &windows, 8);
    let (long_p95, long_late) = run(&plan, &windows, 32);
    // 32 windows at ~10 ms of service each take ~320 ms against a 82 ms
    // schedule: the backlog, and with it latency and lateness, roughly
    // quadruple from the 8-window run.
    assert!(
        long_p95 > 2.0 * short_p95,
        "p95 {short_p95} ms -> {long_p95} ms"
    );
    assert!(
        long_late > 2.0 * short_late,
        "lateness {short_late} ms -> {long_late} ms"
    );
    assert!(
        long_p95 > 150.0,
        "p95 {long_p95} ms misses the ~240 ms backlog"
    );
}

#[test]
fn an_unloaded_service_keeps_up() {
    let plan = Plan {
        rate_pps: 20_000.0,
        worker_delay_micros: 0,
        ..slow_plan()
    };
    let windows = generate(42, plan.window, plan.distinct);
    let (r, drain, received) = open_loop(
        plan.service(None),
        &windows,
        16,
        plan.rate_pps,
        false,
        |_| {},
    );
    assert!(drain.is_exact() && received == 16);
    // Each window is one batch, sent when due; its snapshot follows
    // within milliseconds, far inside the 51 ms between windows.
    assert!(
        quantile(&r.latency_ms, 0.95).unwrap() < 25.0,
        "{:?}",
        r.latency_ms
    );
    assert_eq!(r.latency_ms.len(), 16);
}
