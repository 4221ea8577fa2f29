//! Shared fixtures for the benchmark harness.
//!
//! Every table/figure bench builds its workload through these helpers so
//! that the benchmarked region is the *analysis* under study, not the
//! scenario construction. Fixtures are cached per `(n_v, seed)` behind a
//! mutex-guarded map so Criterion's repeated calls don't regenerate the
//! world.

use obscor_anonymize::sharing::Holder;
use obscor_assoc::KeySet;
use obscor_core::WindowDegrees;
use obscor_honeyfarm::observe_all_months;
use obscor_netmodel::Scenario;
use obscor_telescope::{capture_all_windows, TelescopeWindow};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default window size for paper-shape benches (`2^22` in DESIGN.md; the
/// bench binaries pass `OBSCOR_BENCH_NV` to override).
pub const BENCH_NV: usize = 1 << 20;

/// The cached world + observations a figure bench needs.
pub struct BenchFixture {
    /// The scenario (population + calendar).
    pub scenario: Scenario,
    /// Captured telescope windows.
    pub windows: Vec<TelescopeWindow>,
    /// Reduced per-window degrees (through the anonymization workflow).
    pub degrees: Vec<WindowDegrees>,
    /// Honeyfarm monthly source key sets.
    pub monthly_sources: Vec<KeySet>,
}

type FixtureCache = HashMap<(usize, u64), Arc<BenchFixture>>;

static CACHE: Mutex<Option<FixtureCache>> = Mutex::new(None);

/// Read the bench window size from `OBSCOR_BENCH_NV` (see
/// [`parse_bench_nv`]), defaulting to [`BENCH_NV`].
///
/// # Panics
/// Panics, naming the problem, on a value [`parse_bench_nv`] refuses,
/// instead of running the bench at a wrapped or garbage size.
pub fn bench_nv() -> usize {
    match std::env::var("OBSCOR_BENCH_NV") {
        Ok(v) => parse_bench_nv(&v).unwrap_or_else(|e| panic!("OBSCOR_BENCH_NV: {e}")),
        Err(_) => BENCH_NV,
    }
}

/// Parse a window size written as `2^NN` or as a decimal count. Refuses
/// garbage, zero, and exponents of `usize::BITS` or more (which a plain
/// `1usize << NN` would panic on in debug builds and wrap in release).
pub fn parse_bench_nv(s: &str) -> Result<usize, String> {
    let n = match s.strip_prefix("2^") {
        Some(exp) => {
            let e: u32 = exp.parse().map_err(|_| format!("bad exponent in {s:?}"))?;
            1usize
                .checked_shl(e)
                .ok_or_else(|| format!("exponent {e} does not fit in {} bits", usize::BITS))?
        }
        None => s.parse().map_err(|_| format!("bad window size {s:?} (want 2^NN or a count)"))?,
    };
    if n == 0 {
        return Err("window size must be positive".into());
    }
    Ok(n)
}

/// Build (or fetch) the fixture for `(n_v, seed)`.
pub fn fixture(n_v: usize, seed: u64) -> Arc<BenchFixture> {
    let mut guard = CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(f) = map.get(&(n_v, seed)) {
        return f.clone();
    }
    let scenario = Scenario::paper_scaled(n_v, seed);
    let windows = capture_all_windows(&scenario);
    let holder = Holder::new("bench-telescope", &[0x5Au8; 32]);
    let degrees: Vec<WindowDegrees> = windows
        .iter()
        .map(|w| {
            let month = (w.coord.floor() as usize).min(scenario.grid.len() - 1);
            WindowDegrees::from_window(w, &holder, month)
        })
        .collect();
    let months = observe_all_months(&scenario);
    let monthly_sources = months.into_iter().map(|m| m.source_keys().clone()).collect();
    let f = Arc::new(BenchFixture { scenario, windows, degrees, monthly_sources });
    map.insert((n_v, seed), f.clone());
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_cached() {
        let a = fixture(1 << 14, 1);
        let b = fixture(1 << 14, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.windows.len(), 5);
        assert_eq!(a.monthly_sources.len(), 15);
        assert_eq!(a.degrees.len(), 5);
    }

    #[test]
    fn bench_nv_parses_forms() {
        // Can't set env vars safely in parallel tests; exercise the
        // default path as it stands and the parser directly.
        assert!(bench_nv() >= 1 << 12);
        if std::env::var_os("OBSCOR_BENCH_NV").is_none() {
            assert_eq!(bench_nv(), BENCH_NV);
        }
        assert_eq!(parse_bench_nv("2^17"), Ok(1 << 17));
        assert_eq!(parse_bench_nv("131072"), Ok(131_072));
        assert_eq!(parse_bench_nv("2^0"), Ok(1));
        let top = usize::BITS - 1;
        assert_eq!(parse_bench_nv(&format!("2^{top}")), Ok(1 << top));
    }

    #[test]
    fn bench_nv_refuses_bad_sizes() {
        for bad in ["2^64", "2^4294967295", "0", "2^x", "2^", "garbage", "-1", ""] {
            assert!(parse_bench_nv(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
