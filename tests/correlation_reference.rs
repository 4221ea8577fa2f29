//! Figs 4–6 against an independent reference: the correlation primitive
//! computed from its definition on plain string sets.
//!
//! A degree bin's fraction is the share of its sources whose D4M key
//! (`ip_key`) is a member of a honeyfarm month's key set. The reference
//! below does exactly that with `BTreeSet` membership and shares nothing
//! with the production path but `ip_key` and `log2_bin`. Month key sets
//! mix `ip_key` renders with other spellings of the same addresses and
//! with garbage: those are different D4M keys, so they must never count.

use obscor::assoc::convert::ip_key;
use obscor::assoc::KeySet;
use obscor::core::algebra::temporal_curves_algebraic;
use obscor::core::peak::peak_correlation;
use obscor::core::temporal::temporal_curves;
use obscor::core::WindowDegrees;
use obscor::stats::log2_bin;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// `(bin, n_sources, fraction bits per month)` for every degree bin of at
/// least `min` sources, by string-set membership.
fn reference(window: &WindowDegrees, months: &[KeySet], min: usize) -> Vec<(u32, usize, Vec<u64>)> {
    let mut bins: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for &(ip, d) in &window.degrees {
        bins.entry(log2_bin(d)).or_default().insert(ip_key(ip));
    }
    let months: Vec<BTreeSet<&str>> = months.iter().map(|m| m.iter().collect()).collect();
    bins.into_iter()
        .filter(|(_, keys)| keys.len() >= min)
        .map(|(bin, keys)| {
            let fractions = months
                .iter()
                .map(|month| {
                    let shared = keys.iter().filter(|k| month.contains(k.as_str())).count();
                    (shared as f64 / keys.len() as f64).to_bits()
                })
                .collect();
            (bin, keys.len(), fractions)
        })
        .collect()
}

/// `ip` as `ip_key` renders it (`style` 0), or as one of the other
/// spellings a lenient dotted-quad parser reads as the same address.
fn spell(ip: u32, style: u32) -> String {
    let [a, b, c, d] = ip.to_be_bytes();
    match style {
        0 => ip_key(ip),
        1 => format!("{a}.{b}.{c}.{d}"),
        2 => format!("+{a:02}.{b:03}.{c:03}.{d:03}"),
        _ => format!("{a:04}.{b:02}.{c:03}.{d:03}"),
    }
}

const GARBAGE: [&str; 6] =
    ["scanner-x", "", "256.000.000.001", "001.002.003", "001.002.003.004.005", " 001.002.003.004"];

/// A random window over a few /16s (so bins span several chunks) with
/// degrees spread over ten log2 bins, and 1–5 months whose key sets hold
/// window sources and outsiders in every spelling, plus garbage.
fn random_case(rng: &mut StdRng) -> (WindowDegrees, Vec<KeySet>) {
    let base = rng.random_range(0u32..256) << 24;
    let mut ips = BTreeSet::new();
    for _ in 0..rng.random_range(0usize..300) {
        ips.insert(base | (rng.random_range(0u32..4) << 16) | rng.random_range(0u32..2048));
    }
    let mut degrees = Vec::new();
    for ip in ips {
        let bin = rng.random_range(0u32..10);
        degrees.push((ip, rng.random_range(1u64..=1 << bin)));
    }
    let n_months = rng.random_range(1usize..6);
    let mut months = Vec::new();
    for _ in 0..n_months {
        let mut keys = Vec::new();
        for &(ip, _) in &degrees {
            if rng.random_bool(0.6) {
                keys.push(spell(ip, rng.random_range(0u32..4)));
            }
        }
        for _ in 0..rng.random_range(0usize..50) {
            let outsider = base | rng.random_range(0u32..1 << 20);
            keys.push(spell(outsider, rng.random_range(0u32..4)));
        }
        for g in GARBAGE {
            if rng.random_bool(0.3) {
                keys.push(g.to_string());
            }
        }
        months.push(keys.into_iter().collect::<KeySet>());
    }
    let month = rng.random_range(0..n_months);
    let window = WindowDegrees { label: "w".into(), coord: month as f64 + 0.5, month, degrees };
    (window, months)
}

proptest! {
    /// `peak_correlation`, `temporal_curves` and the counting-semiring
    /// `temporal_curves_algebraic` all equal the reference, bit for bit.
    #[test]
    fn correlations_match_the_string_set_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (window, months) = random_case(&mut rng);
        let min = rng.random_range(1usize..4);
        let want = reference(&window, &months, min);

        let curves = temporal_curves(&window, &months, min);
        let got: Vec<(u32, usize, Vec<u64>)> = curves
            .iter()
            .map(|c| (c.bin, c.n_sources, c.fractions.iter().map(|f| f.to_bits()).collect()))
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(temporal_curves_algebraic(&window, &months, min), curves);

        let peak = peak_correlation(&window, &months[window.month], 8.0, min);
        let got: Vec<(u32, usize, u64)> =
            peak.points.iter().map(|p| (p.bin, p.n_sources, p.fraction.to_bits())).collect();
        let want: Vec<(u32, usize, u64)> =
            want.iter().map(|(bin, n, f)| (*bin, *n, f[window.month])).collect();
        prop_assert_eq!(got, want);
    }
}
