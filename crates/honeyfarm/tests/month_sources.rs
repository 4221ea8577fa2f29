//! The numeric month generator against the string-triple reference.
//!
//! [`oracle`] is the month generator as it was when every month was built
//! as `(row, column, value)` string triples and assembled with D4M "last
//! wins" assignment. The numeric generator must consume each month's RNG
//! stream in the same order, so its render equals the reference exactly.

use obscor_assoc::convert::ip_key;
use obscor_assoc::Assoc;
use obscor_honeyfarm::engage::engage;
use obscor_honeyfarm::monthly::scenario_detection;
use obscor_honeyfarm::{observe_all_month_sources, observe_month_sources, MonthlyObservation};
use obscor_netmodel::Scenario;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// The reference month: every detection and background draw as string
/// triples, with one world-address hash set built per month.
fn oracle(scenario: &Scenario, month: usize) -> MonthlyObservation {
    let (lo, hi) = scenario.grid.month_interval(month);
    let label = scenario.grid.label(month);
    let coverage = scenario.coverage_boost[month];
    let detection = scenario_detection(scenario);
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ (0x9E37 + month as u64) << 16);
    let mut triples: Vec<(String, String, String)> = Vec::new();
    for source in &scenario.population.sources {
        let p = detection.monthly_probability(source, lo, hi, coverage);
        if p <= 0.0 || rng.random::<f64>() >= p {
            continue;
        }
        let e = engage(source.class, &mut rng);
        let key = ip_key(source.ip.0);
        triples.push((key.clone(), "class".into(), e.observed_class.label().into()));
        triples.push((key.clone(), "intent".into(), e.intent.into()));
        triples.push((key.clone(), "handshake".into(), e.handshake.to_string()));
        triples.push((key, "month".into(), label.clone()));
    }
    let world: HashSet<u32> = scenario.population.sources.iter().map(|s| s.ip.0).collect();
    let n_background = ((scenario.population.len() as f64
        * scenario.honeyfarm_background_factor
        * coverage) as usize)
        .min(20_000_000);
    let mut added = 0usize;
    while added < n_background {
        let ip: u32 = rng.random();
        if (ip >> 24) as u8 == scenario.population.config.darkspace_octet
            || world.contains(&ip)
        {
            continue;
        }
        let key = ip_key(ip);
        triples.push((key.clone(), "class".into(), "unknown".into()));
        triples.push((key, "month".into(), label.clone()));
        added += 1;
    }
    MonthlyObservation { month, label, assoc: Assoc::from_triples_last(triples) }
}

/// Background draws the month makes (repeats included).
fn background_draws(scenario: &Scenario, month: usize) -> usize {
    (scenario.population.len() as f64
        * scenario.honeyfarm_background_factor
        * scenario.coverage_boost[month]) as usize
}

#[test]
fn every_month_renders_the_reference_array() {
    for seed in [21, 42, 7] {
        let s = Scenario::paper_scaled(1 << 13, seed);
        let all = observe_all_month_sources(&s);
        assert_eq!(all.len(), s.grid.len());
        for (m, month) in all.iter().enumerate() {
            assert_eq!(month, &observe_month_sources(&s, m), "seed {seed} month {m}");
            month.check_invariants(&s).unwrap();
            let want = oracle(&s, m);
            assert_eq!(month.to_observation(), want, "seed {seed} month {m}");
            assert_eq!(month.n_sources(), want.n_sources());
            let handshakes =
                want.assoc.iter().filter(|(_, c, v)| *c == "handshake" && *v == "true").count();
            assert_eq!(month.handshakes(), handshakes, "seed {seed} month {m}");
        }
    }
}

#[test]
fn repeated_background_draws_keep_one_row() {
    let mut s = Scenario::paper_scaled(1 << 12, 21);
    s.honeyfarm_background_factor = 100.0;
    let mut repeats = 0;
    for m in [0, 2] {
        let month = observe_month_sources(&s, m);
        month.check_invariants(&s).unwrap();
        assert_eq!(month.to_observation(), oracle(&s, m), "month {m}");
        let background = month.engagement().iter().filter(|e| e.is_none()).count();
        repeats += background_draws(&s, m) - background;
    }
    assert!(repeats > 0, "no background address was drawn twice");
}
