//! Monthly honeyfarm observations as D4M associative arrays.
//!
//! For each month of the grid, the honeyfarm produces an associative
//! array whose rows are the detected source IPs (dotted-quad keys) and
//! whose columns carry the enrichment metadata ("class", "intent",
//! "handshake", "month"). The row key set of a month *is* the GreyNoise
//! source set the paper correlates against.

use crate::detect::DetectionModel;
use crate::engage::engage;
use obscor_assoc::convert::ip_key;
use obscor_assoc::{Assoc, KeySet, StrAssoc};
use obscor_netmodel::Scenario;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// One month of honeyfarm output.
#[derive(Clone, Debug, PartialEq)]
pub struct MonthlyObservation {
    /// Month index on the scenario grid.
    pub month: usize,
    /// `YYYY-MM` label.
    pub label: String,
    /// Enrichment array: rows are detected sources, columns metadata.
    pub assoc: StrAssoc,
}

impl MonthlyObservation {
    /// The set of detected source keys (the GreyNoise source set).
    pub fn source_keys(&self) -> &KeySet {
        self.assoc.row_keys()
    }

    /// Number of detected sources (Table I's GreyNoise "Sources" column).
    pub fn n_sources(&self) -> usize {
        self.assoc.n_rows()
    }
}

/// The detection model implied by a scenario's calibration.
pub fn scenario_detection(scenario: &Scenario) -> DetectionModel {
    DetectionModel::new(scenario.bright_log2(), scenario.brightness_to_degree)
}

/// Observe one month. Deterministic in `(scenario.seed, month)`.
///
/// # Panics
/// Panics if `month` is off the grid.
pub fn observe_month(scenario: &Scenario, month: usize) -> MonthlyObservation {
    assert!(month < scenario.grid.len(), "month off the grid");
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
    // Background: the wider Internet the honeyfarm sees but the telescope's
    // /8 never does. These rows give the GreyNoise inventory its Table I
    // scale; they cannot collide with telescope sources (checked against
    // the world population), so they leave every correlation untouched.
    let world: std::collections::HashSet<u32> =
        scenario.population.sources.iter().map(|s| s.ip.0).collect();
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

/// Observe every month of the grid, in parallel.
pub fn observe_all_months(scenario: &Scenario) -> Vec<MonthlyObservation> {
    (0..scenario.grid.len())
        .into_par_iter()
        .map(|m| observe_month(scenario, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_assoc::convert::parse_ip_key;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn scenario() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::paper_scaled(1 << 14, 21))
    }

    #[test]
    fn observation_is_deterministic() {
        let s = scenario();
        let a = observe_month(s, 4);
        let b = observe_month(s, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn months_have_labels_and_sources() {
        let s = scenario();
        let obs = observe_month(s, 0);
        assert_eq!(obs.label, "2020-02");
        assert!(obs.n_sources() > 0);
        assert_eq!(obs.source_keys().len(), obs.n_sources());
    }

    #[test]
    fn metadata_columns_are_complete() {
        let s = scenario();
        let obs = observe_month(s, 4);
        let mut engaged = 0;
        let mut background = 0;
        for key in obs.source_keys().iter() {
            let class = obs.assoc.get(key, "class").expect("class present");
            assert_eq!(obs.assoc.get(key, "month"), Some(&"2020-06".to_string()));
            if class == "unknown" {
                // Background rows carry no engagement metadata.
                background += 1;
                assert_eq!(obs.assoc.get(key, "intent"), None);
                continue;
            }
            engaged += 1;
            assert!(obscor_netmodel::SourceClass::from_label(class).is_some());
            let intent = obs.assoc.get(key, "intent").expect("intent present");
            assert!(intent == "malicious" || intent == "benign");
            let hs = obs.assoc.get(key, "handshake").expect("handshake present");
            assert!(hs == "true" || hs == "false");
        }
        assert!(engaged > 0, "no engaged sources");
        assert!(background > 0, "no background sources");
    }

    #[test]
    fn every_row_key_is_an_ip_key_render() {
        // The correlation path interns month keys through `parse_ip_key`
        // and skips any other spelling; no month, engaged or background
        // rows, has one to skip.
        let (mut engaged, mut background) = (0, 0);
        for obs in observe_all_months(scenario()) {
            for key in obs.source_keys().iter() {
                let ip = parse_ip_key(key);
                assert_eq!(ip.map(ip_key).as_deref(), Some(key), "row key {key:?}");
                match obs.assoc.get(key, "intent") {
                    Some(_) => engaged += 1,
                    None => background += 1,
                }
            }
        }
        assert!(engaged > 0 && background > 0, "{engaged} engaged, {background} background");
    }

    #[test]
    fn background_never_collides_with_world_sources() {
        let s = scenario();
        let obs = observe_month(s, 4);
        let world: std::collections::HashSet<String> =
            s.population.sources.iter().map(|x| ip_key(x.ip.0)).collect();
        for key in obs.source_keys().iter() {
            let class = obs.assoc.get(key, "class").unwrap();
            if class == "unknown" {
                assert!(!world.contains(key), "background row {key} is a world source");
            }
        }
    }

    #[test]
    fn coverage_boost_months_see_more_sources() {
        let s = scenario();
        let normal = observe_month(s, 0).n_sources() as f64;
        let boosted = observe_month(s, 1).n_sources() as f64; // 2020-03 config change
        assert!(
            boosted > normal * 1.5,
            "boosted month {boosted} vs normal {normal}"
        );
    }

    #[test]
    fn bright_sources_are_always_seen_when_active() {
        let s = scenario();
        let (lo, hi) = s.grid.month_interval(7);
        let obs = observe_month(s, 7);
        let sqrt_nv = s.sqrt_nv();
        for src in &s.population.sources {
            if src.interval.overlaps(lo, hi)
                && s.expected_degree(src.brightness) >= sqrt_nv * 2.0
            {
                assert!(
                    obs.source_keys().contains(&ip_key(src.ip.0)),
                    "bright active source {} missing from month 7",
                    src.ip
                );
            }
        }
    }

    #[test]
    fn all_months_parallel_matches_serial() {
        let s = scenario();
        let all = observe_all_months(s);
        assert_eq!(all.len(), 15);
        assert_eq!(all[3], observe_month(s, 3));
    }

    #[test]
    #[should_panic(expected = "off the grid")]
    fn out_of_range_month_panics() {
        let _ = observe_month(scenario(), 15);
    }
}
