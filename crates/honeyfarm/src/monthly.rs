//! Monthly honeyfarm observations.
//!
//! For each month of the grid, the honeyfarm detects a set of source
//! addresses and enriches every source it engaged with metadata. A month
//! is generated as [`MonthSources`]: sorted `u32` addresses with one typed
//! enrichment slot each, the form the analysis reads. Its D4M form, the
//! associative array whose rows are the detected source IPs (dotted-quad
//! keys) and whose columns carry the enrichment metadata ("class",
//! "intent", "handshake", "month"), is a render of the same data
//! ([`MonthSources::to_observation`]). The row key set of a month *is* the
//! GreyNoise source set the paper correlates against.

use crate::detect::DetectionModel;
use crate::engage::{engage, Engagement};
use obscor_assoc::convert::ip_key;
use obscor_assoc::{Assoc, KeySet, StrAssoc};
use obscor_netmodel::Scenario;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// The "class" value of a background row: an address the honeyfarm saw
/// but never engaged.
pub const UNKNOWN_CLASS: &str = "unknown";

/// One month of honeyfarm detections as numeric rows.
#[derive(Clone, Debug, PartialEq)]
pub struct MonthSources {
    /// Month index on the scenario grid.
    pub month: usize,
    /// `YYYY-MM` label.
    pub label: String,
    ips: Vec<u32>,
    engagement: Vec<Option<Engagement>>,
}

impl MonthSources {
    /// Detected source addresses, sorted and unique.
    pub fn ips(&self) -> &[u32] {
        &self.ips
    }

    /// Parallel to [`Self::ips`]: the engagement of a world source,
    /// `None` for a background row.
    pub fn engagement(&self) -> &[Option<Engagement>] {
        &self.engagement
    }

    /// Number of detected sources (Table I's GreyNoise "Sources" column).
    pub fn n_sources(&self) -> usize {
        self.ips.len()
    }

    /// Sources that completed a TCP handshake when engaged (Fig 1's
    /// honeyfarm internal → external quadrant).
    pub fn handshakes(&self) -> usize {
        self.engagement.iter().flatten().filter(|e| e.handshake).count()
    }

    /// Render the month as its D4M enrichment array: engaged rows carry
    /// "class", "handshake", "intent" and "month", background rows
    /// "class" = [`UNKNOWN_CLASS`] and "month".
    pub fn to_observation(&self) -> MonthlyObservation {
        let mut triples: Vec<(String, String, String)> = Vec::with_capacity(4 * self.ips.len());
        for (&ip, engagement) in self.ips.iter().zip(&self.engagement) {
            let key = ip_key(ip);
            match engagement {
                Some(e) => {
                    triples.push((key.clone(), "class".into(), e.observed_class.label().into()));
                    triples.push((key.clone(), "handshake".into(), e.handshake.to_string()));
                    triples.push((key.clone(), "intent".into(), e.intent.into()));
                }
                None => triples.push((key.clone(), "class".into(), UNKNOWN_CLASS.into())),
            }
            triples.push((key, "month".into(), self.label.clone()));
        }
        MonthlyObservation {
            month: self.month,
            label: self.label.clone(),
            assoc: Assoc::from_triples_last(triples),
        }
    }

    /// Structural check against the scenario the month was observed in:
    /// `ips` sorted and unique, `engagement` parallel to it, every engaged
    /// row a world source, and no background row inside the darkspace /8
    /// or the world population.
    pub fn check_invariants(&self, scenario: &Scenario) -> Result<(), String> {
        if self.engagement.len() != self.ips.len() {
            return Err(format!(
                "{} engagement slots for {} addresses",
                self.engagement.len(),
                self.ips.len()
            ));
        }
        if let Some(w) = self.ips.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("addresses not sorted unique at {}", ip_key(w[1])));
        }
        let world = world_addresses(scenario);
        let octet = scenario.population.config.darkspace_octet;
        for (&ip, engagement) in self.ips.iter().zip(&self.engagement) {
            let in_world = world.binary_search(&ip).is_ok();
            match engagement {
                Some(_) if !in_world => {
                    return Err(format!("engaged row {} is not a world source", ip_key(ip)))
                }
                None if in_world || (ip >> 24) as u8 == octet => {
                    return Err(format!("background row {} is in the darkspace or the world", ip_key(ip)))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One month of honeyfarm output as a D4M array.
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

/// The world population's addresses, sorted: the set background draws
/// must avoid.
fn world_addresses(scenario: &Scenario) -> Vec<u32> {
    let mut ips: Vec<u32> = scenario.population.sources.iter().map(|s| s.ip.0).collect();
    ips.sort_unstable();
    ips
}

/// Generate one month against the sorted world addresses. The month's RNG
/// stream is consumed in a fixed order: per world source a detection draw
/// and, if detected, its engagement draws; then the background rejection
/// draws.
fn generate_month(scenario: &Scenario, month: usize, world: &[u32]) -> MonthSources {
    assert!(month < scenario.grid.len(), "month off the grid");
    let (lo, hi) = scenario.grid.month_interval(month);
    let coverage = scenario.coverage_boost[month];
    let detection = scenario_detection(scenario);
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ (0x9E37 + month as u64) << 16);
    let mut rows: Vec<(u32, Option<Engagement>)> = Vec::new();
    for source in &scenario.population.sources {
        let p = detection.monthly_probability(source, lo, hi, coverage);
        if p <= 0.0 || rng.random::<f64>() >= p {
            continue;
        }
        rows.push((source.ip.0, Some(engage(source.class, &mut rng))));
    }
    // Background: the wider Internet the honeyfarm sees but the telescope's
    // /8 never does. These rows give the GreyNoise inventory its Table I
    // scale; they cannot collide with telescope sources (checked against
    // the world population), so they leave every correlation untouched.
    let n_background = ((scenario.population.len() as f64
        * scenario.honeyfarm_background_factor
        * coverage) as usize)
        .min(20_000_000);
    let octet = scenario.population.config.darkspace_octet;
    let engaged = rows.len();
    while rows.len() - engaged < n_background {
        let ip: u32 = rng.random();
        if (ip >> 24) as u8 == octet || world.binary_search(&ip).is_ok() {
            continue;
        }
        rows.push((ip, None));
    }
    // World addresses are unique and background ones avoid them, so only
    // a background address drawn twice repeats: it is one row, as D4M
    // assignment makes it.
    rows.sort_unstable_by_key(|&(ip, _)| ip);
    rows.dedup_by_key(|&mut (ip, _)| ip);
    let (ips, engagement) = rows.into_iter().unzip();
    MonthSources { month, label: scenario.grid.label(month), ips, engagement }
}

/// Observe one month as numeric rows. Deterministic in
/// `(scenario.seed, month)`.
///
/// # Panics
/// Panics if `month` is off the grid.
pub fn observe_month_sources(scenario: &Scenario, month: usize) -> MonthSources {
    generate_month(scenario, month, &world_addresses(scenario))
}

/// Observe every month of the grid as numeric rows, in parallel, sharing
/// one sorted copy of the world's addresses.
pub fn observe_all_month_sources(scenario: &Scenario) -> Vec<MonthSources> {
    let world = world_addresses(scenario);
    (0..scenario.grid.len())
        .into_par_iter()
        .map(|m| generate_month(scenario, m, &world))
        .collect()
}

/// Observe one month as its D4M array. Deterministic in
/// `(scenario.seed, month)`.
///
/// # Panics
/// Panics if `month` is off the grid.
pub fn observe_month(scenario: &Scenario, month: usize) -> MonthlyObservation {
    observe_month_sources(scenario, month).to_observation()
}

/// Observe every month of the grid as D4M arrays.
pub fn observe_all_months(scenario: &Scenario) -> Vec<MonthlyObservation> {
    observe_all_month_sources(scenario).iter().map(MonthSources::to_observation).collect()
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
    fn invariant_check_rejects_broken_months() {
        let s = scenario();
        let good = observe_month_sources(s, 3);
        good.check_invariants(s).unwrap();
        let mut unsorted = good.clone();
        unsorted.ips.swap(0, 1);
        assert!(unsorted.check_invariants(s).is_err());
        let mut ragged = good.clone();
        ragged.engagement.pop();
        assert!(ragged.check_invariants(s).is_err());
        // A background row on a world address: the first engaged row,
        // with its enrichment dropped.
        let mut collided = good.clone();
        let i = collided.engagement.iter().position(Option::is_some).unwrap();
        collided.engagement[i] = None;
        assert!(collided.check_invariants(s).is_err());
        // A background row inside the darkspace /8.
        let mut dark = good;
        let octet = u32::from(s.population.config.darkspace_octet);
        let i = dark.ips.partition_point(|&ip| ip >> 24 < octet);
        assert_ne!(dark.ips[i] >> 24, octet, "month already holds a darkspace address");
        dark.ips.insert(i, octet << 24);
        dark.engagement.insert(i, None);
        assert!(dark.check_invariants(s).is_err());
    }

    #[test]
    #[should_panic(expected = "off the grid")]
    fn out_of_range_month_panics() {
        let _ = observe_month(scenario(), 15);
    }
}
