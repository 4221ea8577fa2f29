//! Class-conditional correlation: what the outpost's enrichment adds.
//!
//! The telescope sees anonymous packet counts; the honeyfarm *engages*
//! and labels sources. Joining the two gives the class structure of the
//! coeval overlap — which behaviour classes dominate the bright beam the
//! paper observes, and how class-specific overlap decays in time. This
//! analysis is only possible because the honeyfarm data is a D4M
//! associative array with metadata columns, exercised here through the
//! value-conditional row selection (`rows_where`).

use crate::degree::WindowDegrees;
use obscor_assoc::convert::parse_ip_key;
use obscor_assoc::KeySet;
use obscor_honeyfarm::MonthlyObservation;
use obscor_netmodel::SourceClass;

/// Coeval overlap of one window split by honeyfarm class label.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassCorrelation {
    /// Window label.
    pub window_label: String,
    /// Month the split is taken against.
    pub month: usize,
    /// Per-class rows: `(label, telescope∩class count, class set size,
    /// share of the telescope's detected sources)`.
    pub rows: Vec<ClassRow>,
}

/// One class's share of the coeval overlap.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassRow {
    /// Class label ("scanner", "botnet", ..., "unknown").
    pub label: String,
    /// Telescope sources the honeyfarm put in this class.
    pub shared: usize,
    /// Total honeyfarm sources in this class this month.
    pub class_size: usize,
    /// `shared / (all telescope sources seen by the honeyfarm)`.
    pub share_of_detected: f64,
}

/// Split a window's coeval overlap by honeyfarm class.
pub fn class_correlation(
    window: &WindowDegrees,
    coeval: &MonthlyObservation,
) -> ClassCorrelation {
    let telescope = window.bit_set();
    // Telescope sources among `keys`; only `ip_key` renders can be one.
    let detected = |keys: &KeySet| {
        keys.iter().filter_map(parse_ip_key).filter(|&ip| telescope.contains(ip)).count()
    };
    let detected_total = detected(coeval.source_keys()).max(1);
    let mut labels: Vec<String> =
        SourceClass::ALL.iter().map(|c| c.label().to_string()).collect();
    labels.push("unknown".to_string());
    let rows = labels
        .into_iter()
        .map(|label| {
            let class_set = coeval.assoc.rows_where("class", |v| *v == label);
            let shared = detected(&class_set);
            ClassRow {
                label,
                shared,
                class_size: class_set.len(),
                share_of_detected: shared as f64 / detected_total as f64,
            }
        })
        .collect();
    ClassCorrelation { window_label: window.label.clone(), month: coeval.month, rows }
}

/// Render as an aligned table.
pub fn render(c: &ClassCorrelation) -> String {
    let mut s = format!(
        "CLASS STRUCTURE OF THE COEVAL OVERLAP (window {}, month {})\n",
        c.window_label, c.month
    );
    s.push_str("class        shared  class-size  share-of-detected\n");
    for r in &c.rows {
        s.push_str(&format!(
            "{:<12} {:>6} {:>11} {:>18.3}\n",
            r.label, r.shared, r.class_size, r.share_of_detected
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obscor_anonymize::sharing::Holder;
    use obscor_honeyfarm::observe_month;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn fixture() -> &'static (WindowDegrees, MonthlyObservation, ClassCorrelation) {
        static F: OnceLock<(WindowDegrees, MonthlyObservation, ClassCorrelation)> =
            OnceLock::new();
        F.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 15, 91);
            let holder = Holder::new("t", &[8u8; 32]);
            let wd = WindowDegrees::capture(&s, 0, &holder);
            let obs = observe_month(&s, wd.month);
            let cc = class_correlation(&wd, &obs);
            (wd, obs, cc)
        })
    }

    #[test]
    fn rows_cover_all_labels() {
        let (_, _, cc) = fixture();
        let labels: Vec<&str> = cc.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["scanner", "botnet", "backscatter", "misconfig", "unknown"]);
    }

    #[test]
    fn shares_sum_to_about_one() {
        // Every detected telescope source carries exactly one class label,
        // so the shares partition the detected set (up to the honeyfarm's
        // classification noise re-labeling, which preserves the total).
        let (_, _, cc) = fixture();
        let total: f64 = cc.rows.iter().map(|r| r.share_of_detected).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn background_class_never_overlaps_telescope() {
        // "unknown" rows are honeyfarm background — never telescope
        // sources by construction.
        let (_, _, cc) = fixture();
        let unknown = cc.rows.iter().find(|r| r.label == "unknown").unwrap();
        assert_eq!(unknown.shared, 0);
        assert!(unknown.class_size > 0, "background exists");
    }

    #[test]
    fn scanners_dominate_the_overlap() {
        // The bright beam is scanner-heavy (class assignment by
        // brightness), and bright sources are detected preferentially, so
        // scanners should hold the largest share of the coeval overlap.
        let (_, _, cc) = fixture();
        let scanner = cc.rows.iter().find(|r| r.label == "scanner").unwrap();
        for r in &cc.rows {
            if r.label != "scanner" {
                assert!(
                    scanner.shared >= r.shared,
                    "{} ({}) out-shares scanner ({})",
                    r.label,
                    r.shared,
                    scanner.shared
                );
            }
        }
        assert!(scanner.share_of_detected > 0.3);
    }

    #[test]
    fn render_is_tabular() {
        let (_, _, cc) = fixture();
        let out = render(cc);
        assert_eq!(out.lines().count(), 2 + cc.rows.len());
        assert!(out.contains("scanner"));
    }
}
