//! Class-conditional correlation: what the outpost's enrichment adds.
//!
//! The telescope sees anonymous packet counts; the honeyfarm *engages*
//! and labels sources. Joining the two gives the class structure of the
//! coeval overlap — which behaviour classes dominate the bright beam the
//! paper observes, and how class-specific overlap decays in time. The
//! split is one pass over a month's numeric rows ([`class_split`]);
//! [`class_correlation`] takes the same split from the month's D4M array,
//! reading each row's "class" column.

use crate::degree::WindowDegrees;
use obscor_assoc::convert::parse_ip_key;
use obscor_honeyfarm::{MonthSources, MonthlyObservation, UNKNOWN_CLASS};
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

/// The split's class labels, in row order: the engagement classes, then
/// the background's [`UNKNOWN_CLASS`].
fn labels() -> impl Iterator<Item = &'static str> {
    SourceClass::ALL.iter().map(SourceClass::label).chain([UNKNOWN_CLASS])
}

/// Split a window's coeval overlap by honeyfarm class, in one pass over
/// the month's rows.
pub fn class_split(window: &WindowDegrees, coeval: &MonthSources) -> ClassCorrelation {
    let rows = coeval.ips().iter().zip(coeval.engagement()).map(|(&ip, engagement)| {
        let label = engagement.as_ref().map_or(UNKNOWN_CLASS, |e| e.observed_class.label());
        (Some(ip), Some(label))
    });
    split(window, coeval.month, rows)
}

/// Split a window's coeval overlap by the "class" column of the month's
/// D4M array. A row key that is not an `ip_key` render counts in its
/// class's size but is never a telescope source.
pub fn class_correlation(
    window: &WindowDegrees,
    coeval: &MonthlyObservation,
) -> ClassCorrelation {
    let rows = coeval.source_keys().iter().map(|key| {
        (parse_ip_key(key), coeval.assoc.get(key, "class").map(String::as_str))
    });
    split(window, coeval.month, rows)
}

/// Count `(address, class label)` rows into the per-class table. A row
/// with no address counts only in its class's size; one with no class,
/// or a label outside the table, counts only in the detected total.
/// Telescope membership is a binary search of the window's ip-sorted
/// degrees.
fn split<'a>(
    window: &WindowDegrees,
    month: usize,
    rows: impl Iterator<Item = (Option<u32>, Option<&'a str>)>,
) -> ClassCorrelation {
    let is_source = |ip: u32| window.degrees.binary_search_by_key(&ip, |&(s, _)| s).is_ok();
    let n = labels().count();
    let (mut shared, mut class_size) = (vec![0usize; n], vec![0usize; n]);
    let mut detected = 0usize;
    for (ip, label) in rows {
        let seen = ip.is_some_and(is_source);
        detected += usize::from(seen);
        if let Some(c) = label.and_then(|label| labels().position(|l| l == label)) {
            class_size[c] += 1;
            shared[c] += usize::from(seen);
        }
    }
    let detected_total = detected.max(1);
    let rows = labels()
        .zip(shared.into_iter().zip(class_size))
        .map(|(label, (shared, class_size))| ClassRow {
            label: label.to_string(),
            shared,
            class_size,
            share_of_detected: shared as f64 / detected_total as f64,
        })
        .collect();
    ClassCorrelation { window_label: window.label.clone(), month, rows }
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
    use obscor_honeyfarm::observe_month_sources;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn fixture() -> &'static (WindowDegrees, MonthSources, ClassCorrelation) {
        static F: OnceLock<(WindowDegrees, MonthSources, ClassCorrelation)> = OnceLock::new();
        F.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 15, 91);
            let holder = Holder::new("t", &[8u8; 32]);
            let wd = crate::degree::captured(&s, 0, &holder);
            let month = observe_month_sources(&s, wd.month);
            let cc = class_split(&wd, &month);
            (wd, month, cc)
        })
    }

    #[test]
    fn d4m_adapter_agrees_with_the_numeric_split() {
        let (wd, month, cc) = fixture();
        assert_eq!(&class_correlation(wd, &month.to_observation()), cc);
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
