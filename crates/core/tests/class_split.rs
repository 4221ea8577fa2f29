//! The class split against the `rows_where` reference.
//!
//! [`oracle`] is the split as it was when it ran on the month's D4M array
//! alone: one value-conditional row selection (`rows_where`) per class
//! label, each intersected with the telescope's sources. The numeric
//! split and its D4M adapter must both return its table exactly.

use obscor_anonymize::sharing::Holder;
use obscor_assoc::convert::{ip_key, parse_ip_key};
use obscor_assoc::{Assoc, KeySet};
use obscor_core::classes::{class_correlation, class_split, ClassCorrelation, ClassRow};
use obscor_core::WindowDegrees;
use obscor_honeyfarm::{observe_all_month_sources, MonthlyObservation};
use obscor_netmodel::{Scenario, SourceClass};
use obscor_telescope::{build_matrix, capture_window};
use std::collections::HashSet;

/// Capture, build and reduce scenario window `index`.
fn captured(s: &Scenario, index: usize, holder: &Holder) -> WindowDegrees {
    let spec = &s.caida_windows[index];
    let w = capture_window(s, spec);
    let month = s.window_month(spec).expect("window on grid");
    WindowDegrees::from_matrix(&w.label, w.coord, month, &build_matrix(&w), holder)
}

/// The reference split: five `rows_where` scans of the "class" column.
fn oracle(window: &WindowDegrees, coeval: &MonthlyObservation) -> ClassCorrelation {
    let telescope: HashSet<u32> = window.degrees.iter().map(|&(ip, _)| ip).collect();
    let detected = |keys: &KeySet| {
        keys.iter().filter_map(parse_ip_key).filter(|ip| telescope.contains(ip)).count()
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

#[test]
fn both_splits_match_the_reference_on_generated_months() {
    let holder = Holder::new("t", &[8u8; 32]);
    for (nv, seed) in [(1 << 13, 42), (1 << 14, 91)] {
        let s = Scenario::paper_scaled(nv, seed);
        let months = observe_all_month_sources(&s);
        for w in 0..s.caida_windows.len() {
            let wd = captured(&s, w, &holder);
            // The coeval month and the first and last of the grid.
            for month in [&months[wd.month], &months[0], &months[months.len() - 1]] {
                let obs = month.to_observation();
                let want = oracle(&wd, &obs);
                assert!(want.rows.iter().any(|r| r.shared > 0), "window {w}: empty overlap");
                assert_eq!(class_correlation(&wd, &obs), want, "adapter, window {w}");
                assert_eq!(class_split(&wd, month), want, "numeric, window {w}");
            }
        }
    }
}

#[test]
fn a_row_that_is_not_an_ip_key_counts_in_its_class_only() {
    let s = Scenario::paper_scaled(1 << 12, 5);
    let wd = captured(&s, 0, &Holder::new("t", &[8u8; 32]));
    let telescope: Vec<u32> = wd.degrees.iter().map(|&(ip, _)| ip).take(4).collect();
    let [a, b, c, d] = telescope[..] else { panic!("window has fewer than 4 sources") };
    let cell = |row: String, col: &str, v: &str| (row, col.to_string(), v.to_string());
    let triples = vec![
        cell(ip_key(a), "class", "scanner"),
        // The same telescope address, spelled as a CIDR block: another D4M
        // key, which no telescope source equals.
        cell(format!("{}/32", ip_key(a)), "class", "scanner"),
        cell("not-an-address".into(), "class", "botnet"),
        cell(ip_key(b), "class", "unknown"),
        // A class value outside the table and a row with no class: both
        // count among the detected sources, in no class row.
        cell(ip_key(c), "class", "martian"),
        cell(ip_key(d), "month", "2020-06"),
    ];
    let obs = MonthlyObservation {
        month: wd.month,
        label: "2020-06".into(),
        assoc: Assoc::from_triples_last(triples),
    };
    let got = class_correlation(&wd, &obs);
    assert_eq!(got, oracle(&wd, &obs));
    let row = |label: &str| got.rows.iter().find(|r| r.label == label).unwrap();
    assert_eq!((row("scanner").shared, row("scanner").class_size), (1, 2));
    assert_eq!((row("botnet").shared, row("botnet").class_size), (0, 1));
    assert_eq!((row("unknown").shared, row("unknown").class_size), (1, 1));
    // Four detected telescope sources: a, b, c and d.
    assert_eq!(row("scanner").share_of_detected, 0.25);
}
