//! Correlation as linear algebra.
//!
//! The D4M methodology behind the paper computes set correlations as
//! sparse matrix products. This module provides that alternative path:
//! build *observation pattern matrices* — rows are months (or degree
//! bins), columns are source IPs — and compute every Fig 4-6 overlap
//! count as one co-occurrence product `C = A B'` over the counting
//! semiring. The result is bit-identical to the key-set path in
//! [`crate::temporal`] (asserted by tests and ablated by the bench
//! suite); which one is faster depends on how many bins share the same
//! month sets.

use crate::degree::WindowDegrees;
use crate::temporal::TemporalCurve;
use obscor_assoc::convert::parse_ip_key;
use obscor_assoc::KeySet;
use obscor_hypersparse::spgemm::cooccurrence;
use obscor_hypersparse::{Coo, Csr, Index};
use obscor_stats::binning::{bin_representative, log2_bin};
use std::collections::BTreeMap;

/// Build the month × source pattern matrix: row `m` holds a 1 for every
/// source key observed by the honeyfarm in month `m`.
///
/// Keys not spelled as `ip_key` renders them can never equal a window
/// source, so they are skipped (the honeyfarm emits no other row key).
pub fn month_source_matrix(monthly_sources: &[KeySet]) -> Csr<u64> {
    let mut coo = Coo::new();
    for (m, keys) in monthly_sources.iter().enumerate() {
        for key in keys.iter() {
            if let Some(ip) = parse_ip_key(key) {
                coo.push(m as Index, ip, 1u64);
            }
        }
    }
    coo.into_csr()
}

/// Build the degree-bin × source pattern matrix of one window: row `i`
/// (positional) holds the sources whose window degree falls in the
/// returned `bins[i]`. Only bins with at least `min_sources` sources are
/// emitted.
pub fn bin_source_matrix(window: &WindowDegrees, min_sources: usize) -> (Vec<u32>, Csr<u64>) {
    let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for &(_, d) in &window.degrees {
        *sizes.entry(log2_bin(d)).or_default() += 1;
    }
    let bins: Vec<u32> =
        sizes.into_iter().filter(|&(_, n)| n >= min_sources).map(|(bin, _)| bin).collect();
    let mut coo = Coo::new();
    for &(ip, d) in &window.degrees {
        let bin = log2_bin(d);
        if let Ok(row) = bins.binary_search(&bin) {
            coo.push(row as Index, ip, 1u64);
        }
    }
    (bins, coo.into_csr())
}

/// Compute the temporal correlation curves of a window by matrix algebra:
/// one co-occurrence product gives every `(bin, month)` overlap count.
/// Produces exactly the same curves as [`crate::temporal::temporal_curves`].
pub fn temporal_curves_algebraic(
    window: &WindowDegrees,
    monthly_sources: &[KeySet],
    min_sources: usize,
) -> Vec<TemporalCurve> {
    let (bins, bin_matrix) = bin_source_matrix(window, min_sources);
    if bins.is_empty() {
        return Vec::new();
    }
    let month_matrix = month_source_matrix(monthly_sources);
    let counts = cooccurrence(&bin_matrix, &month_matrix);
    // Positional month rows of `month_matrix`: months with zero sources
    // are not stored, so map positions back to month indices.
    let occupied_months: Vec<usize> =
        month_matrix.row_keys().iter().map(|&m| m as usize).collect();
    let bin_sizes: Vec<usize> =
        (0..bin_matrix.n_rows()).map(|i| bin_matrix.row_at(i).0.len()).collect();

    bins.iter()
        .enumerate()
        .map(|(row, &bin)| {
            let n_sources = bin_sizes[row];
            let months: Vec<usize> = (0..monthly_sources.len()).collect();
            let lags: Vec<f64> =
                months.iter().map(|&m| (m as f64 + 0.5) - window.coord).collect();
            let fractions: Vec<f64> = months
                .iter()
                .map(|&m| {
                    let pos = occupied_months.iter().position(|&om| om == m);
                    let shared = pos
                        .and_then(|p| counts.get(row as Index, p as Index))
                        .unwrap_or(0);
                    shared as f64 / n_sources.max(1) as f64
                })
                .collect();
            TemporalCurve {
                window_label: window.label.clone(),
                coord: window.coord,
                bin,
                d: bin_representative(bin),
                n_sources,
                months,
                lags,
                fractions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::temporal_curves;
    use obscor_assoc::convert::ip_key;

    fn window() -> WindowDegrees {
        let mut degrees: Vec<(u32, u64)> = (1..=12u32).map(|ip| (ip, 3u64)).collect();
        degrees.extend((101..=110u32).map(|ip| (ip, 200u64)));
        WindowDegrees { label: "w".into(), coord: 4.5, month: 4, degrees }
    }

    fn months(present: &[&[u32]]) -> Vec<KeySet> {
        present.iter().map(|ips| ips.iter().map(|&ip| ip_key(ip)).collect()).collect()
    }

    #[test]
    fn month_matrix_shape() {
        let gn = months(&[&[1, 2, 3], &[], &[2]]);
        let m = month_source_matrix(&gn);
        assert_eq!(m.n_rows(), 2); // empty month not stored
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), Some(1));
        assert_eq!(m.get(2, 2), Some(1));
    }

    #[test]
    fn bin_matrix_partitions_sources() {
        let w = window();
        let (bins, m) = bin_source_matrix(&w, 1);
        assert_eq!(bins.len(), 2);
        let total: usize = (0..m.n_rows()).map(|i| m.row_at(i).0.len()).sum();
        assert_eq!(total, w.degrees.len());
    }

    #[test]
    fn algebraic_path_equals_keyset_path() {
        let w = window();
        let gn = months(&[
            &[1, 2, 101],
            &[1],
            &[],
            &[101, 102, 103, 9],
            &[1, 2, 3, 4, 101, 102],
            &[5, 105],
        ]);
        let a = temporal_curves_algebraic(&w, &gn, 1);
        let b = temporal_curves(&w, &gn, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn algebraic_path_respects_min_sources() {
        let w = window();
        let gn = months(&[&[1]]);
        let a = temporal_curves_algebraic(&w, &gn, 11);
        let b = temporal_curves(&w, &gn, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1); // only the 12-source bin survives
    }

    #[test]
    fn empty_inputs() {
        let w = WindowDegrees { label: "e".into(), coord: 0.5, month: 0, degrees: vec![] };
        assert!(temporal_curves_algebraic(&w, &months(&[&[1]]), 1).is_empty());
        let w2 = window();
        let curves = temporal_curves_algebraic(&w2, &[], 1);
        assert!(curves.iter().all(|c| c.fractions.is_empty()));
    }
}
