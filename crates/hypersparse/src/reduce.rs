//! Network quantities from traffic matrices (Table II of the paper).
//!
//! Every function documents the summation-notation formula it implements.
//! `A_t(i, j)` is the number of valid packets from source `i` to destination
//! `j` in window `t`; `| |_0` is the zero-norm that maps nonzeros to 1.
//!
//! All quantities are invariant under simultaneous row/column permutation
//! (anonymization); the workspace property tests check this for each one.

use crate::csr::Csr;
use crate::value::Value;
use crate::Index;

/// Valid packets `N_V = Σ_i Σ_j A_t(i, j)` (matrix notation `1' A_t 1`).
pub fn valid_packets<V: Value>(a: &Csr<V>) -> u64 {
    a.values().iter().map(|v| v.to_u64()).sum()
}

/// Unique links `Σ_i Σ_j |A_t(i, j)|_0` (`1' |A_t|_0 1`).
pub fn unique_links<V: Value>(a: &Csr<V>) -> u64 {
    a.nnz() as u64
}

/// Max link packets `max_ij A_t(i, j)` (`max(A_t)`).
pub fn max_link_packets<V: Value>(a: &Csr<V>) -> u64 {
    a.values().iter().map(|v| v.to_u64()).max().unwrap_or(0)
}

/// Unique sources `Σ_i |Σ_j A_t(i, j)|_0` (`|1' A_t 1|_0` row side).
pub fn unique_sources<V: Value>(a: &Csr<V>) -> u64 {
    a.n_rows() as u64
}

/// Packets from each source: `(i, Σ_j A_t(i, j))` per occupied row
/// (`A_t 1`). This is the *source packet degree* `d` whose distribution is
/// Fig 3 and whose log2 bins index Figs 4-8.
pub fn source_packets<V: Value>(a: &Csr<V>) -> Vec<(Index, u64)> {
    a.iter_rows()
        .map(|(r, _, vals)| (r, vals.iter().map(|v| v.to_u64()).sum()))
        .collect()
}

/// Max source packets `max_i Σ_j A_t(i, j)` (`max(A_t 1)`).
pub fn max_source_packets<V: Value>(a: &Csr<V>) -> u64 {
    a.iter_rows()
        .map(|(_, _, vals)| vals.iter().map(|v| v.to_u64()).sum())
        .max()
        .unwrap_or(0)
}

/// Source fan-out from each source: `(i, Σ_j |A_t(i, j)|_0)` (`|A_t|_0 1`):
/// the number of distinct destinations each source touches.
pub fn source_fan_out<V: Value>(a: &Csr<V>) -> Vec<(Index, u64)> {
    a.iter_rows().map(|(r, cols, _)| (r, cols.len() as u64)).collect()
}

/// Max source fan-out `max_i Σ_j |A_t(i, j)|_0` (`max(|A_t|_0 1)`).
pub fn max_source_fan_out<V: Value>(a: &Csr<V>) -> u64 {
    a.iter_rows().map(|(_, cols, _)| cols.len() as u64).max().unwrap_or(0)
}

/// Unique destinations `Σ_j |Σ_i A_t(i, j)|_0` (`|1' A_t|_0 1` column side).
pub fn unique_destinations<V: Value>(a: &Csr<V>) -> u64 {
    distinct_cols(a) as u64
}

/// Packets to each destination: `(j, Σ_i A_t(i, j))` (`1' A_t`).
pub fn destination_packets<V: Value>(a: &Csr<V>) -> Vec<(Index, u64)> {
    col_reduce(a, |_cols, v| v.to_u64())
}

/// Max destination packets `max_j Σ_i A_t(i, j)` (`max(1' A_t)`).
pub fn max_destination_packets<V: Value>(a: &Csr<V>) -> u64 {
    destination_packets(a).into_iter().map(|(_, v)| v).max().unwrap_or(0)
}

/// Destination fan-in to each destination: `(j, Σ_i |A_t(i, j)|_0)`
/// (`1' |A_t|_0`): the number of distinct sources hitting each destination.
pub fn destination_fan_in<V: Value>(a: &Csr<V>) -> Vec<(Index, u64)> {
    col_reduce(a, |_cols, _v| 1u64)
}

/// Max destination fan-in `max_j Σ_i |A_t(i, j)|_0` (`max(1' |A_t|_0)`).
pub fn max_destination_fan_in<V: Value>(a: &Csr<V>) -> u64 {
    destination_fan_in(a).into_iter().map(|(_, v)| v).max().unwrap_or(0)
}

/// Column-side reduction without materializing the transpose: gather
/// `(col, f(entry))` pairs, sort by column, and sum runs.
fn col_reduce<V: Value, F: Fn(Index, V) -> u64>(a: &Csr<V>, f: F) -> Vec<(Index, u64)> {
    let mut pairs: Vec<(Index, u64)> =
        a.iter().map(|(_, c, v)| (c, f(c, v))).collect();
    pairs.sort_unstable_by_key(|&(c, _)| c);
    let mut out: Vec<(Index, u64)> = Vec::new();
    for (c, v) in pairs {
        match out.last_mut() {
            Some((lc, acc)) if *lc == c => *acc += v,
            _ => out.push((c, v)),
        }
    }
    out
}

fn distinct_cols<V: Value>(a: &Csr<V>) -> usize {
    let mut cols: Vec<Index> = a.col_indices().to_vec();
    cols.sort_unstable();
    cols.dedup();
    cols.len()
}

/// All Table II aggregates in one pass-friendly struct, in the order the
/// paper lists them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkQuantities {
    /// Total packets in the window, `Σ_{i,j} A(i,j)`.
    pub valid_packets: u64,
    /// Occupied (source, destination) pairs, `Σ |A|_0`.
    pub unique_links: u64,
    /// Heaviest single link, `max A(i,j)`.
    pub max_link_packets: u64,
    /// Occupied rows — distinct sending addresses.
    pub unique_sources: u64,
    /// Heaviest source row sum, `max_i Σ_j A(i,j)`.
    pub max_source_packets: u64,
    /// Widest source, `max_i Σ_j |A(i,j)|_0`.
    pub max_source_fan_out: u64,
    /// Occupied columns — distinct receiving addresses.
    pub unique_destinations: u64,
    /// Heaviest destination column sum, `max_j Σ_i A(i,j)`.
    pub max_destination_packets: u64,
    /// Widest destination, `max_j Σ_i |A(i,j)|_0`.
    pub max_destination_fan_in: u64,
}

impl NetworkQuantities {
    /// Compute every aggregate quantity of Table II from one matrix.
    pub fn compute<V: Value>(a: &Csr<V>) -> Self {
        Self {
            valid_packets: valid_packets(a),
            unique_links: unique_links(a),
            max_link_packets: max_link_packets(a),
            unique_sources: unique_sources(a),
            max_source_packets: max_source_packets(a),
            max_source_fan_out: max_source_fan_out(a),
            unique_destinations: unique_destinations(a),
            max_destination_packets: max_destination_packets(a),
            max_destination_fan_in: max_destination_fan_in(a),
        }
    }

    /// Internal consistency check: the Table II aggregates obey a fixed set
    /// of order relations (a maximum over a subset cannot exceed the total,
    /// a per-link count cannot exceed its endpoint's count, a fan cannot
    /// exceed the opposite axis size). Used by tests and the pipeline's
    /// `strict-invariants` stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        let checks: [(&str, bool); 8] = [
            ("unique_sources <= unique_links", self.unique_sources <= self.unique_links),
            ("unique_destinations <= unique_links", self.unique_destinations <= self.unique_links),
            ("max_link_packets <= max_source_packets", self.max_link_packets <= self.max_source_packets),
            ("max_link_packets <= max_destination_packets", self.max_link_packets <= self.max_destination_packets),
            ("max_source_packets <= valid_packets", self.max_source_packets <= self.valid_packets),
            ("max_destination_packets <= valid_packets", self.max_destination_packets <= self.valid_packets),
            ("max_source_fan_out <= unique_destinations", self.max_source_fan_out <= self.unique_destinations),
            ("max_destination_fan_in <= unique_sources", self.max_destination_fan_in <= self.unique_sources),
        ];
        for (label, ok) in checks {
            if !ok {
                return Err(format!("Table II relation violated: {label}"));
            }
        }
        Ok(())
    }

    /// Render as aligned `name value` rows (the shape of Table II's left
    /// column with measured values).
    pub fn render(&self) -> String {
        let rows = [
            ("Valid packets N_V", self.valid_packets),
            ("Unique links", self.unique_links),
            ("Max link packets (d_max)", self.max_link_packets),
            ("Unique sources", self.unique_sources),
            ("Max source packets (d_max)", self.max_source_packets),
            ("Max source fan-out (d_max)", self.max_source_fan_out),
            ("Unique destinations", self.unique_destinations),
            ("Max destination packets (d_max)", self.max_destination_packets),
            ("Max destination fan-in (d_max)", self.max_destination_fan_in),
        ];
        let mut s = String::new();
        for (name, v) in rows {
            s.push_str(&format!("{name:<34} {v}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// The worked example from the paper: 3 packets 1.1.1.1 -> 2.2.2.2.
    fn paper_example() -> Csr<u64> {
        let mut coo = Coo::new();
        coo.push(16843009, 33686018, 3);
        coo.into_csr()
    }

    fn sample() -> Csr<u64> {
        // Two sources; source 1 hits 3 destinations, source 2 hits 1;
        // destination 7 is hit by both sources.
        Coo::from_triples(vec![
            (1u32, 7u32, 5u64),
            (1, 8, 1),
            (1, 9, 2),
            (2, 7, 4),
        ])
        .into_csr()
    }

    #[test]
    fn paper_worked_example() {
        let a = paper_example();
        assert_eq!(valid_packets(&a), 3);
        assert_eq!(unique_links(&a), 1);
        assert_eq!(unique_sources(&a), 1);
        assert_eq!(unique_destinations(&a), 1);
        assert_eq!(max_link_packets(&a), 3);
    }

    #[test]
    fn aggregate_quantities() {
        let a = sample();
        let q = NetworkQuantities::compute(&a);
        assert_eq!(q.valid_packets, 12);
        assert_eq!(q.unique_links, 4);
        assert_eq!(q.max_link_packets, 5);
        assert_eq!(q.unique_sources, 2);
        assert_eq!(q.max_source_packets, 8); // source 1: 5+1+2
        assert_eq!(q.max_source_fan_out, 3);
        assert_eq!(q.unique_destinations, 3);
        assert_eq!(q.max_destination_packets, 9); // dest 7: 5+4
        assert_eq!(q.max_destination_fan_in, 2);
    }

    #[test]
    fn per_entity_vectors() {
        let a = sample();
        assert_eq!(source_packets(&a), vec![(1, 8), (2, 4)]);
        assert_eq!(source_fan_out(&a), vec![(1, 3), (2, 1)]);
        assert_eq!(destination_packets(&a), vec![(7, 9), (8, 1), (9, 2)]);
        assert_eq!(destination_fan_in(&a), vec![(7, 2), (8, 1), (9, 1)]);
    }

    #[test]
    fn column_side_matches_transpose_row_side() {
        let a = sample();
        let t = a.transpose();
        let mut via_transpose = source_packets(&t);
        via_transpose.sort_unstable();
        assert_eq!(via_transpose, destination_packets(&a));
        let mut fanin_t = source_fan_out(&t);
        fanin_t.sort_unstable();
        assert_eq!(fanin_t, destination_fan_in(&a));
    }

    #[test]
    fn empty_matrix_quantities_are_zero() {
        let q = NetworkQuantities::compute(&Csr::<u64>::empty());
        assert_eq!(q, NetworkQuantities::default());
    }

    #[test]
    fn source_packet_sum_equals_valid_packets() {
        let a = sample();
        let total: u64 = source_packets(&a).into_iter().map(|(_, d)| d).sum();
        assert_eq!(total, valid_packets(&a));
    }

    #[test]
    fn render_lists_all_nine_quantities() {
        let s = NetworkQuantities::compute(&sample()).render();
        assert_eq!(s.lines().count(), 9);
        assert!(s.contains("Valid packets N_V"));
        assert!(s.contains("Max destination fan-in"));
    }
}
