//! The associative array itself.

use crate::keys::KeySet;
use serde::{Deserialize, Serialize};

/// A sparse 2-D array indexed by sorted string keys on both axes.
///
/// Stored in CSR over positional indices into the two [`KeySet`]s. Every
/// row key and column key present in the key sets is guaranteed to carry at
/// least one entry (construction prunes unused keys), so `n_rows`/`n_cols`
/// count *occupied* axes exactly — matching D4M, where the row set of a
/// honeyfarm month *is* the set of observed sources.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Assoc<V: Clone + PartialEq> {
    row_keys: KeySet,
    col_keys: KeySet,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<V>,
}

impl<V: Clone + PartialEq> Assoc<V> {
    /// The empty array.
    pub fn new() -> Self {
        Self {
            row_keys: KeySet::new(),
            col_keys: KeySet::new(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from `(row, col, value)` triples; on duplicate coordinates the
    /// *last* triple wins (D4M assignment semantics).
    pub fn from_triples_last(triples: Vec<(String, String, V)>) -> Self {
        Self::from_triples_with(triples, |_, new| new)
    }

    /// Build from triples, combining duplicate coordinates with `combine`
    /// (`combine(existing, new)`).
    pub fn from_triples_with(
        mut triples: Vec<(String, String, V)>,
        combine: impl Fn(V, V) -> V,
    ) -> Self {
        // Stable sort so that "last wins" is well defined for equal keys.
        triples.sort_by(|a, b| (a.0.as_str(), a.1.as_str()).cmp(&(b.0.as_str(), b.1.as_str())));
        let mut merged: Vec<(String, String, V)> = Vec::with_capacity(triples.len());
        let mut it = triples.into_iter().peekable();
        while let Some((r, c, mut v)) = it.next() {
            while let Some((_, _, next)) = it.next_if(|(nr, nc, _)| *nr == r && *nc == c) {
                v = combine(v, next);
            }
            merged.push((r, c, v));
        }
        Self::from_sorted_dedup(merged)
    }

    /// Build from triples already sorted by `(row, col)` with no duplicate
    /// coordinate (every caller's shape; checked in debug). Row keys are
    /// moved out of their runs, each distinct column key is cloned once,
    /// and values are moved — no re-sort of either axis.
    fn from_sorted_dedup(triples: Vec<(String, String, V)>) -> Self {
        debug_assert!(
            triples.windows(2).all(|w| (&w[0].0, &w[0].1) < (&w[1].0, &w[1].1)),
            "triples must be (row, col)-sorted and unique"
        );
        let mut cols: Vec<&str> = triples.iter().map(|(_, c, _)| c.as_str()).collect();
        cols.sort_unstable();
        cols.dedup();
        let col_keys = KeySet::from_sorted_unique(cols.into_iter().map(String::from).collect());
        let mut rows: Vec<String> = Vec::new();
        let mut row_ptr = Vec::new();
        let mut col_idx = Vec::with_capacity(triples.len());
        let mut vals = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            if rows.last() != Some(&r) {
                row_ptr.push(col_idx.len());
                rows.push(r);
            }
            // audit:allow(panic-path) — col_keys was built from these same triples, so lookup cannot fail
            col_idx.push(col_keys.index_of(&c).expect("col key present"));
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
        let row_keys = KeySet::from_sorted_unique(rows);
        let assoc = Self { row_keys, col_keys, row_ptr, col_idx, vals };
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(msg) = assoc.check_invariants() {
                // audit:allow(panic-path) — strict-invariants mode aborts on broken invariants by contract
                panic!("triple construction produced an invalid Assoc: {msg}");
            }
        }
        assoc
    }

    /// Internal consistency check: sorted unique keys on both axes,
    /// monotone row pointers with correct endpoints, strictly increasing
    /// in-row column indices, and every axis key occupied. Used by tests
    /// and the pipeline's `strict-invariants` stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.row_keys.check_invariants().map_err(|e| format!("row_keys: {e}"))?;
        self.col_keys.check_invariants().map_err(|e| format!("col_keys: {e}"))?;
        if self.row_ptr.len() != self.row_keys.len() + 1 {
            return Err("row_ptr length mismatch".into());
        }
        if self.row_ptr.first().copied() != Some(0)
            || self.row_ptr.last().copied() != Some(self.vals.len())
        {
            return Err("row_ptr endpoints wrong".into());
        }
        if self.col_idx.len() != self.vals.len() {
            return Err("col_idx/vals length mismatch".into());
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err("row_ptr not monotone".into());
            }
        }
        for (ri, w) in self.row_ptr.windows(2).enumerate() {
            if w[0] == w[1] {
                return Err(format!("row {ri} has no entries (unused key not pruned)"));
            }
            let row = &self.col_idx[w[0]..w[1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("col_idx not strictly increasing in row {ri}"));
                }
            }
            if row.last().is_some_and(|&c| c >= self.col_keys.len()) {
                return Err(format!("col_idx out of range in row {ri}"));
            }
        }
        // Every column key must be referenced at least once.
        let mut seen = vec![false; self.col_keys.len()];
        for &c in &self.col_idx {
            seen[c] = true;
        }
        if seen.iter().any(|&s| !s) {
            return Err("unused column key not pruned".into());
        }
        Ok(())
    }

    /// Number of occupied rows.
    pub fn n_rows(&self) -> usize {
        self.row_keys.len()
    }

    /// Number of occupied columns.
    pub fn n_cols(&self) -> usize {
        self.col_keys.len()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Whether the array stores nothing.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// The sorted row key set (for a honeyfarm month: the observed sources).
    pub fn row_keys(&self) -> &KeySet {
        &self.row_keys
    }

    /// The sorted column key set.
    pub fn col_keys(&self) -> &KeySet {
        &self.col_keys
    }

    /// Point lookup.
    pub fn get(&self, row: &str, col: &str) -> Option<&V> {
        let ri = self.row_keys.index_of(row)?;
        let ci = self.col_keys.index_of(col)?;
        let lo = self.row_ptr[ri];
        let hi = self.row_ptr[ri + 1];
        let j = self.col_idx[lo..hi].binary_search(&ci).ok()?;
        Some(&self.vals[lo + j])
    }

    /// Iterate `(row_key, col_key, value)` in row-major key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &V)> + '_ {
        (0..self.n_rows()).flat_map(move |ri| {
            let lo = self.row_ptr[ri];
            let hi = self.row_ptr[ri + 1];
            (lo..hi).map(move |k| {
                (self.row_keys.key(ri), self.col_keys.key(self.col_idx[k]), &self.vals[k])
            })
        })
    }

    /// Entries of one row as `(col_key, value)` pairs.
    pub fn row(&self, row: &str) -> Vec<(&str, &V)> {
        match self.row_keys.index_of(row) {
            None => Vec::new(),
            Some(ri) => {
                let lo = self.row_ptr[ri];
                let hi = self.row_ptr[ri + 1];
                (lo..hi)
                    .map(|k| (self.col_keys.key(self.col_idx[k]), &self.vals[k]))
                    .collect()
            }
        }
    }

    /// Sub-array restricted to rows whose keys are in `keep`.
    pub fn rows(&self, keep: &KeySet) -> Assoc<V> {
        self.filter(|r, _c| keep.contains(r))
    }

    /// Sub-array restricted to rows whose keys start with `prefix`.
    pub fn rows_with_prefix(&self, prefix: &str) -> Assoc<V> {
        self.filter(|r, _c| r.starts_with(prefix))
    }

    /// Sub-array restricted to columns whose keys are in `keep`.
    pub fn cols(&self, keep: &KeySet) -> Assoc<V> {
        self.filter(|_r, c| keep.contains(c))
    }

    /// Generic entry filter; prunes emptied keys from both axes.
    pub fn filter(&self, pred: impl Fn(&str, &str) -> bool) -> Assoc<V> {
        let triples: Vec<(String, String, V)> = self
            .iter()
            .filter(|(r, c, _)| pred(r, c))
            .map(|(r, c, v)| (r.to_string(), c.to_string(), v.clone()))
            .collect();
        Assoc::from_sorted_dedup(triples)
    }

    /// Transpose.
    pub fn transpose(&self) -> Assoc<V> {
        let triples: Vec<(String, String, V)> = self
            .iter()
            .map(|(r, c, v)| (c.to_string(), r.to_string(), v.clone()))
            .collect();
        Assoc::from_triples_last(triples)
    }

    /// Element-wise combine on the *intersection* of stored entries
    /// (D4M `&`): the result holds `f(a, b)` exactly where both arrays
    /// store a value.
    pub fn and_then<W: Clone + PartialEq, U: Clone + PartialEq>(
        &self,
        other: &Assoc<W>,
        f: impl Fn(&V, &W) -> U,
    ) -> Assoc<U> {
        let mut triples = Vec::new();
        for (r, c, v) in self.iter() {
            if let Some(w) = other.get(r, c) {
                triples.push((r.to_string(), c.to_string(), f(v, w)));
            }
        }
        Assoc::from_sorted_dedup(triples)
    }

    /// Element-wise combine on the *union* of stored entries (D4M `|`):
    /// missing sides are passed as `None`.
    pub fn or_else<U: Clone + PartialEq>(
        &self,
        other: &Assoc<V>,
        f: impl Fn(Option<&V>, Option<&V>) -> U,
    ) -> Assoc<U> {
        let mut triples = Vec::new();
        for (r, c, v) in self.iter() {
            triples.push((r.to_string(), c.to_string(), f(Some(v), other.get(r, c))));
        }
        for (r, c, w) in other.iter() {
            if self.get(r, c).is_none() {
                triples.push((r.to_string(), c.to_string(), f(None, Some(w))));
            }
        }
        Assoc::from_triples_last(triples)
    }

    /// Map values, keeping the pattern.
    pub fn map<U: Clone + PartialEq>(&self, f: impl Fn(&V) -> U) -> Assoc<U> {
        let triples: Vec<(String, String, U)> = self
            .iter()
            .map(|(r, c, v)| (r.to_string(), c.to_string(), f(v)))
            .collect();
        Assoc::from_sorted_dedup(triples)
    }

    /// The keys of rows whose value at `col` satisfies `pred` (D4M's
    /// value-conditional row selection, e.g. *sources classified as
    /// scanners*). Rows without a value at `col` never match.
    pub fn rows_where(&self, col: &str, pred: impl Fn(&V) -> bool) -> KeySet {
        let keys: Vec<String> = (0..self.n_rows())
            .filter(|&ri| {
                self.get(self.row_keys.key(ri), col).map(&pred).unwrap_or(false)
            })
            .map(|ri| self.row_keys.key(ri).to_string())
            .collect();
        KeySet::from_sorted_unique(keys)
    }

    /// Per-row entry counts (fan-out in D4M terms).
    pub fn row_degrees(&self) -> Vec<(&str, usize)> {
        (0..self.n_rows())
            .map(|ri| (self.row_keys.key(ri), self.row_ptr[ri + 1] - self.row_ptr[ri]))
            .collect()
    }

    /// Per-column entry counts (fan-in in D4M terms).
    pub fn col_degrees(&self) -> Vec<(&str, usize)> {
        let mut counts = vec![0usize; self.n_cols()];
        for &ci in &self.col_idx {
            counts[ci] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(ci, n)| (self.col_keys.key(ci), n))
            .collect()
    }

    /// Sub-array restricted to columns whose keys start with `prefix`.
    pub fn cols_with_prefix(&self, prefix: &str) -> Assoc<V> {
        self.filter(|_r, c| c.starts_with(prefix))
    }
}

impl Assoc<f64> {
    /// Per-row value sums (`A 1` in D4M/GraphBLAS terms).
    pub fn row_sums(&self) -> Vec<(&str, f64)> {
        (0..self.n_rows())
            .map(|ri| {
                let lo = self.row_ptr[ri];
                let hi = self.row_ptr[ri + 1];
                (self.row_keys.key(ri), self.vals[lo..hi].iter().sum())
            })
            .collect()
    }

    /// Total of all stored values.
    pub fn total(&self) -> f64 {
        self.vals.iter().sum()
    }

    /// Build from triples, summing duplicates (packet accumulation).
    pub fn from_triples_sum(triples: Vec<(String, String, f64)>) -> Self {
        Self::from_triples_with(triples, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: &str, c: &str, v: &str) -> (String, String, String) {
        (r.into(), c.into(), v.into())
    }

    fn sample() -> Assoc<String> {
        Assoc::from_triples_last(vec![
            t("1.1.1.1", "class", "scanner"),
            t("1.1.1.1", "proto", "tcp"),
            t("2.2.2.2", "class", "botnet"),
            t("9.9.9.9", "class", "benign"),
        ])
    }

    #[test]
    fn construction_and_lookup() {
        let a = sample();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.n_cols(), 2);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get("1.1.1.1", "proto"), Some(&"tcp".to_string()));
        assert_eq!(a.get("1.1.1.1", "nope"), None);
        assert_eq!(a.get("3.3.3.3", "class"), None);
    }

    #[test]
    fn last_wins_on_duplicates() {
        let a = Assoc::from_triples_last(vec![
            t("r", "c", "first"),
            t("r", "c", "second"),
        ]);
        assert_eq!(a.get("r", "c"), Some(&"second".to_string()));
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn sum_combines_duplicates() {
        let a = Assoc::from_triples_sum(vec![
            ("r".into(), "c".into(), 2.0),
            ("r".into(), "c".into(), 3.0),
        ]);
        assert_eq!(a.get("r", "c"), Some(&5.0));
    }

    #[test]
    fn iter_is_key_ordered() {
        let a = sample();
        let rows: Vec<&str> = a.iter().map(|(r, _, _)| r).collect();
        assert_eq!(rows, vec!["1.1.1.1", "1.1.1.1", "2.2.2.2", "9.9.9.9"]);
    }

    #[test]
    fn row_selection() {
        let a = sample();
        let keep: KeySet = ["1.1.1.1", "9.9.9.9"].iter().copied().collect();
        let sub = a.rows(&keep);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.nnz(), 3);
        // Unused column keys are pruned.
        assert_eq!(sub.n_cols(), 2);
    }

    #[test]
    fn prefix_selection_prunes_axes() {
        let a = sample();
        let sub = a.rows_with_prefix("2.");
        assert_eq!(sub.n_rows(), 1);
        assert_eq!(sub.n_cols(), 1); // only "class" survives
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get("class", "2.2.2.2"), Some(&"botnet".to_string()));
    }

    #[test]
    fn and_then_intersects() {
        let a = sample();
        let b = Assoc::from_triples_last(vec![t("1.1.1.1", "class", "x"), t("8.8.8.8", "class", "y")]);
        let c = a.and_then(&b, |v, w| format!("{v}/{w}"));
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get("1.1.1.1", "class"), Some(&"scanner/x".to_string()));
    }

    #[test]
    fn or_else_unions() {
        let a = Assoc::from_triples_last(vec![t("r1", "c", "a")]);
        let b = Assoc::from_triples_last(vec![t("r2", "c", "b")]);
        let c = a.or_else(&b, |x, y| {
            format!("{}{}", x.map(|s| s.as_str()).unwrap_or("-"), y.map(|s| s.as_str()).unwrap_or("-"))
        });
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get("r1", "c"), Some(&"a-".to_string()));
        assert_eq!(c.get("r2", "c"), Some(&"-b".to_string()));
    }

    #[test]
    fn row_degrees_and_sums() {
        let a = sample();
        let deg: Vec<usize> = a.row_degrees().into_iter().map(|(_, d)| d).collect();
        assert_eq!(deg, vec![2, 1, 1]);
        let n = Assoc::from_triples_sum(vec![
            ("r".into(), "c1".into(), 1.5),
            ("r".into(), "c2".into(), 2.5),
        ]);
        assert_eq!(n.row_sums(), vec![("r", 4.0)]);
        assert_eq!(n.total(), 4.0);
    }

    #[test]
    fn rows_where_selects_by_value() {
        let a = sample();
        let scanners = a.rows_where("class", |v| v == "scanner");
        assert_eq!(scanners.as_slice(), &["1.1.1.1"]);
        let with_proto = a.rows_where("proto", |_| true);
        assert_eq!(with_proto.as_slice(), &["1.1.1.1"]);
        let none = a.rows_where("class", |v| v == "nothing");
        assert!(none.is_empty());
        let missing_col = a.rows_where("nonexistent", |_| true);
        assert!(missing_col.is_empty());
    }

    #[test]
    fn empty_array() {
        let e = Assoc::<String>::new();
        assert!(e.is_empty());
        assert_eq!(e.n_rows(), 0);
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e.transpose(), e);
    }

    #[test]
    fn col_degrees_count_fan_in() {
        let a = sample();
        let deg: std::collections::HashMap<&str, usize> =
            a.col_degrees().into_iter().collect();
        assert_eq!(deg["class"], 3);
        assert_eq!(deg["proto"], 1);
        // Column degrees sum to nnz, like row degrees.
        let total: usize = a.col_degrees().into_iter().map(|(_, n)| n).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn cols_with_prefix_selects_columns() {
        let a = sample();
        let sub = a.cols_with_prefix("cl");
        assert_eq!(sub.n_cols(), 1);
        assert_eq!(sub.nnz(), 3);
        assert!(a.cols_with_prefix("zz").is_empty());
    }

    #[test]
    fn map_preserves_pattern() {
        let a = sample();
        let lens = a.map(|v| v.len() as f64);
        assert_eq!(lens.nnz(), a.nnz());
        assert_eq!(lens.get("2.2.2.2", "class"), Some(&6.0));
    }
}
