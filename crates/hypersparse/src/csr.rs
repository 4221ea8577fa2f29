//! Hypersparse (doubly-compressed) CSR matrices.
//!
//! A conventional CSR stores a row-pointer array of length `n_rows + 1`; with
//! `2^32` possible rows that is 32 GB of pointers for a matrix holding a few
//! hundred thousand sources. The hypersparse variant stores only the
//! *occupied* rows (`row_keys`) next to their pointer ranges, so the total
//! footprint is `O(nnz + occupied_rows)` — the property that lets the paper
//! hold full IPv4 x IPv4 traffic matrices in memory.

use crate::value::Value;
use crate::Index;
use serde::{Deserialize, Serialize};

/// Immutable hypersparse matrix in doubly-compressed sparse row form.
///
/// Invariants (enforced by construction, checked by `debug_assert`s and the
/// property-test suite):
///
/// * `row_keys` is strictly increasing,
/// * `row_ptr.len() == row_keys.len() + 1`, `row_ptr[0] == 0`,
///   `row_ptr[last] == nnz`, and `row_ptr` is non-decreasing with no empty
///   rows,
/// * within each row, `col_keys` is strictly increasing,
/// * no stored value is zero.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Csr<V: Value> {
    row_keys: Vec<Index>,
    row_ptr: Vec<usize>,
    col_keys: Vec<Index>,
    vals: Vec<V>,
}

impl<V: Value> Default for Csr<V> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<V: Value> Csr<V> {
    /// The empty matrix.
    pub fn empty() -> Self {
        Self { row_keys: Vec::new(), row_ptr: vec![0], col_keys: Vec::new(), vals: Vec::new() }
    }

    /// Build from triples that are already sorted by `(row, col)`, contain no
    /// duplicate coordinates, and no zero values: the serial [`crate::Coo`]
    /// compaction, `ops::zero_norm` and the radix kernel's one-key case
    /// build through it. Kernels that assemble the CSR arrays themselves
    /// use [`Csr::from_parts`].
    pub(crate) fn from_sorted_dedup_triples(triples: Vec<(Index, Index, V)>) -> Self {
        let mut row_keys = Vec::new();
        let mut row_ptr = vec![0usize];
        let mut col_keys = Vec::with_capacity(triples.len());
        let mut vals = Vec::with_capacity(triples.len());
        for (r, c, v) in triples {
            debug_assert!(!v.is_zero());
            match row_keys.last() {
                Some(&last) if last == r => {}
                Some(&last) => {
                    debug_assert!(r > last, "triples must be sorted by row");
                    row_ptr.push(col_keys.len());
                    row_keys.push(r);
                }
                None => row_keys.push(r),
            }
            debug_assert!(
                col_keys.len() + 1 == 1
                    || row_ptr.last().copied() == Some(col_keys.len())
                    || col_keys.last().map(|&lc| lc < c).unwrap_or(true),
                "cols must be strictly increasing within a row"
            );
            col_keys.push(c);
            vals.push(v);
        }
        row_ptr.push(col_keys.len());
        if row_keys.is_empty() {
            return Self::empty();
        }
        Self { row_keys, row_ptr, col_keys, vals }
    }

    /// Build directly from pre-assembled CSR arrays. The radix compaction
    /// kernel ([`crate::radix`]), the carry merge (`ops::ewise_add`) and
    /// the codec's decode ([`crate::serialize::decode`]) produce these
    /// without ever materializing a dedup'd triple `Vec`; the caller is
    /// responsible for upholding the type invariants (checked here in
    /// debug builds and by the strict-invariants feature at the compaction
    /// boundary).
    pub(crate) fn from_parts(
        row_keys: Vec<Index>,
        row_ptr: Vec<usize>,
        col_keys: Vec<Index>,
        vals: Vec<V>,
    ) -> Self {
        if row_keys.is_empty() {
            return Self::empty();
        }
        let csr = Self { row_keys, row_ptr, col_keys, vals };
        debug_assert!(
            csr.check_invariants().is_ok(),
            "from_parts given invalid CSR arrays: {:?}",
            csr.check_invariants()
        );
        csr
    }

    /// Number of stored (nonzero) entries — the paper's *unique links*.
    pub fn nnz(&self) -> usize {
        self.col_keys.len()
    }

    /// Number of occupied rows — the paper's *unique sources*.
    pub fn n_rows(&self) -> usize {
        self.row_keys.len()
    }

    /// Whether the matrix stores no entries.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// The sorted occupied row indices.
    pub fn row_keys(&self) -> &[Index] {
        &self.row_keys
    }

    /// All stored column indices, row-major.
    pub fn col_indices(&self) -> &[Index] {
        &self.col_keys
    }

    /// All stored values, row-major.
    pub fn values(&self) -> &[V] {
        &self.vals
    }

    /// The `(columns, values)` slice pair of the `i`-th occupied row.
    pub fn row_at(&self, i: usize) -> (&[Index], &[V]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_keys[lo..hi], &self.vals[lo..hi])
    }

    /// Look up the row with matrix index `row` (not positional index).
    pub fn row(&self, row: Index) -> Option<(&[Index], &[V])> {
        let i = self.row_keys.binary_search(&row).ok()?;
        Some(self.row_at(i))
    }

    /// Point lookup `A(row, col)`.
    pub fn get(&self, row: Index, col: Index) -> Option<V> {
        let (cols, vals) = self.row(row)?;
        let j = cols.binary_search(&col).ok()?;
        Some(vals[j])
    }

    /// Iterate over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> CsrIter<'_, V> {
        CsrIter { csr: self, row_pos: 0, entry_pos: 0 }
    }

    /// Iterate over `(row_index, cols, vals)` per occupied row.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Index, &[Index], &[V])> + '_ {
        (0..self.n_rows()).map(move |i| {
            let (c, v) = self.row_at(i);
            (self.row_keys[i], c, v)
        })
    }

    /// Transpose, producing a matrix whose rows are this matrix's columns.
    /// Used to compute destination-side quantities (fan-in, destination
    /// packets) with the same row-side kernels.
    pub fn transpose(&self) -> Csr<V> {
        let mut coo = crate::Coo::with_capacity(self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(c, r, v);
        }
        // Already deduplicated: transposing cannot create duplicates.
        coo.into_csr()
    }

    /// Tracked heap footprint in bytes: the length-based size of the four
    /// storage arrays. Capacity slack is deliberately excluded so the
    /// number is a pure function of the matrix contents — the out-of-core
    /// spill scheduler ([`crate::spill`]) uses it for deterministic
    /// live-byte accounting and eviction decisions.
    pub fn heap_bytes(&self) -> u64 {
        let idx = std::mem::size_of::<Index>();
        let ptr = std::mem::size_of::<usize>();
        let val = std::mem::size_of::<V>();
        (self.row_keys.len() * idx
            + self.row_ptr.len() * ptr
            + self.col_keys.len() * idx
            + self.vals.len() * val) as u64
    }

    /// Internal consistency check used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.row_keys.len() + 1 {
            return Err("row_ptr length mismatch".into());
        }
        if self.row_ptr.first().copied() != Some(0)
            || self.row_ptr.last().copied() != Some(self.nnz())
        {
            return Err("row_ptr endpoints wrong".into());
        }
        for w in self.row_keys.windows(2) {
            if w[0] >= w[1] {
                return Err("row_keys not strictly increasing".into());
            }
        }
        for i in 0..self.n_rows() {
            if self.row_ptr[i] >= self.row_ptr[i + 1] {
                return Err(format!("empty row stored at position {i}"));
            }
            let (cols, vals) = self.row_at(i);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err("col_keys not strictly increasing within row".into());
                }
            }
            if vals.iter().any(|v| v.is_zero()) {
                return Err("explicit zero stored".into());
            }
        }
        if self.col_keys.len() != self.vals.len() {
            return Err("cols/vals length mismatch".into());
        }
        Ok(())
    }
}

/// Row-major entry iterator over a [`Csr`].
pub struct CsrIter<'a, V: Value> {
    csr: &'a Csr<V>,
    row_pos: usize,
    entry_pos: usize,
}

impl<'a, V: Value> Iterator for CsrIter<'a, V> {
    type Item = (Index, Index, V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.entry_pos >= self.csr.nnz() {
            return None;
        }
        while self.entry_pos >= self.csr.row_ptr[self.row_pos + 1] {
            self.row_pos += 1;
        }
        let r = self.csr.row_keys[self.row_pos];
        let c = self.csr.col_keys[self.entry_pos];
        let v = self.csr.vals[self.entry_pos];
        self.entry_pos += 1;
        Some((r, c, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.csr.nnz() - self.entry_pos;
        (rem, Some(rem))
    }
}

impl<'a, V: Value> ExactSizeIterator for CsrIter<'a, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr<u64> {
        let mut coo = Coo::new();
        coo.push(10, 1, 1);
        coo.push(10, 5, 2);
        coo.push(3, 7, 4);
        coo.push(u32::MAX, 0, 9);
        coo.into_csr()
    }

    #[test]
    fn invariants_hold() {
        sample().check_invariants().unwrap();
        Csr::<u64>::empty().check_invariants().unwrap();
    }

    #[test]
    fn get_hits_and_misses() {
        let a = sample();
        assert_eq!(a.get(10, 5), Some(2));
        assert_eq!(a.get(3, 7), Some(4));
        assert_eq!(a.get(u32::MAX, 0), Some(9));
        assert_eq!(a.get(10, 2), None);
        assert_eq!(a.get(11, 1), None);
    }

    #[test]
    fn rows_are_sorted_and_accessible() {
        let a = sample();
        assert_eq!(a.row_keys(), &[3, 10, u32::MAX]);
        let (cols, vals) = a.row(10).unwrap();
        assert_eq!(cols, &[1, 5]);
        assert_eq!(vals, &[1, 2]);
        assert!(a.row(4).is_none());
    }

    #[test]
    fn iter_is_row_major_and_exact() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(
            entries,
            vec![(3, 7, 4), (10, 1, 1), (10, 5, 2), (u32::MAX, 0, 9)]
        );
        assert_eq!(a.iter().len(), 4);
    }

    #[test]
    fn transpose_round_trips() {
        let a = sample();
        let t = a.transpose();
        t.check_invariants().unwrap();
        assert_eq!(t.get(5, 10), Some(2));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn empty_matrix_behaves() {
        let e = Csr::<u64>::empty();
        assert!(e.is_empty());
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e.transpose(), e);
    }

    #[test]
    fn iter_rows_matches_row_at() {
        let a = sample();
        let collected: Vec<Index> = a.iter_rows().map(|(r, _, _)| r).collect();
        assert_eq!(collected, a.row_keys().to_vec());
    }
}
