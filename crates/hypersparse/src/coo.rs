//! Coordinate-format (COO) triple buffer.
//!
//! Packets append `(source, destination, count)` triples in arrival order;
//! compaction sorts by `(row, col)` and sums duplicates, producing the
//! immutable [`Csr`] used by all analytics. Compaction is where all the time
//! goes when building traffic matrices, so two kernels are provided: a
//! serial comparison sort (the differential oracle) and the
//! [`crate::radix`] LSD radix kernel. [`Coo::into_csr`] picks between them
//! at the fixed size threshold [`RADIX_THRESHOLD`], so a given buffer takes
//! the same kernel in every process.

use crate::csr::Csr;
use crate::keypack::pack_key;
use crate::value::Value;
use crate::Index;

/// Buffer size at and above which [`Coo::into_csr`] uses the radix kernel;
/// smaller buffers take the serial comparison sort. DESIGN.md §12 records
/// the leaf timings behind the value: the two kernels break even near 512
/// triples, and every telescope leaf (at least 1024 triples) lands on the
/// radix side.
pub const RADIX_THRESHOLD: usize = 512;

/// An append-only buffer of `(row, col, value)` triples.
///
/// Duplicate coordinates are allowed and are summed during [`Coo::into_csr`].
/// Explicit zeros are dropped during compaction, matching GraphBLAS
/// semantics.
#[derive(Clone, Debug, Default)]
pub struct Coo<V: Value> {
    rows: Vec<Index>,
    cols: Vec<Index>,
    vals: Vec<V>,
}

impl<V: Value> Coo<V> {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self { rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Create an empty buffer with room for `cap` triples.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Internal consistency check: the three coordinate/value columns must
    /// stay in lockstep. (Duplicates and explicit zeros are legal in the
    /// pre-compaction buffer; [`Coo::into_csr`] removes both.) Used by
    /// tests and the pipeline's `strict-invariants` stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.rows.len() != self.cols.len() || self.rows.len() != self.vals.len() {
            return Err(format!(
                "column lengths diverge: rows={} cols={} vals={}",
                self.rows.len(),
                self.cols.len(),
                self.vals.len()
            ));
        }
        Ok(())
    }

    /// Append one triple.
    #[inline]
    pub fn push(&mut self, row: Index, col: Index, val: V) {
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Append a unit-valued triple (one packet from `row` to `col`).
    #[inline]
    pub fn push_edge(&mut self, row: Index, col: Index) {
        self.push(row, col, V::one());
    }

    /// Number of buffered (pre-compaction, possibly duplicated) triples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the buffer holds no triples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Build from an iterator of triples.
    pub fn from_triples<I: IntoIterator<Item = (Index, Index, V)>>(iter: I) -> Self {
        let mut coo = Self::new();
        for (r, c, v) in iter {
            coo.push(r, c, v);
        }
        coo
    }

    /// Iterate over the raw (uncompacted) triples.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, V)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Compact into an immutable hypersparse CSR matrix, choosing between
    /// the serial comparison sort and the radix kernel at
    /// [`RADIX_THRESHOLD`].
    pub fn into_csr(self) -> Csr<V> {
        let csr = if self.len() >= RADIX_THRESHOLD {
            self.into_csr_radix()
        } else {
            self.into_csr_serial()
        };
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(msg) = csr.check_invariants() {
                // audit:allow(panic-path) — strict-invariants mode aborts on broken invariants by contract
                panic!("compaction produced an invalid CSR: {msg}");
            }
        }
        csr
    }

    /// Serial compaction: sort triples by `(row, col)`, then sum runs.
    pub fn into_csr_serial(self) -> Csr<V> {
        let mut triples = self.into_sorted_triples();
        dedup_sorted(&mut triples);
        Csr::from_sorted_dedup_triples(triples)
    }

    /// Radix compaction: LSD counting sort over the packed key's byte
    /// digits with a fused dedup-sum final scatter (see [`crate::radix`]).
    pub fn into_csr_radix(self) -> Csr<V> {
        crate::radix::compact_into_csr(self.rows, self.cols, self.vals)
    }

    fn into_sorted_triples(self) -> Vec<(Index, Index, V)> {
        let mut triples: Vec<(Index, Index, V)> = self
            .rows
            .into_iter()
            .zip(self.cols)
            .zip(self.vals)
            .map(|((r, c), v)| (r, c, v))
            .collect();
        triples.sort_unstable_by_key(|&(r, c, _)| pack_key(r, c));
        triples
    }
}

impl<V: Value> Extend<(Index, Index, V)> for Coo<V> {
    fn extend<I: IntoIterator<Item = (Index, Index, V)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

/// Sum runs of identical `(row, col)` coordinates in place, dropping
/// resulting zeros. Input must be sorted by `(row, col)`.
fn dedup_sorted<V: Value>(triples: &mut Vec<(Index, Index, V)>) {
    let mut write = 0usize;
    let mut read = 0usize;
    let n = triples.len();
    while read < n {
        let (r, c, mut acc) = triples[read];
        read += 1;
        while read < n && triples[read].0 == r && triples[read].1 == c {
            acc += triples[read].2;
            read += 1;
        }
        if !acc.is_zero() {
            triples[write] = (r, c, acc);
            write += 1;
        }
    }
    triples.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coo_gives_empty_csr() {
        let coo = Coo::<u64>::new();
        let csr = coo.into_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.n_rows(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::<u64>::new();
        coo.push(5, 7, 2);
        coo.push(5, 7, 3);
        coo.push(5, 8, 1);
        let csr = coo.into_csr();
        assert_eq!(csr.get(5, 7), Some(5));
        assert_eq!(csr.get(5, 8), Some(1));
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn explicit_zeros_are_dropped() {
        let mut coo = Coo::<f64>::new();
        coo.push(1, 1, 0.0);
        coo.push(2, 2, 1.5);
        coo.push(2, 2, -1.5); // cancels to zero
        let csr = coo.into_csr();
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn radix_and_serial_paths_agree() {
        let mut a = Coo::<u64>::new();
        let mut b = Coo::<u64>::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 40) as Index % 1009;
            let c = (state >> 16) as Index % 1013;
            a.push(r, c, 1);
            b.push(r, c, 1);
        }
        assert_eq!(a.into_csr_serial(), b.into_csr_radix());
    }

    #[test]
    fn push_edge_is_unit_valued() {
        let mut coo = Coo::<u32>::new();
        coo.push_edge(9, 9);
        coo.push_edge(9, 9);
        assert_eq!(coo.into_csr().get(9, 9), Some(2));
    }

    #[test]
    fn from_triples_round_trips() {
        let t = vec![(1u32, 2u32, 10u64), (0, 0, 1)];
        let coo = Coo::from_triples(t.clone());
        assert_eq!(coo.len(), 2);
        let collected: Vec<_> = coo.iter().collect();
        assert_eq!(collected, t);
    }

    #[test]
    fn extend_appends() {
        let mut coo = Coo::<u64>::new();
        coo.extend(vec![(1, 1, 1), (2, 2, 2)]);
        assert_eq!(coo.len(), 2);
    }

    #[test]
    fn sort_key_orders_row_major() {
        // Rows must dominate the ordering even when cols are large.
        let mut coo = Coo::<u64>::new();
        coo.push(1, u32::MAX, 1);
        coo.push(2, 0, 1);
        let csr = coo.into_csr_serial();
        let rows: Vec<_> = csr.row_keys().to_vec();
        assert_eq!(rows, vec![1, 2]);
    }
}
