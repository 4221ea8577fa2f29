//! Month×source membership matrix: all monthly overlaps in one sweep.
//!
//! The temporal-curve analysis asks, for every telescope bin, "how many
//! of this bin's sources does month *m* contain?" for every month. Done
//! pairwise that is `n_months` full intersections per bin, each walking
//! the bin's keys again. [`MonthMatrix`] transposes the work: it groups
//! the months' containers **by chunk**, so a single merge-join over the
//! bin's chunks visits each bin container once and scores it against
//! every month that has keys in that chunk — the bin side of the work is
//! paid once instead of `n_months` times, and the per-month scoring is
//! the same word-parallel container arithmetic as `BitSet`.
//!
//! Counts are exact integers (the same integers the pairwise path
//! produces), so fractions derived from them stay bit-identical.

use super::container::Container;
use super::{metrics, BitSet};
use crate::keys::NumKeySet;

/// Per-chunk slice of the matrix: which months occupy this chunk, and
/// with which container.
struct ChunkEntry {
    /// High 16 bits of the keys this entry covers.
    hi: u16,
    /// `(month index, that month's container for this chunk)`, in
    /// strictly increasing month order.
    months: Vec<(usize, Container)>,
}

/// A month×source membership matrix over compressed containers.
///
/// Built once per analysis from the monthly honeyfarm source sets; probed
/// once per bin via [`MonthMatrix::overlap_counts`].
pub struct MonthMatrix {
    /// Non-empty chunks in strictly increasing `hi` order.
    chunks: Vec<ChunkEntry>,
    /// Cardinality of each month's full set (fraction denominators and
    /// quadrant totals come from here without re-walking containers).
    month_lens: Vec<usize>,
}

impl MonthMatrix {
    /// Build from the monthly source sets, preserving month order.
    pub fn from_months(months: &[NumKeySet]) -> Self {
        let sets: Vec<BitSet> = months.iter().map(BitSet::from_num_key_set).collect();
        Self::from_bit_sets(&sets)
    }

    /// Build from already-compressed monthly sets, preserving order.
    ///
    /// One gather of every `(hi, month, container)` cell, one stable sort
    /// by `hi`, and one grouping pass: `O(cells · log cells)` however the
    /// months' chunks interleave. Cells are gathered month by month, so
    /// the stable sort leaves each chunk's months in ascending order.
    pub fn from_bit_sets(months: &[BitSet]) -> Self {
        let month_lens = months.iter().map(BitSet::len).collect();
        let mut cells: Vec<(u16, usize, &Container)> = months
            .iter()
            .enumerate()
            .flat_map(|(m, set)| set.chunks().iter().map(move |(hi, c)| (*hi, m, c)))
            .collect();
        cells.sort_by_key(|&(hi, _, _)| hi);
        let mut chunks: Vec<ChunkEntry> = Vec::new();
        for (hi, m, c) in cells {
            match chunks.last_mut() {
                Some(entry) if entry.hi == hi => entry.months.push((m, c.clone())),
                _ => chunks.push(ChunkEntry { hi, months: vec![(m, c.clone())] }),
            }
        }
        Self { chunks, month_lens }
    }

    /// Number of months (rows).
    pub fn n_months(&self) -> usize {
        self.month_lens.len()
    }

    /// Cardinality of month `m`'s full source set.
    pub fn month_len(&self, m: usize) -> usize {
        self.month_lens[m]
    }

    /// `|probe ∩ month_m|` for **every** month `m`, in one sweep.
    ///
    /// Merge-joins the probe's chunks against the matrix's chunks; each
    /// matched chunk scores the probe container once per month present in
    /// that chunk. Every count is the exact integer the pairwise
    /// `NumKeySet` intersections would produce.
    pub fn overlap_counts(&self, probe: &BitSet) -> Vec<usize> {
        let mut counts = vec![0usize; self.month_lens.len()];
        let probe_chunks = probe.chunks();
        let (mut i, mut j) = (0, 0);
        while i < probe_chunks.len() && j < self.chunks.len() {
            match probe_chunks[i].0.cmp(&self.chunks[j].hi) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let pc = &probe_chunks[i].1;
                    for (m, mc) in &self.chunks[j].months {
                        counts[*m] += pc.overlap_count(mc);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        counts
    }

    /// Reconstruct month `m`'s full set (cross-check / oracle use only;
    /// the hot path never materializes a month).
    pub fn month_set(&self, m: usize) -> BitSet {
        let mut out = BitSet::new();
        for entry in &self.chunks {
            for (month, c) in &entry.months {
                if *month == m {
                    c.for_each_key(|lo| {
                        out.insert((u32::from(entry.hi) << 16) | u32::from(lo));
                    });
                }
            }
        }
        out
    }

    /// Container census `(arrays, bitmaps, runs)` across all cells.
    pub fn container_census(&self) -> (usize, usize, usize) {
        let mut census = (0usize, 0usize, 0usize);
        for entry in &self.chunks {
            for (_, c) in &entry.months {
                match c.kind() {
                    metrics::Kind::Array => census.0 += 1,
                    metrics::Kind::Bitmap => census.1 += 1,
                    metrics::Kind::Runs => census.2 += 1,
                }
            }
        }
        census
    }

    /// Internal consistency check: chunk order, per-chunk month order and
    /// bounds, container invariants, and month cardinalities consistent
    /// with the stored lens.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.chunks.windows(2) {
            if w[0].hi >= w[1].hi {
                return Err(format!("chunks not strictly increasing at {} >= {}", w[0].hi, w[1].hi));
            }
        }
        let mut recomputed = vec![0usize; self.month_lens.len()];
        for entry in &self.chunks {
            if entry.months.is_empty() {
                return Err(format!("chunk {} has no month entries", entry.hi));
            }
            for w in entry.months.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(format!(
                        "chunk {}: months not strictly increasing at {} >= {}",
                        entry.hi, w[0].0, w[1].0
                    ));
                }
            }
            for (m, c) in &entry.months {
                if *m >= self.month_lens.len() {
                    return Err(format!("chunk {}: month {m} out of range", entry.hi));
                }
                if c.card() == 0 {
                    return Err(format!("chunk {}: empty container for month {m}", entry.hi));
                }
                c.check_invariants()
                    .map_err(|e| format!("chunk {} month {m}: {e}", entry.hi))?;
                recomputed[*m] += c.card();
            }
        }
        if recomputed != self.month_lens {
            return Err(format!(
                "month cardinalities {recomputed:?} disagree with stored {:?}",
                self.month_lens
            ));
        }
        Ok(())
    }
}
