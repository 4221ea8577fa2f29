//! Compressed bitmap substrate for correlation sets.
//!
//! A [`BitSet`] is a roaring-style hybrid set over `u32` keys: the key
//! space is cut into 2^16-key chunks addressed by the high 16 bits, and
//! each non-empty chunk stores its low-16 residues in whichever of three
//! container forms is cheapest for its density (sorted array, packed
//! 1024-word bitmap, or run intervals — see `container`). On dense
//! chunks, overlap counting becomes word-parallel `AND` + popcount over
//! `u64` words; on sparse chunks it stays the merge/gallop of a sorted
//! vector (`NumKeySet`), so the hybrid never loses to either pure form.
//! It is the one set type of the correlation path, built once from
//! sorted unique keys and then only counted: the pipeline's honeyfarm
//! months and telescope degree bins both enter through
//! [`BitSet::from_sorted_unique`], and the `KeySet` adapters through
//! [`BitSet::from_ip_keys`].
//!
//! [`MonthMatrix`] (in `matrix`) layers a month×source membership
//! matrix on the same containers so the temporal-curve analysis counts a
//! bin's overlap with **all** months in one sweep over the bin's chunks.
//!
//! # Determinism
//!
//! Every count is an exact integer no matter which container forms meet;
//! [`BitSet::overlap_fraction`] divides the same two integers as
//! `NumKeySet::overlap_fraction` and `KeySet::overlap_fraction`, so the
//! resulting `f64` is bit-identical to both references. The differential
//! suites in `crates/assoc/tests/` pin this against `NumKeySet`, and the
//! workspace's `tests/correlation_reference.rs` pins the Fig 4–6
//! fractions against a plain string-set reference.
//!
//! # Metrics (detail)
//!
//! Recorded only at `obscor_obs::Level::Detail` (CLI:
//! `--fast-path-metrics`), so the pinned default metrics schema never
//! changes: `assoc.bitset.containers_{array,bitmap,runs}_total` (each
//! container counted once, by its form) and
//! `assoc.bitset.words_scanned_total`, all pinned by
//! `tests/metrics_optin.rs`.

mod container;
mod matrix;

pub use matrix::MonthMatrix;

use crate::keys::{KeySet, NumKeySet};
use container::Container;

/// Internal metric sinks, no-ops below `obscor_obs::Level::Detail`.
pub(crate) mod metrics {
    /// Physical container form, for the per-kind construction counters.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Kind {
        Array,
        Bitmap,
        Runs,
    }

    pub(crate) fn container_built(kind: Kind) {
        if obscor_obs::detail() {
            let name = match kind {
                Kind::Array => "assoc.bitset.containers_array_total",
                Kind::Bitmap => "assoc.bitset.containers_bitmap_total",
                Kind::Runs => "assoc.bitset.containers_runs_total",
            };
            obscor_obs::counter(name).inc();
        }
    }

    pub(crate) fn words_scanned(n: u64) {
        if obscor_obs::detail() {
            obscor_obs::counter("assoc.bitset.words_scanned_total").add(n);
        }
    }
}

/// Split a key into its (chunk, residue) halves.
#[inline]
fn split(key: u32) -> (u16, u16) {
    ((key >> 16) as u16, (key & 0xFFFF) as u16)
}

/// Rejoin a (chunk, residue) pair into the full key.
#[inline]
fn join(hi: u16, lo: u16) -> u32 {
    (u32::from(hi) << 16) | u32::from(lo)
}

/// A roaring-style compressed set of `u32` keys, built once and then only
/// counted.
///
/// Semantically identical to [`NumKeySet`] — same keys, same counts, same
/// overlap fractions bit-for-bit — but with density-adaptive physical
/// containers that make dense-set overlap counts word-parallel.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    /// Non-empty chunks in strictly increasing `hi` order.
    chunks: Vec<(u16, Container)>,
}

impl BitSet {
    /// Build from keys known to be sorted and unique (checked in debug).
    pub fn from_sorted_unique(keys: &[u32]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted unique");
        let mut lows: Vec<u16> = Vec::new();
        let chunks = keys
            .chunk_by(|&a, &b| split(a).0 == split(b).0)
            .map(|chunk| {
                lows.clear();
                lows.extend(chunk.iter().map(|&k| split(k).1));
                (split(chunk[0]).0, Container::from_sorted(&lows))
            })
            .collect();
        Self { chunks }
    }

    /// Intern the IP keys of a D4M key set: every key spelled exactly as
    /// [`crate::convert::ip_key`] renders it. Any other key can never
    /// equal a rendered address, so it is skipped. Rendered keys sort as
    /// their addresses do, so the kept keys arrive sorted and unique.
    pub fn from_ip_keys(keys: &KeySet) -> Self {
        let ips: Vec<u32> = keys.iter().filter_map(crate::convert::parse_ip_key).collect();
        Self::from_sorted_unique(&ips)
    }

    /// Intern a [`NumKeySet`] (already sorted unique).
    pub fn from_num_key_set(ks: &NumKeySet) -> Self {
        Self::from_sorted_unique(ks.as_slice())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.card()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterate over keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().flat_map(|(hi, c)| {
            let hi = *hi;
            c.to_vec().into_iter().map(move |lo| join(hi, lo))
        })
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// correlation hot path. Chunks merge-join on the high half; matched
    /// chunks count word-parallel (bitmap forms) or by merge/interval
    /// arithmetic (sparse forms).
    pub fn overlap_count(&self, other: &BitSet) -> usize {
        let (mut i, mut j) = (0, 0);
        let mut count = 0usize;
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].0.cmp(&other.chunks[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += self.chunks[i].1.overlap_count(&other.chunks[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// The fraction of `self`'s keys also present in `other` — the
    /// paper's correlation measure. `None` for an empty `self`.
    /// Bit-identical to [`NumKeySet::overlap_fraction`]: same two integer
    /// operands, same single `f64` division.
    pub fn overlap_fraction(&self, other: &BitSet) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.overlap_count(other) as f64 / self.len() as f64)
    }

    /// Container census `(arrays, bitmaps, runs)` — used by benches and
    /// the metrics tests to confirm density-driven form selection.
    pub fn container_census(&self) -> (usize, usize, usize) {
        let mut census = (0usize, 0usize, 0usize);
        for (_, c) in &self.chunks {
            match c.kind() {
                metrics::Kind::Array => census.0 += 1,
                metrics::Kind::Bitmap => census.1 += 1,
                metrics::Kind::Runs => census.2 += 1,
            }
        }
        census
    }

    /// Internal consistency check: chunk keys strictly increasing, no
    /// empty chunks, and every container upholding its form invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.chunks.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("chunks not strictly increasing at {} >= {}", w[0].0, w[1].0));
            }
        }
        for (hi, c) in &self.chunks {
            if c.card() == 0 {
                return Err(format!("empty container retained for chunk {hi}"));
            }
            c.check_invariants().map_err(|e| format!("chunk {hi}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
