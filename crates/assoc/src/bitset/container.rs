//! Roaring-style containers over one 2^16-key chunk.
//!
//! Every [`Container`] holds the low 16 bits of the keys that share one
//! high-16-bit chunk, in whichever of three physical forms is cheapest
//! for its density:
//!
//! * **Array** — sorted unique `Vec<u16>`, 2 bytes/key; the sparse form.
//! * **Bitmap** — 1024 packed `u64` words (8 KiB flat) with a cached
//!   cardinality; the dense form, where overlap counting is word-parallel
//!   `AND` + popcount.
//! * **Runs** — sorted, non-adjacent inclusive `(start, end)` intervals,
//!   4 bytes/run; the form for contiguous slabs (full chunks, scanned
//!   prefixes).
//!
//! A container is built once, from sorted keys, and never changes, so
//! [`Container::from_sorted`] picks its form once: runs when they cost
//! less than half the dense form, else an array up to [`ARRAY_MAX`] keys,
//! else a bitmap.
//!
//! Every count is an exact integer regardless of physical form —
//! representation is a performance choice, never a semantic one — which
//! is the determinism argument DESIGN.md §17 spells out.

use super::metrics;

/// Words in one chunk bitmap: 2^16 bits / 64.
pub(crate) const CHUNK_WORDS: usize = 1 << 10;
/// The most keys an array container holds; a denser chunk is a bitmap.
pub(crate) const ARRAY_MAX: usize = 4096;
/// Byte cost of a bitmap container (the ceiling for every other form).
const BITMAP_BYTES: usize = CHUNK_WORDS * 8;

/// One chunk's key set, in the physical form its density picked.
#[derive(Clone, Debug)]
pub(crate) enum Container {
    /// Sorted unique low-16 keys, at most [`ARRAY_MAX`] of them.
    Array(Vec<u16>),
    /// Packed bitmap with cached cardinality (`card` > [`ARRAY_MAX`]).
    Bitmap { words: Box<[u64; CHUNK_WORDS]>, card: usize },
    /// Sorted inclusive intervals with at least one key of gap between
    /// consecutive runs (adjacent runs must have been merged).
    Runs(Vec<(u16, u16)>),
}

/// Byte cost of `n` runs.
fn runs_bytes(n_runs: usize) -> usize {
    n_runs * 4
}

/// Byte cost of `card` keys in the dense form: two bytes a key in an
/// array up to [`ARRAY_MAX`] keys, the flat bitmap above.
fn dense_bytes(card: usize) -> usize {
    if card > ARRAY_MAX {
        BITMAP_BYTES
    } else {
        card * 2
    }
}

/// Build a bitmap word array from sorted unique keys.
fn bitmap_from_sorted(keys: &[u16]) -> Box<[u64; CHUNK_WORDS]> {
    let mut words = Box::new([0u64; CHUNK_WORDS]);
    for &k in keys {
        words[usize::from(k >> 6)] |= 1u64 << (k & 63);
    }
    words
}

/// Count set bits of `words` within the inclusive key range `[s, e]`,
/// word-parallel: masked popcount on the edge words, full popcount on the
/// interior. Returns `(count, words_touched)`.
fn bitmap_range_count(words: &[u64; CHUNK_WORDS], s: u16, e: u16) -> (usize, u64) {
    let (ws, we) = (usize::from(s >> 6), usize::from(e >> 6));
    let lo_mask = !0u64 << (s & 63);
    let hi_mask = !0u64 >> (63 - (e & 63));
    if ws == we {
        return ((words[ws] & lo_mask & hi_mask).count_ones() as usize, 1);
    }
    let mut count = (words[ws] & lo_mask).count_ones() as usize;
    for &w in &words[ws + 1..we] {
        count += w.count_ones() as usize;
    }
    count += (words[we] & hi_mask).count_ones() as usize;
    (count, (we - ws + 1) as u64)
}

/// The maximal runs `(start, end)` of a sorted unique key slice.
fn runs_of(keys: &[u16]) -> impl Iterator<Item = (u16, u16)> + '_ {
    keys.chunk_by(|a, b| a + 1 == *b).map(|r| (r[0], r[r.len() - 1]))
}

impl Container {
    /// Build from sorted unique low-16 keys, in the one form their density
    /// picks: runs when they cost less than half the dense form (two bytes
    /// a key up to [`ARRAY_MAX`] keys, the 8 KiB bitmap above), else an
    /// array up to [`ARRAY_MAX`] keys, else a bitmap.
    pub(crate) fn from_sorted(keys: &[u16]) -> Container {
        let c = if runs_bytes(runs_of(keys).count()) * 2 < dense_bytes(keys.len()) {
            Container::Runs(runs_of(keys).collect())
        } else if keys.len() <= ARRAY_MAX {
            Container::Array(keys.to_vec())
        } else {
            Container::Bitmap { words: bitmap_from_sorted(keys), card: keys.len() }
        };
        metrics::container_built(c.kind());
        c
    }

    /// Number of keys in the container.
    pub(crate) fn card(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap { card, .. } => *card,
            Container::Runs(r) => {
                r.iter().map(|&(s, e)| usize::from(e - s) + 1).sum()
            }
        }
    }

    /// All keys as a sorted vector.
    pub(crate) fn to_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bitmap { words, card } => {
                let mut out = Vec::with_capacity(*card);
                for (wi, &word) in words.iter().enumerate() {
                    let mut w = word;
                    let base = (wi << 6) as u16;
                    while w != 0 {
                        out.push(base + w.trailing_zeros() as u16);
                        w &= w - 1;
                    }
                }
                out
            }
            Container::Runs(r) => r.iter().flat_map(|&(s, e)| s..=e).collect(),
        }
    }

    /// `|self ∩ other|` without materializing the intersection: pure
    /// popcount / merge / interval arithmetic on whichever two forms meet.
    pub(crate) fn overlap_count(&self, other: &Container) -> usize {
        use Container::{Array, Bitmap, Runs};
        match (self, other) {
            (Array(a), Array(b)) => overlap_array_array(a, b),
            (Array(a), Bitmap { words, .. }) | (Bitmap { words, .. }, Array(a)) => {
                metrics::words_scanned(a.len() as u64);
                a.iter()
                    .filter(|&&k| words[usize::from(k >> 6)] & (1u64 << (k & 63)) != 0)
                    .count()
            }
            (Bitmap { words: wa, .. }, Bitmap { words: wb, .. }) => {
                metrics::words_scanned(2 * CHUNK_WORDS as u64);
                wa.iter().zip(wb.iter()).map(|(&x, &y)| (x & y).count_ones() as usize).sum()
            }
            (Runs(r), Bitmap { words, .. }) | (Bitmap { words, .. }, Runs(r)) => {
                let mut count = 0;
                let mut touched = 0u64;
                for &(s, e) in r {
                    let (c, t) = bitmap_range_count(words, s, e);
                    count += c;
                    touched += t;
                }
                metrics::words_scanned(touched);
                count
            }
            (Runs(r), Array(a)) | (Array(a), Runs(r)) => overlap_runs_array(r, a),
            (Runs(a), Runs(b)) => overlap_runs_runs(a, b),
        }
    }

    /// Which physical form the container uses.
    pub(crate) fn kind(&self) -> metrics::Kind {
        match self {
            Container::Array(_) => metrics::Kind::Array,
            Container::Bitmap { .. } => metrics::Kind::Bitmap,
            Container::Runs(_) => metrics::Kind::Runs,
        }
    }

    /// Representation invariants of its form, and the bounds
    /// [`Container::from_sorted`] picks it by: an array holds at most
    /// [`ARRAY_MAX`] keys, a bitmap more, and runs cost under half the
    /// dense form.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        match self {
            Container::Array(v) => {
                if v.is_empty() {
                    return Err("empty array container".into());
                }
                if v.len() > ARRAY_MAX {
                    return Err(format!("array container holds {} > {ARRAY_MAX} keys", v.len()));
                }
                for w in v.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("array keys not increasing at {} >= {}", w[0], w[1]));
                    }
                }
            }
            Container::Bitmap { words, card } => {
                let real: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                if real != *card {
                    return Err(format!("bitmap cached card {card} != popcount {real}"));
                }
                if *card <= ARRAY_MAX {
                    return Err(format!("bitmap holds {card} <= {ARRAY_MAX} keys"));
                }
            }
            Container::Runs(r) => {
                if r.is_empty() {
                    return Err("empty runs container".into());
                }
                for &(s, e) in r {
                    if s > e {
                        return Err(format!("inverted run ({s}, {e})"));
                    }
                }
                for w in r.windows(2) {
                    if w[1].0 <= w[0].1 || w[1].0 - w[0].1 < 2 {
                        return Err(format!("runs {:?} and {:?} overlap or touch", w[0], w[1]));
                    }
                }
                if runs_bytes(r.len()) * 2 >= dense_bytes(self.card()) {
                    return Err(format!("{} runs cost at least half the dense form", r.len()));
                }
            }
        }
        Ok(())
    }
}

/// Linear-merge overlap count of two sorted arrays, galloping through the
/// larger when the sizes are badly skewed (mirrors `NumKeySet`).
fn overlap_array_array(a: &[u16], b: &[u16]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len() >= 16 {
        let mut lo = 0usize;
        let mut count = 0usize;
        for &k in small {
            match large[lo..].binary_search(&k) {
                Ok(p) => {
                    count += 1;
                    lo += p + 1;
                }
                Err(p) => lo += p,
            }
            if lo >= large.len() {
                break;
            }
        }
        return count;
    }
    let (mut i, mut j) = (0, 0);
    let mut count = 0usize;
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Overlap count of an interval set against a sorted array: each run
/// contributes `rank(end+1) - rank(start)` of the array, computed with a
/// moving lower bound so the whole pass is `O(runs · log card)`.
fn overlap_runs_array(runs: &[(u16, u16)], a: &[u16]) -> usize {
    let mut count = 0usize;
    let mut i = 0usize;
    for &(s, e) in runs {
        i += a[i..].partition_point(|&k| k < s);
        let j = i + a[i..].partition_point(|&k| k <= e);
        count += j - i;
        i = j;
        if i >= a.len() {
            break;
        }
    }
    count
}

/// Overlap count of two interval sets: sum of pairwise overlap lengths.
fn overlap_runs_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> usize {
    let mut count = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if s <= e {
            count += usize::from(e - s) + 1;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    count
}
