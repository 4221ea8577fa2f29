//! LSD radix compaction kernel.
//!
//! Compacting a COO buffer is a sort-then-dedup problem over the packed
//! row-major key `(row << 32) | col` (see [`crate::keypack`]). The
//! comparison sort in [`crate::Coo::into_csr_serial`] pays `O(n log n)`
//! comparisons per leaf; this kernel replaces it with a least-significant-
//! digit radix sort over the key's byte digits:
//!
//! 1. **One counting sweep** builds all eight 256-entry digit histograms in
//!    a single pass over the keys, accumulated per chunk (the shape a real
//!    thread pool parallelizes; the vendored rayon executes it
//!    sequentially) and merged.
//! 2. **Digit passes** run least- to most-significant over only the *active*
//!    digits — digits where every key shares one byte value are skipped
//!    outright, which on real telescope traffic removes most of the eight
//!    passes (row indices are dense near zero, columns live in one /8).
//! 3. The **final scatter is fused with dedup-sum**: because all earlier
//!    passes are stable, equal keys arrive consecutively within their
//!    destination bucket, so the last pass can sum duplicates and drop
//!    zero-sums (GraphBLAS semantics) while it scatters, writing each
//!    bucket compacted in place.
//! 4. **Direct CSR assembly** walks the compacted buckets in order and
//!    builds the `row_keys`/`row_ptr`/`col_keys`/`vals` arrays without ever
//!    materializing an intermediate dedup'd triple `Vec`.
//!
//! The comparison path remains in `coo.rs` as the differential oracle
//! (`serial ≡ radix` property tests live in `tests/properties.rs`), and
//! [`crate::Coo::into_csr`] picks between the two at the fixed
//! [`crate::coo::RADIX_THRESHOLD`].
//!
//! Detail metrics (recorded only at `obscor_obs::Level::Detail`, so the
//! default metrics schema is untouched):
//!
//! * `hypersparse.radix.compactions_total` — kernel invocations
//! * `hypersparse.radix.keys_total` — triples ingested
//! * `hypersparse.radix.digit_passes_total` / `.skipped_digits_total` —
//!   scatter passes run vs. skipped as constant
//! * `span.hypersparse.radix.digit_passes.{ns,calls_total}` — scatter time

use rayon::prelude::*;

use crate::csr::Csr;
use crate::keypack::{pack_key, unpack_key};
use crate::value::Value;
use crate::Index;

/// Number of byte digits in a packed key.
const DIGITS: usize = 8;
/// Radix of one digit pass.
const RADIX: usize = 256;
/// Chunk size of the counting sweep (per-"thread" accumulation unit).
const COUNT_CHUNK: usize = 1 << 16;

/// Compact raw COO columns into a CSR matrix: radix-sort by packed key,
/// sum duplicate coordinates, drop zero sums, assemble CSR directly.
///
/// The result is bit-identical to the comparison-sort path
/// ([`crate::Coo::into_csr_serial`]); `into_csr` chooses between them.
pub fn compact_into_csr<V: Value>(rows: Vec<Index>, cols: Vec<Index>, vals: Vec<V>) -> Csr<V> {
    debug_assert_eq!(rows.len(), cols.len());
    debug_assert_eq!(rows.len(), vals.len());
    let n = rows.len();
    if n == 0 {
        return Csr::empty();
    }
    let mut src: Vec<(u64, V)> = rows
        .into_iter()
        .zip(cols)
        .zip(vals)
        .map(|((r, c), v)| (pack_key(r, c), v))
        .collect();

    let hist = digit_histograms(&src);
    let active: Vec<usize> =
        (0..DIGITS).filter(|&d| hist[d].iter().filter(|&&count| count > 0).count() > 1).collect();

    if obscor_obs::detail() {
        obscor_obs::counter("hypersparse.radix.compactions_total").inc();
        obscor_obs::counter("hypersparse.radix.keys_total").add(n as u64);
        obscor_obs::counter("hypersparse.radix.digit_passes_total").add(active.len() as u64);
        obscor_obs::counter("hypersparse.radix.skipped_digits_total")
            .add((DIGITS - active.len()) as u64);
    }

    let Some((&last_digit, earlier)) = active.split_last() else {
        // Every key is identical: the whole buffer folds to one entry.
        let (key, _) = src[0];
        let mut acc = V::zero();
        for &(_, v) in &src {
            acc += v;
        }
        if acc.is_zero() {
            return Csr::empty();
        }
        let (r, c) = unpack_key(key);
        return Csr::from_sorted_dedup_triples(vec![(r, c, acc)]);
    };

    let _scatter_span =
        obscor_obs::detail().then(|| obscor_obs::span("hypersparse.radix.digit_passes"));

    // Stable counting scatters over all but the most-significant active
    // digit. `dst` is pre-filled with placeholder pairs (never read before
    // being overwritten) so the scatter stays safe code.
    let mut dst: Vec<(u64, V)> = vec![(0u64, V::zero()); n];
    for &digit in earlier {
        let shift = digit * 8;
        let mut cursor = bucket_starts(&hist[digit]);
        for &(key, v) in &src {
            let b = digit_of(key, shift);
            dst[cursor[b]] = (key, v);
            cursor[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }

    // Final pass: scatter on the most-significant active digit, fusing the
    // duplicate-sum and zero-drop into the write. Earlier passes were
    // stable, so equal keys land consecutively within their bucket and a
    // single "last written key" comparison per bucket suffices.
    let shift = last_digit * 8;
    let starts = bucket_starts(&hist[last_digit]);
    let mut write = starts;
    for &(key, v) in &src {
        let b = digit_of(key, shift);
        if write[b] > starts[b] {
            let slot = write[b] - 1;
            if dst[slot].0 == key {
                dst[slot].1 += v;
                continue;
            }
            if dst[slot].1.is_zero() {
                // The previous run summed to zero: reuse its slot.
                dst[slot] = (key, v);
                continue;
            }
        }
        dst[write[b]] = (key, v);
        write[b] += 1;
    }
    // A bucket's trailing run can still have summed to zero.
    for b in 0..RADIX {
        if write[b] > starts[b] && dst[write[b] - 1].1.is_zero() {
            write[b] -= 1;
        }
    }
    drop(_scatter_span);

    assemble_csr(&dst, &starts, &write)
}

/// Walk the compacted buckets in digit order and build the CSR arrays
/// directly — no intermediate dedup'd triple `Vec`.
fn assemble_csr<V: Value>(
    compacted: &[(u64, V)],
    starts: &[usize; RADIX],
    write: &[usize; RADIX],
) -> Csr<V> {
    let nnz: usize = (0..RADIX).map(|b| write[b] - starts[b]).sum();
    if nnz == 0 {
        return Csr::empty();
    }
    let mut row_keys: Vec<Index> = Vec::new();
    let mut row_ptr: Vec<usize> = vec![0];
    let mut col_keys: Vec<Index> = Vec::with_capacity(nnz);
    let mut vals: Vec<V> = Vec::with_capacity(nnz);
    for b in 0..RADIX {
        for &(key, v) in &compacted[starts[b]..write[b]] {
            let (r, c) = unpack_key(key);
            match row_keys.last() {
                Some(&last) if last == r => {}
                Some(_) => {
                    row_ptr.push(col_keys.len());
                    row_keys.push(r);
                }
                None => row_keys.push(r),
            }
            col_keys.push(c);
            vals.push(v);
        }
    }
    row_ptr.push(col_keys.len());
    Csr::from_parts(row_keys, row_ptr, col_keys, vals)
}

/// All eight digit histograms in one sweep, accumulated per chunk and
/// merged (the per-thread shape of a counting pass).
fn digit_histograms<V: Value>(src: &[(u64, V)]) -> Vec<[usize; RADIX]> {
    src.par_chunks(COUNT_CHUNK)
        .map(|chunk| {
            let mut hist = vec![[0usize; RADIX]; DIGITS];
            for &(key, _) in chunk {
                for (d, h) in hist.iter_mut().enumerate() {
                    h[digit_of(key, d * 8)] += 1;
                }
            }
            hist
        })
        .fold(vec![[0usize; RADIX]; DIGITS], |mut acc, part| {
            for (a, p) in acc.iter_mut().zip(&part) {
                for (slot, add) in a.iter_mut().zip(p) {
                    *slot += add;
                }
            }
            acc
        })
}

/// Byte digit of `key` at bit offset `shift`.
#[inline]
fn digit_of(key: u64, shift: usize) -> usize {
    ((key >> shift) & 0xFF) as usize
}

/// Exclusive prefix sum of a digit histogram: bucket start offsets.
fn bucket_starts(hist: &[usize; RADIX]) -> [usize; RADIX] {
    let mut starts = [0usize; RADIX];
    let mut running = 0usize;
    for (b, &count) in hist.iter().enumerate() {
        starts[b] = running;
        running += count;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn via_radix(triples: Vec<(Index, Index, u64)>) -> Csr<u64> {
        let coo = Coo::from_triples(triples);
        coo.into_csr_radix()
    }

    #[test]
    fn empty_input_is_empty_csr() {
        let csr = compact_into_csr::<u64>(vec![], vec![], vec![]);
        assert!(csr.is_empty());
        csr.check_invariants().unwrap();
    }

    #[test]
    fn all_identical_keys_fold_to_one_entry() {
        let csr = via_radix(vec![(3, 4, 2); 10]);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(3, 4), Some(20));
        csr.check_invariants().unwrap();
    }

    #[test]
    fn all_identical_keys_cancelling_to_zero_is_empty() {
        let csr = compact_into_csr::<f64>(vec![7, 7], vec![9, 9], vec![2.5, -2.5]);
        assert!(csr.is_empty());
    }

    #[test]
    fn duplicates_sum_and_zeros_drop_per_bucket() {
        // Keys spanning several top-digit buckets, with a cancelling run in
        // the middle of one bucket and at the tail of another.
        let csr = compact_into_csr::<f64>(
            vec![1, 1, 1, 1, 2, 2, 0x0100_0000, 0x0100_0000],
            vec![5, 5, 9, 9, 1, 1, 3, 3],
            vec![1.0, -1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -6.0],
        );
        assert_eq!(csr.get(1, 5), None);
        assert_eq!(csr.get(1, 9), Some(5.0));
        assert_eq!(csr.get(2, 1), Some(9.0));
        assert_eq!(csr.get(0x0100_0000, 3), None);
        assert_eq!(csr.nnz(), 2);
        csr.check_invariants().unwrap();
    }

    #[test]
    fn matches_serial_oracle_on_pseudorandom_triples() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut triples = Vec::new();
        for _ in 0..60_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 40) as Index % 997;
            let c = (state >> 20) as Index % 991;
            triples.push((r, c, 1u64));
        }
        let serial = Coo::from_triples(triples.iter().copied()).into_csr_serial();
        let radix = via_radix(triples);
        assert_eq!(serial, radix);
        radix.check_invariants().unwrap();
    }

    #[test]
    fn full_range_keys_exercise_all_digits() {
        let triples = vec![
            (u32::MAX, u32::MAX, 1u64),
            (0, 0, 1),
            (u32::MAX, 0, 2),
            (0, u32::MAX, 3),
            (0x8000_0000, 0x7FFF_FFFF, 4),
            (u32::MAX, u32::MAX, 5),
        ];
        let serial = Coo::from_triples(triples.iter().copied()).into_csr_serial();
        let radix = via_radix(triples);
        assert_eq!(serial, radix);
        assert_eq!(radix.get(u32::MAX, u32::MAX), Some(6));
    }
}
