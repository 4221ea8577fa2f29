//! Memoized CryptoPAN: a precomputed prefix subtree for the top 16 bits.
//!
//! CryptoPAN's one-time pad bit `i` depends only on the first `i` address
//! bits, so the pads of all addresses sharing a 16-bit prefix agree on
//! their top 16 bits. [`MemoCryptoPan`] exploits this by walking the whole
//! 16-level prefix tree once per key — `2^0 + 2^1 + … + 2^15 = 65535` AES
//! invocations — and flattening the top-16 pad bits into a `2^16`-entry
//! table. A scalar [`MemoCryptoPan::anonymize`] then costs **one table
//! lookup plus 16 AES calls** (for bit positions 16..32) instead of 32.
//! [`MemoCryptoPan::anonymize_slice`] walks a batch in sorted order: a
//! duplicate costs nothing, and an address sharing `L ≥ 16` leading bits
//! with the previous distinct address takes that address's pad bits
//! `16..=L` and computes only bits `L+1..32`, `31 − L` AES calls.
//!
//! The memoized map is **bit-identical** to [`CryptoPan`]: every pad bit
//! of both comes from the same crate-private `CryptoPan::pad_bit`, and the
//! differential property suite (`tests/properties.rs`) pins
//! `memo ≡ uncached` over full-range and clustered address samples.
//!
//! Detail metrics (recorded only at `obscor_obs::Level::Detail`, keeping
//! the default metrics schema untouched):
//!
//! * `anonymize.cache.table_builds_total` — prefix tables built (per key)
//! * `anonymize.cache.prefix_hits_total` — addresses whose top-16 pad came
//!   from the table
//! * `anonymize.cache.suffix_aes_total` — AES calls spent on suffix bits
//!   (`32 − max(16, L + 1)` per distinct batch address, 16 per scalar call)
//! * `anonymize.cache.batch_dup_hits_total` — batch entries served by the
//!   previous identical address

use crate::cryptopan::{common_prefix_len, CryptoPan};

/// Number of prefix bits resolved by the flat table.
const TABLE_BITS: u32 = 16;

/// A [`CryptoPan`] with the top-16-bit pad subtree precomputed.
///
/// Construction costs 65535 AES calls; a scalar anonymization after that
/// costs 16 (vs. 32 uncached), and a batched one at most 16. Output is
/// bit-identical to the wrapped [`CryptoPan`] by construction.
pub struct MemoCryptoPan {
    inner: CryptoPan,
    /// `table[p]` holds pad bits 0..16 (MSB-first in the u16) shared by
    /// every address whose top 16 bits equal `p`.
    table: Vec<u16>,
}

impl MemoCryptoPan {
    /// Initialize from a 32-byte key (same key schedule as
    /// [`CryptoPan::new`]) and precompute the prefix table.
    pub fn new(key: &[u8; 32]) -> Self {
        Self::from_pan(CryptoPan::new(key))
    }

    /// Wrap an existing [`CryptoPan`], precomputing the prefix table.
    pub fn from_pan(inner: CryptoPan) -> Self {
        let mut table = vec![0u16; 1 << TABLE_BITS];
        // Level `i` of the prefix tree: one AES call per length-`i` prefix
        // fixes pad bit `i` for the whole subtree below it.
        for i in 0..TABLE_BITS {
            let prefixes = 1u32 << i;
            for q in 0..prefixes {
                let addr = if i == 0 { 0 } else { q << (32 - i) };
                if inner.pad_bit(addr, i) != 0 {
                    let bit = 1u16 << (15 - i);
                    let lo = (q << (TABLE_BITS - i)) as usize;
                    let hi = ((q + 1) << (TABLE_BITS - i)) as usize;
                    for entry in &mut table[lo..hi] {
                        *entry |= bit;
                    }
                }
            }
        }
        if obscor_obs::detail() {
            obscor_obs::counter("anonymize.cache.table_builds_total").inc();
        }
        Self { inner, table }
    }

    /// Pad bits `0..16` of `addr`, read from the table, in their pad
    /// positions (the top half of the pad word).
    fn table_pad(&self, addr: u32) -> u32 {
        u32::from(self.table[(addr >> TABLE_BITS) as usize]) << TABLE_BITS
    }

    /// Pad bits `from..32` of `addr`, one AES call each, in their pad
    /// positions (the low `32 - from` bits).
    fn suffix_pad(&self, addr: u32, from: u32) -> u32 {
        (from..32).fold(0, |lo, pos| (lo << 1) | self.inner.pad_bit(addr, pos))
    }

    /// `addr ^ pad`, verified to invert back to `addr` under the
    /// `strict-invariants` feature, mirroring the uncached path.
    fn checked_xor(&self, addr: u32, pad: u32) -> u32 {
        let anon = addr ^ pad;
        #[cfg(feature = "strict-invariants")]
        {
            if self.deanonymize(anon) != addr {
                // audit:allow(panic-path) — strict-invariants mode aborts on a broken bijection by contract
                panic!("memoized CryptoPAn round-trip failed for {addr:#010x}");
            }
        }
        anon
    }

    /// Anonymize one address: table lookup for the top 16 pad bits, 16 AES
    /// calls for the rest. Bit-identical to [`CryptoPan::anonymize`].
    ///
    /// With the `strict-invariants` feature enabled, every call verifies
    /// its own inverse, mirroring the uncached path.
    pub fn anonymize(&self, addr: u32) -> u32 {
        let pad = self.table_pad(addr) | self.suffix_pad(addr, TABLE_BITS);
        if obscor_obs::detail() {
            obscor_obs::counter("anonymize.cache.prefix_hits_total").inc();
            obscor_obs::counter("anonymize.cache.suffix_aes_total")
                .add(u64::from(32 - TABLE_BITS));
        }
        self.checked_xor(addr, pad)
    }

    /// Invert the anonymization: the top 16 real bits come from a walk of
    /// the prefix table (no AES at all), the rest bit-sequentially as in
    /// [`CryptoPan::deanonymize`].
    pub fn deanonymize(&self, anon: u32) -> u32 {
        let mut real = 0u32;
        for pos in 0..TABLE_BITS {
            // `real` holds the first `pos` recovered bits (rest zero), so
            // its top 16 bits index a table entry whose bit `15 - pos`
            // depends only on those recovered bits.
            let entry = self.table[(real >> TABLE_BITS) as usize];
            let pad_bit = u32::from((entry >> (15 - pos)) & 1);
            let anon_bit = (anon >> (31 - pos)) & 1;
            real |= (anon_bit ^ pad_bit) << (31 - pos);
        }
        for pos in TABLE_BITS..32 {
            let pad_bit = self.inner.pad_bit(real, pos);
            let anon_bit = (anon >> (31 - pos)) & 1;
            real |= (anon_bit ^ pad_bit) << (31 - pos);
        }
        real
    }

    /// Anonymize a batch in place. The batch is walked in address order,
    /// so a duplicate costs nothing and an address sharing `L ≥ 16`
    /// leading bits with the previous distinct one reuses that address's
    /// pad bits `0..=L` (pad bit `pos` depends only on address bits
    /// `0..pos`): it costs `31 - L` AES calls instead of 16. Results land
    /// in the original positions, bit-identical to [`Self::anonymize`].
    ///
    /// With the `strict-invariants` feature enabled, every distinct
    /// address is verified against its inverse, shared bits included.
    pub fn anonymize_slice(&self, addrs: &mut [u32]) {
        if addrs.len() < 2 {
            for a in addrs.iter_mut() {
                *a = self.anonymize(*a);
            }
            return;
        }
        let mut order: Vec<usize> = (0..addrs.len()).collect();
        order.sort_unstable_by_key(|&i| addrs[i]);
        let mut results = vec![0u32; addrs.len()];
        // The previous distinct address and its pad.
        let mut prev: Option<(u32, u32)> = None;
        let (mut distinct, mut dup_hits, mut suffix_aes) = (0u64, 0u64, 0u64);
        for &i in &order {
            let addr = addrs[i];
            results[i] = match prev {
                Some((p_addr, p_pad)) if p_addr == addr => {
                    dup_hits += 1;
                    addr ^ p_pad
                }
                _ => {
                    // Pad bits `0..from` are known: from the previous pad
                    // when the two share a /16 or longer, else the table.
                    let shared = prev.map_or(0, |(p_addr, _)| common_prefix_len(p_addr, addr));
                    let (known, from) = match prev {
                        Some((_, p_pad)) if shared >= TABLE_BITS => (p_pad, shared + 1),
                        _ => (self.table_pad(addr), TABLE_BITS),
                    };
                    let pad = (known & (u32::MAX << (32 - from))) | self.suffix_pad(addr, from);
                    distinct += 1;
                    suffix_aes += u64::from(32 - from);
                    prev = Some((addr, pad));
                    self.checked_xor(addr, pad)
                }
            };
        }
        addrs.copy_from_slice(&results);
        if obscor_obs::detail() {
            obscor_obs::counter("anonymize.cache.prefix_hits_total").add(distinct);
            obscor_obs::counter("anonymize.cache.suffix_aes_total").add(suffix_aes);
            if dup_hits > 0 {
                obscor_obs::counter("anonymize.cache.batch_dup_hits_total").add(dup_hits);
            }
        }
    }

    /// Borrow the wrapped uncached anonymizer (the differential oracle).
    pub fn uncached(&self) -> &CryptoPan {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u8) -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = seed.wrapping_mul(31).wrapping_add(i as u8);
        }
        k
    }

    fn sample_addrs() -> Vec<u32> {
        let mut v: Vec<u32> =
            vec![0, 1, 0xFFFF_FFFF, 0x8000_0000, 0x7FFF_FFFF, 0x0A01_0203, 0x0A01_0204];
        // Deterministic full-range sample.
        v.extend((0..2048u32).map(|i| i.wrapping_mul(0x9E37_79B9)));
        v
    }

    #[test]
    fn memo_is_bit_identical_to_uncached() {
        let memo = MemoCryptoPan::new(&key(1));
        let plain = CryptoPan::new(&key(1));
        for addr in sample_addrs() {
            assert_eq!(
                memo.anonymize(addr),
                plain.anonymize(addr),
                "memoized path diverged at {addr:#010x}"
            );
        }
    }

    #[test]
    fn memo_round_trips() {
        let memo = MemoCryptoPan::new(&key(2));
        for addr in sample_addrs() {
            assert_eq!(memo.deanonymize(memo.anonymize(addr)), addr);
        }
    }

    #[test]
    fn memo_deanonymize_inverts_uncached() {
        let memo = MemoCryptoPan::new(&key(3));
        let plain = CryptoPan::new(&key(3));
        for addr in sample_addrs() {
            assert_eq!(memo.deanonymize(plain.anonymize(addr)), addr);
        }
    }

    #[test]
    fn slice_matches_scalar_and_handles_duplicates() {
        let memo = MemoCryptoPan::new(&key(4));
        let mut v = vec![5u32, 5, 1, 0xFFFF_0000, 1, 5, 0];
        let expect: Vec<u32> = v.iter().map(|&a| memo.anonymize(a)).collect();
        memo.anonymize_slice(&mut v);
        assert_eq!(v, expect);

        let mut empty: Vec<u32> = vec![];
        memo.anonymize_slice(&mut empty);
        let mut one = vec![42u32];
        memo.anonymize_slice(&mut one);
        assert_eq!(one[0], memo.anonymize(42));
    }

    #[test]
    fn from_pan_equals_new() {
        let a = MemoCryptoPan::new(&key(5));
        let b = MemoCryptoPan::from_pan(CryptoPan::new(&key(5)));
        for addr in [0u32, 99, 0xDEAD_BEEF] {
            assert_eq!(a.anonymize(addr), b.anonymize(addr));
        }
        assert_eq!(a.uncached().anonymize(7), b.uncached().anonymize(7));
    }
}
