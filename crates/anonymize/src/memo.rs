//! Memoized CryptoPAN: a precomputed prefix subtree for the top 16 bits.
//!
//! CryptoPAN's one-time pad bit `i` depends only on the first `i` address
//! bits, so the pads of all addresses sharing a 16-bit prefix agree on
//! their top 16 bits. [`MemoCryptoPan`] exploits this by walking the whole
//! 16-level prefix tree once per key — `2^0 + 2^1 + … + 2^15 = 65535` AES
//! invocations — and flattening the top-16 pad bits into a `2^16`-entry
//! table. Each subsequent address then costs **one table lookup plus 16 AES
//! calls** (for bit positions 16..32) instead of 32 AES calls, and
//! [`MemoCryptoPan::anonymize_slice`] sorts batches so duplicate addresses
//! cost nothing and neighbours walk the table cache-resident.
//!
//! The memoized map is **bit-identical** to [`CryptoPan`]: both are built
//! from the same [`CryptoPan::pad_bit`] block construction, and the
//! differential property suite (`tests/properties.rs`) pins
//! `memo ≡ uncached` over full-range address samples.
//!
//! Detail metrics (recorded only at `obscor_obs::Level::Detail`, keeping
//! the default metrics schema untouched):
//!
//! * `anonymize.cache.table_builds_total` — prefix tables built (per key)
//! * `anonymize.cache.prefix_hits_total` — addresses whose top-16 pad came
//!   from the table
//! * `anonymize.cache.suffix_aes_total` — AES calls spent on suffix bits
//! * `anonymize.cache.batch_dup_hits_total` — batch entries served by the
//!   previous identical address

use crate::cryptopan::CryptoPan;

/// Number of prefix bits resolved by the flat table.
const TABLE_BITS: u32 = 16;

/// A [`CryptoPan`] with the top-16-bit pad subtree precomputed.
///
/// Construction costs 65535 AES calls; every anonymization after that
/// costs 16 (vs. 32 uncached). Output is bit-identical to the wrapped
/// [`CryptoPan`] by construction.
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

    /// Anonymize one address: table lookup for the top 16 pad bits, 16 AES
    /// calls for the rest. Bit-identical to [`CryptoPan::anonymize`].
    ///
    /// With the `strict-invariants` feature enabled, every call verifies
    /// its own inverse, mirroring the uncached path.
    pub fn anonymize(&self, addr: u32) -> u32 {
        let hi = u32::from(self.table[(addr >> TABLE_BITS) as usize]);
        let mut lo = 0u32;
        for pos in TABLE_BITS..32 {
            lo = (lo << 1) | self.inner.pad_bit(addr, pos);
        }
        if obscor_obs::detail() {
            obscor_obs::counter("anonymize.cache.prefix_hits_total").inc();
            obscor_obs::counter("anonymize.cache.suffix_aes_total")
                .add(u64::from(32 - TABLE_BITS));
        }
        let anon = addr ^ ((hi << TABLE_BITS) | lo);
        #[cfg(feature = "strict-invariants")]
        {
            if self.deanonymize(anon) != addr {
                // audit:allow(panic-path) — strict-invariants mode aborts on a broken bijection by contract
                panic!("memoized CryptoPAn round-trip failed for {addr:#010x}");
            }
        }
        anon
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

    /// Anonymize a batch in place, sorted by address so that duplicate
    /// addresses are anonymized once and neighbouring prefixes walk the
    /// table cache-resident. Results land in the original positions.
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
        let mut prev: Option<(u32, u32)> = None;
        let mut dup_hits = 0u64;
        for &i in &order {
            let addr = addrs[i];
            let anon = match prev {
                Some((p_addr, p_anon)) if p_addr == addr => {
                    dup_hits += 1;
                    p_anon
                }
                _ => self.anonymize(addr),
            };
            prev = Some((addr, anon));
            results[i] = anon;
        }
        addrs.copy_from_slice(&results);
        if obscor_obs::detail() && dup_hits > 0 {
            obscor_obs::counter("anonymize.cache.batch_dup_hits_total").add(dup_hits);
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
