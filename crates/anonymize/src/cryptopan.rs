//! CryptoPAN prefix-preserving anonymization.
//!
//! The construction of Fan, Xu, Ammar & Moon: the anonymized address is
//! `addr XOR otp`, where bit `i` of the one-time pad is a pseudo-random
//! function of the *first `i` bits* of the address. Because bit `i` of the
//! output depends only on bits `0..=i` of the input, the map preserves
//! prefixes: inputs agreeing on their first `k` bits produce outputs
//! agreeing on their first `k` bits (and is a bijection, since bit `i` of
//! the output differs whenever bit `i` of the input differs under the same
//! prefix).

use crate::aes::{Aes128, WordPrf};

/// A keyed prefix-preserving anonymizer for IPv4 addresses.
pub struct CryptoPan {
    /// AES under the key's first half, as a one-bit PRF of block word 0
    /// with words 1..4 fixed to the encrypted padding block's.
    prf: WordPrf,
    /// Word 0 of the encrypted padding block: fills the unknown low bits.
    pad0: u32,
}

impl CryptoPan {
    /// Initialize from a 32-byte key: the first 16 bytes key the AES PRF,
    /// the second 16 bytes form the padding block (as in the reference
    /// implementation).
    pub fn new(key: &[u8; 32]) -> Self {
        // audit:allow(panic-path) — halving a fixed [u8; 32] key: infallible by construction
        let aes = Aes128::new(key[..16].try_into().expect("16-byte AES key"));
        // audit:allow(panic-path) — same fixed-size split as above
        let pad = aes.encrypt(key[16..].try_into().expect("16-byte pad"));
        let [pad0, w1, w2, w3] =
            [0, 4, 8, 12].map(|i| u32::from_be_bytes([pad[i], pad[i + 1], pad[i + 2], pad[i + 3]]));
        Self { prf: WordPrf::new(aes, [w1, w2, w3]), pad0 }
    }

    /// Compute the one-time pad for `addr`: bit `i` (from the MSB) depends
    /// only on the first `i` bits of `addr`.
    fn one_time_pad(&self, addr: u32) -> u32 {
        (0..32).fold(0, |otp, pos| (otp << 1) | self.pad_bit(addr, pos))
    }

    /// One pad bit in isolation: the bit at position `pos` (MSB-first) of
    /// the one-time pad, the top ciphertext bit of the block whose first
    /// `pos` bits are `addr`'s and whose remaining bits are the encrypted
    /// padding block's. It depends only on the first `pos` bits of `addr`.
    /// Every pad bit of the crate comes from here: [`Self::one_time_pad`],
    /// both inverses, and the memoized anonymizer's
    /// ([`crate::memo::MemoCryptoPan`]) prefix table and suffix bits, so
    /// the paths agree bit for bit.
    #[inline]
    pub(crate) fn pad_bit(&self, addr: u32, pos: u32) -> u32 {
        let mask = if pos == 0 { 0u32 } else { u32::MAX << (32 - pos) };
        self.prf.msb((addr & mask) | (self.pad0 & !mask))
    }

    /// Anonymize one address.
    ///
    /// With the `strict-invariants` feature enabled, every call verifies
    /// its own inverse (the defining prefix-preserving bijection survives
    /// round-tripping) at roughly 2× cost.
    pub fn anonymize(&self, addr: u32) -> u32 {
        let anon = addr ^ self.one_time_pad(addr);
        #[cfg(feature = "strict-invariants")]
        {
            if self.deanonymize(anon) != addr {
                // audit:allow(panic-path) — strict-invariants mode aborts on a broken bijection by contract
                panic!("CryptoPAn round-trip failed for {addr:#010x}");
            }
        }
        anon
    }

    /// Invert the anonymization bit-sequentially: since pad bit `i`
    /// depends only on *real* bits `0..i`, the real address can be
    /// recovered MSB-first.
    pub fn deanonymize(&self, anon: u32) -> u32 {
        let mut real = 0u32;
        for pos in 0..32 {
            let anon_bit = (anon >> (31 - pos)) & 1;
            real |= (anon_bit ^ self.pad_bit(real, pos)) << (31 - pos);
        }
        real
    }

    /// Anonymize a batch in place.
    pub fn anonymize_slice(&self, addrs: &mut [u32]) {
        for a in addrs.iter_mut() {
            *a = self.anonymize(*a);
        }
    }
}

/// Length of the common prefix of two addresses, in bits.
pub fn common_prefix_len(a: u32, b: u32) -> u32 {
    (a ^ b).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(seed: u8) -> CryptoPan {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = seed.wrapping_mul(31).wrapping_add(i as u8);
        }
        CryptoPan::new(&key)
    }

    #[test]
    fn pad_bit_is_the_top_bit_of_the_reference_block() {
        // The block of the reference construction, assembled byte by byte
        // and encrypted by the full cipher: the first `pos` bits of `addr`,
        // then the encrypted padding block's bits.
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = (i as u8).wrapping_mul(37) ^ 0x5C;
        }
        let c = CryptoPan::new(&key);
        let aes = Aes128::new(key[..16].try_into().unwrap());
        let pad = aes.encrypt(key[16..].try_into().unwrap());
        for addr in [0u32, u32::MAX, 0xC0A8_0001, 0x8000_0000, 0x0A01_0203, 0x1357_9BDF] {
            for pos in 0..32 {
                let mut block = pad;
                for bit in 0..pos as usize {
                    let (byte, shift) = (bit / 8, 7 - bit % 8);
                    let addr_bit = ((addr >> (31 - bit)) & 1) as u8;
                    block[byte] = (block[byte] & !(1 << shift)) | (addr_bit << shift);
                }
                let expect = u32::from(aes.encrypt(&block)[0] >> 7);
                assert_eq!(c.pad_bit(addr, pos), expect, "addr {addr:#010x} pos {pos}");
            }
        }
    }

    #[test]
    fn anonymize_deanonymize_round_trip() {
        let c = cp(1);
        for addr in [0u32, 1, 0xC0A80001, 0x0A000001, u32::MAX, 16843009] {
            assert_eq!(c.deanonymize(c.anonymize(addr)), addr);
        }
    }

    #[test]
    fn prefix_preservation_exact() {
        let c = cp(2);
        let pairs = [
            (0x0A010203u32, 0x0A010999u32), // same /16
            (0x0A010203, 0x0A010204),       // same /30
            (0x0A010203, 0xC0000001),       // differ at bit 0
            (0x80000000, 0x80000001),       // same /31
        ];
        for (a, b) in pairs {
            let k = common_prefix_len(a, b);
            let (ea, eb) = (c.anonymize(a), c.anonymize(b));
            assert_eq!(
                common_prefix_len(ea, eb),
                k,
                "common prefix must be exactly preserved for {a:#x},{b:#x}"
            );
        }
    }

    #[test]
    fn is_injective_on_a_sample() {
        let c = cp(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u32 {
            let addr = i.wrapping_mul(0x9E3779B9);
            assert!(seen.insert(c.anonymize(addr)), "collision at input {addr:#x}");
        }
    }

    #[test]
    fn different_keys_give_different_maps() {
        let (c1, c2) = (cp(4), cp(5));
        let addr = 0x08080808;
        assert_ne!(c1.anonymize(addr), c2.anonymize(addr));
    }

    #[test]
    fn anonymize_slice_matches_scalar() {
        let c = cp(6);
        let mut v = vec![1u32, 2, 3, 0xFFFF0000];
        let expect: Vec<u32> = v.iter().map(|&a| c.anonymize(a)).collect();
        c.anonymize_slice(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn anonymization_actually_changes_addresses() {
        let c = cp(7);
        let changed = (0..256u32).filter(|&a| c.anonymize(a << 24) != a << 24).count();
        assert!(changed > 250, "only {changed}/256 first-octets changed");
    }

    #[test]
    fn common_prefix_len_basics() {
        assert_eq!(common_prefix_len(0, 0), 32);
        assert_eq!(common_prefix_len(0, 1), 31);
        assert_eq!(common_prefix_len(0, 0x80000000), 0);
        assert_eq!(common_prefix_len(0xFF00FF00, 0xFF00FF00), 32);
    }
}
