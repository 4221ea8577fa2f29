//! AES-128 block cipher, encrypt direction.
//!
//! Implemented from the FIPS-197 specification: 10 rounds of
//! SubBytes/ShiftRows/MixColumns/AddRoundKey over a 4x4 byte state, with
//! the standard key schedule. Only encryption is provided — CryptoPAN uses
//! AES purely as a pseudo-random function, and its own inverse is computed
//! bit-sequentially rather than by block decryption.
//!
//! The state is held as four big-endian column words. Each of the nine
//! full rounds is sixteen lookups into four 256-entry `u32` T-tables that
//! fuse SubBytes, ShiftRows and MixColumns (4 KiB, built from `SBOX` by
//! a `const fn` at compile time); the last round uses the S-box alone.
//! `WordPrf` is the crate's one-bit view of the same cipher: the top
//! ciphertext bit of a block whose last 12 bytes are fixed, which is all
//! CryptoPAN reads. The byte-wise S-box cipher this replaced is the
//! differential oracle in `tests/aes_oracle.rs`. Allocation-free, *not*
//! constant-time (lookups are key- and data-dependent), and not for
//! protecting live secrets — its job here is research-data anonymization,
//! matching the paper's usage.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// The encryption T-tables. `TE[0][x]` is the MixColumns image of a column
/// holding `S[x]` in row 0 and zeros elsewhere, `(2·S[x], S[x], S[x],
/// 3·S[x])` as a big-endian word; `TE[k]` is the same for row `k`, i.e.
/// `TE[0]` rotated right by `8k` bits.
const fn t_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let w = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        t[0][x] = w;
        t[1][x] = w.rotate_right(8);
        t[2][x] = w.rotate_right(16);
        t[3][x] = w.rotate_right(24);
        x += 1;
    }
    t
}

/// The T-tables, computed at compile time.
static TE: [[u32; 256]; 4] = t_tables();

/// Byte `k` of a column word (row `k`, 0 = most significant), as an index.
#[inline(always)]
fn byte(w: u32, k: u32) -> usize {
    usize::from((w >> (24 - 8 * k)) as u8)
}

/// `SBOX` applied to row `k` of `w`, moved to row `k` of the result.
#[inline(always)]
fn sub_byte(w: u32, k: u32) -> u32 {
    u32::from(SBOX[byte(w, k)]) << (24 - 8 * k)
}

/// Column `c` of a full round before AddRoundKey: row `k` comes from
/// column `c + k` (ShiftRows), and the T-tables do SubBytes and MixColumns.
#[inline(always)]
fn column(s: &[u32; 4], c: usize) -> u32 {
    TE[0][byte(s[c], 0)]
        ^ TE[1][byte(s[(c + 1) % 4], 1)]
        ^ TE[2][byte(s[(c + 2) % 4], 2)]
        ^ TE[3][byte(s[(c + 3) % 4], 3)]
}

/// One full round: SubBytes, ShiftRows, MixColumns, AddRoundKey `k`.
#[inline(always)]
fn round(s: [u32; 4], k: [u32; 4]) -> [u32; 4] {
    [column(&s, 0) ^ k[0], column(&s, 1) ^ k[1], column(&s, 2) ^ k[2], column(&s, 3) ^ k[3]]
}

/// An expanded AES-128 key: the 44-word schedule `w` of FIPS-197 §5.2.
#[derive(Clone)]
pub struct Aes128 {
    w: [u32; 44],
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                let rot = temp.rotate_left(8);
                temp = sub_byte(rot, 0) | sub_byte(rot, 1) | sub_byte(rot, 2) | sub_byte(rot, 3);
                temp ^= u32::from(RCON[i / 4 - 1]) << 24;
            }
            w[i] = w[i - 4] ^ temp;
        }
        Self { w }
    }

    /// Round key `r`: schedule words `4r..4r + 4`.
    #[inline(always)]
    fn round_key(&self, r: usize) -> [u32; 4] {
        [self.w[4 * r], self.w[4 * r + 1], self.w[4 * r + 2], self.w[4 * r + 3]]
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let k = self.round_key(0);
        let mut s = [0u32; 4];
        for (c, (col, bytes)) in s.iter_mut().zip(block.chunks_exact(4)).enumerate() {
            *col = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ k[c];
        }
        for r in 1..10 {
            s = round(s, self.round_key(r));
        }
        let k = self.round_key(10);
        for (c, bytes) in block.chunks_exact_mut(4).enumerate() {
            let col = sub_byte(s[c], 0)
                | sub_byte(s[(c + 1) % 4], 1)
                | sub_byte(s[(c + 2) % 4], 2)
                | sub_byte(s[(c + 3) % 4], 3);
            bytes.copy_from_slice(&(col ^ k[c]).to_be_bytes());
        }
    }

    /// Encrypt a copy of a 16-byte block.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// AES-128 as a one-bit function of block word 0: the top bit of the
/// ciphertext of `word0 ‖ tail` for a fixed 12-byte `tail`.
///
/// Bit for bit the top bit of [`Aes128::encrypt`], with three savings.
/// Each round-1 output column reads exactly one byte of word 0, so the
/// other three lookups of every column and round key 1 fold into four
/// constants here. Only column 0 of round 9 feeds the top ciphertext
/// byte, and only byte 0 of round 10 holds the top bit.
pub(crate) struct WordPrf {
    aes: Aes128,
    /// Round 1's output columns with their word-0 lookup left out.
    round1: [u32; 4],
}

impl WordPrf {
    /// Fix words 1..4 of the block to `tail` under `aes`.
    pub(crate) fn new(aes: Aes128, tail: [u32; 3]) -> Self {
        let k = aes.round_key(0);
        // Round 1 with word 0 zero after AddRoundKey, then its word-0
        // lookups (of byte 0) taken out again.
        let mut round1 = round([0, tail[0] ^ k[1], tail[1] ^ k[2], tail[2] ^ k[3]], aes.round_key(1));
        for (c, col) in round1.iter_mut().enumerate() {
            *col ^= TE[(4 - c) % 4][0];
        }
        Self { aes, round1 }
    }

    /// The top ciphertext bit (0 or 1) of the block `word0 ‖ tail`.
    #[inline]
    pub(crate) fn msb(&self, word0: u32) -> u32 {
        // Column `c` of round 1 takes word 0's byte in row `(4 - c) % 4`.
        let x = word0 ^ self.aes.w[0];
        let mut s = [
            self.round1[0] ^ TE[0][byte(x, 0)],
            self.round1[1] ^ TE[3][byte(x, 3)],
            self.round1[2] ^ TE[2][byte(x, 2)],
            self.round1[3] ^ TE[1][byte(x, 1)],
        ];
        for r in 2..9 {
            s = round(s, self.aes.round_key(r));
        }
        let col0 = column(&s, 0) ^ self.aes.w[36];
        (sub_byte(col0, 0) ^ self.aes.w[40]) >> 31
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: AES-128 known answer test.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let expect: [u8; 16] = hex("69c4e0d86a7b0430d8cdb78070b4c55a").try_into().unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(&pt), expect);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B worked example.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let pt: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let expect: [u8; 16] = hex("3925841d02dc09fbdc118597196a0b32").try_into().unwrap();
        assert_eq!(Aes128::new(&key).encrypt(&pt), expect);
    }

    #[test]
    fn key_schedule_first_and_last_round_keys() {
        // FIPS-197 Appendix A.1 key expansion: w[40..44] for the 2b7e... key.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(aes.w[..4], [0x2b7e_1516, 0x28ae_d2a6, 0xabf7_1588, 0x09cf_4f3c]);
        assert_eq!(aes.w[40..], [0xd014_f9a8, 0xc9ee_2589, 0xe13f_0cc8, 0xb663_0ca6]);
    }

    #[test]
    fn encryption_is_deterministic_and_key_sensitive() {
        let pt = [0u8; 16];
        let a = Aes128::new(&[1; 16]).encrypt(&pt);
        let b = Aes128::new(&[1; 16]).encrypt(&pt);
        let c = Aes128::new(&[2; 16]).encrypt(&pt);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xtime_matches_gf256() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x80), 0x1b);
    }
}
