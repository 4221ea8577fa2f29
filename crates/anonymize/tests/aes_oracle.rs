//! The byte-wise S-box AES-128 that the library's T-table cipher replaced,
//! kept here as its differential oracle, and CryptoPAN rebuilt on top of
//! that oracle block by block.

use obscor_anonymize::aes::Aes128;
use obscor_anonymize::CryptoPan;

/// FIPS-197 AES-128 (encrypt direction) on a column-major 4x4 byte state:
/// byte `state[4c + r]` is row `r`, column `c`.
mod sbox_aes {
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
    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
    }

    /// An expanded AES-128 key (11 round keys of 16 bytes).
    pub struct Aes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl Aes128 {
        /// Expand a 16-byte key.
        pub fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / 4 - 1];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for r in 0..11 {
                for c in 0..4 {
                    round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            Self { round_keys }
        }

        /// Encrypt a copy of a 16-byte block.
        pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[10]);
            state
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// ShiftRows rotates row `r` left by `r`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[c * 4], state[c * 4 + 1], state[c * 4 + 2], state[c * 4 + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                state[c * 4 + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    }
}

/// A deterministic xorshift64 stream.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn bytes<const N: usize>(next: &mut impl FnMut() -> u64) -> [u8; N] {
    let mut b = [0u8; N];
    b.iter_mut().for_each(|b| *b = next() as u8);
    b
}

fn hex(s: &str) -> [u8; 16] {
    let v: Vec<u8> = (0..32).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect();
    v.try_into().unwrap()
}

#[test]
fn oracle_meets_the_fips197_vectors() {
    for (key, pt, ct) in [
        // Appendix C.1 and the Appendix B worked example.
        ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"),
    ] {
        assert_eq!(sbox_aes::Aes128::new(&hex(key)).encrypt(&hex(pt)), hex(ct));
    }
}

#[test]
fn t_table_cipher_equals_the_sbox_oracle() {
    let mut next = stream(0x0DDB_1A5E_5BAD_5EED);
    for _ in 0..128 {
        let key: [u8; 16] = bytes(&mut next);
        let (fast, oracle) = (Aes128::new(&key), sbox_aes::Aes128::new(&key));
        for _ in 0..1024 {
            let block: [u8; 16] = bytes(&mut next);
            assert_eq!(fast.encrypt(&block), oracle.encrypt(&block), "key {key:02x?} block {block:02x?}");
        }
    }
}

/// CryptoPAN's pad bit `pos` for `addr`, built on the oracle exactly as the
/// reference implementation builds it: the first `pos` bits of `addr`, the
/// rest from the encrypted padding block, and the top ciphertext bit.
fn oracle_pad_bit(aes: &sbox_aes::Aes128, pad: &[u8; 16], addr: u32, pos: u32) -> u32 {
    let mut block = *pad;
    for bit in 0..pos {
        let (byte, shift) = ((bit / 8) as usize, 7 - bit % 8);
        let addr_bit = ((addr >> (31 - bit)) & 1) as u8;
        block[byte] = (block[byte] & !(1 << shift)) | (addr_bit << shift);
    }
    u32::from(aes.encrypt(&block)[0] >> 7)
}

#[test]
fn cryptopan_equals_the_oracle_construction() {
    let mut next = stream(0xC0FF_EE15_600D_CAFE);
    for _ in 0..16 {
        let key: [u8; 32] = bytes(&mut next);
        let cp = CryptoPan::new(&key);
        let aes = sbox_aes::Aes128::new(key[..16].try_into().unwrap());
        let pad = aes.encrypt(key[16..].try_into().unwrap());
        for _ in 0..32 {
            let addr = next() as u32;
            let otp = (0..32).fold(0, |otp, pos| (otp << 1) | oracle_pad_bit(&aes, &pad, addr, pos));
            assert_eq!(cp.anonymize(addr), addr ^ otp, "addr {addr:#010x}");
            assert_eq!(cp.deanonymize(addr ^ otp), addr);
        }
    }
}
