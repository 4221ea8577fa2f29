//! Prefix-preserving IP anonymization and trusted-sharing workflows.
//!
//! The CAIDA Telescope archives CryptoPAN-anonymized traffic matrices
//! (Fan, Xu, Ammar & Moon, *Computer Networks* 2004). CryptoPAN maps IPv4
//! addresses through a keyed bijection that preserves prefixes: two
//! addresses share a `k`-bit anonymized prefix exactly when they share a
//! `k`-bit real prefix, so subnet structure survives anonymization while
//! identities do not.
//!
//! * [`aes`] — a from-scratch T-table AES-128 block cipher (encrypt
//!   direction, which is all CryptoPAN needs), validated against the
//!   FIPS-197 vectors and a byte-wise S-box oracle in the test tree,
//! * [`cryptopan`] — the prefix-preserving anonymizer and its sequential
//!   inverse; every pad bit is one call of a one-bit AES kernel that
//!   computes only what the ciphertext's top bit needs,
//! * [`memo`] — a memoized anonymizer that precomputes the top-16-bit
//!   prefix subtree into a flat table (16 AES calls per address instead of
//!   32; fewer in sorted batches, where neighbours share pad bits past bit
//!   16; bit-identical output), used by the capture fast path,
//! * [`sharing`] — the three correlation workflows for anonymized data the
//!   paper lists: send-back deanonymization, a common third scheme, and a
//!   transformation table.
//!
//! ```
//! use obscor_anonymize::cryptopan::CryptoPan;
//!
//! let cp = CryptoPan::new(&[7u8; 32]);
//! let a = cp.anonymize(u32::from_be_bytes([10, 1, 2, 3]));
//! let b = cp.anonymize(u32::from_be_bytes([10, 1, 9, 9]));
//! // Same /16 in, same /16 out:
//! assert_eq!(a >> 16, b >> 16);
//! assert_eq!(cp.deanonymize(a), u32::from_be_bytes([10, 1, 2, 3]));
//! ```

pub mod aes;
pub mod cryptopan;
pub mod memo;
pub mod sharing;

pub use cryptopan::CryptoPan;
pub use memo::MemoCryptoPan;
