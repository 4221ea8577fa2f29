//! Conformance with the Crypto-PAn 1.0 reference distribution (Fan, Xu,
//! Ammar & Moon): its sample key and the first 20 pairs of its sample
//! trace, checked through every public anonymization entry point.

use obscor_anonymize::sharing::Holder;
use obscor_anonymize::{CryptoPan, MemoCryptoPan};
use std::net::Ipv4Addr;

/// The reference distribution's sample key.
const KEY: [u8; 32] = [
    21, 34, 23, 141, 51, 164, 207, 128, 19, 10, 91, 22, 73, 144, 125, 16, 216, 152, 143, 131, 121,
    121, 101, 39, 98, 87, 76, 45, 42, 132, 34, 2,
];

/// `(raw, anonymized)`: the first 20 lines of the reference sample trace.
const PAIRS: [(&str, &str); 20] = [
    ("128.11.68.132", "135.242.180.132"),
    ("129.118.74.4", "134.136.186.123"),
    ("130.132.252.244", "133.68.164.234"),
    ("141.223.7.43", "141.167.8.160"),
    ("141.233.145.108", "141.129.237.235"),
    ("152.163.225.39", "151.140.114.167"),
    ("156.29.3.236", "147.225.12.42"),
    ("165.247.96.84", "162.9.99.234"),
    ("166.107.77.190", "160.132.178.185"),
    ("192.102.249.13", "252.138.62.131"),
    ("192.215.32.125", "252.43.47.189"),
    ("192.233.80.103", "252.25.108.8"),
    ("192.41.57.43", "252.222.221.184"),
    ("193.150.244.223", "253.169.52.216"),
    ("195.205.63.100", "255.186.223.5"),
    ("198.200.171.101", "249.199.68.213"),
    ("198.26.132.101", "249.36.123.202"),
    ("198.36.213.5", "249.7.21.132"),
    ("198.51.77.238", "249.18.186.254"),
    ("199.217.79.101", "248.38.184.213"),
];

fn ip(s: &str) -> u32 {
    u32::from(s.parse::<Ipv4Addr>().expect("reference pair is a dotted quad"))
}

fn raw_and_anon() -> (Vec<u32>, Vec<u32>) {
    PAIRS.iter().map(|&(r, a)| (ip(r), ip(a))).unzip()
}

#[test]
fn cryptopan_matches_the_reference_pairs() {
    let cp = CryptoPan::new(&KEY);
    for &(r, a) in &PAIRS {
        assert_eq!(Ipv4Addr::from(cp.anonymize(ip(r))).to_string(), a, "anonymize {r}");
        assert_eq!(Ipv4Addr::from(cp.deanonymize(ip(a))).to_string(), r, "deanonymize {a}");
    }
}

#[test]
fn memo_matches_the_reference_pairs() {
    let memo = MemoCryptoPan::new(&KEY);
    let (raw, anon) = raw_and_anon();
    for (&r, &a) in raw.iter().zip(&anon) {
        assert_eq!(memo.anonymize(r), a, "anonymize {}", Ipv4Addr::from(r));
        assert_eq!(memo.deanonymize(a), r, "deanonymize {}", Ipv4Addr::from(a));
    }
    let mut batch = raw.clone();
    memo.anonymize_slice(&mut batch);
    assert_eq!(batch, anon);
    // Sorted, with duplicates: the batch path walks neighbours in order.
    let mut sorted: Vec<(u32, u32)> = raw.iter().copied().zip(anon.iter().copied()).collect();
    sorted.extend_from_within(..5);
    sorted.sort_unstable();
    let mut batch: Vec<u32> = sorted.iter().map(|p| p.0).collect();
    memo.anonymize_slice(&mut batch);
    assert_eq!(batch, sorted.iter().map(|p| p.1).collect::<Vec<_>>());
}

#[test]
fn holder_publishes_the_reference_pairs() {
    let (raw, anon) = raw_and_anon();
    assert_eq!(Holder::new("reference", &KEY).publish(&raw), anon);
}
