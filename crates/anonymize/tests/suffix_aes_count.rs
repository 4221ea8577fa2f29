//! `anonymize.cache.suffix_aes_total` counts the AES calls the batch path
//! makes: `32 − max(16, L + 1)` per distinct address, where `L` is its
//! common prefix length with the previous distinct address in sorted
//! order. One test in its own binary, because the metrics level and the
//! registry are process-wide.

use obscor_anonymize::cryptopan::common_prefix_len;
use obscor_anonymize::MemoCryptoPan;
use obscor_obs::Level;

/// Run one batch and return its `(suffix_aes, prefix_hits, dup_hits)`
/// counter deltas.
fn counted(memo: &MemoCryptoPan, batch: &[u32]) -> (u64, u64, u64) {
    let before = obscor_obs::snapshot();
    memo.anonymize_slice(&mut batch.to_vec());
    let delta = obscor_obs::snapshot().delta_since(&before);
    let get = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    (
        get("anonymize.cache.suffix_aes_total"),
        get("anonymize.cache.prefix_hits_total"),
        get("anonymize.cache.batch_dup_hits_total"),
    )
}

#[test]
fn suffix_aes_total_counts_the_calls_a_sorted_slash24_batch_makes() {
    obscor_obs::set_level(Level::Detail);
    let memo = MemoCryptoPan::new(&[0x3Cu8; 32]);
    let net = 0xC0A8_0100u32;

    // Every host of the /24 in order: the first costs 16 calls, and host
    // `h` shares `31 − tz(h)` leading bits with `h − 1`, so it costs
    // `tz(h)`; the sum over 1..256 is 247.
    let full: Vec<u32> = (0..256).map(|h| net | h).collect();
    assert_eq!(counted(&memo, &full), (16 + 247, 256, 0));

    // A sorted sample of the /24 with duplicates, against the closed form.
    let mut sample: Vec<u32> = (0..96u32).map(|i| net | (i * 7 % 64 * 3)).collect();
    sample.sort_unstable();
    let mut distinct = sample.clone();
    distinct.dedup();
    assert!(distinct.len() < sample.len(), "the sample must hold duplicates");
    let expected: u64 = distinct
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let shared = if i == 0 { 0 } else { common_prefix_len(distinct[i - 1], a) };
            u64::from(32 - (shared + 1).max(16))
        })
        .sum();
    let dups = (sample.len() - distinct.len()) as u64;
    assert_eq!(counted(&memo, &sample), (expected, distinct.len() as u64, dups));

    // The scalar path still pays 16 calls per address.
    let before = obscor_obs::snapshot();
    memo.anonymize(net);
    let delta = obscor_obs::snapshot().delta_since(&before);
    assert_eq!(delta.counters["anonymize.cache.suffix_aes_total"], 16);
}
