//! `Coo::into_csr` switches kernels at the fixed `RADIX_THRESHOLD`: the
//! radix kernel from 512 triples up, the serial sort below, the same in
//! every process. A binary of its own, because it enables the
//! process-global radix metrics and reads their deltas.

use obscor_hypersparse::coo::RADIX_THRESHOLD;
use obscor_hypersparse::{radix, reduce, Coo};

/// Radix-kernel invocations while compacting `n` duplicate-heavy triples.
fn radix_compactions(n: u32) -> u64 {
    let before = obscor_obs::snapshot();
    let csr = Coo::from_triples((0..n).map(|i| (i % 97, i % 89, 1u64))).into_csr();
    assert_eq!(reduce::valid_packets(&csr), u64::from(n));
    let delta = obscor_obs::snapshot().delta_since(&before);
    delta.counters.get("hypersparse.radix.compactions_total").copied().unwrap_or(0)
}

#[test]
fn into_csr_takes_the_radix_kernel_from_512_triples() {
    assert_eq!(RADIX_THRESHOLD, 512);
    radix::enable_metrics();
    assert_eq!(radix_compactions(511), 0, "511 triples take the serial sort");
    assert_eq!(radix_compactions(512), 1, "512 triples take the radix kernel");
    assert_eq!(radix_compactions(1024), 1, "a 1024-triple leaf takes the radix kernel");
}
