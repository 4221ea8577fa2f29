//! Digests and process memory readings.

use obscor_stats::summary::median;

/// 64-bit FNV-1a digest of `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset `VmHWM` to the current RSS, so the next [`peak_rss_mb`] is the
/// peak of one phase alone. `false` where the kernel forbids it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `f` with the peak-RSS watermark reset before it: its result and
/// the process's peak RSS while it ran, in MiB; `None` where the
/// watermark cannot be reset.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, Option<f64>) {
    let reset = reset_peak_rss();
    let r = f();
    (r, if reset { peak_rss_mb() } else { None })
}

/// The median of the timed units' peaks from [`with_peak_rss`], or the
/// process's peak where a unit's could not be taken.
pub fn median_peak_rss_mb(peaks: &[Option<f64>]) -> f64 {
    let peaks: Option<Vec<f64>> = peaks.iter().copied().collect();
    peaks
        .and_then(|p| median(&p))
        .or_else(peak_rss_mb)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
