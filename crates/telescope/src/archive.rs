//! Leaf-matrix archival and fault-tolerant restoration.
//!
//! "The CAIDA Telescope archives its trillions of collected packets at
//! the supercomputing center at Lawrence Berkeley National Laboratory
//! where the packets are aggregated into CryptoPAN anonymized GraphBLAS
//! traffic matrices of `N_V = 2^17` valid contiguous packets. The
//! `N_V = 2^30` traffic matrices used in this study are constructed by
//! hierarchically summing `2^13` of these smaller matrices."
//!
//! [`WindowArchive`] is that storage layer: a captured window is split
//! into contiguous leaf matrices (optionally CryptoPAN-anonymized), each
//! serialized with the CRC-protected binary codec; restoration decodes
//! the leaves and re-sums them with a parallel merge tree, reproducing
//! the full window matrix bit for bit.
//!
//! [`RecoveringRestore`] reads leaves through the [`LeafSource`]
//! abstraction, retries *transient* faults with bounded backoff,
//! quarantines *permanently* corrupt leaves, and returns the best matrix
//! the surviving leaves support plus a [`RestoreReport`] accounting for
//! every leaf and packet (the coverage fraction the pipeline propagates
//! into `PaperAnalysis`). [`RecoveringRestore::restore_strict`] is the
//! fail-stop shape: any lost leaf is an error.

use crate::capture::TelescopeWindow;
use obscor_hypersparse::serialize::{decode, encode};
use obscor_hypersparse::{ops, reduce, Coo, Csr};
use obscor_obs::FaultClass;
use std::borrow::Cow;

/// A window stored as encoded leaf matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowArchive {
    /// Table I window label.
    pub label: String,
    /// Packets per leaf.
    pub leaf_nv: usize,
    /// Valid packets the archived window held — the denominator of the
    /// restore coverage fraction (recorded at archive time because a
    /// corrupt leaf can no longer say how many packets it carried).
    pub total_packets: u64,
    /// Serialized leaf matrices, in capture order.
    pub leaves: Vec<Vec<u8>>,
}

impl WindowArchive {
    /// Total serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        self.leaves.iter().map(|l| l.len()).sum()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }
}

/// A leaf store the restore path can read from: the clean
/// [`WindowArchive`] itself, or a fault-injecting wrapper
/// ([`crate::faults::FaultyArchive`]).
pub trait LeafSource: Sync {
    /// Table I window label of the archived window.
    fn label(&self) -> &str;
    /// Number of leaves the store holds (including unreadable ones).
    fn n_leaves(&self) -> usize;
    /// Valid packets the intact window held (coverage denominator).
    fn expected_packets(&self) -> u64;
    /// Read the encoded bytes of leaf `index`. May fail transiently
    /// (retry can succeed) or permanently (see [`LeafFault::class`]).
    fn read_leaf(&self, index: usize) -> Result<Cow<'_, [u8]>, LeafFault>;
}

impl LeafSource for WindowArchive {
    fn label(&self) -> &str {
        &self.label
    }

    fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    fn expected_packets(&self) -> u64 {
        self.total_packets
    }

    fn read_leaf(&self, index: usize) -> Result<Cow<'_, [u8]>, LeafFault> {
        self.leaves
            .get(index)
            .map(|b| Cow::Borrowed(b.as_slice()))
            .ok_or(LeafFault::Missing)
    }
}

/// A failed leaf *read* (the decode layer has its own
/// [`CodecError`](obscor_hypersparse::serialize::CodecError)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafFault {
    /// The read was interrupted; repeating it may succeed.
    TransientRead,
    /// The leaf is not in the store.
    Missing,
}

impl LeafFault {
    /// Classify for the retry/quarantine policy.
    pub fn class(&self) -> FaultClass {
        match self {
            LeafFault::TransientRead => FaultClass::Transient,
            LeafFault::Missing => FaultClass::Permanent,
        }
    }
}

impl std::fmt::Display for LeafFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeafFault::TransientRead => write!(f, "transient read failure"),
            LeafFault::Missing => write!(f, "leaf missing from store"),
        }
    }
}

impl std::error::Error for LeafFault {}

/// Bounded retry with exponential backoff for transient leaf faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per leaf (first try + retries), at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base << k`, in nanoseconds; 0 (the
    /// default) records the schedule without sleeping — deterministic
    /// tests, no wall-clock dependence.
    pub backoff_base_ns: u64,
    /// Ceiling on any single backoff, in nanoseconds.
    pub backoff_cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_base_ns: 0, backoff_cap_ns: 100_000_000 }
    }
}

impl RetryPolicy {
    /// Backoff scheduled before 0-based retry `retry`, in nanoseconds.
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        if self.backoff_base_ns == 0 {
            return 0;
        }
        self.backoff_base_ns
            .checked_shl(retry.min(32))
            .unwrap_or(self.backoff_cap_ns)
            .min(self.backoff_cap_ns)
    }
}

/// Why one leaf was quarantined during a recovering restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedLeaf {
    /// Leaf index in capture order.
    pub index: usize,
    /// Fault class of the *final* failure: [`FaultClass::Permanent`] for
    /// corrupt bytes, [`FaultClass::Transient`] for a transient fault
    /// that persisted past the retry budget.
    pub class: FaultClass,
    /// Human-readable rendering of the final error.
    pub reason: String,
}

/// Full accounting of one recovering restore.
#[derive(Clone, Debug, PartialEq)]
pub struct RestoreReport {
    /// Window label.
    pub label: String,
    /// Leaves the store declared.
    pub n_leaves: usize,
    /// Leaves decoded only after at least one retry.
    pub recovered: usize,
    /// Total retry attempts spent across all leaves.
    pub retries: u64,
    /// Leaves given up on, in leaf order.
    pub quarantined: Vec<QuarantinedLeaf>,
    /// Packets the intact window held.
    pub packets_expected: u64,
    /// Packets actually present in the restored matrix.
    pub packets_restored: u64,
}

impl RestoreReport {
    /// Leaves that made it into the restored matrix.
    pub fn n_restored(&self) -> usize {
        self.n_leaves - self.quarantined.len()
    }

    /// Fraction of the window's packets the restore recovered, in
    /// `[0, 1]`; an empty window counts as fully covered.
    pub fn coverage(&self) -> f64 {
        if self.packets_expected == 0 {
            1.0
        } else {
            self.packets_restored as f64 / self.packets_expected as f64
        }
    }

    /// True when nothing was lost (no quarantine, every packet back).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty() && self.packets_restored == self.packets_expected
    }

    /// Internal consistency of the accounting itself.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.quarantined.len() > self.n_leaves {
            return Err(format!(
                "{} leaves quarantined out of {}",
                self.quarantined.len(),
                self.n_leaves
            ));
        }
        if self.packets_restored > self.packets_expected {
            return Err(format!(
                "restored {} packets from a window of {}",
                self.packets_restored, self.packets_expected
            ));
        }
        if self.recovered > self.n_restored() {
            return Err(format!(
                "{} recovered leaves exceed {} restored",
                self.recovered,
                self.n_restored()
            ));
        }
        let mut last: Option<usize> = None;
        for q in &self.quarantined {
            if q.index >= self.n_leaves {
                return Err(format!("quarantined index {} out of {}", q.index, self.n_leaves));
            }
            if last.is_some_and(|p| p >= q.index) {
                return Err("quarantined leaves not in increasing leaf order".into());
            }
            last = Some(q.index);
        }
        if self.quarantined.is_empty() && self.packets_restored != self.packets_expected {
            return Err("no quarantine but packets missing".into());
        }
        Ok(())
    }
}

/// A complete window could not be restored under a strict policy.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedRestore {
    /// The accounting of the degraded restore (what survived, what did
    /// not, and why).
    pub report: RestoreReport,
}

impl std::fmt::Display for DegradedRestore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window `{}` restored degraded: {}/{} leaves, coverage {:.6}",
            self.report.label,
            self.report.n_restored(),
            self.report.n_leaves,
            self.report.coverage()
        )
    }
}

impl std::error::Error for DegradedRestore {}

/// How one leaf fared inside the restore loop.
enum LeafOutcome {
    Decoded { matrix: Csr<u64>, retries: u32 },
    Quarantined { retries: u32, class: FaultClass, reason: String },
}

/// Fault-tolerant window restoration: bounded retry for transient
/// faults, quarantine for permanent ones, full accounting either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveringRestore {
    /// Retry/backoff policy applied per leaf.
    pub policy: RetryPolicy,
}

impl RecoveringRestore {
    /// A restore under the given retry policy.
    pub fn new(policy: RetryPolicy) -> RecoveringRestore {
        RecoveringRestore { policy }
    }

    /// Restore whatever the source supports: decode every readable leaf
    /// (retrying transient faults), merge the survivors, and account for
    /// the rest. Never fails — a fully corrupt archive restores to the
    /// empty matrix with coverage 0.
    pub fn restore<S: LeafSource>(&self, source: &S) -> (Csr<u64>, RestoreReport) {
        use rayon::prelude::*;
        let _span = obscor_obs::span("telescope.restore_recovering");
        let n = source.n_leaves();
        obscor_obs::counter("telescope.restore.leaves_total").add(n as u64);
        let outcomes: Vec<LeafOutcome> =
            (0..n).into_par_iter().map(|i| self.restore_leaf(source, i)).collect();

        let mut matrices = Vec::with_capacity(n);
        let mut report = RestoreReport {
            label: source.label().to_string(),
            n_leaves: n,
            recovered: 0,
            retries: 0,
            quarantined: Vec::new(),
            packets_expected: source.expected_packets(),
            packets_restored: 0,
        };
        // Fault/backoff metrics are reconstructed here, after the barrier,
        // rather than recorded inside `restore_leaf`: the registry name
        // lookup takes a lock, and the leaf workers must stay lock-free
        // (blocking-in-par). The reconstruction is exact — every retried
        // fault is transient by construction, and the backoff schedule is
        // a pure function of the retry ordinal.
        let backoff_hist = obscor_obs::histogram("telescope.restore.backoff_ns");
        let transient_faults = obscor_obs::counter("telescope.restore.transient_faults_total");
        for (index, outcome) in outcomes.into_iter().enumerate() {
            let (retries, terminal) = match &outcome {
                LeafOutcome::Decoded { retries, .. } => (*retries, None),
                LeafOutcome::Quarantined { retries, class, .. } => (*retries, Some(*class)),
            };
            transient_faults.add(u64::from(retries));
            for r in 0..retries {
                backoff_hist.observe(self.policy.backoff_ns(r));
            }
            if let Some(class) = terminal {
                count_fault(class);
            }
            match outcome {
                LeafOutcome::Decoded { matrix, retries } => {
                    report.retries += u64::from(retries);
                    report.recovered += usize::from(retries > 0);
                    report.packets_restored += reduce::valid_packets(&matrix);
                    matrices.push(matrix);
                }
                LeafOutcome::Quarantined { retries, class, reason } => {
                    report.retries += u64::from(retries);
                    report.quarantined.push(QuarantinedLeaf { index, class, reason });
                }
            }
        }
        obscor_obs::counter("telescope.restore.retries_total").add(report.retries);
        obscor_obs::counter("telescope.restore.recovered_total").add(report.recovered as u64);
        obscor_obs::counter("telescope.restore.quarantined_total")
            .add(report.quarantined.len() as u64);
        (ops::merge_all(matrices), report)
    }

    /// Like [`RecoveringRestore::restore`], but refuse a degraded result:
    /// any quarantined leaf (or missing packet) is an error carrying the
    /// full report.
    pub fn restore_strict<S: LeafSource>(
        &self,
        source: &S,
    ) -> Result<(Csr<u64>, RestoreReport), DegradedRestore> {
        let (matrix, report) = self.restore(source);
        if report.is_complete() {
            Ok((matrix, report))
        } else {
            Err(DegradedRestore { report })
        }
    }

    /// Drive one leaf to a decoded matrix or a quarantine decision.
    ///
    /// Runs on rayon workers, so it deliberately records no metrics (the
    /// registry name lookup takes a lock); [`RecoveringRestore::restore`]
    /// reconstructs the fault and backoff metrics sequentially afterwards.
    fn restore_leaf<S: LeafSource>(&self, source: &S, index: usize) -> LeafOutcome {
        let mut retries = 0u32;
        loop {
            let fault: (FaultClass, String) = match source.read_leaf(index) {
                Err(e) => (e.class(), e.to_string()),
                Ok(bytes) => match decode::<u64>(&bytes) {
                    Ok(matrix) => return LeafOutcome::Decoded { matrix, retries },
                    Err(e) => (e.class(), e.to_string()),
                },
            };
            let attempts_left = fault.0.is_transient()
                && retries + 1 < self.policy.max_attempts.max(1);
            if !attempts_left {
                return LeafOutcome::Quarantined { retries, class: fault.0, reason: fault.1 };
            }
            let backoff = self.policy.backoff_ns(retries);
            if backoff > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(backoff));
            }
            retries += 1;
        }
    }
}

/// Count one observed fault under its class label
/// (`telescope.restore.transient_faults_total` / `…permanent…`).
fn count_fault(class: FaultClass) {
    obscor_obs::counter(&format!("telescope.restore.{}_faults_total", class.as_str())).inc();
}

/// Archive a window into `n_leaves` contiguous leaf matrices with an
/// optional index map (CryptoPAN anonymization).
///
/// # Panics
/// Panics if `n_leaves == 0`.
pub fn archive_window_with(
    w: &TelescopeWindow,
    n_leaves: usize,
    map: impl Fn(u32) -> u32,
) -> WindowArchive {
    assert!(n_leaves > 0, "need at least one leaf");
    let total = w.window.packets.len();
    let leaf_nv = total.div_ceil(n_leaves);
    let leaves = w
        .window
        .packets
        .chunks(leaf_nv.max(1))
        .map(|chunk| {
            let mut coo = Coo::with_capacity(chunk.len());
            for p in chunk {
                coo.push(map(p.src.0), map(p.dst.0), 1u64);
            }
            encode(&coo.into_csr())
        })
        .collect();
    WindowArchive { label: w.label.clone(), leaf_nv, total_packets: total as u64, leaves }
}

/// Archive with raw indices.
pub fn archive_window(w: &TelescopeWindow, n_leaves: usize) -> WindowArchive {
    archive_window_with(w, n_leaves, |ip| ip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_window;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::matrix;
    use obscor_anonymize::CryptoPan;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn window() -> &'static TelescopeWindow {
        static W: OnceLock<TelescopeWindow> = OnceLock::new();
        W.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 14, 61);
            capture_window(&s, &s.caida_windows[0])
        })
    }

    #[test]
    fn restore_reproduces_the_window_matrix() {
        let w = window();
        let direct = matrix::build_matrix(w);
        for n_leaves in [1usize, 2, 8, 64] {
            let archive = archive_window(w, n_leaves);
            assert_eq!(archive.n_leaves(), n_leaves.min(w.packets()));
            assert_eq!(archive.total_packets, w.packets() as u64);
            let (restored, _) = RecoveringRestore::default().restore_strict(&archive).unwrap();
            assert_eq!(restored, direct, "n_leaves = {n_leaves}");
        }
    }

    #[test]
    fn leaves_partition_the_packets() {
        let w = window();
        let archive = archive_window(w, 16);
        let total: u64 = archive
            .leaves
            .iter()
            .map(|b| reduce::valid_packets(&decode::<u64>(b).unwrap()))
            .sum();
        assert_eq!(total, w.packets() as u64);
    }

    #[test]
    fn anonymized_archive_preserves_quantities() {
        let w = window();
        let cp = CryptoPan::new(&[0x44u8; 32]);
        let archive = archive_window_with(w, 8, |ip| cp.anonymize(ip));
        let (anon, _) = RecoveringRestore::default().restore_strict(&archive).unwrap();
        let raw = matrix::build_matrix(w);
        assert_eq!(
            reduce::NetworkQuantities::compute(&anon),
            reduce::NetworkQuantities::compute(&raw)
        );
        assert_ne!(anon.row_keys(), raw.row_keys());
    }

    #[test]
    fn tampered_leaf_is_detected() {
        let w = window();
        let mut archive = archive_window(w, 4);
        archive.leaves[2][0] ^= 0xFF; // smash the magic
        assert!(RecoveringRestore::default().restore_strict(&archive).is_err());
    }

    #[test]
    fn archive_size_is_bounded_by_entries() {
        let w = window();
        let archive = archive_window(w, 8);
        // 16 bytes/entry + 28/leaf header; entries <= packets.
        let cap = 16 * w.packets() + archive.n_leaves() * 28;
        assert!(archive.byte_size() <= cap);
    }

    #[test]
    fn recovering_restore_on_clean_archive_is_exact_and_complete() {
        let w = window();
        let archive = archive_window(w, 16);
        let (m, report) =
            RecoveringRestore::default().restore(&archive);
        assert_eq!(m, matrix::build_matrix(w));
        assert!(report.is_complete());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.recovered, 0);
        report.check_invariants().unwrap();
        let strict = RecoveringRestore::default().restore_strict(&archive).unwrap();
        assert_eq!(strict.0, m);
    }

    #[test]
    fn transient_faults_recover_within_the_retry_budget() {
        let w = window();
        let archive = archive_window(w, 16);
        let plan = FaultPlan::with_kinds(9, 1.0, &[FaultKind::TransientRead]).unwrap();
        let faulty = plan.apply(&archive);
        let (m, report) = RecoveringRestore::default().restore(&faulty);
        assert_eq!(m, matrix::build_matrix(w), "transient-only plan must restore fully");
        assert!(report.is_complete());
        assert_eq!(report.recovered, 16, "every leaf needed retries");
        assert!(report.retries >= 16);
        report.check_invariants().unwrap();
    }

    #[test]
    fn permanent_faults_are_quarantined_not_fatal() {
        let w = window();
        let archive = archive_window(w, 16);
        let plan = FaultPlan::with_kinds(5, 0.5, &[FaultKind::BitFlip, FaultKind::Drop]).unwrap();
        let faulty = plan.apply(&archive);
        let n_faulted = faulty.n_faulted();
        assert!(n_faulted > 0, "seed must fault at least one leaf");
        let (m, report) = RecoveringRestore::default().restore(&faulty);
        assert_eq!(report.quarantined.len(), n_faulted, "exactly the faulted leaves");
        assert!(report.quarantined.iter().all(|q| q.class == FaultClass::Permanent));
        assert!(report.coverage() < 1.0);
        assert!(reduce::valid_packets(&m) == report.packets_restored);
        report.check_invariants().unwrap();
        assert!(RecoveringRestore::default().restore_strict(&faulty).is_err());
    }

    #[test]
    fn truncation_exhausts_retries_then_quarantines_as_transient_class() {
        let w = window();
        let archive = archive_window(w, 8);
        let plan = FaultPlan::with_kinds(2, 1.0, &[FaultKind::Truncate]).unwrap();
        let faulty = plan.apply(&archive);
        let policy = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let (m, report) = RecoveringRestore::new(policy).restore(&faulty);
        assert_eq!(report.quarantined.len(), 8);
        assert!(report.quarantined.iter().all(|q| q.class == FaultClass::Transient));
        // Each truncated leaf burned the full budget: 2 retries after the
        // first attempt.
        assert_eq!(report.retries, 8 * 2);
        assert_eq!(report.packets_restored, 0);
        assert_eq!(m, Csr::empty());
        report.check_invariants().unwrap();
    }

    #[test]
    fn degraded_restore_error_renders_coverage() {
        let w = window();
        let archive = archive_window(w, 4);
        let plan = FaultPlan::with_kinds(3, 1.0, &[FaultKind::Drop]).unwrap();
        let err = RecoveringRestore::default().restore_strict(&plan.apply(&archive)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("coverage 0.0"), "got: {text}");
        assert!(text.contains("0/4 leaves"), "got: {text}");
    }

    #[test]
    fn backoff_is_bounded_and_monotone() {
        let p = RetryPolicy { max_attempts: 8, backoff_base_ns: 100, backoff_cap_ns: 1_000 };
        assert_eq!(p.backoff_ns(0), 100);
        assert_eq!(p.backoff_ns(1), 200);
        assert_eq!(p.backoff_ns(5), 1_000, "capped");
        assert_eq!(p.backoff_ns(63), 1_000, "shift overflow capped");
        let zero = RetryPolicy::default();
        assert_eq!(zero.backoff_ns(7), 0, "default policy never sleeps");
    }
}
