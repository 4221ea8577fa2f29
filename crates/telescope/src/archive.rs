//! Leaf-matrix archival and fault-tolerant restoration.
//!
//! "The CAIDA Telescope archives its trillions of collected packets at
//! the supercomputing center at Lawrence Berkeley National Laboratory
//! where the packets are aggregated into CryptoPAN anonymized GraphBLAS
//! traffic matrices of `N_V = 2^17` valid contiguous packets. The
//! `N_V = 2^30` traffic matrices used in this study are constructed by
//! hierarchically summing `2^13` of these smaller matrices."
//!
//! [`WindowArchive`] is that storage layer: a window is written leaf by
//! leaf, each leaf a contiguous run of packets compacted into a matrix
//! (optionally CryptoPAN-anonymized) — as it is captured
//! ([`capture_archive`]) or from a held window ([`archive_window`]) — and
//! leaf `i` is stored as a CRC-protected codec-v2 frame in slot `i` of a
//! [`MemMedium`] — the frame store the out-of-core fold spills to.
//!
//! [`restore`] reads every slot through the spill layer's bounded-retry
//! read, [`fetch_frame`]: transient faults are retried, a leaf that still
//! fails is quarantined, and every survivor is pushed as a leaf into the
//! caller's window fold ([`crate::matrix::window_fold`]), with a
//! [`RestoreReport`] accounting for every leaf and packet (the coverage
//! fraction the pipeline propagates into `PaperAnalysis`). A
//! [`crate::FaultPlan`] injures a restore the way it injures a spill
//! store: by wrapping the medium in a [`crate::FaultyMedium`].

use crate::capture::{TelescopeWindow, WindowCapture};
use crate::inventory::WindowTally;
use obscor_hypersparse::serialize::encode;
use obscor_hypersparse::spill::{fetch_frame, MemMedium, SpillMedium};
use obscor_hypersparse::{reduce, Coo, HierarchicalAccumulator};
use obscor_netmodel::scenario::CaidaWindowSpec;
use obscor_netmodel::Scenario;
use obscor_obs::FaultClass;
use obscor_pcap::Packet;

/// A window stored as encoded leaf matrices.
#[derive(Debug)]
pub struct WindowArchive {
    /// Table I window label.
    pub label: String,
    /// Packets per leaf.
    pub leaf_nv: usize,
    /// Valid packets the archived window held — the denominator of the
    /// restore coverage fraction (recorded at archive time because a
    /// corrupt leaf can no longer say how many packets it carried).
    pub total_packets: u64,
    /// Leaf `i`'s codec-v2 frame, in slot `i` (capture order).
    pub medium: MemMedium,
    /// Leaves archived: slots `0..n_leaves`.
    n_leaves: usize,
}

impl WindowArchive {
    /// An empty archive for the window labelled `label`, written
    /// `leaf_nv` packets per leaf by [`WindowArchive::push_leaf`].
    fn new(label: &str, leaf_nv: usize) -> Self {
        Self {
            label: label.to_owned(),
            leaf_nv,
            total_packets: 0,
            medium: MemMedium::new(),
            n_leaves: 0,
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Append the window's next leaf: compact `packets` (one unit triple
    /// per packet, indices through `map`), encode the leaf, and store it
    /// in the next slot.
    fn push_leaf(&mut self, packets: &[Packet], map: impl Fn(u32) -> u32) {
        let mut coo = Coo::with_capacity(packets.len());
        for p in packets {
            coo.push(map(p.src.0), map(p.dst.0), 1u64);
        }
        self.medium
            .store(self.n_leaves as u64, &encode(&coo.into_csr()))
            // audit:allow(panic-path) — an in-memory medium's store cannot fail
            .expect("in-memory store");
        self.n_leaves += 1;
        self.total_packets += packets.len() as u64;
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

/// Restore whatever `medium` holds of `archive` into `fold`: decode every
/// leaf slot through [`fetch_frame`] (retrying transient faults), push
/// each survivor into the fold as one leaf, and account for the rest.
/// `medium` is the archive's own [`WindowArchive::medium`] or a
/// fault-injecting wrapper over it. Never fails — a fully corrupt archive
/// pushes nothing and reports coverage 0.
pub fn restore(
    archive: &WindowArchive,
    medium: &dyn SpillMedium,
    fold: &mut HierarchicalAccumulator<u64>,
) -> RestoreReport {
    let _span = obscor_obs::span("telescope.restore_recovering");
    let n = archive.n_leaves;
    obscor_obs::counter("telescope.restore.leaves_total").add(n as u64);
    let transient_faults = obscor_obs::counter("telescope.restore.transient_faults_total");
    let mut report = RestoreReport {
        label: archive.label.clone(),
        n_leaves: n,
        recovered: 0,
        retries: 0,
        quarantined: Vec::new(),
        packets_expected: archive.total_packets,
        packets_restored: 0,
    };
    for index in 0..n {
        let (fetched, retries) = fetch_frame::<u64>(medium, index as u64);
        // Every retry answered a transient fault.
        transient_faults.add(u64::from(retries));
        report.retries += u64::from(retries);
        match fetched {
            Ok(leaf) => {
                report.recovered += usize::from(retries > 0);
                report.packets_restored += reduce::valid_packets(&leaf);
                fold.push_csr_leaf(leaf);
            }
            Err(fault) => {
                let class = fault.class();
                obscor_obs::counter(&format!("telescope.restore.{}_faults_total", class.as_str()))
                    .inc();
                let reason = fault.to_string();
                report.quarantined.push(QuarantinedLeaf { index, class, reason });
            }
        }
    }
    obscor_obs::counter("telescope.restore.retries_total").add(report.retries);
    obscor_obs::counter("telescope.restore.recovered_total").add(report.recovered as u64);
    obscor_obs::counter("telescope.restore.quarantined_total").add(report.quarantined.len() as u64);
    report
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
    let leaf_nv = w.packets().div_ceil(n_leaves);
    let mut archive = WindowArchive::new(&w.label, leaf_nv);
    for chunk in w.window.packets.chunks(leaf_nv.max(1)) {
        archive.push_leaf(chunk, &map);
    }
    archive
}

/// Capture `spec`'s window straight into its archive, with raw indices:
/// the window is cut into `leaves = N_V.div_ceil(leaf_capacity)` leaves of
/// `N_V.div_ceil(leaves)` packets (the last may be shorter) — the cut
/// [`archive_window`] makes of a held window into `leaves` leaves — and
/// each leaf is compacted, encoded and stored as soon as its packets have
/// been captured, so only one leaf's packets are ever held. Returns the
/// archive and the window's tally.
pub fn capture_archive(
    scenario: &Scenario,
    spec: &CaidaWindowSpec,
    leaf_capacity: usize,
) -> (WindowArchive, WindowTally) {
    let n_v = scenario.n_v;
    let leaf_nv = n_v.div_ceil(n_v.div_ceil(leaf_capacity).max(1));
    let mut archive = WindowArchive::new(&spec.label, leaf_nv);
    let octet = scenario.population.config.darkspace_octet;
    let mut capture = WindowCapture::new(scenario, spec, octet, leaf_nv);
    while let Some(packets) = capture.next_batch() {
        archive.push_leaf(packets, |ip| ip);
    }
    (archive, capture.finish())
}

/// Archive with raw indices.
pub fn archive_window(w: &TelescopeWindow, n_leaves: usize) -> WindowArchive {
    archive_window_with(w, n_leaves, |ip| ip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_window;
    use crate::faults::{FaultKind, FaultPlan, FaultyMedium};
    use crate::matrix;
    use obscor_anonymize::CryptoPan;
    use obscor_hypersparse::serialize::decode;
    use obscor_hypersparse::spill::MAX_ATTEMPTS;
    use obscor_hypersparse::Csr;
    use obscor_netmodel::Scenario;
    use std::sync::OnceLock;

    fn window() -> &'static TelescopeWindow {
        static W: OnceLock<TelescopeWindow> = OnceLock::new();
        W.get_or_init(|| {
            let s = Scenario::paper_scaled(1 << 14, 61);
            capture_window(&s, &s.caida_windows[0])
        })
    }

    /// Restore through `medium` into a fresh resident fold.
    fn restored(archive: &WindowArchive, medium: &dyn SpillMedium) -> (Csr<u64>, RestoreReport) {
        let (mut fold, _) = matrix::window_fold(archive.leaf_nv.max(1), None);
        let report = restore(archive, medium, &mut fold);
        (fold.finalize(), report)
    }

    /// Leaf `i`'s stored frame.
    fn frame(archive: &WindowArchive, i: usize) -> Vec<u8> {
        archive.medium.fetch(i as u64).unwrap()
    }

    #[test]
    fn restore_reproduces_the_window_matrix() {
        let w = window();
        let direct = matrix::build_matrix(w);
        for n_leaves in [1usize, 2, 8, 64] {
            let archive = archive_window(w, n_leaves);
            assert_eq!(archive.n_leaves(), n_leaves.min(w.packets()));
            assert_eq!(archive.total_packets, w.packets() as u64);
            let (m, report) = restored(&archive, &archive.medium);
            assert!(report.is_complete(), "n_leaves = {n_leaves}");
            assert_eq!(m, direct, "n_leaves = {n_leaves}");
        }
    }

    #[test]
    fn captured_archive_stores_the_held_windows_slots() {
        // Archiving while capturing cuts and encodes exactly as archiving
        // the held window into the fold's leaf count; at N_V = 5000 that
        // is 5 leaves of 1000 packets, not the fold's 1024.
        for (n_v, seed) in
            [(1 << 12, 42), (5000, 42), (1 << 15, 42), (1 << 12, 7), (5000, 7), (1 << 15, 7)]
        {
            let s = Scenario::paper_scaled(n_v, seed);
            let leaf_capacity = matrix::leaf_capacity_for(n_v);
            for spec in &s.caida_windows {
                let (streamed, tally) = capture_archive(&s, spec, leaf_capacity);
                let w = capture_window(&s, spec);
                let held = archive_window(&w, n_v.div_ceil(leaf_capacity));
                let at = format!("N_V {n_v}, seed {seed}, {}", spec.label);
                assert_eq!(streamed.label, held.label, "{at}");
                assert_eq!(streamed.leaf_nv, held.leaf_nv, "{at}");
                assert_eq!(streamed.total_packets, held.total_packets, "{at}");
                assert_eq!(streamed.n_leaves(), held.n_leaves(), "{at}");
                for i in 0..held.n_leaves() {
                    assert_eq!(frame(&streamed, i), frame(&held, i), "{at}, leaf {i}");
                }
                assert_eq!(tally.packets(), w.packets() as u64, "{at}");
            }
            if n_v == 5000 {
                let (a, _) = capture_archive(&s, &s.caida_windows[0], leaf_capacity);
                assert_eq!((a.n_leaves(), a.leaf_nv), (5, 1000));
            }
        }
    }

    #[test]
    fn leaves_partition_the_packets() {
        let w = window();
        let archive = archive_window(w, 16);
        let total: u64 = (0..archive.n_leaves())
            .map(|i| reduce::valid_packets(&decode::<u64>(&frame(&archive, i)).unwrap()))
            .sum();
        assert_eq!(total, w.packets() as u64);
    }

    #[test]
    fn anonymized_archive_preserves_quantities() {
        let w = window();
        let cp = CryptoPan::new(&[0x44u8; 32]);
        let archive = archive_window_with(w, 8, |ip| cp.anonymize(ip));
        let (anon, report) = restored(&archive, &archive.medium);
        assert!(report.is_complete());
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
        let archive = archive_window(w, 4);
        let mut bytes = frame(&archive, 2);
        bytes[0] ^= 0xFF; // smash the magic
        archive.medium.store(2, &bytes).unwrap();
        assert!(!restored(&archive, &archive.medium).1.is_complete());
    }

    #[test]
    fn archive_size_is_bounded_by_entries() {
        let w = window();
        let archive = archive_window(w, 8);
        // 16 bytes/entry + 28/leaf header; entries <= packets.
        let cap = 16 * w.packets() + archive.n_leaves() * 28;
        let size: usize = (0..archive.n_leaves()).map(|i| frame(&archive, i).len()).sum();
        assert!(size <= cap);
    }

    #[test]
    fn recovering_restore_on_clean_archive_is_exact_and_complete() {
        let w = window();
        let archive = archive_window(w, 16);
        let (m, report) = restored(&archive, &archive.medium);
        assert_eq!(m, matrix::build_matrix(w));
        assert!(report.is_complete());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.recovered, 0);
        report.check_invariants().unwrap();
    }

    #[test]
    fn transient_faults_recover_within_the_retry_budget() {
        let w = window();
        let archive = archive_window(w, 16);
        let plan = FaultPlan::with_kinds(9, 1.0, &[FaultKind::TransientRead]).unwrap();
        let (m, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
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
        let n_faulted = plan.assignments(&archive).iter().flatten().count();
        assert!(n_faulted > 0, "seed must fault at least one leaf");
        let faulty = FaultyMedium::new(&archive.medium, plan);
        let (m, report) = restored(&archive, &faulty);
        assert_eq!(report.quarantined.len(), n_faulted, "exactly the faulted leaves");
        assert!(report.quarantined.iter().all(|q| q.class == FaultClass::Permanent));
        assert!(report.coverage() < 1.0);
        assert!(reduce::valid_packets(&m) == report.packets_restored);
        report.check_invariants().unwrap();
        assert!(!report.is_complete());
    }

    #[test]
    fn truncation_exhausts_retries_then_quarantines_as_transient_class() {
        let w = window();
        let archive = archive_window(w, 8);
        let plan = FaultPlan::with_kinds(2, 1.0, &[FaultKind::Truncate]).unwrap();
        let (m, report) = restored(&archive, &FaultyMedium::new(&archive.medium, plan));
        assert_eq!(report.quarantined.len(), 8);
        assert!(report.quarantined.iter().all(|q| q.class == FaultClass::Transient));
        // Each truncated leaf burned every attempt: 3 retries after the
        // first.
        assert_eq!(MAX_ATTEMPTS, 4);
        assert_eq!(report.retries, 8 * 3);
        assert_eq!(report.packets_restored, 0);
        assert_eq!(m, Csr::empty());
        report.check_invariants().unwrap();
    }
}
