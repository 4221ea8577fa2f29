//! Seeded, deterministic fault injection for stored frames.
//!
//! The production archive path ("trillions of packets at LBNL") must
//! survive storage realities: truncated objects, flipped bits, missing
//! leaves, and reads that fail once and succeed on retry. This module
//! turns those realities into a reproducible test instrument: a
//! [`FaultPlan`] is a pure function of `(seed, rate)` that assigns at most
//! one [`Fault`] to each slot of a [`SpillMedium`] — a leaf of a
//! [`WindowArchive`], or a carry part the out-of-core fold spilled — and
//! [`FaultyMedium`] wraps the medium so its reads misbehave exactly as
//! planned. [`FaultPlan::for_window`] gives each window of a run its own
//! plan, so windows do not all lose the same leaves:
//!
//! * [`Fault::Truncate`] — the stored frame loses its tail; every decode
//!   sees a short read (transient *class*, but persistent — bounded retry
//!   runs it into quarantine).
//! * [`Fault::BitFlip`] — one bit past the magic flips; the v2 CRC (or
//!   length prefix) catches it, a permanent fault.
//! * [`Fault::Drop`] — the frame is gone; reads fail permanently.
//! * [`Fault::TransientRead`] — the first `failures` reads fail
//!   transiently, then the clean bytes come back: the scheduled-recovery
//!   case bounded retry must win.
//!
//! Determinism is load-bearing: the differential suite in
//! `tests/fault_recovery.rs` replays plans by seed and asserts the restore
//! is byte-identical across runs.

use crate::archive::WindowArchive;
use obscor_hypersparse::spill::{SpillFault, SpillMedium};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The concrete fault assigned to one leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Keep only the first `keep` bytes of the encoded leaf.
    Truncate {
        /// Bytes preserved from the front of the encoding.
        keep: usize,
    },
    /// XOR `mask` into the byte at `offset` (always past the magic).
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Single-bit mask applied at `offset`.
        mask: u8,
    },
    /// The leaf is missing from the store.
    Drop,
    /// The first `failures` reads fail transiently, then reads succeed.
    TransientRead {
        /// Number of reads that fail before recovery.
        failures: u32,
    },
}

/// Fault families a plan draws from (see [`FaultPlan::with_kinds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Tail truncation of the stored bytes.
    Truncate,
    /// A single bit flip past the magic.
    BitFlip,
    /// Missing leaf.
    Drop,
    /// Transient read failures with scheduled recovery.
    TransientRead,
}

/// All fault families, the default menu.
pub const ALL_FAULT_KINDS: [FaultKind; 4] =
    [FaultKind::Truncate, FaultKind::BitFlip, FaultKind::Drop, FaultKind::TransientRead];

/// A seeded, deterministic assignment of faults to archive leaves.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-leaf derivation stream.
    pub seed: u64,
    /// Probability that any given leaf is faulted, in `[0, 1]`.
    pub rate: f64,
    /// Fault families this plan draws from (never empty).
    kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan drawing uniformly from every fault family.
    pub fn new(seed: u64, rate: f64) -> Result<FaultPlan, String> {
        FaultPlan::with_kinds(seed, rate, &ALL_FAULT_KINDS)
    }

    /// A plan restricted to the given fault families (for targeted tests:
    /// e.g. transient-only plans must recover completely).
    pub fn with_kinds(seed: u64, rate: f64, kinds: &[FaultKind]) -> Result<FaultPlan, String> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        if kinds.is_empty() {
            return Err("fault plan needs at least one fault kind".into());
        }
        Ok(FaultPlan { seed, rate, kinds: kinds.to_vec() })
    }

    /// Parse the CLI form `SEED:RATE` (e.g. `7:0.25`).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (seed, rate) = text
            .split_once(':')
            .ok_or_else(|| format!("fault plan `{text}` is not SEED:RATE"))?;
        let seed: u64 =
            seed.trim().parse().map_err(|_| format!("bad fault-plan seed `{seed}`"))?;
        let rate: f64 =
            rate.trim().parse().map_err(|_| format!("bad fault-plan rate `{rate}`"))?;
        FaultPlan::new(seed, rate)
    }

    /// Window `window`'s share of this plan: the same rate and fault
    /// families, with the seed mixed with the window index through
    /// SplitMix64, so the windows of one run lose different leaves. Pure
    /// in `(seed, window)`.
    pub fn for_window(&self, window: usize) -> FaultPlan {
        let mixed = splitmix64(self.seed ^ splitmix64(window as u64 ^ WINDOW_DOMAIN));
        FaultPlan { seed: mixed, ..self.clone() }
    }

    /// The fault (if any) this plan assigns to leaf `index` of a leaf
    /// whose encoding is `leaf_len` bytes long. Pure in
    /// `(seed, rate, kinds, index, leaf_len)`.
    pub fn fault_for(&self, index: usize, leaf_len: usize) -> Option<Fault> {
        let h = splitmix64(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits → uniform in [0, 1): the draw against `rate`.
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        let h2 = splitmix64(h);
        let h3 = splitmix64(h2);
        let kind = self.kinds[mod_idx(h2, self.kinds.len())];
        Some(match kind {
            FaultKind::Truncate => {
                // Keep 0..=90% of the bytes: always strictly shorter than
                // the declared layout, so decode reports a short read.
                let keep = leaf_len * mod_idx(h3, 91) / 100;
                Fault::Truncate { keep }
            }
            FaultKind::BitFlip => {
                // Flip past the 8 magic bytes so the fault lands in the
                // CRC-protected region: the CRC or the length prefix must
                // catch it (a magic flip would only exercise the magic
                // check).
                let span = leaf_len.saturating_sub(8).max(1);
                Fault::BitFlip { offset: 8 + mod_idx(h3, span), mask: 1 << (h3 % 8) }
            }
            FaultKind::Drop => Fault::Drop,
            FaultKind::TransientRead => {
                // 1..=2 failures: within any sane retry budget, so the
                // scheduled recovery is always reachable.
                Fault::TransientRead { failures: 1 + u32::from(!h3.is_multiple_of(2)) }
            }
        })
    }

    /// The full assignment over an archive, leaf by leaf.
    pub fn assignments(&self, archive: &WindowArchive) -> Vec<Option<Fault>> {
        (0..archive.n_leaves())
            .map(|i| {
                let frame_len = archive.medium.fetch(i as u64).map_or(0, |b| b.len());
                self.fault_for(i, frame_len)
            })
            .collect()
    }
}

/// Metric name for one injected fault kind.
fn kind_counter(f: &Fault) -> &'static str {
    match f {
        Fault::Truncate { .. } => "telescope.faults.truncate_total",
        Fault::BitFlip { .. } => "telescope.faults.bitflip_total",
        Fault::Drop => "telescope.faults.drop_total",
        Fault::TransientRead { .. } => "telescope.faults.transient_total",
    }
}

/// Separates [`FaultPlan::for_window`]'s window stream from the per-leaf
/// stream of [`FaultPlan::fault_for`].
const WINDOW_DOMAIN: u64 = 0x5749_4E44_4F57_0000; // "WINDOW\0\0"

/// SplitMix64: the derivation PRF behind every per-leaf decision.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `h mod n` as a usize index (`n` is a small in-memory length).
fn mod_idx(h: u64, n: usize) -> usize {
    usize::try_from(h % (n.max(1) as u64)).unwrap_or(0)
}

/// A [`SpillMedium`] seen through a [`FaultPlan`]: the slot id plays the
/// leaf-index role, so `plan.fault_for(slot, frame_len)` decides — purely
/// and reproducibly — how each read misbehaves. Writes pass through
/// untouched; corruption is applied on every fetch, which keeps the
/// injection deterministic even though a spill store allocates slots
/// lazily as the fold evicts.
///
/// Reads are counted per faulted slot: the first counts the injection in
/// `telescope.faults.*`, and a transient fault fails the first `failures`
/// reads of its slot, whatever order the slots are read in.
#[derive(Debug)]
pub struct FaultyMedium<M: SpillMedium> {
    inner: M,
    plan: FaultPlan,
    /// Reads so far of each faulted slot.
    reads: Mutex<BTreeMap<u64, u32>>,
}

impl<M: SpillMedium> FaultyMedium<M> {
    /// Wrap `inner` so reads misbehave per `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        // Registered now, so a plan that injures nothing reports 0.
        obscor_obs::counter("telescope.faults.injected_total");
        Self { inner, plan, reads: Mutex::new(BTreeMap::new()) }
    }

    /// Internal consistency: the plan's rate is a probability.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.plan.rate) {
            return Err(format!("fault rate {} outside [0, 1]", self.plan.rate));
        }
        Ok(())
    }
}

impl<M: SpillMedium> SpillMedium for FaultyMedium<M> {
    fn label(&self) -> String {
        format!("faulty({})", self.inner.label())
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        self.inner.store(slot, bytes)
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        let mut bytes = self.inner.fetch(slot)?;
        let index = usize::try_from(slot).unwrap_or(usize::MAX);
        let Some(fault) = self.plan.fault_for(index, bytes.len()) else {
            return Ok(bytes);
        };
        let reads = {
            let mut reads = self.reads.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let n = reads.entry(slot).or_insert(0);
            *n = n.saturating_add(1);
            *n
        };
        if reads == 1 {
            obscor_obs::counter("telescope.faults.injected_total").inc();
            obscor_obs::counter(kind_counter(&fault)).inc();
        }
        match fault {
            Fault::Truncate { keep } => bytes.truncate(keep),
            Fault::BitFlip { offset, mask } => {
                if let Some(byte) = bytes.get_mut(offset) {
                    *byte ^= mask;
                }
            }
            Fault::Drop => return Err(SpillFault::Missing),
            Fault::TransientRead { failures } if reads <= failures => {
                return Err(SpillFault::TransientRead)
            }
            Fault::TransientRead { .. } => {}
        }
        Ok(bytes)
    }

    fn discard(&self, slot: u64) {
        self.inner.discard(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::archive_window;
    use crate::capture::capture_window;
    use obscor_netmodel::Scenario;

    fn archive() -> WindowArchive {
        let s = Scenario::paper_scaled(1 << 12, 3);
        archive_window(&capture_window(&s, &s.caida_windows[0]), 16)
    }

    #[test]
    fn parse_accepts_seed_rate() {
        let p = FaultPlan::parse("7:0.25").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.rate - 0.25).abs() < 1e-12);
        assert!(FaultPlan::parse("7").is_err());
        assert!(FaultPlan::parse("x:0.5").is_err());
        assert!(FaultPlan::parse("7:1.5").is_err());
        assert!(FaultPlan::parse("7:-0.1").is_err());
    }

    #[test]
    fn zero_rate_assigns_nothing_full_rate_everything() {
        let a = archive();
        let none = FaultPlan::new(1, 0.0).unwrap().assignments(&a);
        assert!(none.iter().all(Option::is_none));
        let all = FaultPlan::new(1, 1.0).unwrap().assignments(&a);
        assert!(all.iter().all(Option::is_some));
    }

    #[test]
    fn assignments_are_deterministic_in_the_seed() {
        let a = archive();
        let p = FaultPlan::new(99, 0.5).unwrap();
        assert_eq!(p.assignments(&a), p.assignments(&a));
        let q = FaultPlan::new(100, 0.5).unwrap();
        assert_ne!(p.assignments(&a), q.assignments(&a), "different seeds, same plan");
    }

    #[test]
    fn window_plans_are_pure_and_differ_by_window() {
        let a = archive();
        let plan = FaultPlan::new(7, 0.3).unwrap();
        assert_eq!(plan.for_window(2), plan.for_window(2));
        assert_eq!(plan.for_window(2).assignments(&a), plan.for_window(2).assignments(&a));
        let (w0, w1) = (plan.for_window(0), plan.for_window(1));
        assert_eq!((w0.rate, &w0.kinds), (plan.rate, &plan.kinds));
        assert_ne!(w0.seed, w1.seed);
        assert_ne!(w0.assignments(&a), w1.assignments(&a), "two windows, one assignment");
    }

    #[test]
    fn restricted_menu_only_draws_those_kinds() {
        let a = archive();
        let p = FaultPlan::with_kinds(5, 1.0, &[FaultKind::TransientRead]).unwrap();
        for f in p.assignments(&a).into_iter().flatten() {
            assert!(matches!(f, Fault::TransientRead { .. }));
        }
    }

    #[test]
    fn flaky_leaf_recovers_on_schedule() {
        let a = archive();
        let p = FaultPlan::with_kinds(5, 1.0, &[FaultKind::TransientRead]).unwrap();
        assert!(p.assignments(&a).iter().all(Option::is_some));
        let faulty = FaultyMedium::new(&a.medium, p.clone());
        let clean = a.medium.fetch(0).unwrap();
        let failures = match p.fault_for(0, clean.len()) {
            Some(Fault::TransientRead { failures }) => failures,
            other => panic!("expected transient fault, got {other:?}"),
        };
        for _ in 0..failures {
            assert_eq!(faulty.fetch(0), Err(SpillFault::TransientRead));
        }
        assert_eq!(faulty.fetch(0).unwrap(), clean);
    }

    #[test]
    fn out_of_range_leaf_is_missing_not_a_panic() {
        let a = archive();
        let faulty = FaultyMedium::new(&a.medium, FaultPlan::new(1, 1.0).unwrap());
        assert_eq!(faulty.fetch(10_000), Err(SpillFault::Missing));
    }

    #[test]
    fn clean_faulty_medium_passes_bytes_through() {
        use obscor_hypersparse::MemMedium;
        let m = FaultyMedium::new(MemMedium::new(), FaultPlan::new(1, 0.0).unwrap());
        m.check_invariants().unwrap();
        assert_eq!(m.label(), "faulty(mem)");
        m.store(3, &[1, 2, 3]).unwrap();
        assert_eq!(m.fetch(3).unwrap(), vec![1, 2, 3]);
        m.discard(3);
        assert_eq!(m.fetch(3), Err(SpillFault::Missing));
    }

    #[test]
    fn faulty_medium_matches_the_plan_per_slot() {
        use obscor_hypersparse::MemMedium;
        let plan = FaultPlan::new(7, 1.0).unwrap();
        let m = FaultyMedium::new(MemMedium::new(), plan.clone());
        let payload: Vec<u8> = (0..64).collect();
        for slot in 0u64..16 {
            m.store(slot, &payload).unwrap();
            let idx = usize::try_from(slot).unwrap();
            match plan.fault_for(idx, payload.len()) {
                None => assert_eq!(m.fetch(slot).unwrap(), payload),
                Some(Fault::Truncate { keep }) => {
                    assert_eq!(m.fetch(slot).unwrap(), payload[..keep.min(payload.len())]);
                }
                Some(Fault::BitFlip { offset, mask }) => {
                    let mut want = payload.clone();
                    if let Some(b) = want.get_mut(offset) {
                        *b ^= mask;
                    }
                    assert_eq!(m.fetch(slot).unwrap(), want);
                }
                Some(Fault::Drop) => assert_eq!(m.fetch(slot), Err(SpillFault::Missing)),
                Some(Fault::TransientRead { failures }) => {
                    for _ in 0..failures {
                        assert_eq!(m.fetch(slot), Err(SpillFault::TransientRead));
                    }
                    assert_eq!(m.fetch(slot).unwrap(), payload, "recovers after budget");
                }
            }
        }
    }
}
