//! Out-of-core storage for the hierarchical fold.
//!
//! A [`crate::HierarchicalAccumulator`] built with
//! [`crate::HierarchicalAccumulator::spilling`] evicts carry-level CSR
//! parts to a [`SpillStore`] whenever its tracked live bytes would exceed
//! the memory budget, and reloads them when the carry chain or finalize
//! needs them again. This module is that storage layer:
//! the [`SpillMedium`] byte stores ([`DirMedium`] for real directories,
//! [`MemMedium`] in memory), the CRC-framed [`SpillStore`], the
//! [`SpillFault`] taxonomy, and the fold's [`SpillConfig`],
//! [`SpillStats`] and coverage-qualified [`SpillReport`]. The
//! accumulator's accounting and determinism contracts are documented in
//! [`crate::hier`].
//!
//! [`fetch_frame`] is the workspace's one bounded-retry frame read: the
//! fold reloads its spilled parts through it, and the telescope archive
//! (`obscor_telescope::archive`) restores its leaves through it, each
//! leaf's frame in a slot of a [`MemMedium`].
//!
//! # Metrics
//!
//! Only a fold that owns a [`SpillStore`] records
//! `hypersparse.spill.{bytes_written,bytes_read,evictions,reloads}_total`
//! and the per-level merge spans
//! `span.hypersparse.spill.merge.level{k}.{ns,calls_total}`, so a default
//! run never shows them; all are pinned by `tests/metrics_optin.rs`.

use crate::csr::Csr;
use crate::hier::DEFAULT_LEAF_CAPACITY;
use crate::serialize::{self, CodecError};
use crate::value::Value;
use obscor_obs::FaultClass;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Does nothing: folds that own a store always record the spill metrics.
/// It remains only because `e2e-bench/src/trace.rs` still calls it.
pub fn enable_spill_metrics() {}

/// A fault raised by a [`SpillMedium`] or by decoding a spill frame,
/// classified by the workspace fault taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillFault {
    /// A read failed in a way a retry may fix (short read, interrupted
    /// syscall, injected transient fault).
    TransientRead,
    /// The slot does not exist in the medium (permanent).
    Missing,
    /// An OS-level I/O failure (permanent).
    Io(String),
    /// The fetched frame failed to decode. The codec error decides the
    /// class: a truncated frame may be a short read (transient), a bad
    /// magic or CRC is permanent.
    Corrupt(CodecError),
}

impl SpillFault {
    /// Classify for retry/quarantine policy: only transient reads and
    /// truncated frames are worth retrying.
    pub fn class(&self) -> FaultClass {
        match self {
            SpillFault::TransientRead => FaultClass::Transient,
            SpillFault::Corrupt(e) => e.class(),
            _ => FaultClass::Permanent,
        }
    }
}

impl std::fmt::Display for SpillFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillFault::TransientRead => write!(f, "transient read failure"),
            SpillFault::Missing => write!(f, "frame missing from store"),
            SpillFault::Io(e) => write!(f, "spill i/o error: {e}"),
            SpillFault::Corrupt(e) => write!(f, "frame corrupt: {e}"),
        }
    }
}

impl std::error::Error for SpillFault {}

/// Byte-level storage behind a [`SpillStore`]: a flat map from slot id to
/// encoded frame. Implementations must be usable from multiple threads
/// (the streaming collector owns one per service).
pub trait SpillMedium: Send + Sync {
    /// Human-readable label for reports and errors.
    fn label(&self) -> String;
    /// Persist `bytes` under `slot`, overwriting any previous content.
    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault>;
    /// Read back the bytes stored under `slot`.
    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault>;
    /// Best-effort space reclaim once a slot is no longer needed.
    fn discard(&self, _slot: u64) {}
}

/// A borrowed medium reads and writes the medium it borrows, so a
/// fault-injecting wrapper can sit over a store its owner keeps.
impl<M: SpillMedium + ?Sized> SpillMedium for &M {
    fn label(&self) -> String {
        (**self).label()
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        (**self).store(slot, bytes)
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        (**self).fetch(slot)
    }

    fn discard(&self, slot: u64) {
        (**self).discard(slot);
    }
}

/// Attempts per frame read or write (the first try plus retries) before
/// a transient fault is given up on.
pub const MAX_ATTEMPTS: u32 = 4;

/// Fetch and decode the frame in `slot`, retrying transient faults
/// (including a truncated frame, which may be a short read) up to
/// [`MAX_ATTEMPTS`] attempts. A permanent fault returns at once. Returns
/// the outcome with the number of retries it took, on success and on
/// failure alike.
pub fn fetch_frame<V: Value>(
    medium: &dyn SpillMedium,
    slot: u64,
) -> (Result<Csr<V>, SpillFault>, u32) {
    let mut retries = 0;
    loop {
        let fault = match medium.fetch(slot) {
            Ok(bytes) => match serialize::decode::<V>(&bytes) {
                Ok(csr) => return (Ok(csr), retries),
                Err(e) => SpillFault::Corrupt(e),
            },
            Err(f) => f,
        };
        if !fault.class().is_transient() || retries + 1 >= MAX_ATTEMPTS {
            return (Err(fault), retries);
        }
        retries += 1;
    }
}

/// In-memory [`SpillMedium`]: the telescope archive's leaf store, and the
/// test harnesses' spill medium (same code path as the disk medium, no
/// filesystem).
#[derive(Debug, Default)]
pub struct MemMedium {
    slots: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemMedium {
    /// An empty in-memory medium.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of slots currently stored.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no slots are stored.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Internal consistency: every stored frame is non-empty (the codec
    /// never emits zero-length encodings).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (slot, bytes) in self.lock().iter() {
            if bytes.is_empty() {
                return Err(format!("slot {slot} holds an empty frame"));
            }
        }
        Ok(())
    }
}

impl SpillMedium for MemMedium {
    fn label(&self) -> String {
        "mem".into()
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        self.lock().insert(slot, bytes.to_vec());
        Ok(())
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        self.lock().get(&slot).cloned().ok_or(SpillFault::Missing)
    }

    fn discard(&self, slot: u64) {
        self.lock().remove(&slot);
    }
}

/// Disk-backed [`SpillMedium`]: one codec-v2 file per slot inside a
/// uniquely named directory that is removed (best effort) on drop.
#[derive(Debug)]
pub struct DirMedium {
    dir: PathBuf,
}

impl DirMedium {
    /// Create a fresh uniquely named spill directory under `base`
    /// (`obscor-spill-<pid>-<n>`), creating `base` itself if needed. The
    /// directory and its frames are deleted when the medium is dropped.
    pub fn create_in(base: &Path) -> Result<Self, SpillFault> {
        std::fs::create_dir_all(base).map_err(|e| SpillFault::Io(e.to_string()))?;
        let pid = std::process::id();
        // A create_dir race (two media picking the same name) surfaces as
        // AlreadyExists; retry with the next suffix — no global counter.
        for attempt in 0..4096u32 {
            let dir = base.join(format!("obscor-spill-{pid}-{attempt}"));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(Self { dir }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(SpillFault::Io(e.to_string())),
            }
        }
        Err(SpillFault::Io("no unique spill directory name available".into()))
    }

    /// The directory frames are written into.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn slot_path(&self, slot: u64) -> PathBuf {
        self.dir.join(format!("part-{slot:08x}.obsc"))
    }

    /// Internal consistency: the spill directory still exists.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.dir.is_dir() {
            return Err(format!("spill directory {} is gone", self.dir.display()));
        }
        Ok(())
    }
}

impl Drop for DirMedium {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl SpillMedium for DirMedium {
    fn label(&self) -> String {
        self.dir.display().to_string()
    }

    fn store(&self, slot: u64, bytes: &[u8]) -> Result<(), SpillFault> {
        std::fs::write(self.slot_path(slot), bytes).map_err(io_fault)
    }

    fn fetch(&self, slot: u64) -> Result<Vec<u8>, SpillFault> {
        std::fs::read(self.slot_path(slot)).map_err(io_fault)
    }

    fn discard(&self, slot: u64) {
        let _ = std::fs::remove_file(self.slot_path(slot));
    }
}

/// Map an OS error onto the fault taxonomy: interrupted reads are
/// transient, a missing file is [`SpillFault::Missing`], everything else
/// is a permanent I/O fault.
fn io_fault(e: std::io::Error) -> SpillFault {
    match e.kind() {
        std::io::ErrorKind::Interrupted => SpillFault::TransientRead,
        std::io::ErrorKind::NotFound => SpillFault::Missing,
        _ => SpillFault::Io(e.to_string()),
    }
}

/// Handle to one spilled CSR part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillHandle {
    slot: u64,
    encoded_len: u64,
}

impl SpillHandle {
    /// The medium slot this part lives in.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Encoded frame size in bytes.
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len
    }
}

/// CRC-framed CSR offload store over a [`SpillMedium`], with bounded retry
/// for transient faults. Permanent faults (bad magic, CRC mismatch,
/// missing slot) are returned to the caller for quarantine.
pub struct SpillStore {
    medium: Arc<dyn SpillMedium>,
    next_slot: AtomicU64,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore").field("medium", &self.medium.label()).finish()
    }
}

impl SpillStore {
    /// A store over `medium`, allocating slots from 0.
    pub(crate) fn new(medium: Arc<dyn SpillMedium>) -> Self {
        Self { medium, next_slot: AtomicU64::new(0) }
    }

    /// Label of the underlying medium.
    pub fn label(&self) -> String {
        self.medium.label()
    }

    /// Encode `a` as a codec-v2 frame and persist it, returning the slot
    /// handle.
    pub fn store_csr<V: Value>(&self, a: &Csr<V>) -> Result<SpillHandle, SpillFault> {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed); // ordering: slot ids only need uniqueness, not ordering
        let bytes = serialize::encode(a);
        let mut last = SpillFault::TransientRead;
        for _ in 0..MAX_ATTEMPTS {
            match self.medium.store(slot, &bytes) {
                Ok(()) => {
                    obscor_obs::counter("hypersparse.spill.bytes_written_total")
                        .add(bytes.len() as u64);
                    return Ok(SpillHandle { slot, encoded_len: bytes.len() as u64 });
                }
                Err(f) if f.class() == FaultClass::Transient => last = f,
                Err(f) => return Err(f),
            }
        }
        Err(last)
    }

    /// Fetch and decode the part behind `handle` through [`fetch_frame`],
    /// returning the outcome with the retries it took.
    pub fn fetch_csr<V: Value>(&self, handle: &SpillHandle) -> (Result<Csr<V>, SpillFault>, u32) {
        let (csr, retries) = fetch_frame(self.medium.as_ref(), handle.slot);
        if csr.is_ok() {
            // Counted as the frame `store_csr` wrote: the one that decoded.
            obscor_obs::counter("hypersparse.spill.bytes_read_total").add(handle.encoded_len);
        }
        (csr, retries)
    }

    /// Best-effort space reclaim for a no-longer-needed slot.
    pub fn discard(&self, handle: &SpillHandle) {
        self.medium.discard(handle.slot);
    }
}

/// Configuration of a spilling [`crate::HierarchicalAccumulator`].
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Triples per leaf before compaction (same meaning as
    /// [`crate::HierarchicalAccumulator::with_leaf_capacity`]).
    pub leaf_capacity: usize,
    /// Tracked-live-byte budget; `None` means unbounded (parts still spill
    /// only if [`crate::HierarchicalAccumulator::set_budget`] later imposes
    /// one).
    pub memory_budget: Option<u64>,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self { leaf_capacity: DEFAULT_LEAF_CAPACITY, memory_budget: None }
    }
}

/// Lifetime counters of a [`crate::HierarchicalAccumulator`], resident or
/// spilling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Triples pushed in total.
    pub pushed: u64,
    /// Leaves compacted (or accepted pre-compacted).
    pub leaves: u64,
    /// Pairwise merges performed by the binary-counter carry chain.
    pub carry_merges: u64,
    /// Pairwise merges performed by finalize, which folds the parts the
    /// carry chain left into one.
    pub tree_merges: u64,
    /// Resident parts written out to the spill store.
    pub evictions: u64,
    /// Spilled parts read back for a merge.
    pub reloads: u64,
    /// Transient read faults retried while reloading spilled parts,
    /// whether the reload then succeeded or not.
    pub retries: u64,
    /// Times the tracked live bytes exceeded the budget with nothing left
    /// to evict (infeasibly small budget); the build continues and stays
    /// bit-identical, but the budget promise is void for that window.
    pub budget_overruns: u64,
    /// High-water mark of the tracked live bytes.
    pub peak_live_bytes: u64,
}

impl SpillStats {
    /// Total pairwise merges. Closed form with no quarantined parts:
    /// `leaves - popcount(leaves)` carry merges mid-stream, and after
    /// finalize, whose `popcount(leaves) - 1` merges fold the remaining
    /// parts into one, exactly `leaves - 1`: each merge destroys one part.
    pub fn merges(&self) -> u64 {
        self.carry_merges + self.tree_merges
    }
}

/// One part dropped from the build because its spill frame could not be
/// recovered. Parts are labelled with a contiguous leaf *span* (the merge
/// tree only ever joins adjacent runs): the span covers every leaf the
/// part folded, plus any hole a previous quarantine punched between them
/// — re-reporting a hole is idempotent, so the union of all quarantined
/// spans is exactly the set of lost leaves and a differential harness can
/// reconstruct the loss from the report alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedPart {
    /// Carry level (`log2` of the covered leaf count) at quarantine time.
    pub level: usize,
    /// First leaf index (in push order) the part covered.
    pub first_leaf: u64,
    /// Number of consecutive leaves the part covered.
    pub n_leaves: u64,
    /// Pushed triples the part covered.
    pub packets: u64,
    /// The classified fault that exhausted retry.
    pub error: String,
}

/// Coverage-qualified outcome of a fold
/// ([`crate::HierarchicalAccumulator::finalize_with_report`]), mirroring
/// the archive restore's `RestoreReport`: exact packet accounting, the
/// quarantined parts, and the lifetime [`SpillStats`].
#[derive(Clone, Debug)]
pub struct SpillReport {
    /// Triples pushed into the accumulator over its lifetime.
    pub packets_expected: u64,
    /// Triples covered by parts that made it into the final matrix.
    pub packets_restored: u64,
    /// Parts lost to unrecoverable spill faults (empty on clean media).
    pub quarantined: Vec<QuarantinedPart>,
    /// Lifetime counters.
    pub stats: SpillStats,
}

impl SpillReport {
    /// Fraction of pushed triples represented in the final matrix, in
    /// `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.packets_expected == 0 {
            1.0
        } else {
            self.packets_restored as f64 / self.packets_expected as f64
        }
    }

    /// Whether the build lost nothing (the bit-identity case).
    pub fn is_exact(&self) -> bool {
        self.quarantined.is_empty() && self.packets_restored == self.packets_expected
    }

    /// Integer-exact internal consistency: restored plus quarantined
    /// packets account for every pushed triple, and stats agree.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lost: u64 = self.quarantined.iter().map(|q| q.packets).sum();
        if self.packets_restored + lost != self.packets_expected {
            return Err(format!(
                "packet accounting broken: {} restored + {} lost != {} expected",
                self.packets_restored, lost, self.packets_expected
            ));
        }
        if self.stats.pushed != self.packets_expected {
            return Err("stats.pushed disagrees with packets_expected".into());
        }
        for q in &self.quarantined {
            if q.n_leaves == 0 {
                return Err("quarantined part covers zero leaves".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::Index;

    fn triples(n: usize, seed: u64) -> Vec<(Index, Index, u64)> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (((state >> 33) % 512) as Index, ((state >> 10) % 512) as Index, 1u64)
            })
            .collect()
    }

    #[test]
    fn two_dir_media_never_collide() {
        let base = std::env::temp_dir();
        let a = DirMedium::create_in(&base).unwrap();
        let b = DirMedium::create_in(&base).unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn store_round_trips_through_codec_v2() {
        let store = SpillStore::new(Arc::new(MemMedium::new()));
        let a: Csr<u64> = Coo::from_triples(triples(1_000, 2)).into_csr();
        let h = store.store_csr(&a).unwrap();
        assert_eq!(h.encoded_len(), 28 + 16 * a.nnz() as u64);
        assert_eq!(store.fetch_csr::<u64>(&h), (Ok(a), 0));
    }

    #[test]
    fn corrupt_frame_is_a_permanent_fault() {
        let medium = Arc::new(MemMedium::new());
        let store = SpillStore::new(Arc::clone(&medium) as Arc<dyn SpillMedium>);
        let a: Csr<u64> = Coo::from_triples(triples(100, 2)).into_csr();
        let h = store.store_csr(&a).unwrap();
        // Flip a payload bit behind the store's back.
        let mut bytes = medium.fetch(h.slot()).unwrap();
        bytes[30] ^= 1;
        medium.store(h.slot(), &bytes).unwrap();
        let (err, retries) = store.fetch_csr::<u64>(&h);
        let err = err.unwrap_err();
        assert_eq!(err.class(), FaultClass::Permanent);
        assert!(matches!(err, SpillFault::Corrupt(CodecError::BadCrc { .. })), "{err:?}");
        assert_eq!(retries, 0, "a permanent fault is not retried");
    }

    #[test]
    fn truncated_frame_exhausts_the_attempts_as_a_transient_fault() {
        let medium = MemMedium::new();
        let a: Csr<u64> = Coo::from_triples(triples(100, 2)).into_csr();
        let bytes = serialize::encode(&a);
        medium.store(5, &bytes[..bytes.len() - 1]).unwrap();
        let (err, retries) = fetch_frame::<u64>(&medium, 5);
        assert_eq!(err, Err(SpillFault::Corrupt(CodecError::Truncated)));
        assert_eq!(retries, MAX_ATTEMPTS - 1);
    }

    #[test]
    fn missing_slot_is_missing() {
        let store = SpillStore::new(Arc::new(MemMedium::new()));
        let h = SpillHandle { slot: 99, encoded_len: 0 };
        assert_eq!(store.fetch_csr::<u64>(&h), (Err(SpillFault::Missing), 0));
    }

    #[test]
    fn constructors_satisfy_invariants() {
        let mem = MemMedium::new();
        mem.check_invariants().unwrap();
        mem.store(0, b"x").unwrap();
        mem.check_invariants().unwrap();
        let dir = DirMedium::create_in(&std::env::temp_dir()).unwrap();
        dir.check_invariants().unwrap();
    }
}
