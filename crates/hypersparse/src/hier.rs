//! Hierarchical hypersparse accumulation.
//!
//! The paper's traffic matrices are built by hierarchically summing small
//! matrices: the telescope archives leaf matrices of `N_V = 2^17` contiguous
//! packets; a `2^30`-packet study window is the sum of `2^13` leaves. The
//! same architecture (Kepner et al., "75,000,000,000 streaming
//! inserts/second using hierarchical hypersparse GraphBLAS matrices",
//! IPDPS-W 2020) is what makes streaming construction fast: instead of one
//! gigantic sort at the end, packets are compacted in cache-sized leaves and
//! merged pairwise like a binary counter, so every merge is between two
//! matrices of comparable size.
//!
//! [`HierarchicalAccumulator`] is that binary counter, and the workspace's
//! only one. Built with [`HierarchicalAccumulator::with_leaf_capacity`] it
//! keeps every carry part in memory. Built with
//! [`HierarchicalAccumulator::spilling`] it owns a [`SpillStore`] and a
//! memory budget: each carry-level CSR part can be *evicted* to the store
//! (encoded with the CRC-protected codec-v2 frames from
//! [`crate::serialize`]) and *reloaded* when the carry chain or finalize
//! needs it again. When placing or reloading a part would exceed the
//! budget, the highest resident level is spilled first: it holds the
//! earliest leaves, and both the carry chain and finalize reach it last.
//!
//! One merge step serves the carry chain and finalize alike: it merges a
//! part with the carry that follows it in leaf order. Finalize takes the
//! surviving levels bottom-up, so a power-of-two leaf count (the paper's
//! `2^13`) ends with one part and merges nothing there.
//!
//! Degradation, not corruption: a spill frame that fails to decode after
//! bounded retry ([`crate::spill::fetch_frame`], the read the archive
//! restore path also uses) is **quarantined** — its
//! contiguous leaf interval and packet count are recorded in the
//! [`SpillReport`] and the build continues with the surviving parts. The
//! result is either bit-identical to the resident build (clean media) or
//! explicitly coverage-qualified; it is never silently wrong.
//!
//! # Accounting model
//!
//! "Live bytes" counts the length-based heap footprint
//! ([`Csr::heap_bytes`]) of every resident carry part **plus** the part
//! currently in flight through the carry chain, and a merge pre-charges
//! its output before releasing its inputs — so the tracked peak honestly
//! covers the two inputs and the output of every pairwise merge. The
//! partial-leaf COO buffer (bounded by `leaf_capacity`) and transient
//! codec buffers are outside the budget; DESIGN.md §16 documents the
//! boundary.
//!
//! # Determinism
//!
//! `ewise_add` is associative and commutative and CSR is a canonical form,
//! so eviction/reload schedules cannot change the final matrix: a spilling
//! fold is bit-identical to the resident fold and to one flat
//! [`Coo::from_triples`] compaction for any budget, including budgets
//! that force an eviction on every carry. `tests/ooc_differential.rs`
//! proves this over a grid and under random budget schedules.
//!
//! # Metrics
//!
//! Every fold emits the default names: the `hypersparse.leaf_compact` span
//! (the compaction alone) and triple histogram per leaf, the
//! `hypersparse.carry_merge` span per merge, the
//! `hypersparse.accumulator.carry_merges_total` counter per carry merge,
//! and at finalize the `hypersparse.accumulator.finalize` span and
//! `hypersparse.accumulator.{pushed,leaves,merges}_total`. A fold
//! that owns a store also emits the
//! `hypersparse.spill.{evictions,reloads}_total` counters and per-level
//! merge spans `span.hypersparse.spill.merge.level{k}.{ns,calls_total}`,
//! all pinned by `tests/metrics_optin.rs`.

use std::sync::Arc;

use crate::coo::Coo;
use crate::csr::Csr;
use crate::ops::ewise_add;
use crate::spill::{
    QuarantinedPart, SpillConfig, SpillFault, SpillHandle, SpillMedium, SpillReport, SpillStats,
    SpillStore,
};
use crate::value::Value;
use crate::Index;

/// Default leaf size, matching the paper's archived `2^17`-packet matrices.
pub const DEFAULT_LEAF_CAPACITY: usize = 1 << 17;

/// A carry part in the level table: its leaf interval, packet count, and
/// residency state.
struct Part<V: Value> {
    first_leaf: u64,
    n_leaves: u64,
    packets: u64,
    state: PartState<V>,
}

enum PartState<V: Value> {
    /// In memory, its [`Csr::heap_bytes`] charged against the budget.
    Resident(Csr<V>),
    /// Offloaded to the store.
    Spilled(SpillHandle),
}

/// A part out of the level table and in memory, its bytes charged: the
/// carry, or a part taken to merge into it.
struct Loaded<V: Value> {
    csr: Csr<V>,
    first_leaf: u64,
    n_leaves: u64,
    packets: u64,
}

/// `floor(log2(n))` for `n >= 1` (`0` for `n == 0`), used to label
/// quarantined parts by carry level.
fn floor_log2(n: u64) -> usize {
    usize::try_from(u64::BITS - 1 - n.max(1).leading_zeros()).unwrap_or(63)
}

/// Streaming matrix builder that compacts input in leaves of
/// `leaf_capacity` triples and merges leaves pairwise (binary-counter
/// carry), yielding the same matrix as compacting everything at once.
/// See the module docs for the spilling variant's accounting and
/// determinism contracts.
pub struct HierarchicalAccumulator<V: Value> {
    leaf_capacity: usize,
    budget: Option<u64>,
    buffer: Coo<V>,
    /// `levels[k]` holds the carry part covering `2^k` leaves, if any.
    levels: Vec<Option<Part<V>>>,
    /// Where evicted parts go; `None` keeps every part resident.
    store: Option<SpillStore>,
    live_bytes: u64,
    stats: SpillStats,
    quarantined: Vec<QuarantinedPart>,
}

impl<V: Value> std::fmt::Debug for HierarchicalAccumulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalAccumulator")
            .field("leaf_capacity", &self.leaf_capacity)
            .field("budget", &self.budget)
            .field("store", &self.store)
            .field("live_bytes", &self.live_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<V: Value> HierarchicalAccumulator<V> {
    /// Create a resident accumulator with the paper's default leaf size.
    pub fn new() -> Self {
        Self::with_leaf_capacity(DEFAULT_LEAF_CAPACITY)
    }

    /// Create a resident accumulator compacting every `leaf_capacity`
    /// triples.
    ///
    /// # Panics
    /// Panics if `leaf_capacity == 0`.
    pub fn with_leaf_capacity(leaf_capacity: usize) -> Self {
        Self::build(leaf_capacity, None, None)
    }

    /// Create an accumulator whose carry parts spill through `medium`
    /// whenever the tracked live bytes would exceed `config.memory_budget`.
    ///
    /// # Panics
    /// Panics if `config.leaf_capacity == 0`.
    pub fn spilling(config: SpillConfig, medium: Arc<dyn SpillMedium>) -> Self {
        Self::build(config.leaf_capacity, config.memory_budget, Some(SpillStore::new(medium)))
    }

    fn build(leaf_capacity: usize, budget: Option<u64>, store: Option<SpillStore>) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        Self {
            leaf_capacity,
            budget,
            buffer: Coo::with_capacity(leaf_capacity),
            levels: Vec::new(),
            store,
            live_bytes: 0,
            stats: SpillStats::default(),
            quarantined: Vec::new(),
        }
    }

    /// Append one triple, carrying if the leaf fills.
    #[inline]
    pub fn push(&mut self, row: Index, col: Index, val: V) {
        self.buffer.push(row, col, val);
        self.stats.pushed += 1;
        if self.buffer.len() >= self.leaf_capacity {
            self.flush_leaf();
        }
    }

    /// Append one unit-valued triple (a single packet).
    #[inline]
    pub fn push_edge(&mut self, row: Index, col: Index) {
        self.push(row, col, V::one());
    }

    /// Compact the current partial leaf and carry it up the level chain.
    pub fn flush_leaf(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let packets = self.buffer.len() as u64;
        let leaf = {
            let _span = obscor_obs::span("hypersparse.leaf_compact");
            obscor_obs::histogram("hypersparse.leaf_compact.triples").observe(packets);
            std::mem::replace(&mut self.buffer, Coo::with_capacity(self.leaf_capacity)).into_csr()
        };
        self.carry_leaf(leaf, packets);
    }

    /// Insert a pre-compacted CSR leaf directly into the binary carry chain.
    ///
    /// This is the streaming-ingest entry point (`telescope::stream`): worker
    /// threads compact their own leaves through the radix kernel, and the
    /// window collector folds them — in deterministic sequence order — into
    /// one accumulator without round-tripping back through triples. Any
    /// buffered partial leaf is flushed first so it keeps its place ahead of
    /// the incoming leaf in the merge order. Empty leaves are ignored.
    ///
    /// Counting convention: the sum of the leaf's values
    /// ([`Value::to_u64`]) is added to `stats.pushed`, which for a leaf
    /// compacted from unit-valued triples (one per packet, as the restore
    /// and the ingest collector push) is exactly the packets it holds; the
    /// leaf itself increments `stats.leaves`, so the binary-counter law
    /// `carry_merges == leaves - popcount(leaves)` keeps holding.
    pub fn push_csr_leaf(&mut self, leaf: Csr<V>) {
        if leaf.is_empty() {
            return;
        }
        self.flush_leaf();
        let packets = leaf.values().iter().map(Value::to_u64).sum();
        self.stats.pushed += packets;
        self.carry_leaf(leaf, packets);
    }

    /// Number one compacted leaf in push order and carry it in.
    fn carry_leaf(&mut self, leaf: Csr<V>, packets: u64) {
        let first_leaf = self.stats.leaves;
        self.stats.leaves += 1;
        self.carry_in(leaf, first_leaf, packets);
        #[cfg(feature = "strict-invariants")]
        {
            if let Err(msg) = self.check_invariants() {
                // audit:allow(panic-path) — strict-invariants mode aborts on broken invariants by contract
                panic!("accumulator invalid after leaf carry: {msg}");
            }
        }
    }

    /// Replace the memory budget mid-stream (the random-budget-schedule
    /// property tests drive this) and enforce it immediately. A resident
    /// accumulator has no store to evict to, so under a budget it can
    /// only count `budget_overruns`.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
        self.reserve(0);
    }

    /// The current memory budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Triples per compacted leaf.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Total triples pushed (buffered plus compacted).
    pub fn len_pushed(&self) -> u64 {
        self.stats.pushed
    }

    /// Tracked live bytes right now.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Triples currently buffered in the partial leaf (not yet compacted).
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Internal consistency check: positive leaf capacity, a partial leaf
    /// strictly below capacity, a consistent COO buffer, every resident
    /// part internally valid and covering at least one leaf, live bytes
    /// equal to the sum over resident parts, and counters bounded by the
    /// binary-counter law. Used by tests and the pipeline's
    /// `strict-invariants` stage checks.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.leaf_capacity == 0 {
            return Err("leaf_capacity is zero".into());
        }
        if self.buffer.len() >= self.leaf_capacity {
            return Err("partial leaf at or above capacity (missed flush)".into());
        }
        self.buffer.check_invariants().map_err(|e| format!("buffer: {e}"))?;
        let mut resident = 0u64;
        for (k, slot) in self.levels.iter().enumerate() {
            if let Some(part) = slot {
                if part.n_leaves == 0 {
                    return Err(format!("level {k}: part covers zero leaves"));
                }
                if let PartState::Resident(csr) = &part.state {
                    csr.check_invariants().map_err(|e| format!("level {k}: {e}"))?;
                    resident += csr.heap_bytes();
                }
            }
        }
        if resident != self.live_bytes {
            return Err(format!(
                "live bytes {} disagree with resident sum {resident}",
                self.live_bytes
            ));
        }
        if self.stats.leaves > self.stats.pushed {
            return Err("more leaves than pushed triples".into());
        }
        if self.stats.carry_merges >= self.stats.leaves.max(1) {
            return Err("more carry merges than a binary carry chain allows".into());
        }
        Ok(())
    }

    fn charge(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        if self.live_bytes > self.stats.peak_live_bytes {
            self.stats.peak_live_bytes = self.live_bytes;
        }
    }

    fn release(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Make room for `bytes` *before* charging them: evict the highest
    /// resident level until the addition fits the budget, then charge.
    /// Counting the overrun here (rather than after the fact) keeps the
    /// tracked peak within the budget whenever the budget is feasible at
    /// all. `reserve(0)` enforces the budget on what is already resident.
    fn reserve(&mut self, bytes: u64) {
        if let Some(budget) = self.budget {
            while self.live_bytes.saturating_add(bytes) > budget {
                match self.highest_resident() {
                    Some(k) if self.evict_level(k) => {}
                    _ => {
                        self.stats.budget_overruns += 1;
                        break;
                    }
                }
            }
        }
        self.charge(bytes);
    }

    /// Index of the highest resident level, if any. A part settles at
    /// level `k` only after the carry has emptied every level below `k`,
    /// so a higher level holds earlier leaves and is needed last.
    fn highest_resident(&self) -> Option<usize> {
        self.levels
            .iter()
            .rposition(|slot| matches!(slot, Some(Part { state: PartState::Resident(_), .. })))
    }

    /// Write the resident part at level `k` to the store and release its
    /// bytes. Returns `false`, leaving the part resident, if there is no
    /// store or it refuses the part: the budget is best-effort when the
    /// spill device itself fails, and no data is ever dropped.
    fn evict_level(&mut self, k: usize) -> bool {
        let (Some(store), Some(part)) = (&self.store, &mut self.levels[k]) else { return false };
        let PartState::Resident(csr) = &part.state else { return false };
        let Ok(handle) = store.store_csr(csr) else { return false };
        let bytes = csr.heap_bytes();
        part.state = PartState::Spilled(handle);
        self.stats.evictions += 1;
        obscor_obs::counter("hypersparse.spill.evictions_total").inc();
        self.release(bytes);
        true
    }

    /// Take the part at level `k`, if any, out of the table and bring it
    /// into memory (charging its bytes), or quarantine it if it cannot be
    /// read.
    fn take_level(&mut self, k: usize) -> Option<Result<Loaded<V>, QuarantinedPart>> {
        let Part { first_leaf, n_leaves, packets, state } = self.levels.get_mut(k)?.take()?;
        let handle = match state {
            PartState::Resident(csr) => {
                return Some(Ok(Loaded { csr, first_leaf, n_leaves, packets }));
            }
            PartState::Spilled(handle) => handle,
        };
        let (fetched, retries) = self.store.as_ref().map_or((Err(SpillFault::Missing), 0), |store| {
            let fetched = store.fetch_csr::<V>(&handle);
            store.discard(&handle);
            fetched
        });
        self.stats.retries += u64::from(retries);
        Some(match fetched {
            Ok(csr) => {
                self.stats.reloads += 1;
                obscor_obs::counter("hypersparse.spill.reloads_total").inc();
                self.reserve(csr.heap_bytes());
                Ok(Loaded { csr, first_leaf, n_leaves, packets })
            }
            Err(fault) => Err(QuarantinedPart {
                level: floor_log2(n_leaves),
                first_leaf,
                n_leaves,
                packets,
                error: fault.to_string(),
            }),
        })
    }

    /// The fold's one merge: `part`, taken from level `k`, with the carry
    /// that follows it in leaf order. The output is reserved before the
    /// inputs release, so the tracked peak covers the merge working set
    /// (both inputs are out of the level table, so the reservation can
    /// only evict parts needed later). The merged part is labelled with
    /// the full span up to the carry's end: a quarantine may have punched
    /// a hole between the two, and a span keeps later quarantine reports a
    /// superset of the true loss (holes are already reported by their own
    /// quarantine entries).
    fn merge_into_carry(&mut self, k: usize, part: Loaded<V>, carry: Loaded<V>) -> Loaded<V> {
        let csr = {
            let _span = obscor_obs::span("hypersparse.carry_merge");
            let _level = self
                .store
                .is_some()
                .then(|| obscor_obs::span(&format!("hypersparse.spill.merge.level{k}")));
            ewise_add(&part.csr, &carry.csr)
        };
        self.reserve(csr.heap_bytes());
        self.release(part.csr.heap_bytes() + carry.csr.heap_bytes());
        Loaded {
            csr,
            first_leaf: part.first_leaf,
            n_leaves: (carry.first_leaf + carry.n_leaves) - part.first_leaf,
            packets: part.packets + carry.packets,
        }
    }

    /// Carry one compacted leaf up the level chain, binary-counter style:
    /// level `k` holds the sum of `2^k` leaves, and a collision merges and
    /// propagates upward. The carry settles, resident, in the first empty
    /// level, or in the level of a part that had to be quarantined.
    fn carry_in(&mut self, leaf: Csr<V>, first_leaf: u64, packets: u64) {
        self.reserve(leaf.heap_bytes());
        let mut carry = Loaded { csr: leaf, first_leaf, n_leaves: 1, packets };
        let mut k = 0usize;
        while let Some(taken) = self.take_level(k) {
            match taken {
                Ok(part) => {
                    carry = self.merge_into_carry(k, part, carry);
                    self.stats.carry_merges += 1;
                    obscor_obs::counter("hypersparse.accumulator.carry_merges_total").inc();
                    k += 1;
                }
                Err(q) => {
                    // The stored sibling is unrecoverable: quarantine it
                    // and let the carry take the slot — degraded coverage,
                    // never a wrong matrix.
                    self.quarantined.push(q);
                    break;
                }
            }
        }
        if k == self.levels.len() {
            self.levels.push(None);
        }
        let Loaded { csr, first_leaf, n_leaves, packets } = carry;
        let state = PartState::Resident(csr);
        self.levels[k] = Some(Part { first_leaf, n_leaves, packets, state });
        self.reserve(0);
    }

    /// Finish: flush the partial leaf and fold all levels into one matrix.
    pub fn finalize(self) -> Csr<V> {
        self.finalize_with_report().0
    }

    /// [`finalize`](Self::finalize), also returning the coverage report.
    ///
    /// The surviving levels are taken bottom-up: each is loaded (or
    /// quarantined), the lowest loaded part becomes the carry, and every
    /// later part, which precedes it in leaf order, is merged into it by
    /// the same step as the carry chain's. Parts stay in the level table
    /// until they are taken, so under a budget a reload evicts the highest
    /// untaken parts, the ones needed last.
    ///
    /// The binary-counter law `carry_merges == leaves - popcount(leaves)`
    /// holds only mid-stream; finalize's `popcount(leaves) - 1` merges
    /// land in `stats.tree_merges`, so post-finalize `stats.merges() ==
    /// leaves - 1` (for `leaves >= 1`, no quarantine). The lifetime
    /// counters surface in `hypersparse.accumulator.{pushed,leaves,
    /// merges}_total`, where `merges_total` keeps its carry-only meaning.
    pub fn finalize_with_report(mut self) -> (Csr<V>, SpillReport) {
        let _span = obscor_obs::span("hypersparse.accumulator.finalize");
        self.flush_leaf();
        obscor_obs::counter("hypersparse.accumulator.pushed_total").add(self.stats.pushed);
        obscor_obs::counter("hypersparse.accumulator.leaves_total").add(self.stats.leaves);
        obscor_obs::counter("hypersparse.accumulator.merges_total").add(self.stats.carry_merges);
        let mut carry: Option<Loaded<V>> = None;
        for k in 0..self.levels.len() {
            match self.take_level(k) {
                Some(Ok(part)) => {
                    carry = Some(match carry.take() {
                        None => part,
                        Some(c) => {
                            self.stats.tree_merges += 1;
                            self.merge_into_carry(k, part, c)
                        }
                    });
                }
                Some(Err(q)) => self.quarantined.push(q),
                None => {}
            }
        }
        let lost: u64 = self.quarantined.iter().map(|q| q.packets).sum();
        let report = SpillReport {
            packets_expected: self.stats.pushed,
            packets_restored: self.stats.pushed.saturating_sub(lost),
            quarantined: std::mem::take(&mut self.quarantined),
            stats: self.stats,
        };
        (carry.map_or_else(Csr::empty, |c| c.csr), report)
    }
}

impl<V: Value> Default for HierarchicalAccumulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Extend<(Index, Index, V)> for HierarchicalAccumulator<V> {
    fn extend<I: IntoIterator<Item = (Index, Index, V)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{DirMedium, MemMedium};

    fn triples(n: usize) -> Vec<(Index, Index, u64)> {
        triples_seeded(n, 0x9E3779B97F4A7C15)
    }

    fn triples_seeded(n: usize, seed: u64) -> Vec<(Index, Index, u64)> {
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

    /// The fold configurations every shared behaviour is checked under.
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Resident,
        Spilling(Option<u64>),
    }

    /// Resident, then spilling to a [`MemMedium`] with no budget, a zero
    /// budget (evict every carry), and a roomy one.
    const MODES: [Mode; 4] = [
        Mode::Resident,
        Mode::Spilling(None),
        Mode::Spilling(Some(0)),
        Mode::Spilling(Some(1 << 16)),
    ];

    fn fold(mode: Mode, leaf_capacity: usize) -> HierarchicalAccumulator<u64> {
        match mode {
            Mode::Resident => HierarchicalAccumulator::with_leaf_capacity(leaf_capacity),
            Mode::Spilling(memory_budget) => HierarchicalAccumulator::spilling(
                SpillConfig { leaf_capacity, memory_budget },
                Arc::new(MemMedium::new()),
            ),
        }
    }

    fn spilled(
        t: &[(Index, Index, u64)],
        leaf: usize,
        budget: Option<u64>,
    ) -> (Csr<u64>, SpillReport) {
        let mut acc = fold(Mode::Spilling(budget), leaf);
        acc.extend(t.iter().copied());
        acc.check_invariants().unwrap();
        acc.finalize_with_report()
    }

    #[test]
    fn hierarchical_equals_flat() {
        let t = triples(10_000);
        for mode in MODES {
            let mut acc = fold(mode, 256);
            acc.extend(t.iter().copied());
            acc.check_invariants().unwrap();
            let (m, report) = acc.finalize_with_report();
            assert_eq!(m, Coo::from_triples(t.iter().copied()).into_csr(), "{mode:?}");
            assert!(report.is_exact(), "{mode:?}");
            report.check_invariants().unwrap();
            if matches!(mode, Mode::Resident | Mode::Spilling(None)) {
                assert_eq!(report.stats.evictions, 0, "{mode:?}: no budget, no eviction");
            }
        }
    }

    #[test]
    fn exact_multiple_of_leaf_capacity() {
        let t = triples(1024);
        for mode in MODES {
            let mut acc = fold(mode, 256);
            acc.extend(t.iter().copied());
            assert_eq!(acc.stats().leaves, 4, "{mode:?}");
            assert_eq!(acc.finalize(), Coo::from_triples(t.iter().copied()).into_csr(), "{mode:?}");
        }
    }

    #[test]
    fn stats_obey_binary_counter_law_for_every_push_count() {
        // Property: after pushing n triples into leaves of capacity c,
        //   pushed == leaves * c + buffered_len()   (conservation), and
        //   carry_merges == leaves - popcount(leaves)   (binary-counter
        // carries: every full leaf enters the counter and each pairwise
        // merge destroys exactly one entry, leaving one per set bit).
        for mode in MODES {
            for c in [1usize, 2, 3, 7, 16] {
                for n in 0..200usize {
                    let mut acc = fold(mode, c);
                    acc.extend(triples(n));
                    let s = acc.stats();
                    assert_eq!(s.pushed, n as u64, "pushed ({mode:?}, c={c}, n={n})");
                    assert_eq!(s.leaves, (n / c) as u64, "leaves ({mode:?}, c={c}, n={n})");
                    assert_eq!(
                        s.pushed,
                        s.leaves * c as u64 + acc.buffered_len() as u64,
                        "conservation ({mode:?}, c={c}, n={n})"
                    );
                    assert_eq!(
                        s.carry_merges,
                        s.leaves - u64::from(s.leaves.count_ones()),
                        "carry count ({mode:?}, c={c}, n={n})"
                    );
                    assert_eq!(s.tree_merges, 0, "no tree before finalize");
                }
            }
        }
    }

    #[test]
    fn finalize_tree_restores_the_leaves_minus_one_closed_form() {
        // The carry law above stops short of finalize. After finalize,
        // ANY pairwise merge tree over L leaves has performed
        // exactly L - 1 merges: (leaves - popcount) carries plus
        // (popcount - 1) finalize merges. Pin the full closed form so
        // finalize can never silently drop merges.
        for mode in MODES {
            for c in [1usize, 2, 3, 7, 16] {
                for n in 0..200usize {
                    let mut acc = fold(mode, c);
                    acc.extend(triples(n));
                    let mid = acc.stats();
                    let (m, report) = acc.finalize_with_report();
                    let s = report.stats;
                    // finalize flushes the partial leaf, so leaves = ceil(n/c).
                    assert_eq!(s.leaves, n.div_ceil(c) as u64, "leaves ({mode:?}, c={c}, n={n})");
                    assert_eq!(s.pushed, n as u64);
                    assert_eq!(
                        s.merges(),
                        s.leaves.saturating_sub(1),
                        "post-finalize closed form ({mode:?}, c={c}, n={n})"
                    );
                    assert!(s.carry_merges >= mid.carry_merges, "finalize never forgets carries");
                    let flat = Coo::from_triples(triples(n)).into_csr();
                    assert_eq!(m, flat, "matrix ({mode:?}, c={c}, n={n})");
                }
            }
        }
    }

    #[test]
    fn a_zero_budget_writes_each_part_once_and_reads_it_once() {
        // One part settles per leaf, and a zero budget writes it out as it
        // settles. Each is read back once, when it is taken to merge or,
        // for the last one, to become the result; no merge output is
        // parked on the way.
        for c in [1usize, 2, 3, 7, 16] {
            for n in 0..200usize {
                let mut acc = fold(Mode::Spilling(Some(0)), c);
                acc.extend(triples(n));
                let (m, report) = acc.finalize_with_report();
                let s = report.stats;
                assert_eq!(m, Coo::from_triples(triples(n)).into_csr(), "c={c}, n={n}");
                assert_eq!((s.evictions, s.reloads), (s.leaves, s.leaves), "c={c}, n={n}");
            }
        }
    }

    #[test]
    fn the_highest_resident_level_is_evicted_first() {
        // Three leaves of four triples on distinct rows: level 1 holds
        // leaves 0-1 and level 0 leaf 2. A budget that holds one leaf part
        // but not two must spill level 1, which finalize takes last, and
        // keep level 0, whether it applies from the start or is imposed
        // once both levels are resident.
        let t: Vec<(Index, Index, u64)> = (0..12).map(|i| (i, i % 4, 1)).collect();
        let leaf_bytes = Coo::from_triples(t[..4].iter().copied()).into_csr().heap_bytes();
        let budget = leaf_bytes + leaf_bytes / 2;
        for from_start in [true, false] {
            let mut acc = fold(Mode::Spilling(from_start.then_some(budget)), 4);
            acc.extend(t.iter().copied());
            if !from_start {
                acc.set_budget(Some(budget));
            }
            let resident: Vec<bool> = acc
                .levels
                .iter()
                .map(|slot| matches!(slot, Some(Part { state: PartState::Resident(_), .. })))
                .collect();
            assert_eq!(resident, [true, false], "from_start = {from_start}");
            assert_eq!(acc.finalize(), Coo::from_triples(t.iter().copied()).into_csr());
        }
    }

    #[test]
    fn resident_and_zero_budget_folds_report_equal_merge_counts() {
        // `WindowSnapshot::merges` promises the same count whichever fold
        // built the window: residency moves parts between memory and the
        // medium but never changes the merge tree.
        for c in [1usize, 3, 16] {
            for n in [0usize, 1, 15, 16, 17, 100, 999] {
                let t = triples(n);
                let mut resident = fold(Mode::Resident, c);
                let mut zero = fold(Mode::Spilling(Some(0)), c);
                resident.extend(t.iter().copied());
                zero.extend(t.iter().copied());
                let (a, ra) = resident.finalize_with_report();
                let (b, rb) = zero.finalize_with_report();
                assert_eq!(a, b, "c={c}, n={n}");
                let key = |s: SpillStats| (s.pushed, s.leaves, s.carry_merges, s.tree_merges);
                assert_eq!(key(ra.stats), key(rb.stats), "c={c}, n={n}");
                assert_eq!(ra.stats.evictions, 0, "a resident fold never evicts");
            }
        }
    }

    #[test]
    fn empty_accumulator_finalizes_empty() {
        for mode in MODES {
            let (m, report) = fold(mode, DEFAULT_LEAF_CAPACITY).finalize_with_report();
            assert!(m.is_empty(), "{mode:?}");
            assert!(report.is_exact());
            assert_eq!(report.packets_expected, 0);
            assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
        }
        assert!(HierarchicalAccumulator::<u64>::new().finalize().is_empty());
    }

    #[test]
    fn single_partial_leaf() {
        for mode in MODES {
            let mut acc = fold(mode, 1000);
            acc.push(1, 2, 3u64);
            acc.push(1, 2, 4u64);
            let m = acc.finalize();
            assert_eq!(m.get(1, 2), Some(7), "{mode:?}");
            assert_eq!(m.nnz(), 1);
        }
    }

    #[test]
    fn stats_pushed_counts_everything() {
        for mode in MODES {
            let mut acc = fold(mode, 8);
            for i in 0..100 {
                acc.push_edge(i % 10, i % 7);
            }
            assert_eq!(acc.len_pushed(), 100, "{mode:?}");
            assert_eq!(crate::reduce::valid_packets(&acc.finalize()), 100);
        }
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn zero_leaf_capacity_panics() {
        let _ = HierarchicalAccumulator::<u64>::with_leaf_capacity(0);
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn zero_leaf_capacity_panics_when_spilling() {
        let cfg = SpillConfig { leaf_capacity: 0, ..SpillConfig::default() };
        let _ = HierarchicalAccumulator::<u64>::spilling(cfg, Arc::new(MemMedium::new()));
    }

    #[test]
    fn csr_leaves_equal_triple_pushes() {
        // Pushing pre-compacted CSR leaves reproduces the matrix built from
        // the underlying triples, for every partition of the input.
        let t = triples(4_000);
        let flat = Coo::from_triples(t.clone()).into_csr();
        for mode in MODES {
            for chunk in [1usize, 37, 256, 4_000] {
                let mut acc = fold(mode, 64);
                for part in t.chunks(chunk) {
                    acc.push_csr_leaf(Coo::from_triples(part.iter().copied()).into_csr());
                }
                let (m, report) = acc.finalize_with_report();
                assert_eq!(m, flat, "{mode:?}, chunk = {chunk}");
                assert!(report.is_exact());
                // A leaf counts the packets it sums, not its entries.
                assert!(flat.nnz() < t.len());
                assert_eq!(report.stats.pushed, t.len() as u64, "{mode:?}, chunk = {chunk}");
                assert_eq!(report.packets_restored, t.len() as u64, "{mode:?}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn csr_leaves_interleave_with_triples() {
        // A buffered partial leaf is flushed ahead of an incoming CSR leaf,
        // so mixing the two entry points still conserves every triple.
        let t = triples(1_000);
        for mode in MODES {
            let mut acc = fold(mode, 128);
            acc.extend(t[..300].iter().copied());
            acc.push_csr_leaf(Coo::from_triples(t[300..700].iter().copied()).into_csr());
            acc.extend(t[700..].iter().copied());
            assert_eq!(acc.finalize(), Coo::from_triples(t.iter().copied()).into_csr(), "{mode:?}");
        }
    }

    #[test]
    fn csr_leaf_stats_obey_binary_counter_law() {
        let t = triples(2_048);
        for mode in MODES {
            let mut acc = fold(mode, 64);
            for part in t.chunks(128) {
                acc.push_csr_leaf(Coo::from_triples(part.iter().copied()).into_csr());
            }
            let s = acc.stats();
            assert_eq!(s.leaves, 16, "{mode:?}");
            assert_eq!(s.carry_merges, s.leaves - u64::from(s.leaves.count_ones()));
            assert!(acc.check_invariants().is_ok());
        }
    }

    #[test]
    fn empty_csr_leaf_is_ignored() {
        for mode in MODES {
            let mut acc = fold(mode, DEFAULT_LEAF_CAPACITY);
            acc.push_csr_leaf(Csr::empty());
            assert_eq!(acc.stats().leaves, 0, "{mode:?}");
            assert!(acc.finalize().is_empty());
        }
    }

    #[test]
    fn leaf_capacity_one_still_correct() {
        let t = triples(50);
        for mode in MODES {
            let mut acc = fold(mode, 1);
            acc.extend(t.iter().copied());
            assert_eq!(acc.finalize(), Coo::from_triples(t.iter().copied()).into_csr(), "{mode:?}");
        }
    }

    #[test]
    fn zero_budget_forces_eviction_on_every_carry_and_stays_identical() {
        let t = triples_seeded(10_000, 7);
        let (m, report) = spilled(&t, 128, Some(0));
        assert_eq!(m, Coo::from_triples(t).into_csr());
        assert!(report.is_exact());
        assert!(report.stats.evictions > 0, "{:?}", report.stats);
        assert!(report.stats.reloads > 0, "{:?}", report.stats);
        report.check_invariants().unwrap();
    }

    #[test]
    fn mid_stream_budget_changes_preserve_identity() {
        let t = triples_seeded(5_000, 11);
        let mut acc = fold(Mode::Spilling(None), 64);
        for (i, &(r, c, v)) in t.iter().enumerate() {
            acc.push(r, c, v);
            match i {
                1_000 => acc.set_budget(Some(0)),
                2_500 => acc.set_budget(Some(1 << 14)),
                4_000 => acc.set_budget(None),
                _ => {}
            }
        }
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, Coo::from_triples(t).into_csr());
        assert!(report.is_exact());
        assert!(report.stats.evictions > 0);
    }

    #[test]
    fn a_budget_without_a_store_counts_overruns_and_stays_identical() {
        let t = triples_seeded(2_000, 13);
        let mut acc = fold(Mode::Resident, 64);
        acc.set_budget(Some(0));
        assert_eq!(acc.budget(), Some(0));
        acc.extend(t.iter().copied());
        acc.check_invariants().unwrap();
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, Coo::from_triples(t).into_csr());
        assert_eq!(report.stats.evictions, 0, "nothing to evict to");
        assert!(report.stats.budget_overruns > 0, "{:?}", report.stats);
    }

    #[test]
    fn feasible_budget_bounds_tracked_peak() {
        let t = triples_seeded(20_000, 19);
        let budget = 1 << 20; // 1 MiB: ample for 512-key leaves, forces order
        let (m, report) = spilled(&t, 512, Some(budget));
        assert_eq!(m, Coo::from_triples(t).into_csr());
        assert_eq!(report.stats.budget_overruns, 0, "{:?}", report.stats);
        assert!(report.stats.peak_live_bytes <= budget, "{:?}", report.stats);
    }

    #[test]
    fn dir_medium_round_trips_and_cleans_up() {
        let medium = DirMedium::create_in(&std::env::temp_dir()).unwrap();
        let dir = medium.path().to_path_buf();
        assert!(dir.is_dir());
        let t = triples_seeded(3_000, 5);
        let cfg = SpillConfig { leaf_capacity: 128, memory_budget: Some(0) };
        let mut acc = HierarchicalAccumulator::spilling(cfg, Arc::new(medium));
        acc.extend(t.iter().copied());
        let (m, report) = acc.finalize_with_report();
        assert_eq!(m, Coo::from_triples(t).into_csr());
        assert!(report.stats.evictions > 0);
        // finalize consumed the accumulator (and with it the store's Arc
        // on the medium), so the directory is already gone.
        assert!(!dir.exists(), "spill dir should be removed on drop");
    }

    #[test]
    fn floor_log2_matches_ilog2() {
        assert_eq!(floor_log2(0), 0);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(1 << 13), 13);
        assert_eq!(floor_log2(u64::MAX), 63);
    }
}
