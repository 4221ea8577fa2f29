//! GraphBLAS-style hypersparse traffic matrices.
//!
//! This crate implements the sparse-matrix substrate used by the paper
//! *Temporal Correlation of Internet Observatories and Outposts* (Kepner et
//! al., IPDPS 2022): `2^32 x 2^32` traffic matrices `A_t(i, j)` holding the
//! number of valid packets sent from source `i` to destination `j` inside a
//! constant-packet window `t`.
//!
//! Because the index space (`2^32` rows and columns) vastly exceeds the number
//! of occupied rows (at most one per packet), the matrices are *hypersparse*:
//! both the row set and the column sets are compressed, so storage is
//! `O(nnz)` with no dense dimension-sized arrays anywhere. This is the
//! doubly-compressed sparse row (DCSR) representation used by SuiteSparse
//! GraphBLAS for the same workload.
//!
//! The crate provides:
//!
//! * [`Coo`] — an append-only triple buffer compacted either by comparison
//!   sort (the serial oracle) or by the [`radix`] LSD counting-sort kernel,
//!   selected at a fixed size threshold ([`coo::RADIX_THRESHOLD`]),
//! * [`Csr`] — an immutable hypersparse matrix supporting the full menu of
//!   network quantities from Table II of the paper ([`reduce`]),
//! * [`hier::HierarchicalAccumulator`] — the hierarchical accumulation
//!   architecture of Kepner et al. (IPDPS-W 2020/HPEC 2021): packets are
//!   buffered into small leaf matrices which are summed pairwise like a
//!   binary counter, keeping every intermediate merge cache-friendly. It is
//!   the crate's only fold: resident, or spilling carry parts through the
//!   [`spill`] store under a memory budget,
//! * [`ops`] — element-wise addition, zero-norm (pattern) extraction,
//!   permutation (anonymization invariance), scaling, and transposition.
//!
//! # Quick example
//!
//! ```
//! use obscor_hypersparse::{Coo, reduce};
//!
//! let mut coo = Coo::<u64>::new();
//! coo.push(16843009, 33686018, 3); // 1.1.1.1 -> 2.2.2.2, 3 packets
//! coo.push(16843009, 33686019, 1);
//! let a = coo.into_csr();
//! assert_eq!(reduce::valid_packets(&a), 4);
//! assert_eq!(reduce::unique_sources(&a), 1);
//! assert_eq!(reduce::unique_destinations(&a), 2);
//! assert_eq!(reduce::max_source_fan_out(&a), 2);
//! ```

pub mod coo;
pub mod csr;
pub mod hier;
pub mod keypack;
pub mod ops;
pub mod radix;
pub mod reduce;
pub mod serialize;
pub mod spgemm;
pub mod spill;
pub mod value;

pub use coo::Coo;
pub use csr::Csr;
pub use hier::HierarchicalAccumulator;
pub use spill::{
    DirMedium, MemMedium, SpillConfig, SpillFault, SpillMedium, SpillReport, SpillStats,
    SpillStore,
};
pub use value::Value;

/// Row/column index type. The paper uses `uint32` indices so that an entire
/// IPv4 address space fits on each axis.
pub type Index = u32;
