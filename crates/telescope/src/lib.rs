//! The darknet telescope observatory.
//!
//! Models the CAIDA Telescope: a passive /8 darkspace whose incoming
//! packets — after discarding the small amount of legitimate traffic to
//! its few allocated addresses — are cut into constant-packet windows of
//! `N_V` valid packets and aggregated into CryptoPAN-anonymized
//! hypersparse GraphBLAS traffic matrices (hierarchically, from
//! `2^17`-packet leaves in the paper; scaled leaves here).
//!
//! Because the telescope is a darkspace, only the external → internal
//! quadrant of its traffic matrix is ever populated (Fig 1) — a property
//! the integration tests assert.

pub mod archive;
pub mod capture;
pub mod darkspace;
pub mod faults;
pub mod inventory;
pub mod matrix;
pub mod stream;

pub use archive::{
    archive_window, capture_archive, restore, QuarantinedLeaf, RestoreReport, WindowArchive,
};
pub use faults::{Fault, FaultKind, FaultPlan, FaultyMedium, ALL_FAULT_KINDS};
pub use capture::{
    capture_all_windows, capture_window, capture_window_at, window_traffic_source,
    TelescopeWindow, WindowCapture,
};
pub use darkspace::Darkspace;
pub use inventory::{inventory, InventoryRow, WindowTally};
pub use matrix::{
    build_matrix, build_matrix_spilled, build_matrix_with, leaf_capacity_for, push_edges,
    window_fold, SpillSettings, PAPER_LEAF_COUNT,
};
pub use stream::{DrainReport, IngestConfig, IngestService, WindowSnapshot};
