//! Temporal correlation of Internet observatories and outposts.
//!
//! This crate is the paper's primary contribution: the analysis pipeline
//! that correlates source observations from a darknet telescope
//! (observatory) with those from a honeyfarm (outpost), reproducing every
//! table and figure of Kepner et al., *Temporal Correlation of Internet
//! Observatories and Outposts* (IPDPS Workshops, 2022):
//!
//! | Artifact | Module | Content |
//! |---|---|---|
//! | Table I  | [`pipeline`] | data-set inventory (windows, months, source counts) |
//! | Table II | [`pipeline`] | network quantities of each window's traffic matrix |
//! | Fig 3    | [`distribution`] | log2-binned source-packet distributions + Zipf–Mandelbrot fits |
//! | Fig 4    | [`peak`] | coeval telescope∩honeyfarm fraction vs. source packets |
//! | Fig 5/6  | [`temporal`], [`fitscan`] | overlap vs. month lag, per degree bin, with Gaussian/Cauchy/modified-Cauchy fits |
//! | Fig 7    | [`fitscan`] | best-fit modified-Cauchy α vs. d |
//! | Fig 8    | [`fitscan`] | one-month drop `1/(β+1)` vs. d |
//!
//! The full workflow (see [`pipeline::run`]) follows the paper's §I-III:
//! capture constant-packet windows, build CryptoPAN-anonymized
//! hierarchical GraphBLAS matrices, reduce to source packet counts,
//! deanonymize the reduced source list through the trusted-sharing
//! send-back workflow, convert to D4M key sets, and intersect with the
//! honeyfarm's monthly D4M arrays per log2 degree bin and month lag.
//!
//! ```no_run
//! use obscor_core::{pipeline, AnalysisConfig};
//! use obscor_netmodel::Scenario;
//!
//! let scenario = Scenario::paper_scaled(1 << 20, 42);
//! let analysis = pipeline::run(&scenario, &AnalysisConfig::default());
//! println!("{}", analysis.render_all());
//! ```

pub mod classes;
pub mod config;
pub mod degree;
pub mod distribution;
pub mod fitscan;
pub mod forecast;
pub mod peak;
pub mod pipeline;
pub mod report;
pub mod scaling;
pub mod subnets;
pub mod temporal;
pub mod validate;

pub use config::{AnalysisConfig, ArchiveConfig, SpillSettings};
pub use degree::WindowDegrees;
pub use pipeline::{run, PaperAnalysis};
