//! The honeyfarm outpost.
//!
//! Models the GreyNoise honeyfarm: "hundreds of servers that passively
//! collect packets from hundreds of thousands of IPs seen scanning the
//! internet every day. GreyNoise servers converse with these sources and
//! analyze and enrich these observations to identify behavior, methods and
//! intent."
//!
//! The honeyfarm observes the same synthetic world as the telescope but
//! through a different instrument:
//!
//! * it integrates over *months*, not constant-packet windows,
//! * its chance of seeing a source depends on the source's brightness
//!   (detection efficiency, [`detect`]) and on how much of the month the
//!   source was active (the drifting beam),
//! * because it responds to traffic, it observes both traffic-matrix
//!   quadrants and can classify sources ([`engage`]), producing the
//!   enrichment of its monthly observations ([`monthly`]): sorted `u32`
//!   source addresses with typed enrichment, rendered as D4M arrays with
//!   metadata columns on request.
//!
//! Sensor-fleet configuration changes (Table I's 2020-03 and 2021-04
//! source-count spikes) enter as per-month coverage boosts.

pub mod detect;
pub mod engage;
pub mod monthly;

pub use detect::DetectionModel;
pub use engage::Engagement;
pub use monthly::{
    observe_all_month_sources, observe_all_months, observe_month, observe_month_sources,
    MonthSources, MonthlyObservation, UNKNOWN_CLASS,
};
