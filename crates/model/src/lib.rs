//! Analytic hardware models for the LRSCwait reproduction: the Table I
//! area model (kGE per `mempool_tile`, fitted to the paper's GF22FDX
//! synthesis results) and the Table II event-based energy model.
//!
//! # Example
//!
//! ```
//! use lrscwait_core::SyncArch;
//! use lrscwait_model::AreaParams;
//!
//! let area = AreaParams::default();
//! let colibri = area.tile_area_percent(Some(SyncArch::Colibri { queues: 1 }), 256);
//! assert!(colibri < 107.0, "Colibri's overhead stays small: {colibri:.1}%");
//! ```

#![forbid(unsafe_code)]

mod area;
mod energy;

pub use area::{table1, AreaParams, Table1Row};
pub use energy::{EnergyParams, EnergyReport};
