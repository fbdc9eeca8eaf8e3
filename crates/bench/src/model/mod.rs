//! Analytic hardware models for the LRSCwait reproduction: the Table I
//! area model (kGE per `mempool_tile`, fitted to the paper's GF22FDX
//! synthesis results) and the Table II event-based energy model.

mod area;
mod energy;

pub(crate) use area::reservation_state_bits;
pub use area::{table1, tile_area_percent, Table1Row};
pub use energy::{energy_report, EnergyReport};
