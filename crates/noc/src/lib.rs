//! Backpressured hierarchical network-on-chip model for the LRSCwait
//! simulator.
//!
//! Two layers, plus [`IdSet`], the ordered id set both the network and
//! the simulator keep their ascending-id worklists in:
//!
//! * [`Network`] — a generic store-and-forward fabric of FIFO nodes with
//!   per-node service rate, queue capacity, hop latency, head-of-line
//!   blocking and source backpressure.
//! * [`MempoolTopology`] — the MemPool-style tile/group geometry with
//!   separate request and response virtual networks (so the protocol can
//!   never deadlock through a request/response cycle) and per-(src,dst)
//!   FIFO ordering (which Colibri's hand-off correctness requires).
//!
//! # Example
//!
//! ```
//! use lrscwait_noc::{MempoolTopology, Network, TopologyConfig};
//!
//! let topo = MempoolTopology::new(TopologyConfig::mempool());
//! let mut req: Network<&'static str> = topo.build_request_network();
//! let route = topo.request_route(/* core */ 0, /* bank */ 512);
//! req.try_send(route, "lrwait", 0).unwrap();
//! let mut delivered = Vec::new();
//! for cycle in 1..=8 {
//!     req.advance(cycle, &mut delivered);
//! }
//! assert_eq!(delivered, vec!["lrwait"]);
//! ```

#![forbid(unsafe_code)]

mod idset;
mod network;
mod topology;

pub use idset::IdSet;
pub use network::{Network, NetworkStats, NodeId, NodeSpec, NodeTraffic, Route};
pub use topology::{LinkSpecs, MempoolTopology, TopologyConfig};
