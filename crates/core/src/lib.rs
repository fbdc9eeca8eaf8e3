//! The LRwait/SCwait/Mwait synchronization protocol — the primary
//! contribution of the DATE 2024 paper *"LRSCwait: Enabling Scalable and
//! Efficient Synchronization in Manycore Systems through Polling-Free and
//! Retry-Free Operation"* — together with all three hardware
//! implementations evaluated there.
//!
//! Every SPM bank has the same RV32A front end: loads, stores, atomics and
//! MemPool's single LR/SC reservation slot. The [`SyncArch`] it is built
//! from picks the wait unit behind that front end:
//!
//! * [`SyncArch::Lrsc`] — the MemPool baseline, with no wait unit. Failing
//!   `sc.w` forces software retry loops (the polling problem), and every
//!   wait request fails fast.
//! * [`SyncArch::LrscWait`] / [`SyncArch::LrscWaitIdeal`] — the centralized
//!   `LRSCwait_q` reservation queue (ideal when `q = n`); responses to
//!   `lrwait.w` are withheld until the requester is at the head of its
//!   address's queue, moving the linearization point from the SC to the LR
//!   and eliminating retries.
//! * [`SyncArch::Colibri`] + [`Qnode`] — **Colibri**, the scalable
//!   distributed queue: `O(n + 2m)` state, one queue node per core,
//!   `SuccessorUpdate` / `WakeUp` hand-off messages.
//!
//! [`SyncArch::build`] returns the [`Bank`]. Everything
//! here is *time-free*: banks and Qnodes are message-driven state machines.
//! The cycle-accurate behaviour (latencies, bandwidth, backpressure) is
//! added by `lrscwait-sim`; the [`harness`] module provides a
//! random-interleaving scheduler used by the property tests to explore
//! protocol corner cases directly.
//!
//! # Example: the paper's Fig. 2 hand-off
//!
//! ```
//! use lrscwait_core::{MapStorage, MemRequest, MemResponse, SyncArch, WaitMode};
//!
//! let mut bank = SyncArch::Colibri { queues: 1 }.build(2);
//! let mut mem = MapStorage::new();
//! let mut out = Vec::new();
//!
//! // Core A wins the empty queue and receives the value immediately.
//! bank.handle(0, &MemRequest::LrWait { addr: 0x40 }, &mut mem, &mut out);
//! assert_eq!(out.pop(), Some((0, MemResponse::Wait { value: 0, reserved: true })));
//!
//! // Core B is appended; A's Qnode learns its successor.
//! bank.handle(1, &MemRequest::LrWait { addr: 0x40 }, &mut mem, &mut out);
//! assert_eq!(
//!     out.pop(),
//!     Some((0, MemResponse::SuccessorUpdate { successor: 1, mode: WaitMode::LrWait }))
//! );
//! ```

#![forbid(unsafe_code)]

mod adapter;
mod arch;
mod bank;
mod colibri;
pub mod harness;
mod msg;
mod qnode;
mod state;
mod storage;
mod waitq;

pub use adapter::{AdapterStats, SyncEvent};
pub use arch::SyncArch;
pub use bank::Bank;
pub use msg::{Addr, CoreId, MemRequest, MemResponse, RmwOp, WaitMode, Word};
pub use qnode::{Qnode, QnodeOutput};
pub use state::{StateError, StateReader, StateWriter};
pub use storage::{MapStorage, WordStorage};
