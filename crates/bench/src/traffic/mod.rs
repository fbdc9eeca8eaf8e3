//! Open-loop traffic for `fig_latency`: seeded arrivals, a service fleet
//! fed through per-core mailboxes, and tail-latency percentiles.
//!
//! The paper's throughput figures drive *closed* loops — every core
//! issues its next operation as soon as the previous one retires, so
//! latency is hidden by the loop itself. This module measures the quantity
//! closed loops cannot see: **end-to-end latency under open-loop load**,
//! where items arrive on their own schedule whether or not the fleet is
//! keeping up, and queueing delay compounds toward saturation.
//!
//! Four pieces, one file each:
//!
//! * [`ArrivalProcess`] — seeded Poisson and bursty (two-state MMPP)
//!   arrival streams. They are bit-identical on every platform: sampling
//!   uses only correctly-rounded IEEE-754 operations, so the same seed
//!   gives the same stream everywhere;
//! * [`ServiceKernel`] — the guest fleet. Each server sleeps on its own
//!   doorbell with `mwait.w`: parked and bandwidth-free on wait hardware,
//!   a backoff polling loop on plain LRSC, from the same binary;
//! * [`ServiceHarness`] — the host side, and the only host driver of the
//!   mailbox protocol. It queues arrivals, dispatches them to idle servers
//!   with `Machine::inject_store` between cycles, and reads completion
//!   cycles back from the servers' `CYCLE` stamps;
//! * [`TrafficSummary`] — what a run returns: the latency distribution in
//!   cycles (p50/p99/p99.9/max/mean, host-queue wait included),
//!   throughput, host-queue depth, and the stream's long-run mean
//!   inter-arrival time (the CSV's `interarrival`).
//!
//! The mailbox protocol is one per-core slot in each of the
//! `door`/`work`/`done`/`stamp` arrays, one line apart, a `checks` word
//! per server, and the `STOP` payload that shuts a server down.

mod arrival;
mod harness;
mod latency;
mod service;

pub(crate) use arrival::ArrivalProcess;
pub(crate) use harness::{ServiceHarness, TrafficSummary, WARMUP};
pub(crate) use service::ServiceKernel;
