//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — tile area per architecture |
//! | `fig3` | Fig. 3 — histogram throughput, LRSCwait variants |
//! | `fig4` | Fig. 4 — histogram throughput, lock variants |
//! | `fig5` | Fig. 5 — matmul slowdown under atomics interference |
//! | `fig6` | Fig. 6 — queue throughput vs. core count |
//! | `table2` | Table II — power and energy per operation |
//! | `ablation` | Reservation-capacity ablation |
//! | `trace` | Perfetto trace + synchronization analysis for any kernel × arch pair |
//!
//! Every binary accepts `--quick` (reduced sweep), `--threads N` (sweep
//! parallelism) and `--out DIR` (results directory, default `results/`),
//! writes `<DIR>/<name>.csv`, prints a markdown rendering to stdout and a
//! one-line simulator-throughput report to stderr ([`log_throughput`]) —
//! except `table1`, which evaluates the area model without simulating
//! and therefore reports no simulator throughput.
//!
//! # The experiment API
//!
//! A measurement is produced by running any [`Workload`] against any
//! [`SimConfig`] through an [`Experiment`]; a figure is a [`Sweep`] of
//! experiments fanned across worker threads (every [`Machine`] is
//! independent, so sweeps scale near-linearly with cores):
//!
//! ```no_run
//! use lrscwait_bench::{Experiment, Sweep};
//! use lrscwait_core::SyncArch;
//! use lrscwait_kernels::{HistImpl, HistogramKernel};
//! use lrscwait_sim::SimConfig;
//!
//! # fn main() -> Result<(), lrscwait_bench::BenchError> {
//! let points: Vec<u32> = vec![1, 16, 256];
//! let measurements = Sweep::new("example").run(points, |bins| {
//!     let arch = SyncArch::Colibri { queues: 4 };
//!     let cfg = SimConfig::builder().mempool().arch(arch).build()?;
//!     let kernel = HistogramKernel::new(HistImpl::LrscWait, bins, 16, 256);
//!     Experiment::new(&kernel, cfg).x(bins).run()
//! })?;
//! assert_eq!(measurements.len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! [`Workload`]: lrscwait_kernels::Workload
//! [`SimConfig`]: lrscwait_sim::SimConfig
//! [`Machine`]: lrscwait_sim::Machine

#![forbid(unsafe_code)]

pub mod litmus;

mod args;
mod experiment;
mod report;
mod sweep;

pub use args::{flag_listing, BenchArgs, FLAGS, USAGE};
pub use experiment::{BenchError, Experiment, Measurement};
pub use report::{
    check_claim, find_throughput, fmt_tp, log_throughput, markdown_table, run_main, write_csv,
    write_profile_json, write_profile_set, write_trace_csv,
};
pub use sweep::{default_threads, is_transient_io, retry_transient_io, Sweep};
