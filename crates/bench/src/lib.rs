//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary, `fig <name> [flags]`, regenerates any of them: the figures
//! are the functions of the [`FIGURES`] table (the listing `fig --help`
//! prints), each run in a [`Figure`] context carrying its name and flags.
//! Beside it, `trace` exports a Perfetto trace with a synchronization
//! analysis for any kernel × architecture pair and `litmus` runs the
//! adversarial scenarios under fault injection.
//!
//! Every figure accepts `--quick` (reduced sweep) and `--out DIR` (results
//! directory, default `results/`), writes `<DIR>/<name>.csv` and prints a
//! markdown rendering to stdout; a simulating figure also takes `--threads
//! N` (sweep parallelism) and prints a one-line simulator-throughput
//! report to stderr ([`log_throughput`]). [`FIG`] is the flag table, and
//! `fig --help` lists the flags, which figures cannot honour which, and
//! the figures; [`TRACE`] and [`LITMUS`] are the other two binaries'.
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
#![warn(unreachable_pub)]

pub mod litmus;
pub mod model;

mod args;
mod experiment;
mod figure;
mod figures;
mod heartbeat;
mod report;
mod sweep;
mod traffic;

pub use args::{
    Argv, BenchArgs, Cli, LitmusArgs, Names, Setter, TraceArgs, TraceKernel, BARRIER_IMPLS,
    EXEC_MODES, FIG, HIST_IMPLS, KERNELS, LITMUS, QUEUE_IMPLS, TRACE,
};
pub use experiment::{BenchError, Experiment, Measurement};
pub use figure::Figure;
pub use figures::{figure_listing, run_figure, FigureFn, FIGURES};
pub use report::{
    check_claim, exit_code, fmt_tp, log_throughput, markdown_table, write_csv, write_profile_json,
    write_trace_csv,
};
pub use sweep::{default_threads, Sweep};
