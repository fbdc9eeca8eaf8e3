//! # lrscwait — polling-free, retry-free manycore synchronization
//!
//! A full-system Rust reproduction of the DATE 2024 paper
//! *"LRSCwait: Enabling Scalable and Efficient Synchronization in Manycore
//! Systems through Polling-Free and Retry-Free Operation"*
//! (Riedel, Gantenbein, Ottaviano, Hoefler, Benini — arXiv:2401.09359).
//!
//! The paper extends RISC-V with three instructions — `lrwait.w`,
//! `scwait.w` and `mwait.w` — that move the linearization point of atomic
//! read-modify-write sequences from the store-conditional to the
//! load-reserved, letting contending cores *sleep* in a hardware
//! reservation queue instead of polling and retrying. **Colibri** is its
//! scalable implementation: a distributed linked-list queue with one
//! (head, tail) register pair per tracked address and one queue node per
//! core.
//!
//! This workspace rebuilds the entire evaluated system in Rust:
//!
//! | Crate | Role |
//! |---|---|
//! | [`core`] | The protocol: LRSC baseline, centralized LRSCwait queue, Colibri controller + Qnode, Mwait |
//! | [`isa`] | RV32IMA + Xlrscwait instruction set |
//! | [`asm`] | Assembler for benchmark kernels |
//! | [`noc`] | Backpressured hierarchical interconnect |
//! | [`sim`] | Cycle-accurate MemPool-like manycore simulator, its host-side phase profiler and seeded fault injection |
//! | [`trace`] | Zero-overhead tracing: structured events, Perfetto export, handoff/occupancy analysis, the invariant checker; the JSON parser and writer |
//! | [`kernels`] | The paper's benchmarks as real assembly, behind the `Workload` trait |
//! | `lrscwait-bench` | `Experiment`/`Sweep` runners regenerating every figure and table; the open-loop traffic harness and the area and energy models they need |
//!
//! `ARCHITECTURE.md` at the repository root is the guided tour: one
//! paragraph per crate, the eight sub-phases of a simulated cycle, the
//! two execution modes, and the determinism contract.
//!
//! # Quickstart
//!
//! Configurations come from the validating `SimConfig::builder()`, which
//! rejects inconsistent geometry up front:
//!
//! ```
//! use lrscwait::asm::Assembler;
//! use lrscwait::core::SyncArch;
//! use lrscwait::sim::{Machine, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four cores atomically increment a counter through the wait extension.
//! let program = Assembler::new().assemble(
//!     r#"
//!     _start:
//!         la   a0, counter
//!     retry:
//!         lrwait.w t0, (a0)      # response withheld until we own the queue head
//!         addi     t0, t0, 1
//!         scwait.w t1, t0, (a0)  # commit and wake the successor
//!         bnez     t1, retry
//!         ecall
//!     .data
//!     counter: .word 0
//!     "#,
//! )?;
//! let cfg = SimConfig::builder()
//!     .cores(4)
//!     .arch(SyncArch::Colibri { queues: 2 })
//!     .build()?;
//! let mut machine = Machine::new(cfg, &program)?;
//! machine.run()?;
//! assert_eq!(machine.read_word(program.symbol("counter")), 4);
//! // Nobody retried: the queue serialized the four cores.
//! assert_eq!(machine.stats().adapters.scwait_failure, 0);
//! # Ok(())
//! # }
//! ```
//!
//! Packaged workloads run through `lrscwait-bench`'s `Experiment`, which
//! loads, simulates, watchdogs and *functionally verifies* in one call:
//!
//! ```
//! use lrscwait::core::SyncArch;
//! use lrscwait::kernels::{HistImpl, HistogramKernel};
//! use lrscwait::sim::SimConfig;
//! use lrscwait_bench::Experiment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SimConfig::builder()
//!     .cores(8)
//!     .arch(SyncArch::Colibri { queues: 4 })
//!     .build()?;
//! let kernel = HistogramKernel::new(HistImpl::LrscWait, 16, 8, 8);
//! let m = Experiment::new(&kernel, cfg).x(16).run()?;
//! assert!(m.throughput > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use lrscwait_asm as asm;
pub use lrscwait_core as core;
pub use lrscwait_isa as isa;
pub use lrscwait_kernels as kernels;
pub use lrscwait_noc as noc;
pub use lrscwait_sim as sim;
pub use lrscwait_trace as trace;
