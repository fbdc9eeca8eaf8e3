//! The five workloads: one per regime the simulator actually has.
//!
//! The first three are the ones `BENCHMARK.json` lists, so the benchmark
//! driver runs and gates them. The driver's time cap pays for a fixed number
//! of measured seconds; spread over five workloads that was 18 s each, which
//! the host's slow phases outlasted (see `e2e::measure`), so the cap buys
//! three long windows instead. The other two are for `ledger run|trace|all`
//! at a terminal, where nothing caps the time.
//!
//! Each is a closed, single-threaded run of one guest kernel to completion.
//! The kernels are seedless guest programs (their LCGs hash the hart id), so
//! the simulated statistics of a workload are the same for every `--seed`;
//! the seed only drives the layer-probe inputs in `layers.rs`.
//!
//! Configurations come from `SimConfig::builder()` with the exec mode and
//! shard count left at the builder's defaults: the end-to-end numbers are
//! whatever a user of the library gets, so a later change that flips a
//! default shows up here as the gain (or loss) it is.

use lrscwait_core::SyncArch;
use lrscwait_kernels::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, QueueImpl, QueueKernel, Workload,
};
use lrscwait_sim::{ConfigError, SimConfig};

use crate::catalog::ARCHS;

/// Size divisor of `--smoke` runs.
pub const SMOKE_DIVISOR: u32 = 64;

/// Which `sim.cpu` probe matches a workload's instruction mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuMix {
    /// Long straight-line ALU blocks (`mix_loop`).
    Alu,
    /// Short blocks ending in a taken branch (backoff countdown).
    Branchy,
}

/// Which `core.<arch>.handle_ns.*` probe matches a workload's requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdapterOp {
    /// `amoadd.w` on the plain atomic path.
    Amo,
    /// `lr.w`/`sc.w` pairs.
    LrscPair,
    /// `lrwait.w`/`scwait.w` pairs.
    WaitPair,
}

/// Which `noc.advance_ns_per_hop.*` pattern matches a workload's traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NocPattern {
    /// Flits move through an uncongested network. Besides spread
    /// destinations this covers the wait workloads: their traffic targets
    /// one word, but the reservation queue parks every contender, so only a
    /// hand-off's few messages are ever in flight (the paper's point) and
    /// the profiler sees the uncongested per-hop cost.
    Uniform,
    /// Every core is awake and hammers the same bank: saturated queues and
    /// head-of-line blocking.
    Hotspot,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it (see the module comment).
    pub gated: bool,
    /// Simulated cores (256 = the paper's MemPool, 1024 = the scaled one).
    pub cores: usize,
    /// Synchronisation hardware in front of every bank.
    pub arch: SyncArch,
    /// Layer-model matching: which unit costs explain this workload.
    pub cpu_mix: CpuMix,
    /// See `cpu_mix`.
    pub adapter_op: AdapterOp,
    /// See `cpu_mix`.
    pub noc_pattern: NocPattern,
    /// Builds the kernel with its iteration count divided by `divisor`
    /// (1 = the benchmark size).
    kernel: fn(divisor: u32) -> Box<dyn Workload>,
}

fn scaled(iters: u32, divisor: u32) -> u32 {
    iters.div_ceil(divisor)
}

/// The workloads; the gated ones first, in `BENCHMARK.json` order.
pub const ALL: [Spec; 5] = [
    Spec {
        name: "busy_loop_256",
        why: "compute-bound regime: core stepping does nearly all the work, NoC and adapters idle; the bypass workload for every memory-system change",
        gated: true,
        cores: 256,
        arch: SyncArch::Lrsc,
        cpu_mix: CpuMix::Alu,
        adapter_op: AdapterOp::Amo,
        noc_pattern: NocPattern::Uniform,
        kernel: |d| {
            Box::new(
                HistogramKernel::new(HistImpl::AmoAdd, 1024, scaled(512, d), 256).with_compute(64),
            )
        },
    },
    Spec {
        name: "hist_spread_256",
        why: "NoC/bank-bound regime: all cores runnable every cycle, uniform traffic, plain amo bank service; wait queues bypassed. Model unvalidated (no RTL reference): simulated stats compare exactly",
        gated: true,
        cores: 256,
        arch: SyncArch::Lrsc,
        cpu_mix: CpuMix::Alu,
        adapter_op: AdapterOp::Amo,
        noc_pattern: NocPattern::Uniform,
        kernel: |d| Box::new(HistogramKernel::new(HistImpl::AmoAdd, 1024, scaled(8192, d), 256)),
    },
    Spec {
        name: "queue_sleep_256",
        why: "mostly-asleep regime: Colibri wait chains, event scheduler, fast-forward; cores parked, NoC uncongested, core stepping idle. Guest kernels are seedless: --seed drives only the --trace 1 layer probes",
        gated: true,
        cores: 256,
        arch: SyncArch::Colibri { queues: 4 },
        cpu_mix: CpuMix::Branchy,
        adapter_op: AdapterOp::WaitPair,
        noc_pattern: NocPattern::Uniform,
        kernel: |d| Box::new(QueueKernel::new(QueueImpl::LrscWaitDirect, scaled(640, d), 256)),
    },
    Spec {
        name: "hist_retry_256",
        why: "the paper's LR/SC baseline: sc failure and backoff polling on one bin, hot-spot NoC, cores awake",
        gated: false,
        cores: 256,
        arch: SyncArch::Lrsc,
        cpu_mix: CpuMix::Branchy,
        adapter_op: AdapterOp::LrscPair,
        noc_pattern: NocPattern::Hotspot,
        kernel: |d| Box::new(HistogramKernel::new(HistImpl::Lrsc, 1, scaled(96, d), 256)),
    },
    Spec {
        name: "barrier_wait_1024",
        why: "the 1024-core point: Network::advance and machine build on 4096 banks in 16 groups, cross-group Colibri hand-offs, bursty wake/park",
        gated: false,
        cores: 1024,
        arch: SyncArch::Colibri { queues: 4 },
        cpu_mix: CpuMix::Branchy,
        adapter_op: AdapterOp::WaitPair,
        noc_pattern: NocPattern::Uniform,
        kernel: |d| {
            Box::new(BarrierKernel::new(
                BarrierImpl::CentralLrscWait,
                scaled(256, d),
                1024,
            ))
        },
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        ALL.iter().find(|w| w.name == name)
    }

    /// The guest kernel at benchmark size, or 1/64 of it for `--smoke`.
    pub fn kernel(&self, smoke: bool) -> Box<dyn Workload> {
        (self.kernel)(if smoke { SMOKE_DIVISOR } else { 1 })
    }

    /// Metric-name segment of the machine geometry (`c256`, `c1024`).
    pub fn geometry_key(&self) -> String {
        format!("c{}", self.cores)
    }

    /// Metric-name segment of the sync architecture.
    ///
    /// # Panics
    ///
    /// Panics when the `core` probes do not cover `arch` (a ledger bug: the
    /// layer model would have no unit cost for this workload).
    pub fn arch_key(&self) -> &'static str {
        ARCHS
            .iter()
            .find(|(_, arch)| *arch == self.arch)
            .expect("every workload's architecture has core probes")
            .0
    }

    /// The machine configuration for `kernel`: MemPool geometry scaled to
    /// `cores`, a watchdog far above any workload's length, and the
    /// kernel's MMIO arguments.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ConfigError`] (a ledger bug: the specs above
    /// are fixed and valid).
    pub fn config(&self, kernel: &dyn Workload) -> Result<SimConfig, ConfigError> {
        let mut builder = SimConfig::builder()
            .mempool_cores(self.cores)
            .arch(self.arch)
            .max_cycles(200_000_000);
        for (index, value) in kernel.args() {
            builder = builder.arg(index, value);
        }
        builder.build()
    }
}
