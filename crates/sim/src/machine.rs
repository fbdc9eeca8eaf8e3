//! The manycore machine: cores + Qnodes + banks with their synchronization
//! hardware, glued together by the two virtual networks.
//!
//! # Cycle order
//!
//! 1. Advance the request network; delivered requests are grouped by
//!    destination bank and serviced **in bank-id order** (and, within one
//!    bank, in delivery order) by the bank's [`Bank`]; responses
//!    land in the bank's outbox.
//! 2. Flush bank outboxes into the response network in **bank-id order**
//!    (FIFO per bank, so the (bank → core) ordering Colibri relies on
//!    holds).
//! 3. Advance the response network; deliveries pass through the core's
//!    [`Qnode`] (which may swallow `SuccessorUpdate`s or emit `WakeUp`s)
//!    and complete the core's in-flight operation.
//! 4. Step the cores by one instruction in **core-id order**. Barrier
//!    arrivals and halts are only *recorded* here; the barrier-release
//!    check runs once after the walk, so its accounting never depends on
//!    visit order.
//! 5. Flush core outboxes into the request network (backpressure stalls
//!    the core), with the per-cycle rotated round-robin start.
//!
//! Every phase is a `Machine` method that borrows the fields it touches
//! one by one. The bodies of Phases 1 and 4 — serving one request at its
//! bank (`serve`, which a host [`Machine::inject_store`] takes too) and
//! stepping the cores — live in `phases.rs`, the rest here.
//!
//! One host thread steps one machine, start to finish. A `Machine` is
//! `Send` (as is every [`Bank`]), so the way to use more CPUs is to
//! build independent machines on independent threads — which is what the
//! bench crate's `Sweep` does for every figure.
//!
//! **Determinism contract:** a run is a pure function of configuration,
//! program and host injections, and both [`ExecMode`]s produce
//! bit-identical summaries, statistics, CSV bytes and trace streams (the
//! differential and tracing suites enforce `Translated` ≡ `Reference`).
//! Every ordered worklist (dirty banks, dirty cores, the runnable set) is
//! an [`IdSet`], walked in ascending id whatever order its members were
//! inserted in, and the barrier release (the one genuinely order-sensitive
//! accounting site) is its own sub-phase after stepping, charging every
//! released core the same `now − parked_at` delta.
//!
//! # Event scheduling
//!
//! The paper's whole point is that LRSCwait cores *sleep* instead of
//! polling, so in the interesting regimes almost every core is parked in a
//! wait queue or at the barrier. The production stepper
//! ([`ExecMode::Translated`], the default) makes the simulator's cost track
//! *issue events* instead of `cores × cycles` — a core is visited only in
//! a cycle it can issue in:
//!
//! * **Runnable set.** Phase 4 walks, in ascending id, the set of cores in
//!   [`CoreState::Running`] that may issue this cycle; with the set empty
//!   the phase is skipped (as is bank service in a cycle that delivered
//!   no request). Cores leave it when
//!   they halt, park at the barrier, or block on memory, and re-enter on
//!   response delivery or barrier release — a parked core costs zero work
//!   per cycle.
//! * **Ready queue.** A `Running` core whose `ready_at` lies beyond the
//!   next cycle after its visit (branch penalty, divide latency, a
//!   superblock that ran ahead) also leaves the runnable set and waits in
//!   the ready queue; it is re-admitted, like a woken core, by insertion
//!   at exactly cycle `ready_at`. The queue is a 64-slot timing wheel of
//!   one-cycle slots, each a list threaded through the cores, plus a
//!   min-heap for the rare core due 64 or more cycles ahead (a long
//!   `Countdown` run-ahead); an occupancy bitmap gives fast-forwarding its
//!   earliest time. The order in which one cycle's due cores come out is
//!   unobservable: each re-admission is a set insert and that core's own
//!   stall credit. Cores blocked by a full outbox, a full store buffer or
//!   an undrained fence retry every cycle (`ready_at ≤ now + 1`) and stay
//!   in the set.
//! * **Lazy accounting.** Sleep/barrier cycle counters are settled as one
//!   `now − parked_at` delta on wake, and the stall cycles of a deferred
//!   core as one `(ready_at − 1) − max(parked_at, charged_until)` delta on
//!   re-admission (both flushed on [`Machine::stats`] and
//!   [`Machine::state_bytes`]), instead of one increment per skipped visit.
//! * **Cycle fast-forwarding.** Between cycles, [`Machine::run`] skips
//!   straight to the next event when the runnable set and the outboxes
//!   are empty: the earlier of the ready queue's earliest due cycle and
//!   both networks' [`next_ready_at`](Network::next_ready_at). Long
//!   all-asleep phases — the common case under LRSCwait — cost
//!   O(events), and an all-parked deadlock jumps directly to the
//!   watchdog.
//! * **Allocation-free hot loops.** Every per-cycle scratch buffer
//!   (message buffers, the dirty-bank/dirty-core/runnable sets, the ready
//!   queue, the networks' rings and visit lists) is reused; steady-state
//!   cycles perform zero heap allocations. The first nonzero write to an
//!   SPM page allocates it once, and a Colibri bank's first wait allocates
//!   its head/tail pairs once, the same way an outbox grows once to its
//!   high-water mark.
//!
//! # Superblocks
//!
//! Instead of dispatching one instruction per visit, the production
//! stepper pre-lowers the program image into micro-ops (once per
//! machine, at construction; a restore keeps them), and a
//! runnable core executes a whole straight-line-plus-branches run in one
//! tight loop (`crate::translate::run_block`), re-entering the
//! interpreter at every load/store/AMO/CSR/fence/ecall boundary — i.e.
//! exactly where the NoC, the adapters, or the timing model must observe
//! the core. (A `sw` to the MMIO op counter is the one store nothing
//! observes but the core's own `ops` count, so a superblock runs it.)
//! Inside a superblock timing does not depend on data, so a
//! run of single-cycle micro-ops is accounted once and a taken
//! `addi`/`bnez` delay loop is retired arithmetically (formulas in
//! `crate::translate`). Superblocks run *ahead* of the machine clock up
//! to the run loop's horizon (watchdog/target, so both stay
//! cycle-exact); the cycles already charged are tracked in
//! `Core::charged_until` so the lazy stall credit never double-counts.
//! Internal micro-ops are trace-silent in both modes, so trace streams
//! are unchanged.
//!
//! # Equivalence guarantee
//!
//! The production stepper is an *optimization, not a model change*:
//! cycle counts, every statistic, and therefore every benchmark CSV byte
//! are identical to the naive reference stepper
//! ([`ExecMode::Reference`]), which visits all cores every cycle with
//! eager per-cycle accounting. The differential test suite
//! (`crates/sim/tests/differential.rs` and the workspace-level
//! `tests/differential.rs`) runs both modes across the kernel ×
//! architecture matrix and asserts bit-identical
//! [`RunSummary`]/[`SimStats`] and byte-identical sweep CSVs.
//! Barrier-release accounting is visit-order-free by construction: the
//! release happens in its own sub-phase after stepping, charging
//! each released core `now − parked_at` barrier cycles (which is exactly
//! what the reference's eager one-per-visit counting adds up to).
//!
//! # Tracing
//!
//! [`Machine::set_tracer`] attaches a `lrscwait-trace` sink that observes
//! the run as structured events: core park/wake with cause, barrier
//! arrivals and releases, measured-region markers, request issue and the
//! banks' synchronization events. NoC traffic is not traced: each
//! network counts it per node itself ([`Machine::noc_traffic`]). Tracing
//! is an *observer, never a steering input*: results are
//! bit-identical with and without a sink, and the event stream itself is
//! identical across execution modes (enforced by
//! `crates/sim/tests/tracing.rs`). There is one stepper, traced or not:
//! every emit site is `tracer.emit(now, || TraceEvent::…)`, which with no
//! sink attached — the default — is one predictable branch that never
//! builds the event (`crates/sim/tests/alloc_free.rs` proves the untraced
//! cycle allocation-free). The one observer that takes a callback instead
//! of returning events, the bank's `handle_traced`, is called as
//! [`Bank::handle`] while the tracer is off.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lrscwait_asm::Program;
use lrscwait_core::{AdapterStats, Bank, MemRequest, MemResponse, Qnode};
use lrscwait_noc::{IdSet, MempoolTopology, Network, NodeTraffic};
use lrscwait_trace::{OpKind, TraceEvent, TraceSink, Tracer, WakeCause};

use crate::chaos::ChaosState;
use crate::config::{ConfigError, ExecMode, SimConfig, ROM_BASE};
use crate::cpu::{Core, CoreState, DecodedProgram};
use crate::phases::{ReqMsg, RespMsg, HOST_CORE};
use crate::profiler::{Phase, PhaseProfile, Profiler, ProfilerConfig};
use crate::ready::ReadyQueue;
use crate::spm::Spm;
use crate::stats::{CoreStats, ExitReason, RunSummary, SimStats, WorkStats};
use crate::translate::Translation;

/// Fatal simulation error (software bug in a kernel or harness misuse).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Core fetched outside the program image.
    IllegalPc {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
    },
    /// `ebreak` executed.
    Breakpoint {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
        /// 1-based source line, when known.
        line: Option<u32>,
    },
    /// Misaligned access.
    Misaligned {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
        /// Accessed address.
        addr: u32,
        /// 1-based source line, when known.
        line: Option<u32>,
    },
    /// Access to an unmapped or illegal address.
    Fault {
        /// Offending core.
        core: u32,
        /// Accessed address.
        addr: u32,
        /// What went wrong.
        what: &'static str,
    },
    /// The program text does not decode (corrupt image).
    BadProgram {
        /// Word index within the text segment.
        index: usize,
    },
    /// The program's data segment does not fit the configured SPM.
    ProgramTooLarge {
        /// Bytes of initialized data + bss the program needs.
        footprint: u32,
        /// Usable SPM size in bytes (`words_per_bank × banks` words).
        spm_bytes: u32,
    },
    /// The configuration itself is inconsistent.
    Config(ConfigError),
    /// A [`Machine::restore`] was handed a snapshot of a machine with a
    /// different execution mode, architecture, geometry or program image.
    SnapshotMismatch {
        /// The property that differs.
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalPc { core, pc } => {
                write!(f, "core {core}: illegal pc {pc:#010x}")
            }
            SimError::Breakpoint { core, pc, line } => {
                write!(f, "core {core}: ebreak at {pc:#010x} (line {line:?})")
            }
            SimError::Misaligned {
                core,
                pc,
                addr,
                line,
            } => write!(
                f,
                "core {core}: misaligned access to {addr:#010x} at pc {pc:#010x} (line {line:?})"
            ),
            SimError::Fault { core, addr, what } => {
                write!(f, "core {core}: {what} at {addr:#010x}")
            }
            SimError::BadProgram { index } => {
                write!(f, "text word {index} does not decode")
            }
            SimError::ProgramTooLarge {
                footprint,
                spm_bytes,
            } => {
                write!(
                    f,
                    "program data ({footprint} B) exceeds SPM ({spm_bytes} B)"
                )
            }
            SimError::Config(ref e) => write!(f, "invalid configuration: {e}"),
            SimError::SnapshotMismatch { what } => {
                write!(f, "cannot restore a snapshot taken with a different {what}")
            }
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// The simulated manycore system.
pub struct Machine {
    pub(crate) cfg: SimConfig,
    topo: MempoolTopology,
    pub(crate) program: Arc<DecodedProgram>,
    pub(crate) state: State,
    /// Tracing switch: [`Tracer::Off`] by default (tracing observes, it
    /// never steers).
    pub(crate) tracer: Tracer,
    /// Host-side phase profiler: [`Profiler::Off`] by default, following
    /// the same discipline as `tracer` — off is one predictable branch
    /// per site, and profiling never perturbs simulated results (it only
    /// reads host clocks between phases).
    profiler: Profiler,
    // Scratch buffers (allocation-free steady state).
    req_buf: Vec<ReqMsg>,
    resp_buf: Vec<RespMsg>,
    /// Delivered requests of this cycle as (bank, delivery index), sorted —
    /// the bank-id-ordered service schedule.
    req_order: Vec<(u32, u32)>,
    /// Response buffer handed to [`Bank::handle`] by `Machine::serve`.
    pub(crate) adapter_out: Vec<(u32, MemResponse)>,
    /// Superblock translation of the program image, built at
    /// construction unless `cfg.exec_mode == ExecMode::Reference` (kept
    /// `None` there); a snapshot restore keeps it.
    pub(crate) translation: Option<Translation>,
    /// Cycle horizon superblocks may run ahead to. Set by
    /// [`Machine::run_until`] for the duration of the run loop (clamped
    /// to the watchdog and the target) and reset to 0 on exit, so direct
    /// [`Machine::step_cycle`] callers execute exactly one instruction
    /// per core per visit in both modes.
    step_limit: u64,
    /// Host work done so far (see [`Machine::work`]).
    pub(crate) work: WorkStats,
}

/// Everything a run changes, and nothing that only configures or
/// observes it: what a [`Machine::snapshot`] clones.
#[derive(Debug)]
pub(crate) struct State {
    pub(crate) cycle: u64,
    pub(crate) cores: Vec<Core>,
    pub(crate) qnodes: Vec<Qnode>,
    /// One heap allocation per bank: banks stored inline fault in more
    /// pages, and build slower, as one mmapped block.
    #[allow(clippy::vec_box)]
    pub(crate) adapters: Vec<Box<Bank>>,
    pub(crate) spm: Spm,
    pub(crate) req_net: Network<ReqMsg>,
    pub(crate) resp_net: Network<RespMsg>,
    pub(crate) core_outbox: Vec<VecDeque<ReqMsg>>,
    pub(crate) bank_outbox: Vec<VecDeque<RespMsg>>,
    /// Banks with a non-empty response outbox (the Phase 2 walk list).
    pub(crate) dirty_banks: IdSet,
    pub(crate) halted: usize,
    pub(crate) barrier_waiting: usize,
    pub(crate) debug_log: Vec<(u64, u32, u32)>,
    /// Per-core blocking-operation kind; gives [`TraceEvent::Wake`] its
    /// cause. Maintained unconditionally (not just while tracing) so a
    /// snapshot of an untraced machine restores into a traced one.
    pub(crate) park_kind: Vec<OpKind>,
    /// Chaos fault-injection engine, built from [`SimConfig::chaos`] at
    /// construction. `None` (the default) follows the `tracer`/`profiler`
    /// discipline: one predictable branch per injection site, results
    /// bit-identical to a build without the engine. All injection happens
    /// in `step_cycle` itself (eviction pre-pass, bank-outbox flush,
    /// core-outbox drain, arbitration start), keyed on quantities the
    /// determinism contract already fixes — so chaos-on runs are equally
    /// deterministic across exec modes.
    pub(crate) chaos: Option<ChaosState>,
    /// `Running` cores that may issue next cycle (the Phase 4 walk list).
    /// Cores re-enter by insertion: response deliveries, barrier releases
    /// and ready-queue re-admissions.
    pub(crate) runnable: IdSet,
    /// `Running` cores that cannot issue before `now + 2`, by
    /// `ready_at` (a timing wheel, see `crate::ready`): each is re-admitted
    /// to `runnable` at exactly cycle `ready_at`, with `Core::parked_at`
    /// holding the cycle it was deferred at. Always empty in
    /// [`ExecMode::Reference`].
    pub(crate) ready_queue: ReadyQueue,
    /// Cores with a non-empty request outbox (Phase 5 of the production
    /// stepper).
    pub(crate) dirty_cores: IdSet,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.state.cores.len())
            .field("banks", &self.num_banks())
            .field("cycle", &self.state.cycle)
            .field("halted", &self.state.halted)
            .finish()
    }
}

impl Machine {
    /// Builds a machine and loads `program` (text into ROM, data into SPM).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] when a text word does not decode,
    /// [`SimError::ProgramTooLarge`] when the data image exceeds the SPM,
    /// and [`SimError::Config`] when the configuration is inconsistent
    /// (see [`SimConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics when the program's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn new(cfg: SimConfig, program: &Program) -> Result<Machine, SimError> {
        Machine::with_decoded(cfg, Machine::decode(program)?)
    }

    /// Decodes a program into an image that machines built with
    /// [`Machine::with_decoded`] can share behind one [`Arc`]. Each of them
    /// still translates it for itself.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] when a text word does not decode.
    ///
    /// # Panics
    ///
    /// Panics when the program's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn decode(program: &Program) -> Result<Arc<DecodedProgram>, SimError> {
        assert_eq!(
            program.text_base, ROM_BASE,
            "assemble kernels with the default text base"
        );
        DecodedProgram::from_program(program)
            .map(Arc::new)
            .map_err(|index| SimError::BadProgram { index })
    }

    /// Builds a machine around an already-decoded (possibly shared)
    /// program image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProgramTooLarge`] when the data image exceeds
    /// the SPM and [`SimError::Config`] when the configuration is
    /// inconsistent (see [`SimConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics when the image's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn with_decoded(cfg: SimConfig, program: Arc<DecodedProgram>) -> Result<Machine, SimError> {
        assert_eq!(
            program.base, ROM_BASE,
            "assemble kernels with the default text base"
        );
        cfg.validate()?;
        let topo = MempoolTopology::new(cfg.topology);
        let num_cores = cfg.topology.num_cores;
        let num_banks = cfg.topology.num_banks();
        let spm = Spm::new((cfg.words_per_bank() * num_banks) as u32);
        let footprint = program.bss_base + program.bss_size;
        if footprint > spm.bytes() {
            return Err(SimError::ProgramTooLarge {
                footprint,
                spm_bytes: spm.bytes(),
            });
        }

        let entry = program.entry;
        // Translate at construction (not lazily in the run loop) so the
        // steady-state cycle stays allocation-free.
        let translation = cfg
            .exec_mode
            .event_scheduled()
            .then(|| Translation::new(&program));
        let mut runnable = IdSet::new(num_cores);
        for id in 0..num_cores as u32 {
            runnable.insert(id);
        }
        let state = State {
            cycle: 0,
            cores: (0..num_cores as u32)
                .map(|id| Core::new(id, entry))
                .collect(),
            qnodes: (0..num_cores).map(|_| Qnode::new()).collect(),
            adapters: (0..num_banks)
                .map(|_| Box::new(cfg.arch.build(num_cores)))
                .collect(),
            spm,
            req_net: MempoolTopology::new(cfg.topology).build_request_network(),
            resp_net: MempoolTopology::new(cfg.topology).build_response_network(),
            core_outbox: (0..num_cores).map(|_| VecDeque::new()).collect(),
            bank_outbox: (0..num_banks).map(|_| VecDeque::new()).collect(),
            dirty_banks: IdSet::new(num_banks),
            halted: 0,
            barrier_waiting: 0,
            debug_log: Vec::new(),
            park_kind: vec![OpKind::Load; num_cores],
            chaos: cfg.chaos.map(ChaosState::new),
            runnable,
            ready_queue: ReadyQueue::with_capacity(num_cores),
            dirty_cores: IdSet::new(num_cores),
        };
        let mut machine = Machine {
            topo,
            program: Arc::clone(&program),
            state,
            tracer: Tracer::Off,
            profiler: Profiler::Off,
            req_buf: Vec::new(),
            resp_buf: Vec::new(),
            req_order: Vec::new(),
            adapter_out: Vec::new(),
            translation,
            step_limit: 0,
            work: WorkStats::default(),
            cfg,
        };
        // Load the initialized data image.
        for (i, chunk) in program.data.chunks(4).enumerate() {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            machine.write_word(program.data_base + 4 * i as u32, u32::from_le_bytes(word));
        }
        Ok(machine)
    }

    /// The active execution mode, fixed at construction by
    /// [`SimConfig::exec_mode`] (select it through
    /// [`crate::SimConfigBuilder::exec_mode`]).
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.cfg.exec_mode
    }

    /// Attaches a trace sink. Must be called before the first cycle so
    /// the sink observes a complete run. Emits
    /// [`TraceEvent::Start`] immediately with the machine geometry.
    ///
    /// Tracing never perturbs simulation: cycle counts, statistics and
    /// memory contents are bit-identical with and without a sink (the
    /// sink only observes). With no sink attached (the default) every emit
    /// site is one untaken branch — the differential and
    /// counting-allocator suites run untraced and prove the hot path
    /// unchanged.
    ///
    /// To read results back after [`Machine::run`], hand in a
    /// [`lrscwait_trace::SharedSink`] clone and keep the other handle.
    ///
    /// # Panics
    ///
    /// Panics when the machine has already been stepped.
    pub fn set_tracer(&mut self, sink: Box<dyn TraceSink>) {
        assert_eq!(self.state.cycle, 0, "attach the trace sink before running");
        self.tracer = Tracer::sink(sink);
        let cores = self.state.cores.len() as u32;
        let banks = self.num_banks();
        self.tracer.emit(0, || TraceEvent::Start { cores, banks });
    }

    /// Whether a trace sink is attached.
    #[must_use]
    pub fn tracing(&self) -> bool {
        !self.tracer.is_off()
    }

    /// Enables the host-side phase profiler (off by default).
    ///
    /// Profiling is strictly host-side: it reads monotonic clocks between
    /// `step_cycle` sub-phases and never touches simulated state, so
    /// cycle counts, statistics, memory contents and trace streams are
    /// bit-identical with the profiler on or off (the differential suite
    /// proves it). When off, each instrumentation site costs one
    /// predictable branch, mirroring the [`Tracer`] discipline.
    pub fn enable_profiler(&mut self, cfg: ProfilerConfig) {
        self.profiler = Profiler::enabled(cfg);
    }

    /// Whether the phase profiler is collecting.
    #[must_use]
    pub fn profiling(&self) -> bool {
        !self.profiler.is_off()
    }

    /// Snapshot of the phase profile collected so far (`None` when the
    /// profiler is off). Callable mid-run and after; snapshots are
    /// cumulative.
    #[must_use]
    pub fn profile(&self) -> Option<PhaseProfile> {
        self.profiler.snapshot()
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.state.cycle
    }

    /// Values written to the MMIO PRINT register: `(cycle, core, value)`.
    #[must_use]
    pub fn debug_log(&self) -> &[(u64, u32, u32)] {
        &self.state.debug_log
    }

    /// Cores that have halted (executed `ecall` or wrote the EXIT
    /// register) so far — `cores() - halted_cores()` live cores remain.
    #[must_use]
    pub fn halted_cores(&self) -> usize {
        self.state.halted
    }

    /// Total cores in the machine.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.state.cores.len()
    }

    pub(crate) fn num_banks(&self) -> u32 {
        self.state.adapters.len() as u32
    }

    /// Bank holding the word at `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / 4) % self.num_banks()
    }

    /// Host read of an SPM word.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM's `words_per_bank × banks`
    /// words.
    #[must_use]
    pub fn read_word(&self, addr: u32) -> u32 {
        assert!(addr < self.state.spm.bytes(), "host read outside SPM");
        self.state.spm.read(addr / 4)
    }

    /// Host write of an SPM word.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM's `words_per_bank × banks`
    /// words.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        assert!(addr < self.state.spm.bytes(), "host write outside SPM");
        self.state.spm.write(addr / 4, value);
    }

    /// Host-side store injection between cycles — the write primitive
    /// behind the open-loop traffic harness's guest-visible injection
    /// mailbox (`lrscwait-bench`'s `traffic` module).
    ///
    /// Unlike [`Machine::write_word`], the store goes through the owning
    /// bank's synchronization adapter exactly as a core's store would: it
    /// fires armed `mwait` monitors, breaks LR reservations and counts in
    /// the adapter statistics. Wake responses the adapter produces are
    /// queued on the bank's outbox and travel the response network with
    /// ordinary latency from the next cycle on. The host itself is not a
    /// core: its store applies instantly (no request-network round trip)
    /// and its acknowledgement is discarded.
    ///
    /// Injections are machine state like any other event: runs performing
    /// the same injections at the same cycles stay bit-identical across
    /// execution modes and tracing.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM's `words_per_bank × banks`
    /// words or not word-aligned.
    pub fn inject_store(&mut self, addr: u32, value: u32) {
        assert!(addr < self.state.spm.bytes(), "host store outside SPM");
        assert_eq!(addr % 4, 0, "host stores are word-aligned");
        let now = self.state.cycle;
        self.tracer.emit(now, || TraceEvent::Inject { addr, value });
        let req = MemRequest::Store {
            addr,
            value,
            mask: !0,
        };
        self.serve(self.bank_of(addr), HOST_CORE, &req, now);
    }

    /// Gathers current statistics.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut adapters = AdapterStats::default();
        for a in &self.state.adapters {
            let s = a.stats();
            adapters.requests += s.requests;
            adapters.loads += s.loads;
            adapters.stores += s.stores;
            adapters.amos += s.amos;
            adapters.sc_success += s.sc_success;
            adapters.sc_failure += s.sc_failure;
            adapters.wait_enqueued += s.wait_enqueued;
            adapters.wait_failfast += s.wait_failfast;
            adapters.scwait_success += s.scwait_success;
            adapters.scwait_failure += s.scwait_failure;
            adapters.successor_updates += s.successor_updates;
            adapters.wakeups += s.wakeups;
            adapters.reservations_broken += s.reservations_broken;
        }
        SimStats {
            cores: self
                .state
                .settled_core_stats(self.cfg.exec_mode.event_scheduled()),
            req_network: self.state.req_net.stats(),
            resp_network: self.state.resp_net.stats(),
            adapters,
        }
    }

    /// The host work this machine has done so far: core visits,
    /// interpreted steps, superblock entries, ready-queue deferrals and
    /// NoC node visits (see [`WorkStats`]).
    #[must_use]
    pub fn work(&self) -> WorkStats {
        self.work
    }

    /// Per-node traffic counters of the request and the response network,
    /// in that order, each in node id order (see [`NodeTraffic`]). They
    /// are not part of [`SimStats`] or [`Machine::state_bytes`], but a
    /// [`Machine::snapshot`] holds them, so a restore rolls them back with
    /// the rest of the state.
    #[must_use]
    pub fn noc_traffic(&self) -> [Vec<NodeTraffic>; 2] {
        [
            self.state.req_net.traffic().collect(),
            self.state.resp_net.traffic().collect(),
        ]
    }

    /// Runs until every core halts or the watchdog fires.
    ///
    /// Outside [`ExecMode::Reference`], cycles in which provably nothing
    /// can happen — no core can issue, the outboxes are drained, and no
    /// network flit becomes movable — are skipped by jumping the cycle
    /// counter straight to the next event (or to the watchdog limit,
    /// whichever comes first).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs (illegal pc, misalignment,
    /// breakpoints, faults).
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        self.run_until(u64::MAX)
    }

    /// Runs until every core halts, the watchdog fires, or the cycle
    /// counter reaches `target` — whichever comes first.
    ///
    /// Stopping at `target` is *transparent*: continuing afterwards (with
    /// another `run_until` or [`Machine::run`]) produces exactly the
    /// machine an uninterrupted run would have — fast-forward jumps and
    /// superblock run-ahead are clamped at the target. This is the hook
    /// open-loop harnesses use to interleave host work
    /// ([`Machine::inject_store`], [`Machine::snapshot`]) with simulation
    /// at precise cycles.
    ///
    /// Returns [`ExitReason::TargetReached`] with `cycles >= target` only
    /// when the machine is still live at the target; halt and watchdog
    /// take precedence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs (illegal pc, misalignment,
    /// breakpoints, faults).
    pub fn run_until(&mut self, target: u64) -> Result<RunSummary, SimError> {
        // Open the superblock horizon for the duration of the run loop:
        // the translated fast path may execute ahead of the cycle
        // counter, but never past the watchdog or the stop target, so
        // both stay cycle-exact. Reset on every exit so direct
        // `step_cycle` callers get single-instruction horizons (and the
        // per-cycle differential tests can compare both modes step by
        // step).
        self.step_limit = self.cfg.max_cycles.min(target);
        let wall_start = (!self.profiler.is_off()).then(std::time::Instant::now);
        let result = self.run_inner(target);
        if let Some(started) = wall_start {
            self.profiler
                .add_wall_ns(started.elapsed().as_nanos() as u64);
        }
        self.step_limit = 0;
        result
    }

    fn run_inner(&mut self, target: u64) -> Result<RunSummary, SimError> {
        while self.state.halted < self.state.cores.len() {
            if self.cfg.exec_mode.event_scheduled() {
                self.fast_forward(self.cfg.max_cycles.min(target));
            }
            if self.state.cycle >= self.cfg.max_cycles {
                return Ok(RunSummary {
                    cycles: self.state.cycle,
                    exit: ExitReason::Watchdog,
                });
            }
            if self.state.cycle >= target {
                return Ok(RunSummary {
                    cycles: self.state.cycle,
                    exit: ExitReason::TargetReached,
                });
            }
            self.step_cycle()?;
        }
        Ok(RunSummary {
            cycles: self.state.cycle,
            exit: ExitReason::AllHalted,
        })
    }

    /// Jumps `cycle` to just before the next event when the machine is
    /// provably idle until then.
    ///
    /// A cycle can only be skipped when stepping it would change nothing:
    /// no outbox holds traffic (pending injections touch network
    /// statistics every cycle), no core can issue (the runnable set is
    /// empty — every `Running` core waits in the ready queue, its stall
    /// cycles credited lazily), and no flit in either network becomes
    /// movable.
    ///
    /// `limit` clamps the jump (watchdog, or a [`Machine::run_until`]
    /// target).
    fn fast_forward(&mut self, limit: u64) {
        if !self.state.runnable.is_empty()
            || !self.state.dirty_banks.is_empty()
            || !self.state.dirty_cores.is_empty()
        {
            return;
        }
        // Cheapest source first, skipping the network scans once the very
        // next cycle is known to have work. `u64::MAX` means no event can
        // ever occur (all-parked deadlock): jump straight to the limit
        // (normally the watchdog).
        let now = self.state.cycle;
        let mut next = self.state.ready_queue.earliest(now).unwrap_or(u64::MAX);
        if next > now + 1 {
            next = next.min(self.state.req_net.next_ready_at().unwrap_or(u64::MAX));
        }
        if next > now + 1 {
            next = next.min(self.state.resp_net.next_ready_at().unwrap_or(u64::MAX));
        }
        self.state.cycle = now.max(next.saturating_sub(1).min(limit));
    }

    /// Advances the machine by exactly one cycle (see the module docs for
    /// the phase structure and the determinism contract).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs: stepping stops at the first
    /// faulting core in id order, and that fault is the one reported.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.state.cycle += 1;
        let now = self.state.cycle;
        let event_scheduled = self.cfg.exec_mode.event_scheduled();
        // Owned clock so the laps below don't borrow `self.profiler`
        // across the `&mut self` phase bodies; committed at the end.
        let mut clock = self.profiler.begin_cycle();

        self.req_net_advance(now);
        clock.lap(Phase::ReqNetAdvance);
        // A cycle that delivered nothing has nothing to service.
        if !self.req_buf.is_empty() {
            self.bank_service(now);
            clock.lap(Phase::BankService);
        }
        self.bank_flush(now);
        clock.lap(Phase::BankFlush);
        self.resp_net_advance(now);
        clock.lap(Phase::RespNetAdvance);
        self.resp_delivery(now);
        clock.lap(Phase::RespDelivery);
        // With nothing runnable the production stepper has no core to
        // visit.
        if event_scheduled {
            self.readmit_ready_cores(now);
        }
        if !(event_scheduled && self.state.runnable.is_empty()) {
            let stepped = self.core_step(now);
            clock.lap(Phase::CoreStep);
            stepped?;
        }
        self.barrier_release(now);
        clock.lap(Phase::BarrierRelease);
        if !(event_scheduled && self.state.dirty_cores.is_empty()) {
            self.core_flush(now);
        }
        clock.lap(Phase::CoreFlush);
        self.profiler.commit(&clock);
        Ok(())
    }

    /// Phase 1a: advance the request network.
    fn req_net_advance(&mut self, now: u64) {
        self.req_buf.clear();
        self.work.noc_node_visits[0] += self.state.req_net.active_nodes() as u64;
        self.state.req_net.advance(now, &mut self.req_buf);
    }

    /// Phase 1b: service the delivered requests, grouped by destination
    /// bank and processed in (bank id, delivery index) order. Within a
    /// bank, delivery order is preserved (the per-(core, bank) FIFO
    /// Colibri relies on).
    fn bank_service(&mut self, now: u64) {
        let req_buf = std::mem::take(&mut self.req_buf);
        self.req_order.clear();
        self.req_order
            .extend(req_buf.iter().enumerate().map(|(i, m)| (m.bank, i as u32)));
        self.req_order.sort_unstable();
        self.chaos_evict_before_service(&req_buf, now);
        let req_order = std::mem::take(&mut self.req_order);
        for &(bank, idx) in &req_order {
            let msg = &req_buf[idx as usize];
            debug_assert_eq!(msg.bank, bank);
            self.serve(bank, msg.src, &msg.req, now);
        }
        self.req_order = req_order;
        self.req_buf = req_buf;
    }

    /// Phase 2: flush bank outboxes into the response network, in bank
    /// id order.
    fn bank_flush(&mut self, now: u64) {
        let mut next = self.state.dirty_banks.next_from(0);
        while let Some(bank) = next {
            while let Some(&msg) = self.state.bank_outbox[bank as usize].front() {
                // Chaos: mutations rewrite/drop the response and wake
                // delay / jitter add injection latency. Mutation
                // counters are committed only when the message actually
                // leaves the outbox, so network backpressure cannot
                // double-count a candidate.
                let (send, extra, staged) = match &self.state.chaos {
                    None => (Some(msg), 0, None),
                    Some(state) => {
                        let mut staged = *state;
                        let send = staged.mutate_response(msg.resp).map(|resp| RespMsg {
                            core: msg.core,
                            resp,
                        });
                        let extra = state.plan.response_delay(now, bank, msg.core, &msg.resp);
                        (send, extra, Some(staged))
                    }
                };
                let Some(send) = send else {
                    // Mutation dropped the response on the floor.
                    self.state.bank_outbox[bank as usize].pop_front();
                    self.state.chaos = staged;
                    continue;
                };
                let route = self.topo.response_route(bank as usize, send.core as usize);
                match self
                    .state
                    .resp_net
                    .try_send(route, send, now + u64::from(extra))
                {
                    Ok(()) => {
                        self.state.bank_outbox[bank as usize].pop_front();
                        if let Some(staged) = staged {
                            self.state.chaos = Some(staged);
                        }
                    }
                    Err(_) => break,
                }
            }
            if self.state.bank_outbox[bank as usize].is_empty() {
                self.state.dirty_banks.remove(bank);
            }
            next = self.state.dirty_banks.next_from(bank + 1);
        }
    }

    /// Phase 3a: advance the response network.
    fn resp_net_advance(&mut self, now: u64) {
        self.resp_buf.clear();
        self.work.noc_node_visits[1] += self.state.resp_net.active_nodes() as u64;
        self.state.resp_net.advance(now, &mut self.resp_buf);
    }

    /// Phase 3b: responses reach cores (through their Qnodes).
    fn resp_delivery(&mut self, now: u64) {
        let resp_buf = std::mem::take(&mut self.resp_buf);
        for msg in &resp_buf {
            let c = msg.core as usize;
            let output = self.state.qnodes[c].on_response(msg.resp);
            if let Some(delivered) = output.deliver {
                self.complete_response(c, delivered, now);
            }
            if let Some(wakeup) = output.wakeup {
                let bank = self.bank_of(wakeup.addr());
                self.tracer.emit(now, || TraceEvent::ReqSent {
                    core: msg.core,
                    bank,
                    kind: OpKind::WakeUp,
                });
                self.push_outbox(
                    c,
                    ReqMsg {
                        src: msg.core,
                        bank,
                        req: wakeup,
                    },
                );
            }
        }
        self.resp_buf = resp_buf;
    }

    /// Phase 4: step the cores (production stepper: the runnable set,
    /// superblocks where the pc enters one; reference: every core with
    /// eager parked accounting).
    fn core_step(&mut self, now: u64) -> Result<(), SimError> {
        // Superblocks may run ahead to the run loop's horizon; outside
        // `run`/`run_until` the horizon collapses to `now` (exactly one
        // instruction per visit, like the reference stepper).
        let horizon = self.step_limit.max(now);
        if self.translation.is_some() {
            self.step_translated_cores(now, horizon)
        } else {
            self.step_all_cores(now)
        }
    }

    /// Phase 5: flush core outboxes into the request network. The start
    /// index rotates each cycle so no core gets static injection
    /// priority (round-robin arbitration, as in the real fabric).
    fn core_flush(&mut self, now: u64) {
        let event_scheduled = self.cfg.exec_mode.event_scheduled();
        let n = self.state.cores.len() as u32;
        let start = match &self.state.chaos {
            Some(state) if state.plan.perturb_arbitration => {
                state.plan.arbitration_start(now, u64::from(n)) as u32
            }
            _ => (now % u64::from(n)) as u32,
        };
        if event_scheduled {
            // From core `start` upwards, then the cores below it.
            for (lo, hi) in [(start, n), (0, start)] {
                let mut next = self.state.dirty_cores.next_from(lo);
                while let Some(c) = next.filter(|&c| c < hi) {
                    self.drain_core_outbox(c as usize, now);
                    if self.state.core_outbox[c as usize].is_empty() {
                        self.state.dirty_cores.remove(c);
                    }
                    next = self.state.dirty_cores.next_from(c + 1);
                }
            }
        } else {
            for i in 0..n {
                self.drain_core_outbox(((start + i) % n) as usize, now);
            }
        }
    }

    /// Chaos eviction pre-pass (before bank service): walks the service
    /// schedule and spuriously evicts reservations immediately before
    /// their requests are serviced.
    /// A spurious `sc`/`scwait` failure *is* such an eviction — the
    /// adapters' own fail paths then advance their queues exactly as
    /// for a reservation lost to an intervening write, so all protocol
    /// state stays consistent by construction. Decisions are stateless
    /// hashes of (seed, cycle, bank, delivery index) — identical in
    /// every exec mode.
    fn chaos_evict_before_service(&mut self, req_buf: &[ReqMsg], now: u64) {
        let Some(state) = self.state.chaos else {
            return;
        };
        let plan = state.plan;
        if plan.evict_per_mille == 0 && plan.sc_fail_per_mille == 0 {
            return;
        }
        let tracer = &mut self.tracer;
        for &(bank, idx) in &self.req_order {
            let req = &req_buf[idx as usize].req;
            let is_sc = matches!(req, MemRequest::Sc { .. } | MemRequest::ScWait { .. });
            let evict = if is_sc {
                plan.fail_sc(now, bank, idx)
            } else {
                plan.evict_request(now, bank, idx)
            };
            if evict {
                self.state.adapters[bank as usize].chaos_evict(req.addr(), &mut |event| {
                    tracer.emit(now, || TraceEvent::Sync { bank, event });
                });
            }
        }
    }

    /// Injects a core's queued requests until the network backpressures.
    fn drain_core_outbox(&mut self, c: usize, now: u64) {
        // Ordinal of the request within this core's drain this cycle —
        // the chaos request-jitter key (identical across exec modes).
        let mut ordinal = 0u32;
        while let Some(&msg) = self.state.core_outbox[c].front() {
            let extra = match &self.state.chaos {
                None => 0,
                Some(state) => state.plan.request_jitter(now, c as u32, ordinal),
            };
            let route = self.topo.request_route(c, msg.bank as usize);
            match self
                .state
                .req_net
                .try_send(route, msg, now + u64::from(extra))
            {
                Ok(()) => {
                    self.state.core_outbox[c].pop_front();
                    ordinal += 1;
                }
                Err(_) => break,
            }
        }
    }

    /// Queues a request on a core's outbox (Phases 3 and 4), tracking
    /// outbox dirtiness for Phase 5.
    pub(crate) fn push_outbox(&mut self, c: usize, msg: ReqMsg) {
        self.state.core_outbox[c].push_back(msg);
        self.state.dirty_cores.insert(c as u32);
    }

    /// Moves every deferred core whose issue cycle is `now` from the ready
    /// queue back into the runnable set, crediting the stall cycles the
    /// per-cycle walk would have charged on the visits it skipped
    /// (`parked_at + 1 ..= now − 1`, minus those a superblock already
    /// charged in-block).
    fn readmit_ready_cores(&mut self, now: u64) {
        let State {
            cores,
            ready_queue,
            runnable,
            ..
        } = &mut self.state;
        ready_queue.pop_due(cores, now, |core, c| {
            core.stats.stall_cycles += (now - 1) - core.parked_at.max(core.charged_until);
            let fresh = runnable.insert(c);
            debug_assert!(fresh, "deferred core was still runnable");
        });
    }

    fn complete_response(&mut self, c: usize, resp: MemResponse, now: u64) {
        match resp {
            MemResponse::StoreAck => {
                debug_assert!(self.state.cores[c].outstanding_stores > 0);
                self.state.cores[c].outstanding_stores -= 1;
            }
            MemResponse::Load { value }
            | MemResponse::Amo { old: value }
            | MemResponse::Lr { value }
            | MemResponse::Wait { value, .. } => {
                self.state.cores[c].complete(value, now);
                self.emit_wake(c, now);
                self.wake_from_sleep(c, now);
            }
            MemResponse::Sc { success } | MemResponse::ScWait { success } => {
                self.state.cores[c].complete(u32::from(!success), now);
                self.emit_wake(c, now);
                self.wake_from_sleep(c, now);
            }
            MemResponse::SuccessorUpdate { .. } => {
                unreachable!("SuccessorUpdate must be consumed by the Qnode")
            }
        }
    }

    /// Emits the [`TraceEvent::Wake`] for a blocking-response delivery,
    /// with the operation the core parked on as the cause.
    fn emit_wake(&mut self, c: usize, now: u64) {
        if !self.tracer.is_off() {
            let cause = WakeCause::Response(self.state.park_kind[c]);
            self.tracer.emit(now, || TraceEvent::Wake {
                core: c as u32,
                cause,
            });
        }
    }

    /// Event-driven bookkeeping after a blocking response delivery at
    /// `now`: settle the lazy sleep-cycle delta (the reference counts a
    /// sleep cycle per Phase 4 visit, i.e. for cycles `parked_at+1 ..
    /// now-1`; the core runs again in this cycle's Phase 4) and put the
    /// core back in the runnable set.
    fn wake_from_sleep(&mut self, c: usize, now: u64) {
        if self.cfg.exec_mode.event_scheduled() {
            self.state.cores[c].stats.sleep_cycles += now - 1 - self.state.cores[c].parked_at;
            let fresh = self.state.runnable.insert(c as u32);
            debug_assert!(fresh, "core woken while already runnable");
        }
    }

    /// Releases the barrier when every still-running core has arrived.
    ///
    /// Runs once per cycle, *after* the stepping phase — never inside
    /// it — so the accounting is independent of the order cores were
    /// visited in: every released core is charged `now − parked_at`
    /// barrier cycles, exactly what the reference's eager
    /// one-per-Phase-4-visit counting adds up to, and re-enters the
    /// runnable set with `ready_at = now + 1`.
    fn barrier_release(&mut self, now: u64) {
        let running = self.state.cores.len() - self.state.halted;
        if running > 0 && self.state.barrier_waiting == running {
            let event_driven = self.cfg.exec_mode.event_scheduled();
            let waiting = self.state.barrier_waiting as u32;
            self.tracer
                .emit(now, || TraceEvent::BarrierRelease { waiting });
            for (x, core) in self.state.cores.iter_mut().enumerate() {
                if core.state == CoreState::Barrier {
                    core.state = CoreState::Running;
                    core.ready_at = now + 1;
                    self.tracer.emit(now, || TraceEvent::Wake {
                        core: x as u32,
                        cause: WakeCause::Barrier,
                    });
                    if event_driven {
                        core.stats.barrier_cycles += now - core.parked_at;
                        self.state.runnable.insert(x as u32);
                    }
                }
            }
            self.state.barrier_waiting = 0;
        }
    }
}

/// Field by field, so that [`clone_from`](Clone::clone_from) — a
/// [`Machine::restore`] — overwrites every buffer in place instead of
/// reallocating the machine's state: freed copies of it would stay
/// resident in the allocator's arena.
impl Clone for State {
    fn clone(&self) -> State {
        State {
            cycle: self.cycle,
            cores: self.cores.clone(),
            qnodes: self.qnodes.clone(),
            adapters: self.adapters.clone(),
            spm: self.spm.clone(),
            req_net: self.req_net.clone(),
            resp_net: self.resp_net.clone(),
            core_outbox: self.core_outbox.clone(),
            bank_outbox: self.bank_outbox.clone(),
            dirty_banks: self.dirty_banks.clone(),
            halted: self.halted,
            barrier_waiting: self.barrier_waiting,
            debug_log: self.debug_log.clone(),
            park_kind: self.park_kind.clone(),
            chaos: self.chaos,
            runnable: self.runnable.clone(),
            ready_queue: self.ready_queue.clone(),
            dirty_cores: self.dirty_cores.clone(),
        }
    }

    fn clone_from(&mut self, source: &State) {
        // Destructured, so that a new field cannot be left out.
        let State {
            cycle,
            cores,
            qnodes,
            adapters,
            spm,
            req_net,
            resp_net,
            core_outbox,
            bank_outbox,
            dirty_banks,
            halted,
            barrier_waiting,
            debug_log,
            park_kind,
            chaos,
            runnable,
            ready_queue,
            dirty_cores,
        } = source;
        self.cycle = *cycle;
        self.cores.clone_from(cores);
        self.qnodes.clone_from(qnodes);
        self.adapters.clone_from(adapters);
        self.spm.clone_from(spm);
        self.req_net.clone_from(req_net);
        self.resp_net.clone_from(resp_net);
        self.core_outbox.clone_from(core_outbox);
        self.bank_outbox.clone_from(bank_outbox);
        self.dirty_banks.clone_from(dirty_banks);
        self.halted = *halted;
        self.barrier_waiting = *barrier_waiting;
        self.debug_log.clone_from(debug_log);
        self.park_kind.clone_from(park_kind);
        self.chaos = *chaos;
        self.runnable.clone_from(runnable);
        self.ready_queue.clone_from(ready_queue);
        self.dirty_cores.clone_from(dirty_cores);
    }
}

impl State {
    /// Per-core statistics with every lazily-accounted delta settled up
    /// to the current cycle — what the reference stepper's eager
    /// one-per-visit counting has added up to by now: parked cycles for
    /// cores still asleep or at the barrier, stall cycles for cores still
    /// in the ready queue.
    pub(crate) fn settled_core_stats(&self, event_scheduled: bool) -> Vec<CoreStats> {
        let mut stats: Vec<CoreStats> = self.cores.iter().map(|c| c.stats).collect();
        if event_scheduled {
            for (core, stats) in self.cores.iter().zip(&mut stats) {
                match core.state {
                    CoreState::WaitingMem => stats.sleep_cycles += self.cycle - core.parked_at,
                    CoreState::Barrier => stats.barrier_cycles += self.cycle - core.parked_at,
                    CoreState::Running | CoreState::Halted => {}
                }
            }
        }
        self.ready_queue.for_each(&self.cores, |c| {
            let core = &self.cores[c as usize];
            // Saturating: after a run that stopped on a guest fault, a
            // superblock may already have charged beyond `cycle`.
            stats[c as usize].stall_cycles += self
                .cycle
                .saturating_sub(core.parked_at.max(core.charged_until));
        });
        stats
    }
}
