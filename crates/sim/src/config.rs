//! Simulator configuration: geometry, synchronization architecture, core
//! timing, memory map and harness parameters.
//!
//! Configurations are built through the validating [`SimConfig::builder`],
//! which rejects inconsistent geometry (more cores than banks, zero words
//! per bank, a Colibri controller with zero queues, …) at construction time
//! instead of misbehaving mid-simulation.

use std::error::Error;
use std::fmt;

use lrscwait_core::SyncArch;
use lrscwait_noc::TopologyConfig;

use crate::chaos::FaultPlan;

/// Base address of the instruction ROM.
pub const ROM_BASE: u32 = 0x0040_0000;
/// Base address of the MMIO harness device.
pub const MMIO_BASE: u32 = 0xFFFF_0000;
/// Size of the MMIO window in bytes.
pub const MMIO_SIZE: u32 = 0x1000;

/// MMIO register offsets (byte offsets from [`MMIO_BASE`]).
pub mod mmio_reg {
    /// Write: halt this core (end of computation).
    pub const EXIT: u32 = 0x00;
    /// Write: count `value` completed benchmark operations for this core.
    pub const OP_COUNT: u32 = 0x04;
    /// Write 1: enter the measured region; write 0: leave it.
    pub const REGION: u32 = 0x08;
    /// Write: block until every running core has written (barrier).
    pub const BARRIER: u32 = 0x0C;
    /// Read: this core's hart id.
    pub const HARTID: u32 = 0x10;
    /// Read: total number of cores.
    pub const NUM_CORES: u32 = 0x14;
    /// Read: benchmark argument `i` at `ARG0 + 4*i` (8 slots).
    pub const ARG0: u32 = 0x18;
    /// Write: append `value` to the host-visible debug log.
    pub const PRINT: u32 = 0x38;
    /// Read: current cycle count, truncated to 32 bits (same value as the
    /// `rdcycle` CSR; service kernels timestamp completions with it).
    pub const CYCLE: u32 = 0x3C;
}

/// Number of MMIO argument registers.
pub const NUM_ARGS: usize = 8;

/// How the machine schedules core stepping.
///
/// Both modes are cycle-accurate and produce bit-identical results —
/// every cycle count, statistic, trace stream and benchmark CSV byte
/// (proven continuously by the differential suites in
/// `crates/sim/tests/differential.rs` and `tests/differential.rs`); they
/// differ only in simulation cost. Selected per run through
/// [`SimConfigBuilder::exec_mode`]; either mode is valid with any
/// workload or architecture, so the builder accepts both without
/// further validation.
///
/// | Mode | Scheduling | Instruction dispatch | Cost |
/// |---|---|---|---|
/// | `Translated` | sorted runnable set + ready-time queue + fast-forward | superblock micro-ops, interpreter at boundaries | O(issue events) |
/// | `Reference` | every core, every cycle | interpreter | O(cores × cycles) |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The production stepper — the default. A core is visited only at
    /// its issue cycle: parked cores leave the runnable set with lazy
    /// sleep/barrier accounting, pipeline-stalled cores wait in a
    /// time-ordered ready queue, and `Machine::run` fast-forwards over
    /// cycles with no event. Straight-line runs of ALU/branch micro-ops
    /// (superblocks, see [`lrscwait_isa::MicroOp`]) execute as one tight
    /// loop charging the same per-instruction cycle accounting,
    /// re-entering the interpreter at every load/store/AMO/CSR/fence/ecall
    /// boundary where the NoC, adapters, or timing model must observe the
    /// core (a store to the MMIO op counter runs in-block).
    #[default]
    Translated,
    /// Naive stepper: every core visited every cycle with eager per-cycle
    /// accounting — O(cores × cycles). Kept as the differential-testing
    /// ground truth and performance baseline.
    Reference,
}

impl ExecMode {
    /// Whether this mode uses the event-scheduled machinery (runnable
    /// set, ready queue, lazy accounting, fast-forward) rather than the
    /// naive every-core-every-cycle reference walk.
    #[must_use]
    pub fn event_scheduled(self) -> bool {
        !matches!(self, ExecMode::Reference)
    }
}

/// Core pipeline timing knobs (Snitch-like single-issue in-order core).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreTiming {
    /// Extra cycles on a taken branch or jump.
    pub branch_penalty: u32,
    /// Cycles for `div`/`rem` (multiplication is single-cycle).
    pub div_latency: u32,
    /// Posted-store buffer depth (stores beyond this stall the core).
    pub store_buffer: u32,
}

impl Default for CoreTiming {
    fn default() -> CoreTiming {
        CoreTiming {
            branch_penalty: 1,
            div_latency: 8,
            store_buffer: 4,
        }
    }
}

/// A rejected [`SimConfigBuilder`] configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine must have at least one core.
    ZeroCores,
    /// More cores than SPM banks — the interleaved memory map requires at
    /// least one bank per core.
    CoresExceedBanks {
        /// Configured core count.
        cores: usize,
        /// Resulting bank count.
        banks: usize,
    },
    /// The SPM is smaller than one word per bank.
    ZeroWordsPerBank {
        /// Configured SPM size in bytes.
        spm_bytes: u32,
        /// Resulting bank count.
        banks: usize,
    },
    /// A Colibri controller needs at least one (head, tail) queue pair.
    ZeroColibriQueues,
    /// A centralized LRSCwait queue needs at least one slot.
    ZeroWaitSlots,
    /// Benchmark argument index outside `0..NUM_ARGS`.
    ArgIndexOutOfRange {
        /// Offending index.
        index: usize,
    },
    /// Core count not divisible into tiles.
    IndivisibleTiles {
        /// Configured core count.
        cores: usize,
        /// Cores per tile.
        cores_per_tile: usize,
    },
    /// Tile count not divisible into groups.
    IndivisibleGroups {
        /// Resulting tile count.
        tiles: usize,
        /// Tiles per group.
        tiles_per_group: usize,
    },
    /// The watchdog limit must be non-zero.
    ZeroMaxCycles,
    /// A chaos fault-plan probability exceeds 1000 per mille.
    ChaosRateOutOfRange {
        /// Which rate field is out of range.
        field: &'static str,
        /// The offending value.
        per_mille: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroCores => write!(f, "machine needs at least one core"),
            ConfigError::CoresExceedBanks { cores, banks } => {
                write!(
                    f,
                    "{cores} cores exceed {banks} SPM banks (need >= 1 bank per core)"
                )
            }
            ConfigError::ZeroWordsPerBank { spm_bytes, banks } => {
                write!(
                    f,
                    "{spm_bytes} B SPM leaves zero words for each of {banks} banks"
                )
            }
            ConfigError::ZeroColibriQueues => {
                write!(f, "Colibri controllers need at least one queue pair")
            }
            ConfigError::ZeroWaitSlots => {
                write!(f, "centralized LRSCwait queue needs at least one slot")
            }
            ConfigError::ArgIndexOutOfRange { index } => {
                write!(f, "benchmark argument index {index} outside 0..{NUM_ARGS}")
            }
            ConfigError::IndivisibleTiles {
                cores,
                cores_per_tile,
            } => {
                write!(
                    f,
                    "{cores} cores do not divide into tiles of {cores_per_tile}"
                )
            }
            ConfigError::IndivisibleGroups {
                tiles,
                tiles_per_group,
            } => {
                write!(
                    f,
                    "{tiles} tiles do not divide into groups of {tiles_per_group}"
                )
            }
            ConfigError::ZeroMaxCycles => write!(f, "watchdog limit must be non-zero"),
            ConfigError::ChaosRateOutOfRange { field, per_mille } => {
                write!(
                    f,
                    "chaos {field} = {per_mille}\u{2030} exceeds 1000\u{2030}"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Fabric geometry and link parameters.
    pub topology: TopologyConfig,
    /// Synchronization hardware in front of every bank.
    pub arch: SyncArch,
    /// Configured SPM size in bytes, split evenly across banks. The usable
    /// SPM is [`words_per_bank`](SimConfig::words_per_bank) × banks words;
    /// an access above it faults, even below `spm_bytes`.
    pub spm_bytes: u32,
    /// Core timing parameters.
    pub timing: CoreTiming,
    /// Watchdog: abort after this many cycles.
    pub max_cycles: u64,
    /// Benchmark arguments visible at `ARG0..`.
    pub args: [u32; NUM_ARGS],
    /// How the machine schedules core stepping (see [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Optional chaos fault-injection plan (see [`FaultPlan`]). `None`
    /// (the default) disables the engine entirely — one predictable
    /// branch per injection site, results bit-identical to a build
    /// without the engine. `Some(plan)` runs the chaos-on path; a
    /// [`quiet`](FaultPlan::is_quiet) plan decides "no fault" everywhere
    /// and still produces bit-identical results (proven by the
    /// differential suite in `crates/sim/tests/chaos.rs`).
    pub chaos: Option<FaultPlan>,
}

impl SimConfig {
    /// Starts a validating configuration builder (defaults: 4 cores,
    /// LRSC baseline, 64 KiB SPM, 2 M cycle watchdog).
    ///
    /// ```
    /// use lrscwait_sim::{ExecMode, SimConfig};
    ///
    /// let cfg = SimConfig::builder().cores(8).build().unwrap();
    /// assert_eq!(cfg.topology.num_cores, 8);
    /// assert_eq!(cfg.exec_mode, ExecMode::Translated);
    /// // Validation happens at build(): a machine without cores is rejected.
    /// assert!(SimConfig::builder().cores(0).build().is_err());
    /// ```
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// The paper's full-scale system: 256 cores, 1024 banks, 1 MiB SPM.
    #[must_use]
    pub fn mempool(arch: SyncArch) -> SimConfig {
        SimConfig {
            topology: TopologyConfig::mempool(),
            arch,
            spm_bytes: 1 << 20,
            timing: CoreTiming::default(),
            max_cycles: 10_000_000,
            args: [0; NUM_ARGS],
            exec_mode: ExecMode::Translated,
            chaos: None,
        }
    }

    /// A small configuration for unit and integration tests.
    #[must_use]
    pub fn small(num_cores: usize, arch: SyncArch) -> SimConfig {
        SimConfig {
            topology: TopologyConfig::small(num_cores),
            arch,
            spm_bytes: 1 << 16,
            timing: CoreTiming::default(),
            max_cycles: 2_000_000,
            args: [0; NUM_ARGS],
            exec_mode: ExecMode::Translated,
            chaos: None,
        }
    }

    /// Words per bank given the geometry (`spm_bytes / 4 / banks`, rounded
    /// down). The usable SPM is `words_per_bank × banks` words; an access
    /// above it faults.
    #[must_use]
    pub fn words_per_bank(&self) -> usize {
        (self.spm_bytes as usize / 4) / self.topology.num_banks()
    }

    /// Re-validates an existing configuration (the checks of
    /// [`SimConfigBuilder::build`], for configs assembled by hand).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let cores = self.topology.num_cores;
        if cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if cores % self.topology.cores_per_tile != 0 {
            return Err(ConfigError::IndivisibleTiles {
                cores,
                cores_per_tile: self.topology.cores_per_tile,
            });
        }
        let tiles = cores / self.topology.cores_per_tile;
        if tiles % self.topology.tiles_per_group != 0 {
            return Err(ConfigError::IndivisibleGroups {
                tiles,
                tiles_per_group: self.topology.tiles_per_group,
            });
        }
        let banks = tiles * self.topology.banks_per_tile;
        if banks < cores {
            return Err(ConfigError::CoresExceedBanks { cores, banks });
        }
        if (self.spm_bytes as usize / 4) / banks == 0 {
            return Err(ConfigError::ZeroWordsPerBank {
                spm_bytes: self.spm_bytes,
                banks,
            });
        }
        match self.arch {
            SyncArch::Colibri { queues: 0 } => return Err(ConfigError::ZeroColibriQueues),
            SyncArch::LrscWait { slots: 0 } => return Err(ConfigError::ZeroWaitSlots),
            _ => {}
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::ZeroMaxCycles);
        }
        if let Some(plan) = self.chaos {
            for (field, per_mille) in [
                ("evict_per_mille", plan.evict_per_mille),
                ("sc_fail_per_mille", plan.sc_fail_per_mille),
                ("wake_delay_per_mille", plan.wake_delay_per_mille),
                ("jitter_per_mille", plan.jitter_per_mille),
            ] {
                if per_mille > 1000 {
                    return Err(ConfigError::ChaosRateOutOfRange { field, per_mille });
                }
            }
        }
        Ok(())
    }
}

/// Validating builder for [`SimConfig`].
///
/// ```
/// use lrscwait_core::SyncArch;
/// use lrscwait_sim::SimConfig;
///
/// # fn main() -> Result<(), lrscwait_sim::ConfigError> {
/// let cfg = SimConfig::builder()
///     .cores(16)
///     .arch(SyncArch::Colibri { queues: 4 })
///     .max_cycles(5_000_000)
///     .arg(0, 7)
///     .build()?;
/// assert_eq!(cfg.topology.num_cores, 16);
/// assert_eq!(cfg.args[0], 7);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    topology: TopologyConfig,
    arch: SyncArch,
    spm_bytes: u32,
    timing: CoreTiming,
    max_cycles: u64,
    args: Vec<(usize, u32)>,
    exec_mode: ExecMode,
    chaos: Option<FaultPlan>,
}

impl Default for SimConfigBuilder {
    fn default() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }
}

impl SimConfigBuilder {
    /// Fresh builder with the small-test defaults.
    #[must_use]
    pub fn new() -> SimConfigBuilder {
        SimConfigBuilder {
            topology: TopologyConfig::small(4),
            arch: SyncArch::Lrsc,
            spm_bytes: 1 << 16,
            timing: CoreTiming::default(),
            max_cycles: 2_000_000,
            args: Vec::new(),
            exec_mode: ExecMode::Translated,
            chaos: None,
        }
    }

    /// Uses the small single-group topology with `n` cores.
    #[must_use]
    pub fn cores(mut self, n: usize) -> SimConfigBuilder {
        self.topology = TopologyConfig::small(n);
        self
    }

    /// Uses the paper's full-scale MemPool geometry (256 cores, 1024 banks,
    /// 1 MiB SPM, 10 M cycle watchdog).
    #[must_use]
    pub fn mempool(mut self) -> SimConfigBuilder {
        self.topology = TopologyConfig::mempool();
        self.spm_bytes = 1 << 20;
        self.max_cycles = 10_000_000;
        self
    }

    /// Uses a MemPool-style geometry scaled to `n` cores (tiles of 4
    /// cores / 16 banks, groups of up to 16 tiles — see
    /// [`TopologyConfig::mempool_scaled`]), keeping the paper's 1 KiB of
    /// SPM per bank and the 10 M cycle watchdog. `mempool_cores(256)` is
    /// exactly [`mempool`](Self::mempool); the 1024-core barrier study
    /// uses `mempool_cores(1024)`. Like `mempool`, this *sets* the
    /// watchdog — call [`max_cycles`](Self::max_cycles) afterwards to
    /// override it.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a positive multiple of 4 (the tile size).
    #[must_use]
    pub fn mempool_cores(mut self, n: usize) -> SimConfigBuilder {
        self.topology = TopologyConfig::mempool_scaled(n);
        self.spm_bytes = (self.topology.num_banks() as u32) << 10;
        self.max_cycles = 10_000_000;
        self
    }

    /// Uses an explicit topology.
    #[must_use]
    pub fn topology(mut self, topology: TopologyConfig) -> SimConfigBuilder {
        self.topology = topology;
        self
    }

    /// Selects the synchronization architecture.
    #[must_use]
    pub fn arch(mut self, arch: SyncArch) -> SimConfigBuilder {
        self.arch = arch;
        self
    }

    /// Sets the total SPM size in bytes.
    #[must_use]
    pub fn spm_bytes(mut self, bytes: u32) -> SimConfigBuilder {
        self.spm_bytes = bytes;
        self
    }

    /// Sets the core timing parameters.
    #[must_use]
    pub fn timing(mut self, timing: CoreTiming) -> SimConfigBuilder {
        self.timing = timing;
        self
    }

    /// Sets the watchdog cycle limit.
    #[must_use]
    pub fn max_cycles(mut self, cycles: u64) -> SimConfigBuilder {
        self.max_cycles = cycles;
        self
    }

    /// Records benchmark argument `i` (validated at [`build`](Self::build)).
    #[must_use]
    pub fn arg(mut self, i: usize, value: u32) -> SimConfigBuilder {
        self.args.push((i, value));
        self
    }

    /// Selects how the machine schedules core stepping.
    ///
    /// [`ExecMode::Translated`] (the default) is the production stepper:
    /// O(issue events) scheduling plus the superblock micro-op fast path;
    /// [`ExecMode::Reference`] is the naive O(cores × cycles)
    /// ground-truth stepper. Results are bit-identical in both — pick
    /// `Reference` only for differential testing or simulator-performance
    /// baselining:
    ///
    /// ```
    /// use lrscwait_sim::{ExecMode, SimConfig};
    ///
    /// # fn main() -> Result<(), lrscwait_sim::ConfigError> {
    /// let cfg = SimConfig::builder()
    ///     .cores(4)
    ///     .exec_mode(ExecMode::Reference)
    ///     .build()?;
    /// assert_eq!(cfg.exec_mode, ExecMode::Reference);
    /// assert!(!cfg.exec_mode.event_scheduled());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn exec_mode(mut self, mode: ExecMode) -> SimConfigBuilder {
        self.exec_mode = mode;
        self
    }

    /// Enables chaos fault injection with the given [`FaultPlan`]
    /// (validated at [`build`](Self::build): all rates ≤ 1000 per mille).
    ///
    /// ```
    /// use lrscwait_sim::{FaultPlan, SimConfig};
    ///
    /// # fn main() -> Result<(), lrscwait_sim::ConfigError> {
    /// let cfg = SimConfig::builder()
    ///     .cores(4)
    ///     .chaos(FaultPlan::standard(42))
    ///     .build()?;
    /// assert!(cfg.chaos.is_some());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> SimConfigBuilder {
        self.chaos = Some(plan);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency:
    /// zero cores, cores exceeding banks, an SPM too small for the bank
    /// count, a zero-queue Colibri or zero-slot wait queue, an argument
    /// index outside the MMIO window, indivisible tile/group geometry, or
    /// a zero watchdog.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let mut args = [0u32; NUM_ARGS];
        for &(i, value) in &self.args {
            if i >= NUM_ARGS {
                return Err(ConfigError::ArgIndexOutOfRange { index: i });
            }
            args[i] = value;
        }
        let cfg = SimConfig {
            topology: self.topology,
            arch: self.arch,
            spm_bytes: self.spm_bytes,
            timing: self.timing,
            max_cycles: self.max_cycles,
            args,
            exec_mode: self.exec_mode,
            chaos: self.chaos,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mempool_defaults() {
        let cfg = SimConfig::mempool(SyncArch::Lrsc);
        assert_eq!(cfg.topology.num_cores, 256);
        assert_eq!(cfg.topology.num_banks(), 1024);
        assert_eq!(cfg.words_per_bank(), 256); // 1 MiB / 4 / 1024
        cfg.validate().unwrap();
    }

    #[test]
    fn small_config_is_consistent() {
        let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
        assert!(cfg.topology.num_banks() >= 4);
        assert!(cfg.words_per_bank() > 0);
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_matches_presets() {
        let built = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Colibri { queues: 2 })
            .build()
            .unwrap();
        let preset = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
        assert_eq!(built.topology, preset.topology);
        assert_eq!(built.spm_bytes, preset.spm_bytes);
        assert_eq!(built.max_cycles, preset.max_cycles);

        let built = SimConfig::builder().mempool().build().unwrap();
        let preset = SimConfig::mempool(SyncArch::Lrsc);
        assert_eq!(built.topology, preset.topology);
        assert_eq!(built.spm_bytes, preset.spm_bytes);
        assert_eq!(built.max_cycles, preset.max_cycles);
    }

    #[test]
    fn builder_mempool_cores_scales_the_geometry() {
        let c256 = SimConfig::builder().mempool_cores(256).build().unwrap();
        let preset = SimConfig::builder().mempool().build().unwrap();
        assert_eq!(c256.topology, preset.topology);
        assert_eq!(c256.spm_bytes, preset.spm_bytes);

        let c1024 = SimConfig::builder().mempool_cores(1024).build().unwrap();
        assert_eq!(c1024.topology.num_cores, 1024);
        assert_eq!(c1024.topology.num_banks(), 4096);
        assert_eq!(c1024.words_per_bank(), 256, "1 KiB per bank preserved");
        assert!(c1024.max_cycles >= 10_000_000);

        let c64 = SimConfig::builder().mempool_cores(64).build().unwrap();
        assert_eq!(c64.topology.num_banks(), 256);
        c64.validate().unwrap();
    }

    #[test]
    fn builder_args() {
        let cfg = SimConfig::builder()
            .cores(2)
            .arg(0, 7)
            .arg(3, 9)
            .build()
            .unwrap();
        assert_eq!(cfg.args[0], 7);
        assert_eq!(cfg.args[3], 9);
    }

    #[test]
    fn builder_exec_mode_defaults_to_translated() {
        let cfg = SimConfig::builder().cores(2).build().unwrap();
        assert_eq!(cfg.exec_mode, ExecMode::Translated);
        let cfg = SimConfig::builder()
            .cores(2)
            .exec_mode(ExecMode::Reference)
            .build()
            .unwrap();
        assert_eq!(cfg.exec_mode, ExecMode::Reference);
        assert!(ExecMode::Translated.event_scheduled());
        assert!(!ExecMode::Reference.event_scheduled());
        assert_eq!(
            SimConfig::mempool(SyncArch::Lrsc).exec_mode,
            ExecMode::Translated
        );
    }

    #[test]
    fn builder_rejects_zero_cores() {
        assert_eq!(
            SimConfig::builder().cores(0).build().unwrap_err(),
            ConfigError::ZeroCores
        );
    }

    #[test]
    fn builder_rejects_cores_exceeding_banks() {
        let mut topo = TopologyConfig::small(8);
        topo.banks_per_tile = 1; // 2 banks for 8 cores
        let err = SimConfig::builder().topology(topo).build().unwrap_err();
        assert!(
            matches!(err, ConfigError::CoresExceedBanks { cores: 8, .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_zero_words_per_bank() {
        let err = SimConfig::builder()
            .cores(4)
            .spm_bytes(32)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ZeroWordsPerBank { .. }), "{err}");
    }

    #[test]
    fn builder_rejects_zero_colibri_queues() {
        let err = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Colibri { queues: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroColibriQueues);
    }

    #[test]
    fn builder_rejects_zero_wait_slots() {
        let err = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::LrscWait { slots: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroWaitSlots);
    }

    #[test]
    fn builder_rejects_bad_arg_index() {
        let err = SimConfig::builder()
            .cores(2)
            .arg(NUM_ARGS, 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ArgIndexOutOfRange { index: NUM_ARGS });
    }

    #[test]
    fn builder_rejects_indivisible_geometry() {
        let mut topo = TopologyConfig::small(8);
        topo.cores_per_tile = 3;
        let err = SimConfig::builder().topology(topo).build().unwrap_err();
        assert!(matches!(err, ConfigError::IndivisibleTiles { .. }), "{err}");

        let mut topo = TopologyConfig::small(8);
        topo.tiles_per_group = 3; // 2 tiles, groups of 3
        let err = SimConfig::builder().topology(topo).build().unwrap_err();
        assert!(
            matches!(err, ConfigError::IndivisibleGroups { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_chaos_defaults_off_and_rejects_bad_rates() {
        assert!(SimConfig::builder()
            .cores(2)
            .build()
            .unwrap()
            .chaos
            .is_none());
        assert!(SimConfig::mempool(SyncArch::Lrsc).chaos.is_none());
        let cfg = SimConfig::builder()
            .cores(2)
            .chaos(FaultPlan::standard(1))
            .build()
            .unwrap();
        assert_eq!(cfg.chaos, Some(FaultPlan::standard(1)));
        let err = SimConfig::builder()
            .cores(2)
            .chaos(FaultPlan {
                evict_per_mille: 1001,
                ..FaultPlan::quiet(0)
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ChaosRateOutOfRange {
                field: "evict_per_mille",
                per_mille: 1001
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn builder_rejects_zero_watchdog() {
        let err = SimConfig::builder()
            .cores(2)
            .max_cycles(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroMaxCycles);
    }

    #[test]
    fn config_errors_display() {
        let msgs = [
            ConfigError::ZeroCores.to_string(),
            ConfigError::CoresExceedBanks { cores: 8, banks: 2 }.to_string(),
            ConfigError::ZeroWordsPerBank {
                spm_bytes: 32,
                banks: 64,
            }
            .to_string(),
            ConfigError::ZeroColibriQueues.to_string(),
            ConfigError::ArgIndexOutOfRange { index: 9 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
