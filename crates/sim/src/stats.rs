//! Simulation statistics: per-core and machine-wide counters, the
//! measurement-region bookkeeping, and derived throughput/fairness metrics.

use lrscwait_core::AdapterStats;
use lrscwait_noc::NetworkStats;

/// Per-core counters.
///
/// # Where every cycle goes
///
/// While a core exists, each simulated cycle it is visited in lands in
/// exactly one of four buckets — the split the paper's argument is
/// about, and the one `examples/quickstart.rs` prints:
///
/// * [`active_cycles`](CoreStats::active_cycles) — the core **issued**
///   an instruction this cycle (useful work, including the issue cycle
///   of memory operations). A polling retry loop burns these.
/// * [`stall_cycles`](CoreStats::stall_cycles) — the core was
///   **runnable but could not issue**: the pipeline had not reached its
///   `ready_at` (taken-branch and divide penalties, the one-cycle
///   realignment after a wake or barrier release) or the request outbox
///   was full (network backpressure).
/// * [`sleep_cycles`](CoreStats::sleep_cycles) — the core was **parked
///   on a blocking memory response**, issuing nothing and producing no
///   network traffic. Waiting inside an LRSCwait/Colibri reservation
///   queue lands here: cheap, polling-free cycles. The same contention
///   on the LRSC baseline shows up as `active_cycles` + network traffic
///   instead (the retry loop), which is exactly the comparison the
///   figures draw.
/// * [`barrier_cycles`](CoreStats::barrier_cycles) — parked at the
///   hardware barrier.
///
/// The buckets are disjoint; cycles after a core halts are in none of
/// them. Both execution modes produce identical splits (the production
/// stepper's lazy accounting settles parked and deferred deltas on wake
/// and re-admission, so the sums match the reference stepper
/// bit-for-bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles spent issuing an instruction (see the struct-level
    /// accounting overview).
    pub active_cycles: u64,
    /// Cycles the core was runnable but could not issue: the pipeline had
    /// not reached `ready_at` (branch/divide penalties, post-wake
    /// alignment) or the request outbox was full (backpressure). These
    /// used to be misattributed to `active_cycles`.
    pub stall_cycles: u64,
    /// Cycles blocked waiting for a memory response — *sleeping*, producing
    /// no traffic (the LRSCwait benefit shows up here).
    pub sleep_cycles: u64,
    /// Cycles parked at the hardware barrier.
    pub barrier_cycles: u64,
    /// Benchmark operations counted via the MMIO op counter.
    pub ops: u64,
    /// Cycle of the measured-region start marker (if written).
    pub region_start: Option<u64>,
    /// Cycle of the measured-region end marker (if written).
    pub region_end: Option<u64>,
}

impl CoreStats {
    /// This core's measured-region length in cycles, when both markers were
    /// written.
    #[must_use]
    pub fn region_cycles(&self) -> Option<u64> {
        match (self.region_start, self.region_end) {
            (Some(s), Some(e)) if e > s => Some(e - s),
            _ => None,
        }
    }

    /// Ops per cycle over this core's own measured region.
    #[must_use]
    pub fn throughput(&self) -> Option<f64> {
        self.region_cycles().map(|c| self.ops as f64 / c as f64)
    }
}

/// Machine-wide statistics after (or during) a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Request-network statistics.
    pub req_network: NetworkStats,
    /// Response-network statistics.
    pub resp_network: NetworkStats,
    /// Sum of all bank adapters' counters.
    pub adapters: AdapterStats,
}

impl SimStats {
    /// Total benchmark operations across cores.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.cores.iter().map(|c| c.ops).sum()
    }

    /// Total instructions retired.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instret).sum()
    }

    /// Total cycles cores spent issuing instructions.
    #[must_use]
    pub fn total_active_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.active_cycles).sum()
    }

    /// Total cycles runnable cores spent stalled (pipeline not ready or
    /// outbox backpressure) across cores.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.stall_cycles).sum()
    }

    /// Total cycles cores spent parked at the hardware barrier.
    #[must_use]
    pub fn total_barrier_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.barrier_cycles).sum()
    }

    /// Total cycles cores spent asleep waiting on memory.
    #[must_use]
    pub fn total_sleep_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.sleep_cycles).sum()
    }

    /// Measured-region window: `(latest start, earliest end among cores that
    /// wrote both markers)` — the span where all participants were active.
    #[must_use]
    pub fn region_window(&self) -> Option<(u64, u64)> {
        let mut start = None;
        let mut end = None;
        for c in &self.cores {
            if let (Some(s), Some(e)) = (c.region_start, c.region_end) {
                start = Some(start.map_or(s, |v: u64| v.max(s)));
                end = Some(end.map_or(e, |v: u64| v.min(e)));
            }
        }
        match (start, end) {
            (Some(s), Some(e)) if e > s => Some((s, e)),
            _ => None,
        }
    }

    /// Aggregate throughput in ops/cycle: total ops divided by the
    /// outermost region span (earliest start to latest end).
    #[must_use]
    pub fn throughput(&self) -> Option<f64> {
        let mut start: Option<u64> = None;
        let mut end: Option<u64> = None;
        for c in &self.cores {
            if let (Some(s), Some(e)) = (c.region_start, c.region_end) {
                start = Some(start.map_or(s, |v| v.min(s)));
                end = Some(end.map_or(e, |v| v.max(e)));
            }
        }
        match (start, end) {
            (Some(s), Some(e)) if e > s => Some(self.total_ops() as f64 / (e - s) as f64),
            _ => None,
        }
    }

    /// Fairness range: (slowest, fastest) per-core throughput among cores
    /// that completed a region (paper Fig. 6 shading).
    #[must_use]
    pub fn throughput_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for c in &self.cores {
            if let Some(t) = c.throughput() {
                lo = lo.min(t);
                hi = hi.max(t);
                any = true;
            }
        }
        any.then_some((lo, hi))
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// Every core executed `ecall` / wrote the EXIT register.
    AllHalted,
    /// The watchdog cycle limit fired first.
    Watchdog,
    /// A [`crate::Machine::run_until`] cycle target was reached with the
    /// machine still live (some cores not halted, watchdog not fired).
    TargetReached,
}

/// Host work a machine has done so far ([`crate::Machine::work`]): exact
/// counts of the stepper's units of work, the terms a layer cost model
/// multiplies by unit costs.
///
/// They describe the host, not the simulated machine, so they are not
/// part of [`SimStats`], the state bytes or a snapshot (a restore keeps
/// them), and they differ between execution modes. They are a pure
/// function of the run, though: the same run counts the same work on any
/// host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Visits of the core-stepping phase: one per core it looked at in a
    /// cycle (the runnable set; every `Running` core in
    /// [`ExecMode::Reference`](crate::ExecMode::Reference)).
    pub core_visits: u64,
    /// Instructions executed one at a time by the interpreter.
    pub interpreted_steps: u64,
    /// Superblocks entered (`run_block` calls).
    pub superblock_entries: u64,
    /// Running cores moved from the runnable set to the ready queue.
    pub deferrals: u64,
    /// Node visits of `Network::advance` on the request and the response
    /// network, in that order: the nodes holding a flit when each call
    /// began.
    pub noc_node_visits: [u64; 2],
    /// Whole loop iterations superblocks retired in their loop step, each
    /// a pass over a compacted loop body (see `translate`'s "Loop"): the
    /// iterations after a taken back-edge that fit the horizon.
    pub loop_iterations: u64,
}

/// Result of [`crate::Machine::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycle count at exit.
    pub cycles: u64,
    /// Why the run ended.
    pub exit: ExitReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_and_throughput() {
        let stats = SimStats {
            cores: vec![
                CoreStats {
                    ops: 100,
                    region_start: Some(10),
                    region_end: Some(110),
                    ..CoreStats::default()
                },
                CoreStats {
                    ops: 50,
                    region_start: Some(20),
                    region_end: Some(100),
                    ..CoreStats::default()
                },
            ],
            ..SimStats::default()
        };
        assert_eq!(stats.total_ops(), 150);
        assert_eq!(stats.region_window(), Some((20, 100)));
        let t = stats.throughput().unwrap();
        assert!((t - 150.0 / 100.0).abs() < 1e-9); // span 10..110
        let (lo, hi) = stats.throughput_range().unwrap();
        assert!(lo < hi);
    }

    #[test]
    fn missing_region_yields_none() {
        let stats = SimStats {
            cores: vec![CoreStats::default()],
            ..SimStats::default()
        };
        assert_eq!(stats.region_window(), None);
        assert!(stats.throughput().is_none());
        assert!(stats.throughput_range().is_none());
    }

    #[test]
    fn per_core_throughput() {
        let c = CoreStats {
            ops: 10,
            region_start: Some(0),
            region_end: Some(100),
            ..CoreStats::default()
        };
        assert_eq!(c.region_cycles(), Some(100));
        assert!((c.throughput().unwrap() - 0.1).abs() < 1e-12);
    }
}
