//! The open-loop service harness: drives a [`Machine`] running the
//! [`ServiceKernel`] fleet from the host side.
//!
//! The harness owns the load generator. Items arrive at cycles drawn from
//! an [`ArrivalProcess`]; each item waits in a host-side queue until a
//! server core is idle, is then injected through the core's mailbox
//! ([`Machine::inject_store`]: payload word, then doorbell bump), and is
//! considered complete when the core publishes `done == door` alongside a
//! `CYCLE`-stamped completion time. Per-item latency is
//! `completion − arrival`, so it includes host-side queue wait — the
//! quantity whose tail the figure plots.
//!
//! The machine advances in bounded [`Machine::run_until`] quanta: to the
//! next arrival when one is pending, and by [`POLL_INTERVAL`] otherwise.
//! Completion timestamps come from the guest-side stamp (exact), so the
//! poll quantum only bounds how late a *queued* item can be dispatched —
//! at high load arrivals are dense and the quantum is rarely the limit.

use std::collections::VecDeque;

use lrscwait_kernels::{VerifyError, Workload};
use lrscwait_sim::{ExitReason, Machine, PhaseProfile, ProfilerConfig, SimConfig};

use super::arrival::ArrivalProcess;
use super::latency::{LatencyRecorder, LatencyStats};
use super::service::ServiceKernel;
use crate::BenchError;

/// Idle poll quantum in cycles (bounds dispatch latency of queued items
/// between arrivals).
const POLL_INTERVAL: u64 = 64;

/// Cycles before the first arrival (fleet boot and barrier).
pub(crate) const WARMUP: u64 = 500;

/// Summary of one finished traffic run.
#[derive(Debug)]
pub(crate) struct TrafficSummary {
    /// Long-run mean inter-arrival time of the load (cycles).
    pub(crate) mean_interarrival: f64,
    /// Items requested.
    pub(crate) items: u64,
    /// Items actually completed (equals `items` unless `dnf`).
    pub(crate) completed: u64,
    /// Machine cycles at the end of the run.
    pub(crate) cycles: u64,
    /// True when the cycle budget ran out first (saturated point).
    pub(crate) dnf: bool,
    /// End-to-end latency distribution (arrival → completion).
    pub(crate) latency: LatencyStats,
    /// Completed items per thousand cycles.
    pub(crate) throughput_per_kcycle: f64,
    /// Mean host-queue depth over the sampled run.
    pub(crate) queue_depth_mean: f64,
    /// Maximum host-queue depth observed.
    pub(crate) queue_depth_max: u32,
}

/// One queued or in-service work item.
#[derive(Clone, Copy, Debug)]
struct Item {
    payload: u32,
    arrive: u64,
}

/// Deterministic nonzero payload for item `id`, never equal to
/// [`ServiceKernel::STOP`].
fn payload_for(id: u64) -> u32 {
    ((id as u32).wrapping_mul(0x9E37_79B9) & 0x7FFF_FFFF) | 1
}

/// Drives one machine + service fleet + arrival process to completion.
pub(crate) struct ServiceHarness {
    kernel: ServiceKernel,
    items: u64,
    machine: Machine,
    arrivals: ArrivalProcess,
    recorder: LatencyRecorder,
    // Guest symbol addresses.
    door: u32,
    work: u32,
    done: u32,
    stamp: u32,
    checks: u32,
    // Host state.
    queue: VecDeque<Item>,
    inflight: Vec<Option<Item>>,
    issued: Vec<u32>,
    sums: Vec<u32>,
    next_arrival: u64,
    generated: u64,
    completed: u64,
}

impl ServiceHarness {
    /// Builds the machine, loads the fleet program and arms the first of
    /// `items` arrivals. `sim_cfg.topology` must provide at least
    /// `kernel.num_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Load`] when the machine cannot be built.
    pub(crate) fn new(
        sim_cfg: SimConfig,
        kernel: ServiceKernel,
        items: u64,
        mut arrivals: ArrivalProcess,
    ) -> Result<ServiceHarness, BenchError> {
        let mut cfg = sim_cfg;
        for (i, value) in Workload::args(&kernel) {
            cfg.args[i] = value;
        }
        let program = Workload::program(&kernel);
        let machine = Machine::new(cfg, &program).map_err(BenchError::Load)?;
        let servers = kernel.num_cores as usize;
        let next_arrival = WARMUP + arrivals.next_arrival();
        Ok(ServiceHarness {
            kernel,
            items,
            door: program.symbol("door"),
            work: program.symbol("work"),
            done: program.symbol("done"),
            stamp: program.symbol("stamp"),
            checks: program.symbol("checks"),
            machine,
            arrivals,
            recorder: LatencyRecorder::default(),
            queue: VecDeque::new(),
            inflight: vec![None; servers],
            issued: vec![0; servers],
            sums: vec![0; servers],
            next_arrival,
            generated: 0,
            completed: 0,
        })
    }

    /// Enables the host-side phase profiler on the underlying machine.
    /// Profiling never changes simulated results — latencies and
    /// checksums are bit-identical with it on or off.
    pub(crate) fn enable_profiler(&mut self, cfg: ProfilerConfig) {
        self.machine.enable_profiler(cfg);
    }

    /// The machine's phase profile so far (None until the profiler is
    /// enabled).
    pub(crate) fn profile(&self) -> Option<PhaseProfile> {
        self.machine.profile()
    }

    /// Runs to completion (or to the cycle budget) and returns the
    /// summary. Saturated points come back with `dnf: true` rather than
    /// as errors, mirroring the DNF policy of the figure binaries.
    /// `label` names the run in errors.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Run`] when the simulation faults, and
    /// [`BenchError::Verify`] when the fleet halts before being stopped or
    /// its checksums or histogram conservation do not match what the host
    /// injected.
    pub(crate) fn run(&mut self, label: &str) -> Result<TrafficSummary, BenchError> {
        loop {
            if let Some(dnf) = self.step(label)? {
                return self.finish(label, dnf);
            }
        }
    }

    /// Advances the run by one poll quantum: absorb due arrivals, reap
    /// completions, dispatch queued items to idle servers, then run the
    /// machine to the next arrival or poll tick. Returns `Some(dnf)` once
    /// the run is over: `false` when every item completed, `true` when
    /// the cycle budget ran out first (a saturated point).
    fn step(&mut self, label: &str) -> Result<Option<bool>, BenchError> {
        let now = self.machine.cycles();

        // 1. Absorb arrivals due by now into the host queue.
        while self.generated < self.items && self.next_arrival <= now {
            self.queue.push_back(Item {
                payload: payload_for(self.generated),
                arrive: self.next_arrival,
            });
            self.generated += 1;
            if self.generated < self.items {
                self.next_arrival = WARMUP + self.arrivals.next_arrival();
            }
        }

        // 2. Reap completions: a server is done when it acknowledged the
        //    last doorbell; its stamp slot then holds the completion cycle.
        for c in 0..self.inflight.len() {
            let Some(item) = self.inflight[c] else {
                continue;
            };
            let c32 = c as u32;
            let acked = self.machine.read_word(ServiceKernel::slot(self.done, c32));
            if acked == self.issued[c] {
                let stamp = u64::from(self.machine.read_word(ServiceKernel::slot(self.stamp, c32)));
                self.recorder.record(stamp.saturating_sub(item.arrive));
                self.completed += 1;
                self.inflight[c] = None;
            }
        }

        // 3. Dispatch queued items to idle servers: payload, then doorbell.
        for c in 0..self.inflight.len() {
            if self.inflight[c].is_some() {
                continue;
            }
            let Some(item) = self.queue.pop_front() else {
                break;
            };
            let c32 = c as u32;
            self.machine
                .inject_store(ServiceKernel::slot(self.work, c32), item.payload);
            self.issued[c] += 1;
            self.machine
                .inject_store(ServiceKernel::slot(self.door, c32), self.issued[c]);
            self.sums[c] = self.sums[c].wrapping_add(item.payload);
            self.inflight[c] = Some(item);
        }

        // 4. Sample the host-queue depth (waiting items only).
        self.recorder.sample_depth(self.queue.len() as u32);

        if self.completed == self.items {
            return Ok(Some(false));
        }

        // 5. Advance to the next interesting cycle.
        let mut target = now + POLL_INTERVAL;
        if self.generated < self.items || self.next_arrival > now {
            target = target.min(self.next_arrival);
        }
        let target = target.max(now + 1);
        let summary = self.machine.run_until(target).map_err(BenchError::Run)?;
        match summary.exit {
            ExitReason::TargetReached => Ok(None),
            ExitReason::Watchdog => Ok(Some(true)),
            // A server left its loop without receiving STOP.
            ExitReason::AllHalted => Err(BenchError::Verify {
                label: label.to_string(),
                source: VerifyError::Conservation {
                    what: "items served before the fleet halted",
                    expected: self.items,
                    actual: self.completed,
                },
            }),
        }
    }

    /// Stops the fleet (when the run completed), verifies payload
    /// checksums and kernel conservation, and returns the summary.
    fn finish(&mut self, label: &str, mut dnf: bool) -> Result<TrafficSummary, BenchError> {
        if !dnf {
            // Shut the fleet down and let it drain to a clean halt.
            for c in 0..self.kernel.num_cores {
                self.machine
                    .inject_store(ServiceKernel::slot(self.work, c), ServiceKernel::STOP);
                self.issued[c as usize] += 1;
                self.machine
                    .inject_store(ServiceKernel::slot(self.door, c), self.issued[c as usize]);
            }
            let summary = self.machine.run().map_err(BenchError::Run)?;
            if summary.exit == ExitReason::AllHalted {
                let verify = |source| BenchError::Verify {
                    label: label.to_string(),
                    source,
                };
                for c in 0..self.kernel.num_cores {
                    let got = self.machine.read_word(self.checks + 4 * c);
                    let want = self.sums[c as usize];
                    if got != want {
                        return Err(verify(VerifyError::ResultMismatch {
                            what: "payload checksum",
                            index: c,
                            expected: want,
                            actual: got,
                        }));
                    }
                }
                self.kernel.verify(&self.machine).map_err(verify)?;
            } else {
                // The budget ran out while draining the stop doorbells.
                dnf = true;
            }
        }
        let cycles = self.machine.cycles();
        Ok(TrafficSummary {
            mean_interarrival: self.arrivals.mean_interarrival(),
            items: self.items,
            completed: self.completed,
            cycles,
            dnf,
            latency: self.recorder.stats(),
            throughput_per_kcycle: if cycles > 0 {
                self.completed as f64 * 1000.0 / cycles as f64
            } else {
                0.0
            },
            queue_depth_mean: self.recorder.mean_depth(),
            queue_depth_max: self.recorder.max_depth(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;

    fn harness(arch: SyncArch, servers: u32, items: u64, mean: f64, seed: u64) -> ServiceHarness {
        let kernel = ServiceKernel::new(servers, 100);
        let cfg = SimConfig::small(servers as usize, arch);
        ServiceHarness::new(cfg, kernel, items, ArrivalProcess::poisson(seed, mean)).unwrap()
    }

    #[test]
    fn completes_all_items_on_wait_hardware() {
        for (arch, servers, mean) in [
            (SyncArch::Colibri { queues: 2 }, 4, 400.0),
            (SyncArch::LrscWaitIdeal, 4, 400.0),
            (SyncArch::Colibri { queues: 2 }, 1, 1600.0),
        ] {
            let mut h = harness(arch, servers, 60, mean, 9);
            let summary = h.run("test").unwrap();
            assert!(!summary.dnf, "{arch} x{servers}");
            assert_eq!(summary.completed, 60);
            // Latency includes at least the nominal service loop.
            assert!(summary.latency.p50 >= 100, "p50 {}", summary.latency.p50);
            assert!(summary.latency.p99 >= summary.latency.p50);
            assert!(summary.latency.max >= summary.latency.p999);
            assert!(summary.throughput_per_kcycle > 0.0);
        }
    }

    #[test]
    fn completes_on_plain_lrsc_via_polling() {
        let mut h = harness(SyncArch::Lrsc, 4, 40, 500.0, 5);
        let summary = h.run("test").unwrap();
        assert!(!summary.dnf);
        assert_eq!(summary.completed, 40);
    }

    #[test]
    fn overload_reports_dnf_not_error() {
        // Mean inter-arrival far below per-item service time on one
        // server: the queue grows without bound and the budget expires.
        let kernel = ServiceKernel::new(1, 400);
        let mut cfg = SimConfig::small(1, SyncArch::Colibri { queues: 2 });
        cfg.max_cycles = 60_000;
        let arrivals = ArrivalProcess::poisson(3, 20.0);
        let mut h = ServiceHarness::new(cfg, kernel, 100_000, arrivals).unwrap();
        let summary = h.run("test").unwrap();
        assert!(summary.dnf);
        assert!(summary.completed < 100_000);
        assert!(summary.queue_depth_max > 4, "queue must have built up");
    }

    #[test]
    fn payloads_are_nonzero_and_never_stop() {
        for id in 0..10_000u64 {
            let p = payload_for(id);
            assert_ne!(p, 0);
            assert_ne!(p, ServiceKernel::STOP);
        }
    }
}
