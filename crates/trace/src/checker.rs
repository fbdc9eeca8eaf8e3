//! Safety/liveness invariant checking over the trace stream.
//!
//! The [`InvariantChecker`] is a [`TraceSink`]: attach it to a `Machine`
//! (directly, or behind a `SharedSink`/`FanoutSink`) and it folds the
//! event stream into per-core protocol state. After the run,
//! [`InvariantChecker::finish`] turns that state plus the run outcome into
//! an [`InvariantReport`] — either clean, or carrying named
//! [`Violation`]s and (on a progress failure) the parked-core wait graph.
//!
//! The checker only observes; it never steers. It is deliberately
//! conservative: every invariant below holds for *any* correct guest
//! program on *any* correct adapter, under *any* legal fault plan —
//! so a violation always means a substrate bug (or an enabled mutation),
//! never an unlucky schedule.

use std::collections::BTreeMap;
use std::fmt;

use crate::{OpKind, SyncEvent, TraceEvent, TraceSink, WakeCause};

/// Core ids at or above this value are host-side actors (the traffic
/// harness injects stores as core `u32::MAX`); they never park or wake.
const HOST_CORE_FLOOR: u32 = 0xFFFF_0000;

/// The invariant catalog. Names are stable identifiers used by the litmus
/// runner, CI summaries and failure repros.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// No two cores inside the guest-marked critical region at once
    /// (opt-in: benchmark kernels use the region marker for measured
    /// phases, litmus mutex scenarios use it as a mutual-exclusion token).
    MutualExclusion,
    /// Every adapter-level `WaitServed` is followed by a core-level `Wake`
    /// before the run ends: no served wakeup is lost in delivery.
    LostWakeup,
    /// Every adapter-level `ScResult` produces exactly one core-level
    /// completion wake of the matching kind: no store-conditional outcome
    /// is lost in delivery.
    ScConservation,
    /// Every parked core eventually wakes and the run completes: a
    /// watchdog exit with parked cores is a deadlock, without parked cores
    /// a livelock.
    Progress,
}

impl Invariant {
    /// Stable name (CI summaries, repro lines).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::MutualExclusion => "mutual-exclusion",
            Invariant::LostWakeup => "lost-wakeup",
            Invariant::ScConservation => "sc-conservation",
            Invariant::Progress => "progress",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation, with the cycle it was detected at and a
/// human-readable detail line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Cycle of detection (end-of-run checks use the final cycle).
    pub cycle: u64,
    /// What exactly went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] cycle {}: {}",
            self.invariant, self.cycle, self.detail
        )
    }
}

/// One row of the parked-core wait graph dumped on a progress failure.
#[derive(Clone, Copy, Debug)]
pub struct WaitGraphEntry {
    /// The parked core.
    pub core: u32,
    /// Cycle it parked at.
    pub parked_since: u64,
    /// The blocking operation it parked on.
    pub cause: OpKind,
    /// Bank of the last request it sent (`None` before any request).
    pub last_bank: Option<u32>,
    /// Whether the adapter claims to have served this core's wait
    /// (a `true` here on a still-parked core is a lost wakeup).
    pub served: bool,
}

impl fmt::Display for WaitGraphEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {:>4} parked on {} since cycle {}",
            self.core,
            self.cause.label(),
            self.parked_since
        )?;
        if let Some(bank) = self.last_bank {
            write!(f, " (last request -> bank {bank})")?;
        }
        if self.served {
            write!(f, " [adapter served, wake never delivered]")?;
        }
        Ok(())
    }
}

/// How the run under check ended (the sim's `ExitReason`, minus the
/// dependency: callers map `AllHalted`/`TargetReached` to `Completed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every core halted (or the caller stopped a healthy run).
    Completed,
    /// The watchdog fired: cores are deadlocked or livelocked.
    Watchdog,
}

/// The checker's verdict over a full run.
#[derive(Clone, Debug)]
pub struct InvariantReport {
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// Parked-core wait graph at end of run (non-empty only on progress
    /// failures).
    pub wait_graph: Vec<WaitGraphEntry>,
    /// Final cycle observed in the stream.
    pub final_cycle: u64,
    /// Total parks observed.
    pub parks: u64,
    /// Total wakes observed.
    pub wakes: u64,
}

impl InvariantReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// First violated invariant, if any.
    #[must_use]
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(
                f,
                "invariants ok ({} parks / {} wakes, {} cycles)",
                self.parks, self.wakes, self.final_cycle
            );
        }
        writeln!(f, "{} invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if !self.wait_graph.is_empty() {
            writeln!(f, "parked-core wait graph:")?;
            for entry in &self.wait_graph {
                writeln!(f, "  {entry}")?;
            }
        }
        Ok(())
    }
}

/// Per-core protocol state the checker folds the stream into.
#[derive(Clone, Copy, Debug, Default)]
struct CoreTrack {
    /// `Some((cycle, cause))` while parked.
    parked: Option<(u64, OpKind)>,
    /// Outstanding adapter serves not yet matched by a wake.
    served_pending: u64,
    /// Last request sent: `(bank)`.
    last_bank: Option<u32>,
    /// Inside the guest-marked region.
    in_region: bool,
}

/// A [`TraceSink`] that checks safety and liveness invariants.
///
/// See the module docs; construct with [`InvariantChecker::new`], opt into
/// mutual-exclusion checking with
/// [`check_mutual_exclusion`](InvariantChecker::check_mutual_exclusion)
/// when the guest uses the region marker as a critical-section token, and
/// call [`finish`](InvariantChecker::finish) after the run.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    cores: Vec<CoreTrack>,
    check_mutex: bool,
    /// Cores currently inside the region (ascending, tiny).
    region_occupants: Vec<u32>,
    violations: Vec<Violation>,
    final_cycle: u64,
    parks: u64,
    wakes: u64,
    /// Adapter-level store-conditional results by kind (`wait = true` →
    /// `scwait`), vs core-level completion wakes of the same kind.
    sc_results: u64,
    scwait_results: u64,
    sc_wakes: u64,
    scwait_wakes: u64,
    /// Cap duplicate violations so a broken run stays readable.
    truncated: bool,
}

/// Keep at most this many violations (a livelock can yield thousands of
/// identical mutual-exclusion reports; the first few carry all signal).
const MAX_VIOLATIONS: usize = 32;

impl InvariantChecker {
    /// Creates a checker with mutual-exclusion checking off.
    #[must_use]
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Enables or disables region-marker mutual-exclusion checking.
    #[must_use]
    pub fn check_mutual_exclusion(mut self, on: bool) -> InvariantChecker {
        self.check_mutex = on;
        self
    }

    fn core(&mut self, id: u32) -> &mut CoreTrack {
        let idx = id as usize;
        if idx >= self.cores.len() {
            self.cores.resize(idx + 1, CoreTrack::default());
        }
        &mut self.cores[idx]
    }

    fn violate(&mut self, invariant: Invariant, cycle: u64, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                invariant,
                cycle,
                detail,
            });
        } else {
            self.truncated = true;
        }
    }

    /// Consumes the checker and renders the verdict for a run that ended
    /// with `outcome` — end-of-run invariants (lost wakeups, SC
    /// conservation, progress) are evaluated here.
    #[must_use]
    pub fn finish(mut self, outcome: RunOutcome) -> InvariantReport {
        let final_cycle = self.final_cycle;
        // Lost wakeups: an adapter serve with no delivered wake. On a
        // completed run every core halted, so nothing can still be in
        // flight; on a watchdog run the stalled delivery *is* the bug.
        let lost: Vec<(u32, u64)> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, t)| t.served_pending > 0)
            .map(|(c, t)| (c as u32, t.served_pending))
            .collect();
        for (core, n) in lost {
            self.violate(
                Invariant::LostWakeup,
                final_cycle,
                format!("core {core}: adapter served {n} wait(s) whose wake never arrived"),
            );
        }
        // SC conservation: every adapter-level result must reach a core.
        if self.sc_results != self.sc_wakes {
            let (r, w) = (self.sc_results, self.sc_wakes);
            self.violate(
                Invariant::ScConservation,
                final_cycle,
                format!("{r} sc results at the banks, {w} sc completions at the cores"),
            );
        }
        if self.scwait_results != self.scwait_wakes {
            let (r, w) = (self.scwait_results, self.scwait_wakes);
            self.violate(
                Invariant::ScConservation,
                final_cycle,
                format!("{r} scwait results at the banks, {w} scwait completions at the cores"),
            );
        }
        // Progress: a watchdog exit is a liveness failure by definition.
        let mut wait_graph = Vec::new();
        if outcome == RunOutcome::Watchdog {
            for (c, t) in self.cores.iter().enumerate() {
                if let Some((since, cause)) = t.parked {
                    wait_graph.push(WaitGraphEntry {
                        core: c as u32,
                        parked_since: since,
                        cause,
                        last_bank: t.last_bank,
                        served: t.served_pending > 0,
                    });
                }
            }
            let detail = if wait_graph.is_empty() {
                "watchdog fired with no parked cores: livelock (cores run without completing)"
                    .to_string()
            } else {
                format!(
                    "watchdog fired with {} core(s) parked forever: deadlock (wait graph below)",
                    wait_graph.len()
                )
            };
            self.violate(Invariant::Progress, final_cycle, detail);
        }
        if self.truncated {
            let n = MAX_VIOLATIONS;
            self.violations.push(Violation {
                invariant: Invariant::Progress,
                cycle: final_cycle,
                detail: format!("... further violations truncated after {n}"),
            });
        }
        InvariantReport {
            violations: self.violations,
            wait_graph,
            final_cycle,
            parks: self.parks,
            wakes: self.wakes,
        }
    }
}

impl TraceSink for InvariantChecker {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.final_cycle = self.final_cycle.max(cycle);
        match event {
            TraceEvent::Park { core, cause } if core < HOST_CORE_FLOOR => {
                self.parks += 1;
                self.core(core).parked = Some((cycle, cause));
            }
            TraceEvent::Wake { core, cause } if core < HOST_CORE_FLOOR => {
                self.wakes += 1;
                let track = self.core(core);
                track.parked = None;
                match cause {
                    WakeCause::Response(OpKind::Sc) => self.sc_wakes += 1,
                    WakeCause::Response(OpKind::ScWait) => self.scwait_wakes += 1,
                    WakeCause::Response(OpKind::LrWait | OpKind::MWait) => {
                        let track = self.core(core);
                        if track.served_pending > 0 {
                            track.served_pending -= 1;
                        }
                    }
                    _ => {}
                }
            }
            TraceEvent::ReqSent { core, bank, .. } if core < HOST_CORE_FLOOR => {
                self.core(core).last_bank = Some(bank);
            }
            TraceEvent::Sync { event, .. } => match event {
                SyncEvent::WaitServed { core, .. } if core < HOST_CORE_FLOOR => {
                    self.core(core).served_pending += 1;
                }
                SyncEvent::ScResult { wait, .. } => {
                    if wait {
                        self.scwait_results += 1;
                    } else {
                        self.sc_results += 1;
                    }
                }
                _ => {}
            },
            TraceEvent::RegionEnter { core } if self.check_mutex && core < HOST_CORE_FLOOR => {
                if !self.region_occupants.is_empty() {
                    let inside = self
                        .region_occupants
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    self.violate(
                        Invariant::MutualExclusion,
                        cycle,
                        format!("core {core} entered the region while core(s) {inside} inside"),
                    );
                }
                if let Err(pos) = self.region_occupants.binary_search(&core) {
                    self.region_occupants.insert(pos, core);
                }
                self.core(core).in_region = true;
            }
            TraceEvent::RegionExit { core } if self.check_mutex && core < HOST_CORE_FLOOR => {
                if let Ok(pos) = self.region_occupants.binary_search(&core) {
                    self.region_occupants.remove(pos);
                }
                self.core(core).in_region = false;
            }
            TraceEvent::Halt { core } if core < HOST_CORE_FLOOR => {
                // A halting core cannot be parked; clear any stale
                // entry defensively (it would be a tracer bug).
                self.core(core).parked = None;
            }
            _ => {}
        }
    }
}

/// Sorted, deduplicated invariant names from a slice of violations —
/// convenience for CI summaries.
#[must_use]
pub fn violated_invariants(violations: &[Violation]) -> Vec<&'static str> {
    let mut names: BTreeMap<&'static str, ()> = BTreeMap::new();
    for v in violations {
        names.insert(v.invariant.name(), ());
    }
    names.into_keys().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_served(core: u32) -> TraceEvent {
        TraceEvent::Sync {
            bank: 0,
            event: SyncEvent::WaitServed {
                core,
                addr: 64,
                mode: lrscwait_core::WaitMode::LrWait,
                handoff: true,
            },
        }
    }

    #[test]
    fn clean_stream_passes() {
        let mut c = InvariantChecker::new().check_mutual_exclusion(true);
        c.record(
            1,
            TraceEvent::Park {
                core: 0,
                cause: OpKind::LrWait,
            },
        );
        c.record(1, wait_served(0));
        c.record(
            4,
            TraceEvent::Wake {
                core: 0,
                cause: WakeCause::Response(OpKind::LrWait),
            },
        );
        c.record(5, TraceEvent::RegionEnter { core: 0 });
        c.record(6, TraceEvent::RegionExit { core: 0 });
        c.record(7, TraceEvent::RegionEnter { core: 1 });
        c.record(8, TraceEvent::RegionExit { core: 1 });
        c.record(9, TraceEvent::Halt { core: 0 });
        let report = c.finish(RunOutcome::Completed);
        assert!(report.ok(), "{report}");
        assert_eq!(report.parks, 1);
        assert_eq!(report.wakes, 1);
    }

    #[test]
    fn overlapping_regions_violate_mutual_exclusion() {
        let mut c = InvariantChecker::new().check_mutual_exclusion(true);
        c.record(5, TraceEvent::RegionEnter { core: 0 });
        c.record(6, TraceEvent::RegionEnter { core: 1 });
        let report = c.finish(RunOutcome::Completed);
        assert!(!report.ok());
        assert_eq!(
            report.first_violation().unwrap().invariant,
            Invariant::MutualExclusion
        );
        assert_eq!(
            violated_invariants(&report.violations),
            ["mutual-exclusion"]
        );
    }

    #[test]
    fn overlap_is_ignored_when_not_opted_in() {
        let mut c = InvariantChecker::new();
        c.record(5, TraceEvent::RegionEnter { core: 0 });
        c.record(6, TraceEvent::RegionEnter { core: 1 });
        assert!(c.finish(RunOutcome::Completed).ok());
    }

    #[test]
    fn served_without_wake_is_a_lost_wakeup() {
        let mut c = InvariantChecker::new();
        c.record(
            1,
            TraceEvent::Park {
                core: 2,
                cause: OpKind::LrWait,
            },
        );
        c.record(2, wait_served(2));
        let report = c.finish(RunOutcome::Watchdog);
        assert!(!report.ok());
        let names = violated_invariants(&report.violations);
        assert!(names.contains(&"lost-wakeup"), "{names:?}");
        assert!(names.contains(&"progress"), "{names:?}");
        assert_eq!(report.wait_graph.len(), 1);
        assert!(report.wait_graph[0].served);
        assert_eq!(report.wait_graph[0].cause, OpKind::LrWait);
    }

    #[test]
    fn watchdog_without_parked_cores_is_a_livelock() {
        let c = InvariantChecker::new();
        let report = c.finish(RunOutcome::Watchdog);
        assert!(!report.ok());
        assert!(report.wait_graph.is_empty());
        assert!(report.violations[0].detail.contains("livelock"));
    }

    #[test]
    fn sc_results_must_reach_cores() {
        let mut c = InvariantChecker::new();
        c.record(
            3,
            TraceEvent::Sync {
                bank: 1,
                event: SyncEvent::ScResult {
                    core: 0,
                    addr: 4,
                    success: true,
                    wait: true,
                },
            },
        );
        let report = c.finish(RunOutcome::Completed);
        let names = violated_invariants(&report.violations);
        assert_eq!(names, ["sc-conservation"]);
    }

    #[test]
    fn host_actors_are_ignored() {
        let mut c = InvariantChecker::new().check_mutual_exclusion(true);
        c.record(1, TraceEvent::RegionEnter { core: u32::MAX });
        c.record(
            1,
            TraceEvent::Park {
                core: u32::MAX,
                cause: OpKind::Load,
            },
        );
        let report = c.finish(RunOutcome::Completed);
        assert!(report.ok(), "{report}");
        assert_eq!(report.parks, 0);
    }
}
