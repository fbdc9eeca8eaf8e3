//! Litmus fuzz harness: run the adversarial LL/SC scenarios from
//! `lrscwait-kernels` under seeded [`FaultPlan`]s with an
//! [`InvariantChecker`] auditing the trace stream.
//!
//! Three layers:
//!
//! * [`run_litmus_case`] — one (scenario × arch × flavor) case under one
//!   plan: build the machine with chaos enabled, attach the checker,
//!   fold the exit into a [`LitmusVerdict`] (functional verification and
//!   invariant report together — a case only passes when both are clean);
//! * [`fuzz_litmus`] — fan a seed range over a case matrix on the
//!   [`Sweep`] worker pool and collect every failure;
//! * [`minimize_plan`] — greedy delta-debugging of a failing plan: ablate
//!   whole fault classes, then halve rates, re-running the case after
//!   each step and keeping any reduction that still reproduces. The
//!   result is the smallest plan (by enabled classes and rates) the
//!   failure has been observed under — the line a bug report should
//!   quote.
//!
//! A watchdog exit or a verification mismatch under an
//! architecturally-*legal* plan is always a substrate bug: legal faults
//! may cost retries and cycles, never correctness. Mutations
//! ([`Mutation::DropWakeup`], [`Mutation::LoseScSuccess`]) are the
//! deliberately-illegal counterpart — the self-test that proves the
//! checker's teeth.

use lrscwait_core::SyncArch;
use lrscwait_kernels::{LitmusKernel, LitmusScenario, Workload};
use lrscwait_sim::{FaultPlan, Mutation, SimConfig};
use lrscwait_trace::{
    violated_invariants, InvariantChecker, InvariantReport, RunOutcome, SharedSink,
};

use crate::args::arch_slug;
use crate::{BenchError, Experiment, Sweep};

/// One fuzzable point of the litmus matrix.
#[derive(Clone, Copy, Debug)]
pub struct LitmusCase {
    /// Scenario under test.
    pub scenario: LitmusScenario,
    /// Architecture under test.
    pub arch: SyncArch,
    /// Use wait primitives where the scenario has both flavors.
    pub wait_primitives: bool,
    /// Participating cores.
    pub cores: u32,
    /// Per-core iterations.
    pub iters: u32,
    /// Watchdog budget — generous: chaos delays inflate runtimes, and a
    /// premature watchdog would report a liveness bug that isn't there.
    pub max_cycles: u64,
}

impl LitmusCase {
    /// The kernel this case runs.
    #[must_use]
    pub fn kernel(&self) -> LitmusKernel {
        LitmusKernel::new(self.scenario, self.cores, self.iters)
            .with_wait_primitives(self.wait_primitives)
    }

    /// `scenario/flavor@arch` — the identifier printed in repro lines.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}", self.kernel().label(), arch_slug(self.arch))
    }
}

/// The default fault plan for a scenario at a given seed: the eviction
/// storm gets its namesake plan — and so does the RCU grace-period case,
/// whose whole point is fuzzing reclamation under reservation pressure —
/// everything else the standard mix.
#[must_use]
pub fn scenario_plan(scenario: LitmusScenario, seed: u64) -> FaultPlan {
    match scenario {
        LitmusScenario::EvictionStorm | LitmusScenario::RcuGrace => FaultPlan::eviction_storm(seed),
        _ => FaultPlan::standard(seed),
    }
}

/// Builds the (scenario × arch × flavor) matrix over all four
/// architectures, filtered down to combinations whose primitives can make
/// progress on the architecture.
#[must_use]
pub fn litmus_matrix() -> Vec<LitmusCase> {
    let mut cases = Vec::new();
    for scenario in LitmusScenario::all() {
        let flavors: &[bool] = match scenario {
            // Both primitive flavors exist for these two.
            LitmusScenario::Aba | LitmusScenario::SpuriousRetry => &[false, true],
            _ => &[false],
        };
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 2 },
            SyncArch::Colibri { queues: 2 },
        ] {
            for &wait_primitives in flavors {
                let case = LitmusCase {
                    scenario,
                    arch,
                    wait_primitives,
                    cores: 4,
                    iters: 12,
                    max_cycles: 5_000_000,
                };
                if case.kernel().supports(arch) {
                    cases.push(case);
                }
            }
        }
    }
    cases
}

/// The outcome of one litmus run: functional result and invariant report
/// together.
#[derive(Clone, Debug)]
pub struct LitmusVerdict {
    /// Case identifier (see [`LitmusCase::label`]).
    pub label: String,
    /// The plan the case ran under.
    pub plan: FaultPlan,
    /// The checker's report over the trace stream.
    pub invariants: InvariantReport,
    /// Why the run itself failed (watchdog, wrong results), when it did.
    pub failure: Option<String>,
}

impl LitmusVerdict {
    /// A case passes only when the run completed, verified, and every
    /// invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none() && self.invariants.ok()
    }

    /// One-line summary for logs and the CI step summary.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.passed() {
            format!("PASS {} ({})", self.label, self.invariants)
        } else {
            let names = violated_invariants(&self.invariants.violations).join(", ");
            let invariants = if names.is_empty() {
                "none".to_string()
            } else {
                names
            };
            let failure = self.failure.as_deref().unwrap_or("run completed");
            format!(
                "FAIL {} — {failure}; violated invariants: {invariants}",
                self.label
            )
        }
    }
}

/// Runs one case under one plan with the invariant checker attached.
///
/// Watchdog and verification failures become part of the verdict (they
/// are the *findings* of a litmus run); only harness-level errors —
/// rejected config, program load failure, a simulator fault — propagate
/// as `Err`.
///
/// # Errors
///
/// Returns [`BenchError::Config`]/[`BenchError::Load`]/[`BenchError::Run`]
/// for harness-level failures.
pub fn run_litmus_case(case: &LitmusCase, plan: FaultPlan) -> Result<LitmusVerdict, BenchError> {
    let kernel = case.kernel();
    let cfg = SimConfig::builder()
        .cores(case.cores as usize)
        .arch(case.arch)
        .max_cycles(case.max_cycles)
        .chaos(plan)
        .build()?;
    // Scenarios whose region markers delimit a locked critical section
    // (the RCU write side) opt into the mutual-exclusion invariant.
    let checker = SharedSink::new(
        InvariantChecker::new().check_mutual_exclusion(kernel.checks_mutual_exclusion()),
    );
    let result = Experiment::new(&kernel, cfg)
        .label(case.label())
        .sink(Box::new(checker.clone()))
        .run();
    let (outcome, failure) = match result {
        Ok(_) => (RunOutcome::Completed, None),
        Err(BenchError::Watchdog { label, cycles, .. }) => (
            RunOutcome::Watchdog,
            Some(format!("{label}: watchdog fired after {cycles} cycles")),
        ),
        Err(BenchError::Verify { label, source }) => (
            RunOutcome::Completed,
            Some(format!("{label}: verification failed: {source}")),
        ),
        Err(e) => return Err(e),
    };
    let invariants = checker.take().finish(outcome);
    Ok(LitmusVerdict {
        label: case.label(),
        plan,
        invariants,
        failure,
    })
}

/// Greedy [`FaultPlan`] minimization: repeatedly try the reductions from
/// [`reduction_candidates`] (ablate a fault class, then halve a rate) and
/// keep any that still reproduces per `still_fails`, until a fixpoint or
/// `budget` re-runs. Returns the smallest still-failing plan.
pub fn minimize_plan<F>(plan: FaultPlan, budget: usize, mut still_fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut best = plan;
    let mut evals = 0;
    loop {
        let mut reduced = false;
        for candidate in reduction_candidates(&best) {
            if evals >= budget {
                return best;
            }
            evals += 1;
            if still_fails(&candidate) {
                best = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return best;
        }
    }
}

/// One-step reductions of a plan, largest first: drop the mutation, zero
/// out a whole fault class, stop perturbing arbitration, then halve each
/// remaining rate/bound.
#[must_use]
pub fn reduction_candidates(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FaultPlan)| {
        let mut p = *plan;
        f(&mut p);
        if p != *plan {
            out.push(p);
        }
    };
    push(&|p| p.mutation = Mutation::None);
    push(&|p| p.evict_per_mille = 0);
    push(&|p| p.sc_fail_per_mille = 0);
    push(&|p| {
        p.wake_delay_per_mille = 0;
        p.wake_delay_max = 0;
    });
    push(&|p| {
        p.jitter_per_mille = 0;
        p.jitter_max = 0;
    });
    push(&|p| p.perturb_arbitration = false);
    push(&|p| p.evict_per_mille /= 2);
    push(&|p| p.sc_fail_per_mille /= 2);
    push(&|p| p.wake_delay_per_mille /= 2);
    push(&|p| p.wake_delay_max /= 2);
    push(&|p| p.jitter_per_mille /= 2);
    push(&|p| p.jitter_max /= 2);
    out
}

/// One failing point of a fuzz sweep, with its minimized repro plan.
#[derive(Clone, Debug)]
pub struct LitmusFailure {
    /// The failing case.
    pub case: LitmusCase,
    /// The seed that found it.
    pub seed: u64,
    /// The verdict under the original plan.
    pub verdict: LitmusVerdict,
    /// The minimized still-failing plan.
    pub minimized: FaultPlan,
}

impl LitmusFailure {
    /// The repro command line for this failure.
    #[must_use]
    pub fn repro(&self) -> String {
        let flavor = if self.case.wait_primitives {
            " --wait"
        } else {
            ""
        };
        format!(
            "cargo run --release -p lrscwait-bench --bin litmus -- --scenario {} --arch {}{flavor} --seed {}",
            self.case.scenario.name(),
            arch_slug(self.case.arch),
            self.seed,
        )
    }
}

/// Aggregate result of a fuzz sweep.
#[derive(Clone, Debug)]
pub struct LitmusSummary {
    /// Cases in the matrix.
    pub cases: usize,
    /// Total (case × seed) runs executed.
    pub runs: usize,
    /// Every failing run, minimized.
    pub failures: Vec<LitmusFailure>,
}

impl LitmusSummary {
    /// Whether the whole sweep was green: it ran something, and nothing
    /// failed. A sweep of no runs checked nothing, so it is not green.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.runs > 0 && self.failures.is_empty()
    }
}

/// Whether `seeds` consecutive seeds from `seed_start` all fit in a `u64`.
#[must_use]
pub fn seeds_fit(seed_start: u64, seeds: u64) -> bool {
    seeds == 0 || seed_start.checked_add(seeds - 1).is_some()
}

/// Fuzzes `seeds` seeds over every case: run the full matrix per seed on
/// the sweep worker pool, then minimize each failure's plan (re-running
/// the case up to 48 times — minimization is sequential, failures are
/// expected to be rare). Every plan carries `mutation`;
/// [`Mutation::None`] fuzzes the legal envelope only.
///
/// # Errors
///
/// [`BenchError::Usage`] when the seeds `seed_start ..` run past
/// `u64::MAX` (see [`seeds_fit`]); otherwise propagates harness-level
/// errors from [`run_litmus_case`].
pub fn fuzz_litmus(
    cases: &[LitmusCase],
    seed_start: u64,
    seeds: u64,
    threads: usize,
    mutation: Mutation,
) -> Result<LitmusSummary, BenchError> {
    if !seeds_fit(seed_start, seeds) {
        return Err(BenchError::Usage(format!(
            "{seeds} seeds from {seed_start} run past u64::MAX"
        )));
    }
    let points: Vec<(usize, u64)> = (0..cases.len())
        .flat_map(|c| (0..seeds).map(move |i| (c, seed_start + i)))
        .collect();
    let runs = points.len();
    let verdicts = Sweep::new("litmus")
        .threads(threads)
        .run(points.clone(), |(c, seed)| {
            let case = &cases[c];
            let mut plan = scenario_plan(case.scenario, seed);
            plan.mutation = mutation;
            run_litmus_case(case, plan).map(|v| (c, seed, v))
        })?;
    let mut failures = Vec::new();
    for (c, seed, verdict) in verdicts {
        if verdict.passed() {
            continue;
        }
        let case = cases[c];
        let minimized = minimize_plan(verdict.plan, 48, |candidate| {
            run_litmus_case(&case, *candidate).is_ok_and(|v| !v.passed())
        });
        failures.push(LitmusFailure {
            case,
            seed,
            verdict,
            minimized,
        });
    }
    Ok(LitmusSummary {
        cases: cases.len(),
        runs,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_arch;

    #[test]
    fn arch_slugs_round_trip() {
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 3 },
            SyncArch::Colibri { queues: 2 },
        ] {
            let slug = arch_slug(arch);
            assert_eq!(parse_arch(&slug).unwrap(), arch, "{slug}");
        }
        assert!(parse_arch("bogus").is_err());
        assert!(parse_arch("colibri").is_err());
    }

    #[test]
    fn matrix_is_supported_and_covers_every_scenario() {
        let cases = litmus_matrix();
        for case in &cases {
            assert!(case.kernel().supports(case.arch), "{}", case.label());
        }
        for scenario in LitmusScenario::all() {
            assert!(
                cases.iter().any(|c| c.scenario == scenario),
                "{} missing from the matrix",
                scenario.name()
            );
        }
    }

    #[test]
    fn a_sweep_that_runs_nothing_is_not_green() {
        let summary = fuzz_litmus(&[], 1, 4, 1, Mutation::None).unwrap();
        assert_eq!((summary.runs, summary.failures.len()), (0, 0));
        assert!(!summary.ok(), "no run is no evidence");
        let case = litmus_matrix()[0];
        let summary = fuzz_litmus(&[case], 1, 0, 1, Mutation::None).unwrap();
        assert!(!summary.ok());
        // The range may end at u64::MAX, but not run past it.
        let summary = fuzz_litmus(&[case], u64::MAX, 1, 1, Mutation::None).unwrap();
        assert_eq!(summary.runs, 1);
        assert!(summary.ok());
        let past = fuzz_litmus(&[case], u64::MAX, 2, 1, Mutation::None);
        assert!(matches!(past, Err(BenchError::Usage(_))), "{past:?}");
    }

    #[test]
    fn minimizer_reaches_the_guilty_class() {
        // A "failure" that only depends on eviction being on: the
        // minimizer must strip everything else and keep halving.
        let plan = FaultPlan::standard(7);
        let minimized = minimize_plan(plan, 64, |p| p.evict_per_mille > 0);
        assert!(minimized.evict_per_mille > 0);
        assert_eq!(minimized.sc_fail_per_mille, 0);
        assert_eq!(minimized.wake_delay_per_mille, 0);
        assert_eq!(minimized.jitter_per_mille, 0);
        assert!(!minimized.perturb_arbitration);
        assert!(minimized.evict_per_mille < plan.evict_per_mille);
    }

    #[test]
    fn minimizer_respects_budget() {
        let mut evals = 0;
        let _ = minimize_plan(FaultPlan::standard(1), 3, |_| {
            evals += 1;
            true
        });
        assert_eq!(evals, 3);
    }
}
