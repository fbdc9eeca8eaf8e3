//! Mutation self-tests: the chaos engine's proof of its own teeth.
//!
//! A checker that never fires is indistinguishable from no checker, so
//! these tests run deliberately-broken machines ([`Mutation`] variants
//! that violate the architecture's contract for real) and require the
//! invariant checker or kernel verification to catch each one by name —
//! then re-run the identical case mutation-off and require green.

use lrscwait_bench::litmus::{run_litmus_case, LitmusCase};
use lrscwait_core::SyncArch;
use lrscwait_kernels::LitmusScenario;
use lrscwait_sim::{FaultPlan, Mutation};
use lrscwait_trace::violated_invariants;

/// Lost-wakeup victim: Colibri queues with deep parking, a modest cycle
/// budget so the induced deadlock reaches the watchdog quickly.
fn lost_wakeup_case() -> LitmusCase {
    LitmusCase {
        scenario: LitmusScenario::LostWakeup,
        arch: SyncArch::Colibri { queues: 2 },
        wait_primitives: false,
        cores: 4,
        iters: 6,
        max_cycles: 300_000,
    }
}

/// Retry-mill on scwait: the victim for [`Mutation::LoseScSuccess`].
fn spurious_retry_wait_case() -> LitmusCase {
    LitmusCase {
        scenario: LitmusScenario::SpuriousRetry,
        arch: SyncArch::LrscWait { slots: 4 },
        wait_primitives: true,
        cores: 4,
        iters: 6,
        max_cycles: 5_000_000,
    }
}

#[test]
fn drop_wakeup_mutation_is_caught_by_named_invariants() {
    let case = lost_wakeup_case();
    let mut plan = FaultPlan::standard(3);
    plan.mutation = Mutation::DropWakeup { nth: 2 };
    let verdict = run_litmus_case(&case, plan).expect("harness must not error");
    assert!(
        !verdict.passed(),
        "a machine that drops a wakeup for real must fail the litmus"
    );
    let names = violated_invariants(&verdict.invariants.violations);
    assert!(
        names.contains(&"lost-wakeup"),
        "expected the lost-wakeup invariant by name, got {names:?}"
    );
    assert!(
        names.contains(&"progress"),
        "the induced deadlock must trip the progress watchdog, got {names:?}"
    );
    assert!(
        !verdict.invariants.wait_graph.is_empty(),
        "the progress violation must dump the parked-core wait graph"
    );
}

#[test]
fn drop_wakeup_mutation_off_same_case_is_green() {
    let case = lost_wakeup_case();
    let verdict = run_litmus_case(&case, FaultPlan::standard(3)).expect("harness must not error");
    assert!(
        verdict.passed(),
        "mutation off, same case and seed must be green: {}",
        verdict.summary()
    );
}

#[test]
fn lose_sc_success_is_caught_by_counter_conservation() {
    let case = spurious_retry_wait_case();
    let mut plan = FaultPlan::quiet(1);
    plan.mutation = Mutation::LoseScSuccess { nth: 1 };
    let verdict = run_litmus_case(&case, plan).expect("harness must not error");
    // The committed-but-denied scwait makes the victim re-increment, so
    // the kernel's own counter-conservation check is the trap here.
    assert!(
        !verdict.passed(),
        "a lost SC success must break counter conservation"
    );
    let failure = verdict.failure.expect("expected a verification failure");
    assert!(
        failure.contains("verification failed"),
        "expected a verification failure, got: {failure}"
    );
}

#[test]
fn lose_sc_success_mutation_off_same_case_is_green() {
    let case = spurious_retry_wait_case();
    let verdict = run_litmus_case(&case, FaultPlan::quiet(1)).expect("harness must not error");
    assert!(
        verdict.passed(),
        "mutation off, same case and seed must be green: {}",
        verdict.summary()
    );
}

/// RCU grace-period fuzz victim: the only scenario that arms the
/// mutual-exclusion invariant on its write side.
fn rcu_grace_case(arch: SyncArch) -> LitmusCase {
    LitmusCase {
        scenario: LitmusScenario::RcuGrace,
        arch,
        wait_primitives: false,
        cores: 4,
        iters: 4,
        max_cycles: 5_000_000,
    }
}

#[test]
fn rcu_grace_holds_under_eviction_storms_on_every_arch() {
    for arch in [
        SyncArch::Lrsc,
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 4 },
        SyncArch::Colibri { queues: 2 },
    ] {
        for seed in [3, 29] {
            let verdict = run_litmus_case(&rcu_grace_case(arch), FaultPlan::eviction_storm(seed))
                .expect("harness must not error");
            assert!(
                verdict.passed(),
                "rcu-grace on {arch:?} seed {seed}: {}",
                verdict.summary()
            );
        }
    }
}

#[test]
fn lose_sc_success_on_the_rcu_write_lock_trips_the_watchdog() {
    // Committing the acquiring scwait while reporting failure leaves the
    // lock held by a writer that believes it lost the race; both writers
    // then park on a release that never comes. The readers drain their
    // iterations and block on the final barrier, so the run must die by
    // watchdog rather than silently "pass" with a stuck grace period.
    // nth 0 is the first *successful* scwait — the initial lock acquire.
    // (nth 1 would hit the other writer's close-session store, whose
    // result the lock protocol deliberately ignores.)
    let mut case = rcu_grace_case(SyncArch::Colibri { queues: 2 });
    case.max_cycles = 300_000;
    let mut plan = FaultPlan::quiet(5);
    plan.mutation = Mutation::LoseScSuccess { nth: 0 };
    let verdict = run_litmus_case(&case, plan).expect("harness must not error");
    assert!(
        !verdict.passed(),
        "a lost scwait success on the write lock must not verify clean"
    );
}

#[test]
fn lose_sc_success_mutation_off_rcu_case_is_green() {
    let mut case = rcu_grace_case(SyncArch::Colibri { queues: 2 });
    case.max_cycles = 300_000;
    let verdict = run_litmus_case(&case, FaultPlan::quiet(5)).expect("harness must not error");
    assert!(
        verdict.passed(),
        "mutation off, same case and seed must be green: {}",
        verdict.summary()
    );
}

#[test]
fn clean_standard_plan_sweep_is_green() {
    for arch in [
        SyncArch::Lrsc,
        SyncArch::LrscWait { slots: 4 },
        SyncArch::Colibri { queues: 2 },
    ] {
        for scenario in LitmusScenario::all() {
            let case = LitmusCase {
                scenario,
                arch,
                wait_primitives: false,
                cores: 4,
                iters: 4,
                max_cycles: 5_000_000,
            };
            if !case.kernel().supports(arch) {
                continue;
            }
            let verdict =
                run_litmus_case(&case, FaultPlan::standard(7)).expect("harness must not error");
            assert!(verdict.passed(), "{}", verdict.summary());
        }
    }
}
