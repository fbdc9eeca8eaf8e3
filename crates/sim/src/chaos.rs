//! Chaos engine: seeded, deterministic fault injection into the machine.
//!
//! The paper's central claim — polling-free, retry-free synchronization
//! through `lrwait`/`scwait` parking — is only as strong as the substrate's
//! behavior under adversarial timing. "Implementing and Breaking
//! Load-Link/Store-Conditional" (Tilley et al.) shows that real LL/SC
//! implementations break exactly there: lost or delayed wakeups, spurious
//! SC failures, and reservation eviction. This module injects those hazards
//! *on purpose*; the trace-stream
//! [`InvariantChecker`](lrscwait_trace::InvariantChecker) checks that the
//! substrate's safety and liveness guarantees survive them.
//!
//! # Fault model
//!
//! A [`FaultPlan`] describes a family of architecturally **legal**
//! perturbations — every injected fault is something real hardware is
//! permitted to do, so a correct guest program must tolerate all of them:
//!
//! * **Reservation eviction** ([`FaultPlan::evict_per_mille`]): an LR-type
//!   reservation (classic slot, or an active `lrwait` queue head) is
//!   invalidated as if by capacity pressure. Armed `mwait` monitors are
//!   *never* evicted — dropping a monitor would be a genuine lost wakeup,
//!   i.e. a hardware bug rather than a legal fault.
//! * **Spurious `sc`/`scwait` failure** ([`FaultPlan::sc_fail_per_mille`]):
//!   implemented as a reservation eviction immediately before the store
//!   conditional is serviced. This keeps all protocol state consistent by
//!   construction: a failed `scwait` still advances the reservation queue
//!   (both the centralized queue and Colibri dequeue the head either way),
//!   exactly as the adapters already implement.
//! * **Delayed wakeups** ([`FaultPlan::wake_delay_per_mille`] /
//!   [`FaultPlan::wake_delay_max`]): a wait-serving response (`Wait` or
//!   `ScWait`) enters the response network with up to `wake_delay_max`
//!   extra cycles of latency.
//! * **NoC latency jitter** ([`FaultPlan::jitter_per_mille`] /
//!   [`FaultPlan::jitter_max`]): any request/response flit may carry a few
//!   extra cycles of injection latency, within legal in-order bounds (a
//!   delayed flit delays everything behind it in its FIFO, never
//!   reorders).
//! * **Perturbed arbitration** ([`FaultPlan::perturb_arbitration`]): the
//!   round-robin rotation starts of the core-outbox flush are drawn from
//!   the seeded hash instead of the cycle counter — a different but
//!   equally legal arbiter.
//!
//! # Determinism
//!
//! Every fault decision is a **stateless hash** of `(seed, cycle, site,
//! ids)` — there is no RNG state to advance, so decisions do not depend on
//! evaluation order. All injection sites sit in the machine's cycle loop,
//! keyed on quantities the simulator's determinism contract already
//! guarantees identical across execution modes and tracing
//! (per-cycle delivery schedules, bank/core ids). A chaos run with a given
//! plan is therefore exactly as reproducible as a chaos-off run: same
//! seed, same trace, bit for bit — which is what makes a failing fuzz seed
//! a *repro*, not an anecdote.
//!
//! Chaos **off** (the default) follows the `Tracer`/`Profiler` discipline:
//! one predictable branch per site, results bit-identical to a build
//! without the engine (proven by the differential suite). The decisions
//! `step_cycle` calls directly are `#[inline(never)]`: their cold bodies
//! stay out of the cycle loop's machine code.
//!
//! # Mutations (self-test)
//!
//! A checker that never fires is worthless. [`Mutation`] variants are
//! deliberately **illegal** behaviors — a wakeup genuinely dropped, an
//! `scwait` success reported as failure — used by the litmus suite's
//! mutation self-test to prove the checker actually catches broken
//! hardware with a named invariant violation.

use std::fmt;

use lrscwait_core::MemResponse;

/// Deliberately-broken hardware variants for the mutation self-test.
///
/// Unlike every [`FaultPlan`] rate — which injects *legal* perturbations a
/// correct program must tolerate — a mutation is a **bug by construction**.
/// The litmus suite enables one, runs a scenario that exercises the broken
/// path, and asserts the
/// [`InvariantChecker`](lrscwait_trace::InvariantChecker) reports a named
/// violation. A checker that stays green under a mutation is itself broken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation (the only setting legal outside self-tests).
    #[default]
    None,
    /// The `nth` wait-serving response (`Wait { reserved: true }`) is
    /// silently dropped at the bank outbox: the adapter believes it served
    /// the waiter, the core never wakes. Caught as `lost-wakeup` (a
    /// `WaitServed` with no matching `Wake`) and `progress` (the parked
    /// core pins the run at the watchdog).
    DropWakeup {
        /// Zero-based index of the candidate response to drop.
        nth: u32,
    },
    /// The `nth` successful `scwait` response is rewritten to report
    /// failure *after* the store was performed and the queue advanced: the
    /// winning core retries against its own committed store and parks
    /// forever. Caught as `progress` with the parked-core wait graph.
    LoseScSuccess {
        /// Zero-based index of the successful `scwait` response to flip.
        nth: u32,
    },
}

impl Mutation {
    /// Whether this is [`Mutation::None`].
    #[must_use]
    pub fn is_none(self) -> bool {
        self == Mutation::None
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// All probabilities are expressed per mille (0..=1000) so the plan stays
/// `Copy` and float-free; `0` disables a fault class entirely, and a plan
/// whose every class is disabled is *quiet* — the simulator treats it like
/// chaos-off. Decision functions are stateless hashes of `(seed, site,
/// cycle, ids)`; see the module docs for the determinism argument.
///
/// ```
/// use lrscwait_sim::FaultPlan;
///
/// let plan = FaultPlan::standard(42);
/// assert!(!plan.is_quiet());
/// // Every decision is a pure function of (seed, site, cycle, ids) —
/// // the same question always gets the same answer, on any thread:
/// assert_eq!(plan.evict_request(100, 3, 0), plan.evict_request(100, 3, 0));
///
/// // A quiet plan runs the chaos-on code path but decides "no fault"
/// // everywhere; the differential suite proves it is bit-identical to
/// // running with no plan at all.
/// let quiet = FaultPlan::quiet(42);
/// assert!(quiet.is_quiet());
/// assert!(!quiet.evict_request(100, 3, 0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every decision hash is keyed on.
    pub seed: u64,
    /// Per-mille chance a serviced LR-type request has its reservation
    /// evicted just before service.
    pub evict_per_mille: u16,
    /// Per-mille chance an `sc`/`scwait` spuriously fails (its reservation
    /// is evicted immediately before the store conditional is serviced).
    pub sc_fail_per_mille: u16,
    /// Per-mille chance a wait-serving response is delayed.
    pub wake_delay_per_mille: u16,
    /// Maximum extra cycles a delayed wakeup carries (uniform in
    /// `1..=wake_delay_max`).
    pub wake_delay_max: u32,
    /// Per-mille chance any injected flit carries extra latency.
    pub jitter_per_mille: u16,
    /// Maximum extra cycles of flit jitter (uniform in `1..=jitter_max`).
    pub jitter_max: u32,
    /// Draw round-robin arbitration starts from the seeded hash instead of
    /// the cycle counter.
    pub perturb_arbitration: bool,
    /// Deliberately-broken hardware variant (self-test only).
    pub mutation: Mutation,
}

/// Decision-site keys: distinct constants so the same `(cycle, a, b)`
/// tuple never reuses a hash across fault classes.
const SITE_EVICT: u64 = 0x45_5649_4354;
const SITE_SC_FAIL: u64 = 0x5343_4641_494c;
const SITE_WAKE_DELAY: u64 = 0x57414b45;
const SITE_REQ_JITTER: u64 = 0x52455121;
const SITE_RESP_JITTER: u64 = 0x52455350;
const SITE_ARB: u64 = 0x41524221;

/// `splitmix64` finalizer: full-avalanche mixing of one 64-bit word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with every fault class disabled (chaos-off semantics, but
    /// through the chaos-on code path — the differential suite uses it to
    /// prove the quiet engine is bit-identical to no engine at all).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            evict_per_mille: 0,
            sc_fail_per_mille: 0,
            wake_delay_per_mille: 0,
            wake_delay_max: 0,
            jitter_per_mille: 0,
            jitter_max: 0,
            perturb_arbitration: false,
            mutation: Mutation::None,
        }
    }

    /// The default fuzzing plan: every legal fault class enabled at rates
    /// aggressive enough to exercise retry paths yet bounded enough that
    /// forward progress remains possible.
    #[must_use]
    pub fn standard(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            evict_per_mille: 60,
            sc_fail_per_mille: 120,
            wake_delay_per_mille: 150,
            wake_delay_max: 24,
            jitter_per_mille: 100,
            jitter_max: 6,
            perturb_arbitration: true,
            mutation: Mutation::None,
        }
    }

    /// An eviction-storm plan: very high eviction and spurious-failure
    /// rates, no delivery faults — the forward-progress stress.
    #[must_use]
    pub fn eviction_storm(seed: u64) -> FaultPlan {
        FaultPlan {
            evict_per_mille: 300,
            sc_fail_per_mille: 400,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Whether every fault class (and the mutation) is disabled.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.evict_per_mille == 0
            && self.sc_fail_per_mille == 0
            && self.wake_delay_per_mille == 0
            && self.jitter_per_mille == 0
            && !self.perturb_arbitration
            && self.mutation.is_none()
    }

    /// Stateless decision hash for one site.
    fn hash(&self, site: u64, cycle: u64, a: u64, b: u64) -> u64 {
        let h = mix(self.seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let h = mix(h ^ cycle);
        mix(h ^ (a << 32) ^ b)
    }

    /// Bernoulli draw at `per_mille` for one site.
    fn roll(&self, site: u64, cycle: u64, a: u64, b: u64, per_mille: u16) -> bool {
        per_mille > 0 && self.hash(site, cycle, a, b) % 1000 < u64::from(per_mille)
    }

    /// Whether the reservation behind the request at delivery slot
    /// `(bank, idx)` of `cycle` is evicted before service.
    #[must_use]
    #[inline(never)]
    pub fn evict_request(&self, cycle: u64, bank: u32, idx: u32) -> bool {
        self.roll(
            SITE_EVICT,
            cycle,
            u64::from(bank),
            u64::from(idx),
            self.evict_per_mille,
        )
    }

    /// Whether the `sc`/`scwait` at delivery slot `(bank, idx)` of `cycle`
    /// spuriously fails.
    #[must_use]
    #[inline(never)]
    pub fn fail_sc(&self, cycle: u64, bank: u32, idx: u32) -> bool {
        self.roll(
            SITE_SC_FAIL,
            cycle,
            u64::from(bank),
            u64::from(idx),
            self.sc_fail_per_mille,
        )
    }

    /// Extra cycles of latency (0 = none) for the response `resp` leaving
    /// `bank` towards `core` at `cycle`: wakeup delay for wait-serving
    /// responses, plus general jitter for any flit.
    #[must_use]
    pub fn response_delay(&self, cycle: u64, bank: u32, core: u32, resp: &MemResponse) -> u32 {
        let mut extra = 0u32;
        let wakes = matches!(resp, MemResponse::Wait { .. } | MemResponse::ScWait { .. });
        if wakes
            && self.wake_delay_max > 0
            && self.roll(
                SITE_WAKE_DELAY,
                cycle,
                u64::from(bank),
                u64::from(core),
                self.wake_delay_per_mille,
            )
        {
            extra += 1
                + (self.hash(SITE_WAKE_DELAY ^ 1, cycle, u64::from(bank), u64::from(core))
                    % u64::from(self.wake_delay_max)) as u32;
        }
        if self.jitter_max > 0
            && self.roll(
                SITE_RESP_JITTER,
                cycle,
                u64::from(bank),
                u64::from(core),
                self.jitter_per_mille,
            )
        {
            extra += 1
                + (self.hash(
                    SITE_RESP_JITTER ^ 1,
                    cycle,
                    u64::from(bank),
                    u64::from(core),
                ) % u64::from(self.jitter_max)) as u32;
        }
        extra
    }

    /// Extra cycles of latency (0 = none) for the `ordinal`-th request
    /// `core` injects at `cycle`.
    #[must_use]
    pub fn request_jitter(&self, cycle: u64, core: u32, ordinal: u32) -> u32 {
        if self.jitter_max > 0
            && self.roll(
                SITE_REQ_JITTER,
                cycle,
                u64::from(core),
                u64::from(ordinal),
                self.jitter_per_mille,
            )
        {
            1 + (self.hash(
                SITE_REQ_JITTER ^ 1,
                cycle,
                u64::from(core),
                u64::from(ordinal),
            ) % u64::from(self.jitter_max)) as u32
        } else {
            0
        }
    }

    /// Seeded round-robin start in `0..n` for the cycle's core-outbox
    /// flush (only consulted when [`FaultPlan::perturb_arbitration`]).
    #[must_use]
    #[inline(never)]
    pub fn arbitration_start(&self, cycle: u64, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.hash(SITE_ARB, cycle, 0, 0) % n
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} evict={}‰ sc_fail={}‰ wake_delay={}‰(max {}) jitter={}‰(max {}) arb={}",
            self.seed,
            self.evict_per_mille,
            self.sc_fail_per_mille,
            self.wake_delay_per_mille,
            self.wake_delay_max,
            self.jitter_per_mille,
            self.jitter_max,
            if self.perturb_arbitration {
                "hashed"
            } else {
                "rotate"
            },
        )?;
        if !self.mutation.is_none() {
            write!(f, " mutation={:?}", self.mutation)?;
        }
        Ok(())
    }
}

/// Machine-side engine state for a chaos-on run: the plan plus the
/// mutation candidate counters (the only stateful part, and only ever
/// advanced by the deterministic sequential bank-outbox flush). A machine
/// snapshot clones it, counters included.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChaosState {
    /// The active plan.
    pub(crate) plan: FaultPlan,
    /// Wait-serving responses seen so far (candidates for
    /// [`Mutation::DropWakeup`]).
    wait_candidates: u64,
    /// Successful `scwait` responses seen so far (candidates for
    /// [`Mutation::LoseScSuccess`]).
    scwait_candidates: u64,
}

impl ChaosState {
    /// Wraps a plan with zeroed mutation counters.
    pub(crate) fn new(plan: FaultPlan) -> ChaosState {
        ChaosState {
            plan,
            wait_candidates: 0,
            scwait_candidates: 0,
        }
    }

    /// Applies the active [`Mutation`] to a response about to enter the
    /// response network. Returns `None` when the response must be dropped,
    /// otherwise the (possibly rewritten) response.
    pub(crate) fn mutate_response(&mut self, resp: MemResponse) -> Option<MemResponse> {
        match self.plan.mutation {
            Mutation::None => Some(resp),
            Mutation::DropWakeup { nth } => {
                if matches!(resp, MemResponse::Wait { reserved: true, .. }) {
                    let i = self.wait_candidates;
                    self.wait_candidates += 1;
                    if i == u64::from(nth) {
                        return None;
                    }
                }
                Some(resp)
            }
            Mutation::LoseScSuccess { nth } => {
                if matches!(resp, MemResponse::ScWait { success: true }) {
                    let i = self.scwait_candidates;
                    self.scwait_candidates += 1;
                    if i == u64::from(nth) {
                        return Some(MemResponse::ScWait { success: false });
                    }
                }
                Some(resp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::standard(7);
        let b = FaultPlan::standard(7);
        let c = FaultPlan::standard(8);
        let mut differs = false;
        for cycle in 0..2000u64 {
            assert_eq!(
                a.evict_request(cycle, 3, 1),
                b.evict_request(cycle, 3, 1),
                "same seed, same decision"
            );
            if a.evict_request(cycle, 3, 1) != c.evict_request(cycle, 3, 1) {
                differs = true;
            }
        }
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn rates_land_near_target() {
        let plan = FaultPlan {
            evict_per_mille: 100,
            ..FaultPlan::quiet(42)
        };
        let hits = (0..100_000u64)
            .filter(|&cycle| plan.evict_request(cycle, 0, 0))
            .count();
        // 10% ± generous slack: this guards the hash, not the binomial.
        assert!((8_000..12_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn quiet_plan_decides_nothing() {
        let plan = FaultPlan::quiet(123);
        assert!(plan.is_quiet());
        for cycle in 0..1000 {
            assert!(!plan.evict_request(cycle, 0, 0));
            assert!(!plan.fail_sc(cycle, 1, 2));
            assert_eq!(plan.request_jitter(cycle, 0, 0), 0);
            assert_eq!(
                plan.response_delay(
                    cycle,
                    0,
                    0,
                    &MemResponse::Wait {
                        value: 0,
                        reserved: true
                    }
                ),
                0
            );
        }
    }

    #[test]
    fn drop_wakeup_drops_exactly_the_nth_candidate() {
        let mut state = ChaosState::new(FaultPlan {
            mutation: Mutation::DropWakeup { nth: 1 },
            ..FaultPlan::quiet(0)
        });
        let wait = MemResponse::Wait {
            value: 9,
            reserved: true,
        };
        let failfast = MemResponse::Wait {
            value: 9,
            reserved: false,
        };
        assert_eq!(state.mutate_response(failfast), Some(failfast));
        assert_eq!(state.mutate_response(wait), Some(wait));
        assert_eq!(
            state.mutate_response(wait),
            None,
            "second candidate dropped"
        );
        assert_eq!(state.mutate_response(wait), Some(wait));
    }

    #[test]
    fn lose_sc_success_flips_exactly_the_nth_success() {
        let mut state = ChaosState::new(FaultPlan {
            mutation: Mutation::LoseScSuccess { nth: 0 },
            ..FaultPlan::quiet(0)
        });
        let win = MemResponse::ScWait { success: true };
        let lose = MemResponse::ScWait { success: false };
        assert_eq!(
            state.mutate_response(lose),
            Some(lose),
            "failures untouched"
        );
        assert_eq!(
            state.mutate_response(win),
            Some(lose),
            "first success flipped"
        );
        assert_eq!(state.mutate_response(win), Some(win));
    }
}
