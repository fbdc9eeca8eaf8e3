//! Chaos engine for the LRSCwait substrate: seeded, deterministic fault
//! injection plus a safety/liveness checker over the trace stream.
//!
//! The paper's central claim — polling-free, retry-free synchronization
//! through `lrwait`/`scwait` parking — is only as strong as the substrate's
//! behavior under adversarial timing. "Implementing and Breaking
//! Load-Link/Store-Conditional" (Tilley et al.) shows that real LL/SC
//! implementations break exactly there: lost or delayed wakeups, spurious
//! SC failures, and reservation eviction. This crate injects those hazards
//! *on purpose* and checks that the substrate's safety and liveness
//! guarantees survive them.
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
//! without the engine (proven by the differential suite).
//!
//! # Mutations (self-test)
//!
//! A checker that never fires is worthless. [`Mutation`] variants are
//! deliberately **illegal** behaviors — a wakeup genuinely dropped, an
//! `scwait` success reported as failure — used by the litmus suite's
//! mutation self-test to prove the [`InvariantChecker`] actually catches
//! broken hardware with a named invariant violation.

#![forbid(unsafe_code)]

mod checker;
mod plan;

pub use checker::{
    violated_invariants, Invariant, InvariantChecker, InvariantReport, RunOutcome, Violation,
    WaitGraphEntry,
};
pub use plan::{Chaos, ChaosState, FaultPlan, Mutation};
