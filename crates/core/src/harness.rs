//! Deterministic protocol harness: one bank, `n` cores with Qnodes,
//! and randomly interleaved (but per-channel FIFO) message delivery.
//!
//! The harness is the protocol-level fuzzing substrate used by the property
//! tests: it explores message-delivery interleavings that a cycle-accurate
//! simulator would only reach under specific timing, while preserving the
//! one ordering guarantee the protocol needs (FIFO per channel). It also
//! tracks the mutual-exclusion and FIFO-service invariants online. A
//! harness is [`Clone`]: a copy taken mid-run continues independently, so
//! an explorer can fork a run at any delivery.

use std::collections::VecDeque;

use crate::bank::Bank;
use crate::msg::{Addr, CoreId, MemRequest, MemResponse, WaitMode};
use crate::qnode::Qnode;
use crate::storage::{MapStorage, WordStorage};

/// Tiny deterministic RNG (SplitMix64) so the harness has no external
/// dependencies and every failure reproduces from a seed.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Violation of a protocol invariant detected by the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

/// Single-bank protocol harness.
#[derive(Clone, Debug)]
pub struct Harness {
    bank: Bank,
    qnodes: Vec<Qnode>,
    mem: MapStorage,
    /// Per-core core→bank channel (requests, including bounced WakeUps).
    to_bank: Vec<VecDeque<MemRequest>>,
    /// Per-core bank→core channel (responses and SuccessorUpdates).
    to_core: Vec<VecDeque<MemResponse>>,
    /// Responses forwarded past the Qnode, awaiting test consumption.
    delivered: Vec<VecDeque<MemResponse>>,
    /// Current `lrwait` reservation holder per address.
    holders: Vec<(Addr, CoreId)>,
    /// Addresses each core currently holds (for release tracking).
    holding: Vec<Option<Addr>>,
    /// Order in which cores were granted the reservation, per address.
    grant_log: Vec<(Addr, CoreId)>,
    /// Order in which `lrwait` requests were accepted (enqueued), per address.
    enqueue_log: Vec<(Addr, CoreId)>,
    violations: Vec<InvariantViolation>,
}

impl Harness {
    /// Creates a harness over `bank` with `num_cores` cores.
    #[must_use]
    pub fn new(bank: Bank, num_cores: usize) -> Harness {
        Harness {
            bank,
            qnodes: vec![Qnode::new(); num_cores],
            mem: MapStorage::new(),
            to_bank: vec![VecDeque::new(); num_cores],
            to_core: vec![VecDeque::new(); num_cores],
            delivered: vec![VecDeque::new(); num_cores],
            holders: Vec::new(),
            holding: vec![None; num_cores],
            grant_log: Vec::new(),
            enqueue_log: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Direct access to backing memory (setup / final assertions).
    pub fn memory(&mut self) -> &mut MapStorage {
        &mut self.mem
    }

    /// Reads a word from backing memory.
    #[must_use]
    pub fn read_word(&self, addr: Addr) -> u32 {
        self.mem.read_word(addr)
    }

    /// Invariant violations observed so far.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Sequence of `(addr, core)` reservation grants.
    #[must_use]
    pub fn grant_log(&self) -> &[(Addr, CoreId)] {
        &self.grant_log
    }

    /// Sequence of `(addr, core)` accepted `lrwait` enqueues.
    #[must_use]
    pub fn enqueue_log(&self) -> &[(Addr, CoreId)] {
        &self.enqueue_log
    }

    /// Core issues a request (through its Qnode) onto its channel.
    pub fn send(&mut self, core: CoreId, req: MemRequest) {
        let wakeup = self.qnodes[core as usize].on_core_request(&req);
        self.to_bank[core as usize].push_back(req);
        if let Some(wk) = wakeup {
            self.to_bank[core as usize].push_back(wk);
        }
    }

    /// Takes the next response delivered to `core`, if any.
    pub fn take_delivered(&mut self, core: CoreId) -> Option<MemResponse> {
        self.delivered[core as usize].pop_front()
    }

    /// Delivers one randomly chosen in-flight message. Returns `false` when
    /// nothing was in flight.
    pub fn step(&mut self, rng: &mut SplitMix64) -> bool {
        let n = self.to_bank.len();
        let mut candidates: Vec<usize> = Vec::with_capacity(2 * n);
        for c in 0..n {
            if !self.to_bank[c].is_empty() {
                candidates.push(c);
            }
            if !self.to_core[c].is_empty() {
                candidates.push(n + c);
            }
        }
        if candidates.is_empty() {
            return false;
        }
        let pick = candidates[rng.below(candidates.len())];
        if pick < n {
            self.deliver_request(pick as CoreId);
        } else {
            self.deliver_response((pick - n) as CoreId);
        }
        true
    }

    /// Runs until all channels drain. Panics after `limit` steps (deadlock
    /// guard for tests).
    pub fn run_to_quiescence(&mut self, rng: &mut SplitMix64, limit: usize) {
        for _ in 0..limit {
            if !self.step(rng) {
                return;
            }
        }
        panic!("harness did not quiesce within {limit} steps");
    }

    fn deliver_request(&mut self, core: CoreId) {
        let req = self.to_bank[core as usize]
            .pop_front()
            .expect("candidate channel must be non-empty");
        // The critical sequence ends when the scwait reaches the bank (its
        // linearization point), not when the response returns — release the
        // reservation holder here so a successor granted in the same bank
        // step is not misreported as overlapping.
        if let MemRequest::ScWait { addr, .. } = req {
            if self.holding[core as usize] == Some(addr) {
                self.holding[core as usize] = None;
                self.holders.retain(|&(a, c)| !(a == addr && c == core));
            }
        }
        let is_lrwait = matches!(req, MemRequest::LrWait { .. });
        let mut out = Vec::new();
        self.bank.handle(core, &req, &mut self.mem, &mut out);
        if is_lrwait {
            let addr = req.addr();
            let failed_fast = out.iter().any(|(c, r)| {
                *c == core
                    && matches!(
                        r,
                        MemResponse::Wait {
                            reserved: false,
                            ..
                        }
                    )
            });
            if !failed_fast {
                self.enqueue_log.push((addr, core));
            }
        }
        for (dest, resp) in out {
            self.to_core[dest as usize].push_back(resp);
        }
    }

    fn deliver_response(&mut self, core: CoreId) {
        let resp = self.to_core[core as usize]
            .pop_front()
            .expect("candidate channel must be non-empty");
        let session = self.qnodes[core as usize].session_info();
        let output = self.qnodes[core as usize].on_response(resp);
        if let Some(delivered) = output.deliver {
            self.track_invariants(core, &delivered, session);
            self.delivered[core as usize].push_back(delivered);
        }
        if let Some(wakeup) = output.wakeup {
            self.to_bank[core as usize].push_back(wakeup);
        }
    }

    fn track_invariants(
        &mut self,
        core: CoreId,
        resp: &MemResponse,
        session: Option<(Addr, WaitMode)>,
    ) {
        if let MemResponse::Wait { reserved: true, .. } = *resp {
            if let Some((addr, WaitMode::LrWait)) = session {
                if let Some(&(a, holder)) = self.holders.iter().find(|(a, _)| *a == addr) {
                    self.violations.push(InvariantViolation(format!(
                        "mutual exclusion: core {core} granted {a:#x} while core {holder} holds it"
                    )));
                }
                self.holders.push((addr, core));
                self.holding[core as usize] = Some(addr);
                self.grant_log.push((addr, core));
            }
        }
    }
}

/// Drives `cores` cores through `ops_per_core` atomic increments of `addr`
/// using the `lrwait`/`scwait` sequence (with software retry on failure),
/// returning the final counter value. Used by tests on every architecture.
///
/// # Panics
///
/// Panics if the harness fails to quiesce (protocol deadlock) or a core
/// observes an impossible response.
pub fn drive_rmw_increments(
    harness: &mut Harness,
    rng: &mut SplitMix64,
    cores: &[CoreId],
    addr: Addr,
    ops_per_core: u32,
) -> u32 {
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum CoreState {
        Idle,
        WaitingLr,
        WaitingSc,
        Done,
    }
    let mut state = vec![(CoreState::Idle, 0u32); harness.qnodes.len()];
    let step_limit = 200_000 + 10_000 * cores.len() * ops_per_core as usize;

    for _ in 0..step_limit {
        // Issue phase: every idle core with work left sends an lrwait.
        for &c in cores {
            let (s, done) = state[c as usize];
            if s == CoreState::Idle && done < ops_per_core {
                harness.send(c, MemRequest::LrWait { addr });
                state[c as usize].0 = CoreState::WaitingLr;
            }
        }
        // Consume phase.
        for &c in cores {
            while let Some(resp) = harness.take_delivered(c) {
                let entry = &mut state[c as usize];
                match (entry.0, resp) {
                    (CoreState::WaitingLr, MemResponse::Wait { value, .. }) => {
                        // Software computes value+1 and tries to commit —
                        // even after a fail-fast response, mirroring the
                        // retry loop real kernels use.
                        harness.send(
                            c,
                            MemRequest::ScWait {
                                addr,
                                value: value.wrapping_add(1),
                            },
                        );
                        entry.0 = CoreState::WaitingSc;
                    }
                    (CoreState::WaitingSc, MemResponse::ScWait { success }) => {
                        if success {
                            entry.1 += 1;
                        }
                        entry.0 = if entry.1 >= ops_per_core {
                            CoreState::Done
                        } else {
                            CoreState::Idle
                        };
                    }
                    (s, r) => panic!("core {c}: unexpected response {r:?} in state {s:?}"),
                }
            }
        }
        if cores
            .iter()
            .all(|&c| state[c as usize].0 == CoreState::Done)
        {
            harness.run_to_quiescence(rng, 100_000);
            return harness.read_word(addr);
        }
        if !harness.step(rng) {
            // Channels drained: fine if some core went idle during the
            // consume phase (it will issue next iteration); anything else is
            // a lost wakeup.
            let idle_with_work = cores
                .iter()
                .any(|&c| state[c as usize].0 == CoreState::Idle);
            if idle_with_work {
                continue;
            }
            let stuck: Vec<_> = cores
                .iter()
                .map(|&c| (c, state[c as usize]))
                .filter(|(_, (s, _))| *s != CoreState::Done)
                .collect();
            panic!(
                "protocol stalled with cores {stuck:?} incomplete; bank {:?}",
                harness.bank
            );
        }
    }
    panic!("drive_rmw_increments exceeded step limit");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::SyncArch;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn increments_conserved_on_colibri() {
        let arch = SyncArch::Colibri { queues: 2 };
        let mut h = Harness::new(arch.build(4), 4);
        let mut rng = SplitMix64::new(7);
        let total = drive_rmw_increments(&mut h, &mut rng, &[0, 1, 2, 3], 0x40, 25);
        assert_eq!(total, 100);
        assert!(h.violations().is_empty(), "{:?}", h.violations());
    }

    #[test]
    fn increments_conserved_on_ideal_queue() {
        let arch = SyncArch::LrscWaitIdeal;
        let mut h = Harness::new(arch.build(4), 4);
        let mut rng = SplitMix64::new(11);
        let total = drive_rmw_increments(&mut h, &mut rng, &[0, 1, 2, 3], 0x40, 25);
        assert_eq!(total, 100);
        assert!(h.violations().is_empty());
    }

    #[test]
    fn increments_conserved_on_tiny_queue_with_failfast() {
        // q=1 forces constant fail-fast retries; totals must still hold.
        let arch = SyncArch::LrscWait { slots: 1 };
        let mut h = Harness::new(arch.build(4), 4);
        let mut rng = SplitMix64::new(13);
        let total = drive_rmw_increments(&mut h, &mut rng, &[0, 1, 2, 3], 0x40, 10);
        assert_eq!(total, 40);
        assert!(h.violations().is_empty());
    }

    #[test]
    fn a_cloned_harness_continues_independently() {
        const ADDR: Addr = 0x40;
        // Each core commits three increments, retrying a failed `scwait`.
        fn finish(h: &mut Harness, seed: u64) {
            let mut rng = SplitMix64::new(seed);
            let mut done = [0u32; 4];
            loop {
                for core in 0..4 {
                    while let Some(resp) = h.take_delivered(core) {
                        let next = match resp {
                            MemResponse::Wait { value, .. } => MemRequest::ScWait {
                                addr: ADDR,
                                value: value + 1,
                            },
                            MemResponse::ScWait { success } => {
                                done[core as usize] += u32::from(success);
                                if done[core as usize] == 3 {
                                    continue;
                                }
                                MemRequest::LrWait { addr: ADDR }
                            }
                            other => panic!("core {core}: unexpected {other:?}"),
                        };
                        h.send(core, next);
                    }
                }
                if !h.step(&mut rng) {
                    return;
                }
            }
        }

        // Fork while requests, grants and successor updates are in flight.
        let mut original = Harness::new(SyncArch::Colibri { queues: 1 }.build(4), 4);
        let mut rng = SplitMix64::new(5);
        for core in 0..4 {
            original.send(core, MemRequest::LrWait { addr: ADDR });
        }
        for _ in 0..5 {
            assert!(original.step(&mut rng));
        }
        let mut fork = original.clone();
        let forked = (
            fork.grant_log().to_vec(),
            fork.enqueue_log().to_vec(),
            *fork.bank.stats(),
        );

        finish(&mut original, 9);
        assert_eq!(original.read_word(ADDR), 12);
        assert!(original.grant_log().len() > forked.0.len());
        // The original's run moved nothing of the fork's.
        assert_eq!(fork.grant_log(), forked.0);
        assert_eq!(fork.enqueue_log(), forked.1);
        assert_eq!(*fork.bank.stats(), forked.2);
        assert_eq!(fork.read_word(ADDR), 0);

        finish(&mut fork, 9);
        assert_eq!(fork.read_word(ADDR), 12);
        assert_eq!(fork.grant_log(), original.grant_log());
        assert_eq!(fork.enqueue_log(), original.enqueue_log());
        assert_eq!(fork.bank.stats(), original.bank.stats());
        assert!(original.violations().is_empty() && fork.violations().is_empty());
    }

    #[test]
    fn colibri_grants_follow_enqueue_order() {
        let arch = SyncArch::Colibri { queues: 1 };
        let mut h = Harness::new(arch.build(8), 8);
        let mut rng = SplitMix64::new(3);
        drive_rmw_increments(&mut h, &mut rng, &[0, 1, 2, 3, 4, 5, 6, 7], 0x40, 5);
        // Starvation freedom: grant order equals accepted-enqueue order.
        assert_eq!(h.grant_log(), h.enqueue_log());
    }
}
