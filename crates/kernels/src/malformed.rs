//! Malformed kernel source never panics the assembler.
//!
//! Every kernel's real source is damaged the ways an edit goes wrong —
//! bytes deleted or duplicated, the text cut short, one punctuation mark
//! swapped for another — and assembled. Whatever the damage, `assemble`
//! must return `Ok` or an `AsmError`. The damage is drawn from a fixed
//! seed, so a failure names a case that reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lrscwait_asm::Assembler;

use crate::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, LitmusKernel, LitmusScenario,
    MatmulKernel, PollerKind, QueueImpl, QueueKernel, RcuKernel,
};

/// Every distinct kernel source, with the assembler that defines its
/// constants.
fn sources() -> Vec<(String, Assembler, String)> {
    let mut out = Vec::new();
    let mut push = |label: String, (asm, src): (Assembler, String)| out.push((label, asm, src));
    for impl_ in [
        HistImpl::AmoAdd,
        HistImpl::Lrsc,
        HistImpl::LrscWait,
        HistImpl::TicketLock,
        HistImpl::TasLock,
        HistImpl::ColibriLock,
        HistImpl::McsMwaitLock,
    ] {
        let kernel = HistogramKernel::new(impl_, 1024, 8, 256).with_compute(64);
        push(format!("hist {impl_:?}"), kernel.assembly());
    }
    for impl_ in [
        QueueImpl::LrscWaitDirect,
        QueueImpl::LrscMs,
        QueueImpl::TicketRing,
    ] {
        push(
            format!("queue {impl_:?}"),
            QueueKernel::new(impl_, 8, 8).assembly(),
        );
    }
    for impl_ in [
        BarrierImpl::CentralLrsc,
        BarrierImpl::CentralLrscWait,
        BarrierImpl::TreeAmo,
        BarrierImpl::HwMmio,
    ] {
        push(
            format!("barrier {impl_:?}"),
            BarrierKernel::new(impl_, 4, 64).assembly(),
        );
    }
    for pollers in [
        PollerKind::Idle,
        PollerKind::Lrsc,
        PollerKind::LrscWait,
        PollerKind::AmoAdd,
    ] {
        let kernel = MatmulKernel::new(32, 4, 256, pollers).with_poll_bins(16);
        push(format!("matmul {pollers:?}"), kernel.assembly());
    }
    for scenario in LitmusScenario::all() {
        for wait in [false, true] {
            let kernel = LitmusKernel::new(scenario, 4, 8).with_wait_primitives(wait);
            push(
                format!("litmus {} wait={wait}", scenario.name()),
                kernel.assembly(),
            );
        }
    }
    push("rcu".to_string(), RcuKernel::new(64, 16, 6, 48).assembly());
    out
}

/// SplitMix64: a fixed, dependency-free stream of case parameters.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const PUNCTUATION: &[u8] = b",()#;:.'+-*/%&|^~<>";

/// Applies one random kind of damage to `src`.
fn damage(src: &mut Vec<u8>, rng: &mut Rng) -> &'static str {
    if src.is_empty() {
        return "none";
    }
    let at = rng.below(src.len());
    let len = (1 + rng.below(8)).min(src.len() - at);
    match rng.below(4) {
        0 => {
            src.drain(at..at + len);
            "delete"
        }
        1 => {
            let copy = src[at..at + len].to_vec();
            src.splice(at..at, copy);
            "duplicate"
        }
        2 => {
            src.truncate(at);
            "truncate"
        }
        _ => {
            let marks: Vec<usize> = (0..src.len())
                .filter(|&i| PUNCTUATION.contains(&src[i]))
                .collect();
            if let Some(&i) = marks.get(rng.below(marks.len().max(1))) {
                src[i] = PUNCTUATION[rng.below(PUNCTUATION.len())];
            }
            "swap punctuation"
        }
    }
}

#[test]
fn damaged_kernel_sources_yield_errors_not_panics() {
    const CASES_PER_SOURCE: usize = 100;
    let mut rng = Rng(0x5EED_0A53);
    let (mut ok, mut errors) = (0, 0);
    for (label, asm, src) in sources() {
        for case in 0..CASES_PER_SOURCE {
            let mut bytes = src.clone().into_bytes();
            let kinds: Vec<&str> = (0..1 + rng.below(3))
                .map(|_| damage(&mut bytes, &mut rng))
                .collect();
            let damaged = String::from_utf8_lossy(&bytes).into_owned();
            match catch_unwind(AssertUnwindSafe(|| asm.assemble(&damaged))) {
                Ok(Ok(_)) => ok += 1,
                Ok(Err(_)) => errors += 1,
                Err(_) => {
                    panic!("{label}, case {case} ({kinds:?}): assemble panicked on\n{damaged}")
                }
            }
        }
    }
    // Both outcomes occur: the damage is neither always fatal nor always
    // harmless (a deleted comment byte, say).
    assert!(ok > 0 && errors > 0, "{ok} assembled, {errors} rejected");
}
