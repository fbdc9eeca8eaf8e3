//! Open-loop service workload — the guest half of the
//! [`ServiceHarness`](super::ServiceHarness).
//!
//! Each active core is one *server* in a service fleet. The host injects
//! work between cycles ([`Machine::inject_store`]) using a per-core
//! mailbox protocol:
//!
//! 1. write the item payload into the core's `work` slot;
//! 2. bump the core's `door` counter.
//!
//! The server sleeps on its doorbell with `mwait.w` — one waiter per
//! address, so the kernel never depends on multi-waiter wake order. On
//! wait-capable hardware (Colibri, ideal wait queue) the core parks and
//! consumes zero bank bandwidth until the doorbell write arrives; on plain
//! LRSC `mwait.w` fail-fasts and the very same code degrades to a backoff
//! polling loop — the contrast the paper's tail-latency evaluation is
//! about.
//!
//! Per item the server adds the payload into a shared `amoadd.w` histogram
//! (cross-server memory contention), spins a fixed service loop, stamps
//! the completion cycle from the `CYCLE` MMIO register into its `stamp`
//! slot and publishes `done = door`. The host computes per-item latency as
//! `stamp - arrival_cycle`, which includes host-side queue wait.
//!
//! A payload of [`ServiceKernel::STOP`] shuts the server down: it writes
//! its payload checksum to `checks[hartid]` and halts.
//!
//! All per-core mailbox slots are padded to one 64-byte line so doorbells
//! never false-share a bank word.
//!
//! [`Machine::inject_store`]: lrscwait_sim::Machine::inject_store

use lrscwait_asm::{Assembler, Program};
use lrscwait_kernels::{VerifyError, Workload};
use lrscwait_sim::Machine;

/// Histogram bins for the shared `amoadd.w` update (power of two).
const HIST_BINS: u32 = 16;

/// Polling backoff iterations on fail-fast (plain-LRSC degradation).
const BACKOFF: u32 = 64;

/// The open-loop service-fleet workload description.
#[derive(Debug)]
pub(crate) struct ServiceKernel {
    /// Number of server cores (cores beyond this halt immediately).
    pub(crate) num_cores: u32,
    /// Deterministic per-item service loop iterations (each ~1 cycle).
    service_cycles: u32,
}

impl ServiceKernel {
    /// Byte stride between per-core mailbox slots (one full line each).
    const STRIDE: u32 = 64;

    /// Payload value that shuts a server down.
    pub(crate) const STOP: u32 = 0xFFFF_FFFF;

    /// Creates a service fleet of `num_cores` servers with a fixed
    /// per-item service time of roughly `service_cycles` cycles.
    pub(crate) fn new(num_cores: u32, service_cycles: u32) -> ServiceKernel {
        ServiceKernel {
            num_cores,
            service_cycles,
        }
    }

    /// Byte address of core `c`'s slot in the array rooted at `base`.
    pub(crate) fn slot(base: u32, c: u32) -> u32 {
        base + c * ServiceKernel::STRIDE
    }
}

impl Workload for ServiceKernel {
    fn label(&self) -> String {
        "service".to_string()
    }

    fn program(&self) -> Program {
        let src = r#"
.equ MMIO, 0xFFFF0000

_start:
    li   s0, MMIO
    rdhartid s1
    li   t0, NACTIVE
    bltu s1, t0, serve
    ecall                      # non-server cores leave immediately
serve:
    slli s2, s1, 6             # line-stride offset of my mailbox slots
    la   s3, door
    add  s3, s3, s2
    la   s4, work
    add  s4, s4, s2
    la   s5, done
    add  s5, s5, s2
    la   s6, stamp
    add  s6, s6, s2
    la   s7, hist
    li   s8, 0                 # doorbell value last seen
    li   s9, 0                 # payload checksum
    li   s10, 1
    sw   zero, 0x0C(s0)        # barrier: fleet ready
    sw   s10, 0x08(s0)         # region start
wait:
    mwait.w t0, s8, (s3)       # sleep until door != seen
    beq  t0, s8, poll          # fail-fast, unchanged: degrade to polling
    mv   s8, t0                # accept the doorbell
    lw   t1, (s4)              # item payload
    li   t2, STOP
    beq  t1, t2, finish
    add  s9, s9, t1
    andi t3, t1, HMASK         # shared service work: histogram update
    slli t3, t3, 2
    add  t3, t3, s7
    amoadd.w t4, s10, (t3)
    li   t5, SERVICE           # deterministic service time
svc:
    addi t5, t5, -1
    bnez t5, svc
    lw   t6, 0x3C(s0)          # completion cycle (CYCLE MMIO)
    sw   t6, (s6)
    fence
    sw   s8, (s5)              # publish done = door
    sw   s10, 0x04(s0)         # count the served item
    j    wait
poll:
    li   t5, BACKOFF
bk:
    addi t5, t5, -1
    bnez t5, bk
    j    wait
finish:
    sw   zero, 0x08(s0)        # region end
    la   t3, checks
    slli t4, s1, 2
    add  t3, t3, t4
    sw   s9, (t3)
    sw   s8, (s5)              # acknowledge the stop doorbell
    fence                      # drain both stores before halting
    ecall

.bss
.align 6
door:   .space SLOT_BYTES
work:   .space SLOT_BYTES
done:   .space SLOT_BYTES
stamp:  .space SLOT_BYTES
.align 6
hist:   .space HIST_BYTES
.align 6
checks: .space CHECK_BYTES
"#;
        Assembler::new()
            .define("NACTIVE", self.num_cores)
            .define("STOP", ServiceKernel::STOP)
            .define("SERVICE", self.service_cycles.max(1))
            .define("BACKOFF", BACKOFF)
            .define("HMASK", HIST_BINS - 1)
            .define("SLOT_BYTES", ServiceKernel::STRIDE * self.num_cores)
            .define("HIST_BYTES", 4 * HIST_BINS)
            .define("CHECK_BYTES", 4 * self.num_cores)
            .assemble(src)
            .expect("service kernel must assemble")
    }

    fn args(&self) -> Vec<(usize, u32)> {
        vec![(0, self.num_cores)]
    }

    /// Conservation checks that need no knowledge of what the host
    /// injected: every issued doorbell was acknowledged, and the shared
    /// histogram total equals the MMIO op count (one `amoadd` and one op
    /// tick per served item). The payload checksum is host knowledge and
    /// is verified by the traffic harness instead.
    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let program = self.program();
        let door = program.symbol("door");
        let done = program.symbol("done");
        let hist = program.symbol("hist");
        for c in 0..self.num_cores {
            let issued = machine.read_word(ServiceKernel::slot(door, c));
            let acked = machine.read_word(ServiceKernel::slot(done, c));
            if acked != issued {
                return Err(VerifyError::ResultMismatch {
                    what: "done",
                    index: c,
                    expected: issued,
                    actual: acked,
                });
            }
        }
        let mut total = 0u64;
        for b in 0..HIST_BINS {
            total += u64::from(machine.read_word(hist + 4 * b));
        }
        let ops = machine.stats().total_ops();
        if total != ops {
            return Err(VerifyError::Conservation {
                what: "service histogram total",
                expected: ops,
                actual: total,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_sim::SimConfig;

    #[test]
    fn parked_servers_sleep_not_spin() {
        // On wait hardware an idle fleet must be asleep, not polling: run
        // a long idle window and check sleep cycles dominate.
        let kernel = ServiceKernel::new(2, 10);
        let program = kernel.program();
        let cfg = SimConfig::small(2, SyncArch::Colibri { queues: 2 });
        let mut m = Machine::new(cfg, &program).unwrap();
        m.run_until(20_000).unwrap();
        let sleep = m.stats().total_sleep_cycles();
        assert!(
            sleep > 30_000,
            "two idle servers should sleep most of 20k cycles, slept {sleep}"
        );
    }
}
