//! Guest program shared by the differential suites.

/// Every way a `Running` core can fail to issue, in one short program:
/// back-to-back `div`/`rem` latency and hartid-dependent runs of taken
/// branches (gaps that send the core to the ready queue), then a burst of
/// posted stores to one shared word that fills the store buffer and
/// backpressures the request outbox, drained by a `fence` (stalls that
/// retry every cycle and keep the core in the runnable set). Each round
/// ends with a blocking load and a debug print; a final barrier parks the
/// early finishers while the late ones are still deferred.
pub const STALL_MIX: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        rdhartid s1
        la   a0, slots
        slli t0, s1, 2
        add  a1, a0, t0          # my own word
        li   s2, 3               # rounds
    round:
        addi t1, s1, 3
        li   t2, 97
        div  t3, t2, t1          # divide latency ...
        rem  t4, t2, t1          # ... twice, back to back
        add  t3, t3, t4
    spin:
        addi t3, t3, -1
        bgtz t3, spin            # taken-branch penalties
        li   t5, 8
    burst:
        sw   t5, (a0)            # every core hammers slot 0
        addi t5, t5, -1
        bnez t5, burst
        fence                    # retried until the stores drain
        sw   t3, (a1)
        lw   t6, (a1)
        div  t6, t2, t1          # wake straight into a divide
        sw   t6, 0x38(s0)        # print
        addi s2, s2, -1
        bnez s2, round
        sw   zero, 0x0C(s0)      # barrier
        ecall
    .data
    slots: .word 0, 0, 0, 0, 0, 0, 0, 0
"#;
