//! Guest programs and configuration rows shared by the differential suites.

use lrscwait_sim::SimConfig;

/// `cfg` under the default branch penalty and under 0 and 3: a taken
/// branch's cost sets both the in-block stall charge and the period of a
/// delay-loop iteration, so every matrix that runs [`STALL_MIX`] runs it
/// on all three.
pub fn branch_penalty_rows(cfg: SimConfig) -> [SimConfig; 3] {
    [cfg.timing.branch_penalty, 0, 3].map(|penalty| {
        let mut row = cfg;
        row.timing.branch_penalty = penalty;
        row
    })
}

/// A delay loop whose counter starts at zero: it wraps and spins for 2³²
/// iterations, so only the watchdog (or a `run_until` target) ends it —
/// the superblock executor must cut the countdown at the horizon exactly.
pub const COUNTDOWN_FOREVER: &str = r#"
    _start:
        li   t0, 0
    spin:
        addi t0, t0, -1
        bnez t0, spin
        ecall
"#;

/// Every way a `Running` core can fail to issue, in one short program:
/// back-to-back `div`/`rem` latency and hartid-dependent runs of taken
/// branches (gaps that send the core to the ready queue), then a burst of
/// posted stores to one shared word that fills the store buffer and
/// backpressures the request outbox, drained by a `fence` (stalls that
/// retry every cycle and keep the core in the runnable set). Each round
/// goes on with a blocking load and a debug print, and ends with the
/// register-only paths the superblock executor shortcuts: the
/// `addi r, r, -1 ; bnez r, .-4` delay loop with counters 1, 2 and
/// hart-dependent, with swapped `bne` operands, entered at its branch and
/// entered by a `jalr` onto the `addi`, then one long straight-line run
/// through every single-cycle operation, whose result is printed. A final
/// barrier parks the early finishers while the late ones are still
/// deferred.
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
        li   t0, 1
    once:
        addi t0, t0, -1
        bnez t0, once            # counter 1: falls straight through
        li   t0, 2
    twice:
        addi t0, t0, -1
        bne  zero, t0, twice     # counter 2, operands swapped
        addi t0, s1, 5
    delay:
        addi t0, t0, -1
        bnez t0, delay           # hart-dependent delay
        li   t0, 4
        j    enter
    entered:
        addi t0, t0, -1
    enter:
        bnez t0, entered         # a loop entered at its branch
        la   t1, landed
        addi t0, s1, 2
        jr   t1                  # ... and one a jalr lands on
        ebreak
    landed:
        addi t0, t0, -1
        bnez t0, landed
        lui  t2, 0x9E378         # 44 single-cycle instructions in a row
        addi t2, t2, -1607
        auipc t3, 0x12
        add  t3, t3, s1
        mul  t4, t2, t3
        mulh t5, t2, t3
        mulhsu t6, t3, t2
        mulhu t1, t2, t3
        xor  t4, t4, t5
        or   t5, t6, t1
        and  t6, t4, t5
        sub  t1, t4, t6
        sll  t2, t1, s1
        srl  t3, t4, s1
        sra  t4, t4, s1
        slt  t5, t4, t3
        sltu t6, t3, t4
        add  t2, t2, t5
        add  t2, t2, t6
        nop
        slli t3, t2, 7
        srli t4, t2, 25
        srai t5, t1, 3
        slti t6, t5, -9
        sltiu t1, t5, 77
        xori t3, t3, -1
        ori  t4, t4, 0x155
        andi t5, t5, 0x7F3
        add  t2, t3, t4
        add  t2, t2, t5
        add  t2, t2, t6
        add  t2, t2, t1
        add  zero, t2, t2        # dropped results stay dropped
        mul  zero, t2, t2
        slli t3, t2, 13
        xor  t2, t2, t3
        srli t3, t2, 17
        xor  t2, t2, t3
        slli t3, t2, 5
        xor  t2, t2, t3
        add  t2, t2, t0
        sub  t2, t2, s2
        xor  t2, t2, s1
        addi t2, t2, 1
        sw   t2, 0x38(s0)        # print
        addi s2, s2, -1
        bnez s2, round
        sw   zero, 0x0C(s0)      # barrier
        ecall
    .data
    slots: .word 0, 0, 0, 0, 0, 0, 0, 0
"#;
