//! Checkpoint/restore differential suite: running to cycle `N` must be
//! bit-identical to running to cycle `K`, snapshotting, restoring (into a
//! fresh machine, or into the one that took the snapshot) and continuing
//! to `N` — on summaries, statistics, the debug log and trace-event
//! streams — in every execution mode and across the synchronization
//! architectures, and the state bytes at `K` must not depend on the mode.
//! The interrupt points are deliberately chosen to land mid-wait (parked
//! cores, armed monitors, populated reservation queues) and mid-flight
//! (flits in both networks).

mod common;

use common::{branch_penalty_rows, COUNTDOWN_FOREVER, STALL_MIX};
use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExecMode, ExitReason, FaultPlan, Machine, Mutation, SimConfig, SimError};
use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent};

/// Execution modes every round trip runs in.
const MODES: [ExecMode; 2] = [ExecMode::Translated, ExecMode::Reference];

fn configured(base: SimConfig, mode: ExecMode) -> SimConfig {
    let mut cfg = base;
    cfg.exec_mode = mode;
    cfg
}

/// Asserts `run-to-end` ≡ `run-to-k + snapshot + restore + run-to-end`
/// in every mode, and that the state bytes at `k` do not depend on the
/// mode.
fn assert_snapshot_equivalent(src: &str, base_cfg: SimConfig, k: u64, what: &str) {
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    let mut base = Machine::with_decoded(base_cfg, decoded.clone()).expect("loads");
    let base_summary = base.run().expect("uninterrupted run");
    let base_stats = base.stats();
    assert_eq!(
        base_summary.exit,
        ExitReason::AllHalted,
        "{what}: completes"
    );
    assert!(
        k < base_summary.cycles,
        "{what}: interrupt point is mid-run"
    );

    let mut canonical: Option<Vec<u8>> = None;
    for mode in MODES {
        let cfg = configured(base_cfg, mode);
        let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
        let stop = first.run_until(k).expect("run to interrupt");
        assert_eq!(
            stop.exit,
            ExitReason::TargetReached,
            "{what}: {mode:?} stops at the target"
        );
        assert_eq!(stop.cycles, k, "{what}: {mode:?} exact stop");
        let bytes = first.state_bytes();
        assert_eq!(
            canonical.get_or_insert_with(|| bytes.clone()),
            &bytes,
            "{what}: {mode:?} state bytes at {k}"
        );
        let snapshot = first.snapshot();
        assert_eq!(snapshot.len(), bytes.len(), "{what}: snapshot length");

        let mut second = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
        second.restore(&snapshot).expect("restore");
        assert_eq!(second.cycles(), k, "restored cycle counter");
        let summary = second.run().expect("resumed run");
        let ctx = format!("{what}: {mode:?}");
        assert_eq!(base_summary, summary, "{ctx}: run summary");
        assert_eq!(base_stats, second.stats(), "{ctx}: statistics");
        assert_eq!(base.debug_log(), second.debug_log(), "{ctx}: debug log");

        // Rewinding the machine that took the snapshot must discard the
        // worklists (runnable set, ready queue) it has built since.
        first.run_until(k + 9).expect("run past the snapshot");
        first.restore(&snapshot).expect("restore in place");
        let summary = first.run().expect("rewound run");
        let ctx = format!("{what}: {mode:?} rewound");
        assert_eq!(base_summary, summary, "{ctx}: run summary");
        assert_eq!(base_stats, first.stats(), "{ctx}: statistics");
        assert_eq!(base.debug_log(), first.debug_log(), "{ctx}: debug log");
    }
}

/// Contended `lrwait`/`scwait` increments with a final barrier — parks
/// cores in wait queues, keeps both networks busy, and prints a per-core
/// result. Wait-capable architectures only: on plain LRSC `scwait.w`
/// unconditionally fails, so the retry loop would never terminate (use
/// [`LRSC_COUNTER`] there).
const CONTENDED_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t0, 12
    again:
        lrwait.w t1, (a0)
        addi t1, t1, 1
        scwait.w t2, t1, (a0)
        bnez t2, again
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// The same contended counter written with classic `lr.w`/`sc.w` retry —
/// the only forward-progress idiom plain LRSC supports. Hartid-seeded
/// exponential backoff breaks the symmetric-retry livelock (without it the
/// deterministic cores displace each other's reservations forever). Keeps
/// the request network saturated with failed reservations at the
/// interrupt points.
const LRSC_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        rdhartid t6
        andi s10, t6, 7
        addi s10, s10, 4         # per-core initial backoff window
        li   t0, 12
    again:
        lr.w t1, (a0)
        addi t1, t1, 1
        sc.w t2, t1, (a0)
        beqz t2, ok
        mv   t5, s10
    bk:
        addi t5, t5, -1
        bnez t5, bk
        slli s10, s10, 1         # exponential growth, capped
        li   t5, 2048
        bltu s10, t5, again
        mv   s10, t5
        j    again
    ok:
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// Producer/consumer over an `mwait` mailbox: consumers park on the
/// monitor while the producer delays, so snapshots land on armed
/// monitors and sleeping cores.
const MWAIT_MAILBOX: &str = r#"
    _start:
        rdhartid t0
        la   a0, mailbox
        bnez t0, consumer
    producer:
        li   t1, 600
    work:
        addi t1, t1, -1
        bnez t1, work
        li   t2, 1
        sw   t2, (a0)
        fence
        ecall
    consumer:
    park:
        mwait.w t3, zero, (a0)
        bnez t3, done
        li   t4, 32
    backoff:
        addi t4, t4, -1
        bnez t4, backoff
        j    park
    done:
        ecall
    .data
    mailbox: .word 0
"#;

#[test]
fn contended_counter_snapshot_round_trip() {
    for arch in [
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 2 },
    ] {
        let cfg = SimConfig::small(8, arch);
        for k in [1, 40, 400] {
            assert_snapshot_equivalent(CONTENDED_COUNTER, cfg, k, &format!("counter/{arch}"));
        }
    }
    // Plain LRSC has no wait queues; its contended path is lr/sc retry.
    let cfg = SimConfig::small(8, SyncArch::Lrsc);
    for k in [1, 40, 400] {
        assert_snapshot_equivalent(LRSC_COUNTER, cfg, k, "counter/LRSC");
    }
}

#[test]
fn mwait_mailbox_snapshot_round_trip() {
    for arch in [
        SyncArch::Lrsc,
        SyncArch::LrscWaitIdeal,
        SyncArch::Colibri { queues: 2 },
    ] {
        let cfg = SimConfig::small(4, arch);
        // 300 lands mid-delay with every consumer parked on the monitor.
        for k in [10, 300] {
            assert_snapshot_equivalent(MWAIT_MAILBOX, cfg, k, &format!("mailbox/{arch}"));
        }
    }
}

#[test]
fn stall_mix_snapshot_round_trip() {
    // Interrupt points spread over a whole round, so snapshots land on
    // cores waiting out divides and branch penalties in the ready queue
    // (their stall cycles not yet credited), on full store buffers and on
    // retrying fences.
    let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
    for k in (1..120).step_by(7) {
        assert_snapshot_equivalent(STALL_MIX, cfg, k, "stall mix");
    }
    // The rest of the first round — delay loops and the long straight-line
    // run — under every branch penalty: a restored core re-enters a
    // superblock wherever its pc stopped.
    for cfg in branch_penalty_rows(cfg) {
        for k in (120..330).step_by(7) {
            assert_snapshot_equivalent(STALL_MIX, cfg, k, "stall mix countdowns");
        }
    }
}

#[test]
fn restored_trace_stream_is_the_suffix() {
    let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
    assert_restored_trace_is_suffix(CONTENDED_COUNTER, cfg, 60);
    // The first round's back-to-back divides: every core passes through
    // the ready queue somewhere in this window.
    for k in 8..32 {
        assert_restored_trace_is_suffix(STALL_MIX, cfg, k);
    }
}

fn assert_restored_trace_is_suffix(src: &str, cfg: SimConfig, k: u64) {
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    // Uninterrupted traced run.
    let full = SharedSink::new(RecordingSink::new());
    let mut base = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    base.set_tracer(Box::new(full.clone()));
    let base_summary = base.run().expect("uninterrupted run");
    let full_events = full.take().events;
    assert!(k < base_summary.cycles);

    // Snapshot from an *untraced* machine, restore into a *traced* one.
    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    first.run_until(k).expect("run to interrupt");
    let bytes = first.snapshot();

    let tail = SharedSink::new(RecordingSink::new());
    let mut second = Machine::with_decoded(cfg, decoded).expect("loads");
    second.set_tracer(Box::new(tail.clone()));
    second.restore(&bytes).expect("restore");
    let summary = second.run().expect("resumed run");
    assert_eq!(base_summary, summary);

    let tail_events = tail.take().events;
    assert!(
        matches!(tail_events[0], (0, TraceEvent::Start { .. })),
        "restored stream starts with its own Start event"
    );
    let expected: Vec<_> = full_events
        .iter()
        .filter(|(cycle, _)| *cycle > k)
        .cloned()
        .collect();
    assert_eq!(
        &tail_events[1..],
        expected.as_slice(),
        "restored stream is the uninterrupted stream's post-snapshot suffix"
    );
}

#[test]
fn injected_stores_are_mode_invariant() {
    // Host-injected mailbox writes must wake consumers identically in
    // every execution mode, and survive a snapshot taken
    // between injections.
    let src = r#"
        _start:
            la   a0, mailbox
            rdhartid t0
            slli t0, t0, 2
            add  a0, a0, t0          # my mailbox word
        park:
            mwait.w t3, zero, (a0)
            bnez t3, done
            j    park
        done:
            la   a1, results
            add  a1, a1, t0
            sw   t3, (a1)
            fence
            ecall
        .data
        .align 6
        mailbox: .word 0, 0, 0, 0
        .align 6
        results: .word 0, 0, 0, 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let mailbox = program.symbol("mailbox");
    let results = program.symbol("results");
    let base_cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });

    let drive = |cfg: SimConfig, snapshot_mid: bool| {
        let mut m = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
        for (i, at) in [50u64, 120, 121, 400].iter().enumerate() {
            let stop = m.run_until(*at).expect("run to injection");
            assert_eq!(stop.exit, ExitReason::TargetReached);
            m.inject_store(mailbox + 4 * i as u32, 1 + i as u32);
            if snapshot_mid && i == 1 {
                let mut fresh = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
                fresh.restore(&m.snapshot()).expect("restore");
                m = fresh;
            }
        }
        let summary = m.run().expect("drain");
        assert_eq!(summary.exit, ExitReason::AllHalted);
        let values: Vec<u32> = (0..4).map(|i| m.read_word(results + 4 * i)).collect();
        assert_eq!(values, vec![1, 2, 3, 4], "every consumer saw its value");
        (summary, m.stats(), m.debug_log().to_vec())
    };

    let reference = drive(base_cfg, false);
    for mode in MODES {
        let cfg = configured(base_cfg, mode);
        assert_eq!(reference, drive(cfg, false), "{mode:?}: injected run");
        let snapped = drive(cfg, true);
        assert_eq!(reference, snapped, "{mode:?}: snapshot mid-injection");
    }
}

/// Fills every banked SPM word with `w + 1` (word index `w`), reports on
/// the debug log, waits until the host has written `!w` everywhere, then
/// prints how many of its words do not read `!w`. Cores take the words
/// `hartid, hartid + cores, …` below `ARG0`.
const SPM_WALK: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        lw   s1, 0x10(s0)        # hartid
        lw   s2, 0x14(s0)        # cores
        lw   s3, 0x18(s0)        # banked words
        mv   t0, s1
    fill:
        bgeu t0, s3, filled
        slli t1, t0, 2
        addi t2, t0, 1
        sw   t2, (t1)
        add  t0, t0, s2
        j    fill
    filled:
        fence
        sw   s1, 0x38(s0)        # print: every store acknowledged
        addi t3, s3, -1
        slli t4, t3, 2           # the last banked word
        not  t5, t3
    wait:
        lw   t6, (t4)
        bne  t6, t5, wait
        li   a0, 0
        mv   t0, s1
    check:
        bgeu t0, s3, checked
        slli t1, t0, 2
        lw   t2, (t1)
        not  t3, t0
        beq  t2, t3, same
        addi a0, a0, 1
    same:
        add  t0, t0, s2
        j    check
    checked:
        sw   a0, 0x38(s0)        # print the mismatch count
        ecall
"#;

#[test]
fn every_spm_word_survives_guest_host_and_snapshot() {
    // 200 000 B over 12 banks: 4166 words per bank, 49 992 banked words.
    // Walking every word covers the first and last word of every storage
    // page (the last one partial) and the last banked word.
    let mut cfg = SimConfig::small(3, SyncArch::Lrsc);
    cfg.spm_bytes = 200_000;
    let words = (cfg.words_per_bank() * cfg.topology.num_banks()) as u32;
    assert_eq!(words, 49_992);
    cfg.args[0] = words;
    let program = Assembler::new().assemble(SPM_WALK).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    let blank = first.snapshot();
    while first.debug_log().len() < 3 {
        let stop = first.run_until(first.cycles() + 100).expect("fills");
        assert_eq!(stop.exit, ExitReason::TargetReached);
    }
    let stored = |m: &Machine, what: &str| {
        for w in 0..words {
            assert_eq!(m.read_word(4 * w), w + 1, "{what}: word {w}");
        }
    };
    stored(&first, "guest stores");

    let mut second = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    second.restore(&first.snapshot()).expect("restore");
    stored(&second, "restored");
    for w in 0..words {
        second.write_word(4 * w, !w);
    }
    let summary = second.run().expect("checks");
    assert_eq!(summary.exit, ExitReason::AllHalted);
    let mismatches: Vec<u32> = second.debug_log()[3..].iter().map(|e| e.2).collect();
    assert_eq!(mismatches, [0, 0, 0], "guest loads of host writes");

    // A restore overwrites memory the machine already holds: the zeros of
    // a snapshot taken before any store replace every written word, and so
    // do the zeros beside the one word a snapshot holds.
    second.restore(&blank).expect("restore");
    for w in 0..words {
        assert_eq!(second.read_word(4 * w), 0, "restored zeros: word {w}");
    }
    let mut single = Machine::with_decoded(cfg, decoded).expect("loads");
    single.write_word(0, 1);
    second.restore(&first.snapshot()).expect("restore");
    second.restore(&single.snapshot()).expect("restore");
    for w in 0..words {
        let want = u32::from(w == 0);
        assert_eq!(
            second.read_word(4 * w),
            want,
            "zeros beside a word: word {w}"
        );
    }
}

#[test]
fn restore_rejects_a_snapshot_of_another_machine() {
    // A snapshot resumes mid-program on the state of one exec mode,
    // architecture and geometry: restored anywhere else it would be
    // silently wrong, and a translated machine would execute superblocks
    // lowered from the wrong program. The target must stay as it was.
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::small(4, SyncArch::LrscWaitIdeal);
    let mut m = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    m.run_until(20).expect("run");
    let snapshot = m.snapshot();

    let other = Assembler::new().assemble(MWAIT_MAILBOX).expect("assembles");
    let other = Machine::decode(&other).expect("decodes");
    let mut spm = cfg;
    spm.spm_bytes *= 2;
    for (what, cfg, image) in [
        (
            "execution mode",
            configured(cfg, ExecMode::Reference),
            &decoded,
        ),
        (
            "architecture",
            SimConfig::small(4, SyncArch::Colibri { queues: 2 }),
            &decoded,
        ),
        ("geometry", SimConfig::small(8, cfg.arch), &decoded),
        ("geometry", spm, &decoded),
        ("program image", cfg, &other),
    ] {
        let mut target = Machine::with_decoded(cfg, image.clone()).expect("loads");
        target.run_until(7).expect("run");
        let before = target.state_bytes();
        assert_eq!(
            target.restore(&snapshot),
            Err(SimError::SnapshotMismatch { what }),
            "{what}"
        );
        assert_eq!(target.state_bytes(), before, "{what}: target unchanged");
    }
}

#[test]
fn mutation_counters_survive_a_round_trip() {
    // The chaos engine counts mutation candidates as the run goes; a
    // restored machine must carry the counts on, so the mutation fires at
    // the same response as in the uninterrupted run.
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let mut cfg = SimConfig::small(8, SyncArch::Colibri { queues: 2 });
    cfg.chaos = Some(FaultPlan::quiet(1));
    let mut quiet = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    cfg.chaos = Some(FaultPlan {
        mutation: Mutation::LoseScSuccess { nth: 60 },
        ..FaultPlan::quiet(1)
    });
    let mut base = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    let base_summary = base.run().expect("uninterrupted run");
    let k = base_summary.cycles / 2;

    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    first.run_until(k).expect("run to interrupt");
    quiet.run_until(k).expect("run to interrupt");
    assert_eq!(
        first.state_bytes(),
        quiet.state_bytes(),
        "the mutation fires after the snapshot"
    );
    let mut second = Machine::with_decoded(cfg, decoded).expect("loads");
    second.restore(&first.snapshot()).expect("restore");
    assert_eq!(base_summary, second.run().expect("resumed run"));
    assert_eq!(base.stats(), second.stats());
    assert_eq!(base.debug_log(), second.debug_log());
    quiet.run().expect("quiet run");
    assert_ne!(quiet.debug_log(), second.debug_log(), "the mutation fired");
}

#[test]
fn restore_resumes_a_translated_run() {
    // A translated machine restored from another machine's snapshot keeps
    // its own translation and runs the program to the end.
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = configured(
        SimConfig::small(4, SyncArch::Colibri { queues: 2 }),
        ExecMode::Translated,
    );

    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    first.run_until(40).expect("run");
    let bytes = first.snapshot();

    let mut second = Machine::with_decoded(cfg, decoded).expect("loads");
    second.restore(&bytes).expect("restore");
    let summary = second.run().expect("resumed run");
    assert_eq!(summary.exit, ExitReason::AllHalted);
}

#[test]
fn run_until_is_transparent() {
    // Chopping a run into arbitrary run_until segments must not change
    // anything: fast-forward jumps, superblock run-ahead and the lazy
    // stall credit of deferred cores all split exactly across a stop.
    let cfg = SimConfig::small(4, SyncArch::LrscWaitIdeal);
    assert_chopped_run_is_identical(MWAIT_MAILBOX, cfg, 7, 13);
    // One stop at every single cycle of the stall-heavy program.
    for cfg in branch_penalty_rows(cfg) {
        let summary = assert_chopped_run_is_identical(STALL_MIX, cfg, 1, u64::MAX);
        for k in 2..summary.cycles {
            assert_chopped_run_is_identical(STALL_MIX, cfg, k, u64::MAX);
        }
        // A countdown that outlives the run: cut by the stop target at
        // every single cycle, and in the end by the watchdog.
        let mut short = cfg;
        short.max_cycles = 150;
        for k in 1..150 {
            let summary = assert_chopped_run_is_identical(COUNTDOWN_FOREVER, short, k, u64::MAX);
            assert_eq!(summary.exit, ExitReason::Watchdog);
        }
        assert_chopped_run_is_identical(COUNTDOWN_FOREVER, short, 1, 1);
    }
}

/// Runs `src` uninterrupted and again stopping at `first`, `first + step`,
/// … and asserts the two runs are indistinguishable.
fn assert_chopped_run_is_identical(
    src: &str,
    cfg: SimConfig,
    first: u64,
    step: u64,
) -> lrscwait_sim::RunSummary {
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    let mut base = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    let base_summary = base.run().expect("uninterrupted");

    let mut chopped = Machine::with_decoded(cfg, decoded).expect("loads");
    let mut target = first;
    loop {
        let summary = chopped.run_until(target).expect("segment");
        if summary.exit != ExitReason::TargetReached {
            assert_eq!(base_summary, summary, "chopped run summary");
            break;
        }
        assert!(summary.cycles >= target);
        target = target.saturating_add(step);
    }
    assert_eq!(base.stats(), chopped.stats(), "chopped run statistics");
    assert_eq!(base.debug_log(), chopped.debug_log(), "chopped debug log");
    base_summary
}
