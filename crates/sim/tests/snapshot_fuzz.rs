//! Snapshot-loader hardening: a machine restore fed truncated or
//! bit-flipped images must *always* come back as a typed
//! [`SimError::BadSnapshot`] or succeed outright (a flip can land in
//! payload bytes — register values, memory words — and still describe a
//! legal machine). What it must never do is panic, abort on a
//! pathological allocation, or loop: the deterministic corpus below
//! sweeps every truncation length class and a bit flip in every region
//! of the image.

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExitReason, Machine, SimConfig, SimError};

/// Contended wait-queue counter: parks cores, populates adapter queues
/// and keeps flits in flight, so the snapshot exercises every section of
/// the format.
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
        ecall
    .data
    counter: .word 0
"#;

fn fresh_machine() -> Machine {
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
    Machine::new(cfg, &program).expect("loads")
}

/// A mid-run snapshot with parked cores and in-flight traffic.
fn mid_run_snapshot() -> Vec<u8> {
    let mut m = fresh_machine();
    let stop = m.run_until(120).expect("runs");
    assert_eq!(stop.exit, ExitReason::TargetReached);
    m.snapshot()
}

/// Restore must return a typed error or succeed — anything else (panic,
/// abort) fails the test by crashing it.
fn restore_is_total(bytes: &[u8], what: &str) -> bool {
    let mut m = fresh_machine();
    match m.restore(bytes) {
        Ok(()) => true,
        Err(SimError::BadSnapshot { .. }) => false,
        Err(other) => panic!("{what}: restore must fail as BadSnapshot, got {other}"),
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let good = mid_run_snapshot();
    // Every truncation is malformed: the format ends with an exact-length
    // check, so no strict prefix may restore successfully.
    let mut lengths: Vec<usize> = (0..good.len().min(24)).collect();
    lengths.extend((24..good.len()).step_by(31));
    lengths.push(good.len() - 1);
    for len in lengths {
        assert!(
            !restore_is_total(&good[..len], "truncation"),
            "a {len}-byte prefix of a {}-byte snapshot restored successfully",
            good.len()
        );
    }
}

#[test]
fn every_bit_flip_is_typed_or_legal() {
    let good = mid_run_snapshot();
    // One flipped bit per 13-byte stride walks every section of the
    // image (header, cores, qnodes, adapters, memory, networks,
    // outboxes, debug log) at varying bit positions.
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for pos in (0..good.len()).step_by(13) {
        let mut mutant = good.clone();
        mutant[pos] ^= 1 << (pos % 8);
        if restore_is_total(&mutant, "bit flip") {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // The header alone (magic, version, label, geometry, fingerprint)
    // must reject its flips; payload flips may legally survive.
    assert!(
        rejected > 0,
        "no corrupted image was rejected ({accepted} accepted)"
    );
}

#[test]
fn appended_garbage_is_a_typed_error() {
    let mut good = mid_run_snapshot();
    good.extend_from_slice(&[0xA5; 7]);
    assert!(
        !restore_is_total(&good, "trailing bytes"),
        "a snapshot with trailing garbage restored successfully"
    );
}

#[test]
fn hostile_section_lengths_are_typed_errors() {
    // A flipped high bit in a length field is the nastiest corruption
    // class (it asks the loader to allocate or iterate absurdly); the
    // stride fuzz above may miss the exact offsets, so hit the known
    // ones directly: the label length (offset 8) and a huge value in the
    // middle of the image.
    let good = mid_run_snapshot();
    for (offset, value) in [(8usize, u32::MAX), (8, 0x7FFF_FFFF), (8, 257)] {
        let mut mutant = good.clone();
        mutant[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        assert!(
            !restore_is_total(&mutant, "hostile label length"),
            "label length {value:#x} at offset {offset} was accepted"
        );
    }
    // Rewrite every aligned u32 in the first 256 bytes to u32::MAX —
    // covers geometry counts and the early queue/count fields.
    for offset in (0..good.len().min(256)).step_by(4) {
        let mut mutant = good.clone();
        mutant[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let _ = restore_is_total(&mutant, "hostile u32");
    }
}

#[test]
fn a_flit_beyond_node_capacity_is_a_typed_error() {
    // A node's queue is a fixed ring, so an image that queues more flits
    // on it than its capacity must be refused, not grown into. Build one
    // from a snapshot with a single request flit in flight by repeating
    // that flit's record 17 times — more than any node of the default
    // link specs holds (16).
    let mut m = fresh_machine();
    let mut target = 60;
    loop {
        m.run_until(target).expect("runs");
        let net = m.stats().req_network;
        if net.injected - net.delivered == 1 {
            break;
        }
        target += 1;
        assert!(target < 2_000, "no cycle with one request in flight");
    }
    let good = m.snapshot();
    let stats = m.stats();
    // Each network section starts with its five counters, which locates
    // it: request statistics, flit count, flit records, response section.
    let section = |net: &lrscwait_noc::NetworkStats, from: usize| {
        let counters = [
            net.injected,
            net.inject_stalls,
            net.hops,
            net.delivered,
            net.hol_blocks,
        ];
        let needle: Vec<u8> = counters.iter().flat_map(|v| v.to_le_bytes()).collect();
        let found = good[from..].windows(needle.len()).position(|w| w == needle);
        from + found.expect("network section present")
    };
    let count_at = section(&stats.req_network, 0) + 40;
    assert_eq!(good[count_at..count_at + 4], 1u32.to_le_bytes());
    let record = count_at + 4..section(&stats.resp_network, count_at + 4);

    let mut hostile = good[..count_at].to_vec();
    hostile.extend(17u32.to_le_bytes());
    for _ in 0..17 {
        hostile.extend(&good[record.clone()]);
    }
    hostile.extend(&good[record.end..]);
    match fresh_machine().restore(&hostile) {
        Err(SimError::BadSnapshot { what }) => assert!(
            what.contains("flit beyond node capacity"),
            "rejected for another reason: {what}"
        ),
        other => panic!("an overfull node must be a BadSnapshot, got {other:?}"),
    }
    assert!(restore_is_total(&good, "the unmodified image"));
}
