//! Checkpoint / restore: [`Machine::snapshot`] clones the simulated state
//! in memory, [`Machine::restore`] assigns it back, and
//! [`Machine::state_bytes`] encodes it canonically for comparisons.
//!
//! A restore takes a snapshot of the same machine or of one built with the
//! same execution mode, architecture, geometry and program image; any
//! other is refused with [`SimError::SnapshotMismatch`] and leaves the
//! target unchanged. Continuing from a restore is bit-identical to never
//! having stopped (`crates/sim/tests/snapshot.rs`). A snapshot is not
//! serializable: to compare or hash machine states, use
//! [`Machine::state_bytes`], which is identical in both execution modes.

use lrscwait_core::{StateWriter, SyncArch};
use lrscwait_isa::MemWidth;
use lrscwait_noc::{Network, TopologyConfig};
use lrscwait_trace::OpKind;

use crate::config::ExecMode;
use crate::cpu::{CoreState, DecodedProgram, PendingKind};
use crate::machine::{Machine, SimError, State};
use crate::phases::{ReqMsg, RespMsg};

/// A machine's simulated state at a cycle boundary: cores, Qnodes, banks,
/// SPM, both networks with their in-flight flits and traffic counters,
/// outboxes, worklists, debug log and chaos state. The configuration,
/// program image, tracer and profiler stay with the machine.
///
/// A snapshot lives in memory only: it is not serializable, and it
/// restores only into a machine with the same execution mode,
/// architecture, geometry and program image. Compare or hash
/// [`Machine::state_bytes`] instead.
#[derive(Debug)]
pub struct Snapshot {
    shape: Shape,
    state: State,
}

impl Snapshot {
    /// Length of the state's canonical bytes: what
    /// [`Machine::state_bytes`] returned when the snapshot was taken.
    /// Counted, not built: a snapshot and an encoding of it held at once
    /// would leave twice the memory resident in the allocator's arena.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut out = StateWriter::counting();
        self.state.encode(&self.shape, &mut out);
        out.len()
    }

    /// Always false: the canonical bytes hold at least their header.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// What a snapshot must match to be restored. The execution mode is part
/// of it because the ready queue and the lazy stall accounting exist only
/// in the event-scheduled stepper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    mode: ExecMode,
    arch: SyncArch,
    /// The topology and the SPM words per bank.
    geometry: (TopologyConfig, usize),
    /// Text length, entry point and [`program_fingerprint`].
    program: (u32, u32, u64),
}

impl Machine {
    fn shape(&self) -> Shape {
        Shape {
            mode: self.cfg.exec_mode,
            arch: self.cfg.arch,
            geometry: (self.cfg.topology, self.cfg.words_per_bank()),
            program: (
                self.program.raw.len() as u32,
                self.program.entry,
                program_fingerprint(&self.program),
            ),
        }
    }

    /// Clones the machine's simulated state (see [`Snapshot`]).
    ///
    /// Restoring it with [`Machine::restore`] and continuing is
    /// bit-identical to never having stopped: summaries, statistics,
    /// benchmark CSV bytes and trace-event suffixes all match.
    ///
    /// Call between cycles (before [`Machine::run`], or after `run` /
    /// [`Machine::run_until`] returned), never from inside a stepping
    /// phase.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            shape: self.shape(),
            state: self.state.clone(),
        }
    }

    /// Replaces the machine's simulated state with a [`Machine::snapshot`]
    /// of this machine or of one built with the same execution mode,
    /// architecture, geometry and program image. Tracing may differ: a
    /// tracing machine emits the uninterrupted stream's suffix (after its
    /// own `Start` event).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotMismatch`] naming the first property
    /// that differs, and leaves the machine unchanged.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SimError> {
        let (own, theirs) = (self.shape(), snapshot.shape);
        let mismatch = [
            (own.mode != theirs.mode, "execution mode"),
            (own.arch != theirs.arch, "architecture"),
            (own.geometry != theirs.geometry, "geometry"),
            (own.program != theirs.program, "program image"),
        ]
        .into_iter()
        .find_map(|(differs, what)| differs.then_some(what));
        if let Some(what) = mismatch {
            return Err(SimError::SnapshotMismatch { what });
        }
        self.state.clone_from(&snapshot.state);
        Ok(())
    }

    /// The canonical bytes of the machine state: cores (registers,
    /// pipeline and scheduling state, statistics), Qnodes, banks, memory,
    /// both networks' in-flight flits and statistics, the outboxes and the
    /// debug log, behind the architecture, geometry and program
    /// fingerprint.
    ///
    /// The bytes are identical in both execution modes: lazily-accounted
    /// parked and stall cycles are settled into the statistics, and the
    /// worklists, which follow from the rest at a cycle boundary, are left
    /// out. So are the NoC traffic counters and the chaos engine's
    /// mutation counters.
    #[must_use]
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = StateWriter::new();
        self.state.encode(&self.shape(), &mut out);
        out.finish()
    }
}

impl State {
    fn encode(&self, shape: &Shape, out: &mut StateWriter) {
        let label = self.adapters[0].label();
        out.put_u32(label.len() as u32);
        for b in label.bytes() {
            out.put_u8(b);
        }
        out.put_u32(self.cores.len() as u32);
        out.put_u32(self.adapters.len() as u32);
        out.put_u32(shape.geometry.1 as u32);
        let (text_len, entry, fingerprint) = shape.program;
        out.put_u32(text_len);
        out.put_u32(entry);
        out.put_u64(fingerprint);
        out.put_u64(self.cycle);

        // Same flush as `Machine::stats`, so the statistics are identical
        // in both execution modes.
        let settled = self.settled_core_stats(shape.mode.event_scheduled());
        for (core, stats) in self.cores.iter().zip(&settled) {
            for r in core.regs {
                out.put_u32(r);
            }
            out.put_u32(core.pc);
            out.put_u8(core_state_code(core.state));
            out.put_u64(core.ready_at);
            // Canonical park time: the deltas up to now are settled into
            // the statistics below. (For runnable and halted cores the
            // field is dead — rewritten on the next park.)
            out.put_u64(self.cycle);
            match core.pending {
                Some(p) => {
                    out.put_bool(true);
                    out.put_u8(p.rd.index());
                    out.put_u32(p.addr);
                    match p.kind {
                        PendingKind::Load { width, signed } => {
                            out.put_u8(0);
                            out.put_u8(mem_width_code(width));
                            out.put_bool(signed);
                        }
                        PendingKind::Value => out.put_u8(1),
                        PendingKind::Flag => out.put_u8(2),
                    }
                }
                None => out.put_bool(false),
            }
            out.put_u32(core.outstanding_stores);
            out.put_u64(stats.instret);
            out.put_u64(stats.active_cycles);
            out.put_u64(stats.stall_cycles);
            out.put_u64(stats.sleep_cycles);
            out.put_u64(stats.barrier_cycles);
            out.put_u64(stats.ops);
            out.put_opt_u64(stats.region_start);
            out.put_opt_u64(stats.region_end);
        }
        for q in &self.qnodes {
            q.save_state(out);
        }
        for &k in &self.park_kind {
            out.put_u8(op_kind_code(k));
        }
        for a in &self.adapters {
            a.save_state(out);
        }
        self.spm.save(out);
        save_net(out, &self.req_net, save_req);
        save_net(out, &self.resp_net, save_resp);
        for q in &self.core_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_req(out, m);
            }
        }
        for q in &self.bank_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_resp(out, m);
            }
        }
        out.put_u32(self.debug_log.len() as u32);
        for &(cycle, core, value) in &self.debug_log {
            out.put_u64(cycle);
            out.put_u32(core);
            out.put_u32(value);
        }
    }
}

/// FNV-1a-64 over the program identity (text base, entry point, raw text
/// words as little-endian bytes). A fixed, explicit algorithm — not the
/// standard library's unstable `DefaultHasher` — so state bytes stay
/// comparable across toolchain versions and builds.
fn program_fingerprint(program: &DecodedProgram) -> u64 {
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
    }
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &program.base.to_le_bytes());
    h = fnv1a(h, &program.entry.to_le_bytes());
    for &word in &program.raw {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h
}

fn core_state_code(s: CoreState) -> u8 {
    match s {
        CoreState::Running => 0,
        CoreState::WaitingMem => 1,
        CoreState::Barrier => 2,
        CoreState::Halted => 3,
    }
}

fn op_kind_code(k: OpKind) -> u8 {
    match k {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::Amo => 2,
        OpKind::Lr => 3,
        OpKind::Sc => 4,
        OpKind::LrWait => 5,
        OpKind::ScWait => 6,
        OpKind::MWait => 7,
        OpKind::WakeUp => 8,
    }
}

fn mem_width_code(w: MemWidth) -> u8 {
    match w {
        MemWidth::Byte => 0,
        MemWidth::Half => 1,
        MemWidth::Word => 2,
    }
}

fn save_req(out: &mut StateWriter, m: &ReqMsg) {
    out.put_u32(m.src);
    out.put_u32(m.bank);
    m.req.save(out);
}

fn save_resp(out: &mut StateWriter, m: &RespMsg) {
    out.put_u32(m.core);
    m.resp.save(out);
}

/// Encodes a network: statistics, then every in-flight flit in the
/// canonical (node id, queue position) order [`Network::for_each_flit`]
/// visits in.
fn save_net<P>(out: &mut StateWriter, net: &Network<P>, save: fn(&mut StateWriter, &P)) {
    let stats = net.stats();
    out.put_u64(stats.injected);
    out.put_u64(stats.inject_stalls);
    out.put_u64(stats.hops);
    out.put_u64(stats.delivered);
    out.put_u64(stats.hol_blocks);
    out.put_u32(net.in_flight() as u32);
    net.for_each_flit(|payload, route, hop, ready_at| {
        out.put_u8(route.len() as u8);
        for &h in route.hops() {
            out.put_u32(h);
        }
        out.put_u8(hop);
        out.put_u64(ready_at);
        save(out, payload);
    });
}
