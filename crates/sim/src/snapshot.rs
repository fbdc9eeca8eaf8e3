//! Checkpoint / restore: [`Machine::snapshot`] and [`Machine::restore`],
//! and the encoders and decoders of the state they carry.

use lrscwait_core::{MemRequest, MemResponse, StateError, StateReader, StateWriter};
use lrscwait_isa::{MemWidth, Reg};
use lrscwait_noc::{Network, NetworkStats, Route};
use lrscwait_trace::OpKind;

use crate::cpu::{Core, CoreState, DecodedProgram, PendingKind, PendingMem};
use crate::machine::{refill, Machine, SimError, HOST_CORE};
use crate::phases::{ReqMsg, RespMsg};

/// Snapshot file magic.
const SNAP_MAGIC: [u8; 4] = *b"LRSW";
/// Snapshot format version this build writes and reads.
/// Version history: 1 = the initial format; 2 = adds the program-image
/// fingerprint (text length, entry, FNV-1a hash) after the geometry
/// header, so a restore can never resume — or execute translated
/// superblocks — against a different program than the snapshot ran;
/// 3 = the memory section lists the SPM words in address order instead
/// of bank by bank; 4 = the memory section holds each SPM page behind a
/// presence flag, and only the pages with a nonzero word.
const SNAP_VERSION: u32 = 4;

impl Machine {
    /// Serializes the complete machine state — cores (registers, pipeline
    /// and scheduling state, statistics), Qnodes, bank adapters, memory,
    /// both networks' in-flight flits and statistics, the outboxes and the
    /// debug log — into a self-describing buffer (see the `README`'s
    /// checkpoint section for the format and its versioning caveat).
    ///
    /// Restoring the buffer with [`Machine::restore`] and continuing is
    /// bit-identical to never having stopped: summaries, statistics,
    /// benchmark CSV bytes and trace-event suffixes all match, across
    /// execution modes (the snapshot holds no mode-dependent state:
    /// lazily-accounted parked and stall cycles are settled into the
    /// statistics at snapshot time, and the runnable/ready/dirty
    /// worklists are recomputed on restore).
    ///
    /// Call between cycles (before [`Machine::run`], or after `run` /
    /// [`Machine::run_until`] returned), never from inside a stepping
    /// phase.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = StateWriter::new();
        for b in SNAP_MAGIC {
            out.put_u8(b);
        }
        out.put_u32(SNAP_VERSION);
        let label = self.adapters[0].label();
        out.put_u32(label.len() as u32);
        for b in label.bytes() {
            out.put_u8(b);
        }
        out.put_u32(self.cores.len() as u32);
        out.put_u32(self.num_banks());
        out.put_u32(self.cfg.words_per_bank() as u32);
        // Program-image fingerprint: a snapshot resumes mid-program, so
        // restoring it onto a machine running different code would be
        // silently wrong in any mode — and would execute stale
        // superblocks in `ExecMode::Translated`. Mode-independent, so
        // snapshot bytes stay identical across modes.
        out.put_u32(self.program.raw.len() as u32);
        out.put_u32(self.program.entry);
        out.put_u64(program_fingerprint(&self.program));
        out.put_u64(self.cycle);

        // Same flush as `Machine::stats`, so the serialized statistics are
        // identical in both execution modes.
        let settled = self.settled_core_stats();
        for (core, stats) in self.cores.iter().zip(&settled) {
            for r in core.regs {
                out.put_u32(r);
            }
            out.put_u32(core.pc);
            out.put_u8(core_state_code(core.state));
            out.put_u64(core.ready_at);
            // Canonical park time: lazily-accounted deltas up to now are
            // settled into the statistics below, so the restored core's
            // charging starts at the snapshot cycle. (For runnable/halted
            // cores the field is dead — rewritten on the next park.)
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
            q.save_state(&mut out);
        }
        for &k in &self.park_kind {
            out.put_u8(op_kind_code(k));
        }
        for a in &self.adapters {
            a.save_state(&mut out);
        }
        self.spm.save(&mut out);
        save_net(&mut out, &self.req_net, save_req);
        save_net(&mut out, &self.resp_net, save_resp);
        for q in &self.core_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_req(&mut out, m);
            }
        }
        for q in &self.bank_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_resp(&mut out, m);
            }
        }
        out.put_u32(self.debug_log.len() as u32);
        for &(cycle, core, value) in &self.debug_log {
            out.put_u64(cycle);
            out.put_u32(core);
            out.put_u32(value);
        }
        out.finish()
    }

    /// Replaces the machine's entire state with a [`Machine::snapshot`].
    ///
    /// The machine must have been built with the same geometry (cores,
    /// banks, SPM size) and synchronization architecture the snapshot was
    /// taken with; execution mode and tracing may both differ —
    /// continuing from the restored state is bit-identical to the
    /// uninterrupted run in any combination. A tracing machine emits the
    /// uninterrupted stream's suffix (after its own `Start` event).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadSnapshot`] when the buffer is truncated,
    /// corrupt, from an incompatible format version, or taken on a
    /// machine with different geometry or architecture. On error the
    /// machine state is unspecified — discard it.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let mut src = StateReader::new(bytes);
        self.restore_inner(&mut src)
            .map_err(|RestoreFail(what)| SimError::BadSnapshot { what })
    }

    fn restore_inner(&mut self, src: &mut StateReader<'_>) -> Result<(), RestoreFail> {
        for expect in SNAP_MAGIC {
            if src.take_u8()? != expect {
                return Err(RestoreFail("not a machine snapshot (bad magic)".into()));
            }
        }
        let version = src.take_u32()?;
        if version != SNAP_VERSION {
            return Err(RestoreFail(format!(
                "unsupported snapshot version {version} (this build reads version {SNAP_VERSION})"
            )));
        }
        let label_len = src.take_u32()? as usize;
        if label_len > 256 {
            return Err(RestoreFail("implausible architecture label".into()));
        }
        let mut label = Vec::with_capacity(label_len);
        for _ in 0..label_len {
            label.push(src.take_u8()?);
        }
        let label = String::from_utf8(label)
            .map_err(|_| RestoreFail("architecture label is not UTF-8".into()))?;
        let own = self.adapters[0].label();
        if label != own {
            return Err(RestoreFail(format!(
                "snapshot is for architecture {label:?}, this machine is {own:?}"
            )));
        }
        let nc = src.take_u32()?;
        let nb = src.take_u32()?;
        let wpb = src.take_u32()?;
        if nc as usize != self.cores.len()
            || nb != self.num_banks()
            || wpb as usize != self.cfg.words_per_bank()
        {
            return Err(RestoreFail(format!(
                "snapshot geometry ({nc} cores, {nb} banks, {wpb} words/bank) does not match \
                 machine ({} cores, {} banks, {} words/bank)",
                self.cores.len(),
                self.num_banks(),
                self.cfg.words_per_bank()
            )));
        }
        let text_len = src.take_u32()?;
        let entry = src.take_u32()?;
        let hash = src.take_u64()?;
        if text_len as usize != self.program.raw.len()
            || entry != self.program.entry
            || hash != program_fingerprint(&self.program)
        {
            return Err(RestoreFail(
                "snapshot was taken with a different program image".into(),
            ));
        }
        self.cycle = src.take_u64()?;
        for core in &mut self.cores {
            load_core(src, core)?;
        }
        for q in &mut self.qnodes {
            q.load_state(src)?;
        }
        for k in &mut self.park_kind {
            *k = op_kind_from(src.take_u8()?)?;
        }
        for a in &mut self.adapters {
            a.load_state(src)?;
        }
        self.spm.load(src)?;
        let num_cores = self.cores.len() as u32;
        let num_banks = self.num_banks();
        load_net(src, &mut self.req_net, |s| {
            load_req(s, num_cores, num_banks)
        })?;
        load_net(src, &mut self.resp_net, |s| load_resp(s, num_cores))?;
        for q in &mut self.core_outbox {
            q.clear();
            let len = src.take_u32()?;
            for _ in 0..len {
                q.push_back(load_req(src, num_cores, num_banks)?);
            }
        }
        for q in &mut self.bank_outbox {
            q.clear();
            let len = src.take_u32()?;
            for _ in 0..len {
                q.push_back(load_resp(src, num_cores)?);
            }
        }
        self.debug_log.clear();
        let len = src.take_u32()?;
        for _ in 0..len {
            let cycle = src.take_u64()?;
            let core = src.take_u32()?;
            let value = src.take_u32()?;
            self.debug_log.push((cycle, core, value));
        }
        if src.remaining() != 0 {
            return Err(RestoreFail("trailing bytes after snapshot".into()));
        }

        // Derived state. At a cycle boundary the worklists are functions
        // of the serialized state: every `Running` core starts in the
        // runnable set (the ready queue starts empty and refills as the first
        // walk defers the cores that cannot issue yet), and a bank/core
        // is dirty iff its outbox is non-empty.
        self.halted = self
            .cores
            .iter()
            .filter(|c| c.state == CoreState::Halted)
            .count();
        self.barrier_waiting = self
            .cores
            .iter()
            .filter(|c| c.state == CoreState::Barrier)
            .count();
        self.ready_queue.clear();
        let running = (0..)
            .zip(&self.cores)
            .filter(|(_, c)| c.state == CoreState::Running);
        refill(&mut self.runnable, running.map(|(i, _)| i));
        let banks = (0..).zip(&self.bank_outbox).filter(|(_, q)| !q.is_empty());
        refill(&mut self.dirty_banks, banks.map(|(i, _)| i));
        let cores = (0..).zip(&self.core_outbox).filter(|(_, q)| !q.is_empty());
        refill(&mut self.dirty_cores, cores.map(|(i, _)| i));
        Ok(())
    }
}

/// FNV-1a-64 over the program identity (text base, entry point, raw text
/// words as little-endian bytes). A fixed, explicit algorithm — not the
/// standard library's unstable `DefaultHasher` — so snapshots stay
/// portable across toolchain versions and builds.
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

/// Restore failure message; converted to [`SimError::BadSnapshot`] at the
/// public boundary.
struct RestoreFail(String);

impl From<StateError> for RestoreFail {
    fn from(e: StateError) -> RestoreFail {
        RestoreFail(e.to_string())
    }
}

fn core_state_code(s: CoreState) -> u8 {
    match s {
        CoreState::Running => 0,
        CoreState::WaitingMem => 1,
        CoreState::Barrier => 2,
        CoreState::Halted => 3,
    }
}

fn core_state_from(code: u8) -> Result<CoreState, StateError> {
    Ok(match code {
        0 => CoreState::Running,
        1 => CoreState::WaitingMem,
        2 => CoreState::Barrier,
        3 => CoreState::Halted,
        _ => return Err(StateError::Invalid("core state")),
    })
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

fn op_kind_from(code: u8) -> Result<OpKind, StateError> {
    Ok(match code {
        0 => OpKind::Load,
        1 => OpKind::Store,
        2 => OpKind::Amo,
        3 => OpKind::Lr,
        4 => OpKind::Sc,
        5 => OpKind::LrWait,
        6 => OpKind::ScWait,
        7 => OpKind::MWait,
        8 => OpKind::WakeUp,
        _ => return Err(StateError::Invalid("park kind")),
    })
}

fn mem_width_code(w: MemWidth) -> u8 {
    match w {
        MemWidth::Byte => 0,
        MemWidth::Half => 1,
        MemWidth::Word => 2,
    }
}

fn mem_width_from(code: u8) -> Result<MemWidth, StateError> {
    Ok(match code {
        0 => MemWidth::Byte,
        1 => MemWidth::Half,
        2 => MemWidth::Word,
        _ => return Err(StateError::Invalid("load width")),
    })
}

fn load_core(src: &mut StateReader<'_>, core: &mut Core) -> Result<(), StateError> {
    for r in core.regs.iter_mut() {
        *r = src.take_u32()?;
    }
    core.regs[0] = 0; // x0 is architectural zero whatever the buffer says
    core.pc = src.take_u32()?;
    core.state = core_state_from(src.take_u8()?)?;
    core.ready_at = src.take_u64()?;
    // Transient fast-path state, never serialized: the restored machine
    // has charged nothing beyond the snapshot cycle.
    core.charged_until = 0;
    core.parked_at = src.take_u64()?;
    core.pending = if src.take_bool()? {
        let rd = Reg::try_new(u32::from(src.take_u8()?))
            .ok_or(StateError::Invalid("pending destination register"))?;
        let addr = src.take_u32()?;
        let kind = match src.take_u8()? {
            0 => PendingKind::Load {
                width: mem_width_from(src.take_u8()?)?,
                signed: src.take_bool()?,
            },
            1 => PendingKind::Value,
            2 => PendingKind::Flag,
            _ => return Err(StateError::Invalid("pending operation kind")),
        };
        Some(PendingMem { rd, addr, kind })
    } else {
        None
    };
    core.outstanding_stores = src.take_u32()?;
    core.stats.instret = src.take_u64()?;
    core.stats.active_cycles = src.take_u64()?;
    core.stats.stall_cycles = src.take_u64()?;
    core.stats.sleep_cycles = src.take_u64()?;
    core.stats.barrier_cycles = src.take_u64()?;
    core.stats.ops = src.take_u64()?;
    core.stats.region_start = src.take_opt_u64()?;
    core.stats.region_end = src.take_opt_u64()?;
    Ok(())
}

fn save_req(out: &mut StateWriter, m: &ReqMsg) {
    out.put_u32(m.src);
    out.put_u32(m.bank);
    m.req.save(out);
}

fn load_req(
    src: &mut StateReader<'_>,
    num_cores: u32,
    num_banks: u32,
) -> Result<ReqMsg, StateError> {
    let src_core = src.take_u32()?;
    if src_core != HOST_CORE && src_core >= num_cores {
        return Err(StateError::Invalid("request source core"));
    }
    let bank = src.take_u32()?;
    if bank >= num_banks {
        return Err(StateError::Invalid("request destination bank"));
    }
    Ok(ReqMsg {
        src: src_core,
        bank,
        req: MemRequest::load(src)?,
    })
}

fn save_resp(out: &mut StateWriter, m: &RespMsg) {
    out.put_u32(m.core);
    m.resp.save(out);
}

fn load_resp(src: &mut StateReader<'_>, num_cores: u32) -> Result<RespMsg, StateError> {
    let core = src.take_u32()?;
    if core >= num_cores {
        return Err(StateError::Invalid("response destination core"));
    }
    Ok(RespMsg {
        core,
        resp: MemResponse::load(src)?,
    })
}

/// Serializes a network: statistics, then every in-flight flit in the
/// canonical (node id, queue position) order [`Network::for_each_flit`]
/// visits in — the same order [`Network::push_flit`] replays them in, so a
/// restored network is behaviourally identical.
fn save_net<P>(out: &mut StateWriter, net: &Network<P>, save: fn(&mut StateWriter, &P)) {
    let stats = net.stats();
    out.put_u64(stats.injected);
    out.put_u64(stats.inject_stalls);
    out.put_u64(stats.hops);
    out.put_u64(stats.delivered);
    out.put_u64(stats.hol_blocks);
    let mut count: u32 = 0;
    net.for_each_flit(|_, _, _, _| count += 1);
    out.put_u32(count);
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

fn load_net<P>(
    src: &mut StateReader<'_>,
    net: &mut Network<P>,
    load: impl Fn(&mut StateReader<'_>) -> Result<P, StateError>,
) -> Result<(), StateError> {
    let stats = NetworkStats {
        injected: src.take_u64()?,
        inject_stalls: src.take_u64()?,
        hops: src.take_u64()?,
        delivered: src.take_u64()?,
        hol_blocks: src.take_u64()?,
    };
    net.clear_in_flight();
    net.set_stats(stats);
    let count = src.take_u32()?;
    for _ in 0..count {
        let len = usize::from(src.take_u8()?);
        if len == 0 || len > Route::MAX_HOPS {
            return Err(StateError::Invalid("flit route length"));
        }
        let mut hops = [0u32; Route::MAX_HOPS];
        for h in hops.iter_mut().take(len) {
            *h = src.take_u32()?;
            if *h as usize >= net.num_nodes() {
                return Err(StateError::Invalid("flit node id"));
            }
        }
        let hop = src.take_u8()?;
        if usize::from(hop) >= len {
            return Err(StateError::Invalid("flit hop index"));
        }
        let ready_at = src.take_u64()?;
        let payload = load(src)?;
        net.push_flit(Route::new(&hops[..len]), hop, ready_at, payload)
            .map_err(|_| StateError::Invalid("flit beyond node capacity"))?;
    }
    Ok(())
}
