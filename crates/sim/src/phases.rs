//! The bodies of `Machine::step_cycle`'s two largest phases — per-bank
//! request service and per-core stepping — kept apart from the machine so
//! that each borrows exactly the machine fields it touches.
//!
//! Both bodies update the machine's worklists as they go: bank service
//! marks a bank dirty the moment its outbox fills, the core walk takes a
//! parked, halted or deferred core out of the runnable set (and files a
//! deferred one in the ready queue) right after visiting it. The order
//! contracts are the simulated machine's own: requests are serviced in
//! `(bank, delivery index)` order, cores step in ascending id.
//!
//! # Tracing
//!
//! Every emit site is `tracer.emit(now, || TraceEvent::…)`, the same idiom
//! `Machine` uses at its own sites: with [`Tracer::Off`] that is one
//! predictable branch and the event is never built. Bank service picks
//! [`Bank::handle`] over `handle_traced` when the tracer is off, so an
//! untraced bank is never handed an observer at all.

use std::collections::VecDeque;

use lrscwait_core::{Bank, MemRequest, MemResponse, Qnode, WordStorage};
use lrscwait_isa::AmoOp;
use lrscwait_noc::IdSet;
use lrscwait_trace::{OpKind, TraceEvent, Tracer};

use crate::config::{mmio_reg, SimConfig, MMIO_BASE, MMIO_SIZE, NUM_ARGS, ROM_BASE};
use crate::cpu::{
    amo_op_kind, extract, store_lanes, Action, Core, CoreState, DecodedProgram, ExecError,
    MemIntent, PendingKind, PendingMem,
};
use crate::machine::SimError;
use crate::ready::ReadyQueue;
use crate::spm::Spm;
use crate::stats::WorkStats;
use crate::translate::{run_block, Translation};

/// Request-network payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReqMsg {
    pub src: u32,
    pub bank: u32,
    pub req: MemRequest,
}

/// Response-network payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RespMsg {
    pub core: u32,
    pub resp: MemResponse,
}

/// Adapter-facing view of one bank's words with global addressing.
pub(crate) struct BankView<'a> {
    pub spm: &'a mut Spm,
    pub num_banks: u32,
    pub bank: u32,
}

impl WordStorage for BankView<'_> {
    fn read_word(&self, addr: u32) -> u32 {
        let w = addr / 4;
        debug_assert_eq!(
            w % self.num_banks,
            self.bank,
            "address routed to wrong bank"
        );
        self.spm.read(w)
    }

    fn write_word(&mut self, addr: u32, value: u32) {
        let w = addr / 4;
        debug_assert_eq!(
            w % self.num_banks,
            self.bank,
            "address routed to wrong bank"
        );
        self.spm.write(w, value);
    }
}

/// Services every delivered request in bank-id order (and, within one
/// bank, in delivery order): the [`Bank`] performs its side effects on
/// its SPM words and appends responses to its outbox, which joins
/// `dirty_banks` when it goes empty → non-empty.
///
/// `order` is the cycle's delivery list sorted by `(bank, delivery
/// index)`; `adapter_out` is the reusable response buffer [`serve`]
/// fills.
#[allow(clippy::too_many_arguments)]
pub(crate) fn service_banks(
    spm: &mut Spm,
    adapters: &mut [Box<Bank>],
    bank_outbox: &mut [VecDeque<RespMsg>],
    dirty_banks: &mut IdSet,
    reqs: &[ReqMsg],
    order: &[(u32, u32)],
    adapter_out: &mut Vec<(u32, MemResponse)>,
    tracer: &mut Tracer,
    now: u64,
) {
    let num_banks = adapters.len() as u32;
    for &(bank, idx) in order {
        let msg = &reqs[idx as usize];
        debug_assert_eq!(msg.bank, bank);
        let b = bank as usize;
        let mut view = BankView {
            spm: &mut *spm,
            num_banks,
            bank,
        };
        serve(
            &mut adapters[b],
            &mut view,
            msg.src,
            &msg.req,
            adapter_out,
            tracer,
            now,
        );
        let outbox = &mut bank_outbox[b];
        if outbox.is_empty() && !adapter_out.is_empty() {
            dirty_banks.insert(bank);
        }
        for (core, resp) in adapter_out.drain(..) {
            outbox.push_back(RespMsg { core, resp });
        }
    }
}

/// Hands one request from `src` to the bank, leaving its responses in
/// `adapter_out` (cleared first). The bank's synchronization events
/// reach `tracer`; with the tracer off it gets
/// [`Bank::handle`] and no observer at all.
pub(crate) fn serve(
    adapter: &mut Bank,
    view: &mut BankView<'_>,
    src: u32,
    req: &MemRequest,
    adapter_out: &mut Vec<(u32, MemResponse)>,
    tracer: &mut Tracer,
    now: u64,
) {
    adapter_out.clear();
    if tracer.is_off() {
        adapter.handle(src, req, view, adapter_out);
    } else {
        let bank = view.bank;
        adapter.handle_traced(src, req, view, adapter_out, &mut |event| {
            tracer.emit(now, || TraceEvent::Sync { bank, event });
        });
    }
}

/// The per-core stepping phase.
///
/// Borrows the machine fields a stepping core touches — its registers,
/// Qnode, request outbox and park cause — plus the machine-wide tallies a
/// step can move (halt and barrier counts, the debug log, the dirty-core
/// set) and the shared read-only program and configuration. Barrier
/// *release* is not here: it runs in the machine's sequential sub-phase
/// after the walk, so its accounting never depends on visit order.
pub(crate) struct CorePhase<'a> {
    pub cores: &'a mut [Core],
    pub qnodes: &'a mut [Qnode],
    pub core_outbox: &'a mut [VecDeque<ReqMsg>],
    pub park_kind: &'a mut [OpKind],
    pub program: &'a DecodedProgram,
    pub cfg: &'a SimConfig,
    pub num_banks: u32,
    /// The SPM bound guest accesses fault at (`Spm::bytes`).
    pub spm_bytes: u32,
    pub halted: &'a mut usize,
    pub barrier_waiting: &'a mut usize,
    pub debug_log: &'a mut Vec<(u64, u32, u32)>,
    pub dirty_cores: &'a mut IdSet,
    pub tracer: &'a mut Tracer,
    pub work: &'a mut WorkStats,
}

/// Steps the runnable set in ascending core id (the production stepper):
/// a runnable core whose pc enters a superblock executes the whole block
/// (up to `horizon`) in one call, any other pc takes one interpreter
/// step. A visited core that stopped `Running` leaves `runnable`; one that
/// cannot issue before `now + 2` leaves it for `ready_queue`, on the
/// wheel slot of its `ready_at` or, 64 or more cycles ahead, on the heap
/// (the machine re-admits it at exactly `ready_at`, crediting the skipped
/// stall cycles as one delta).
///
/// # Errors
///
/// Returns the first fatal error in core order and stops stepping; the
/// unstepped tail simply stays in the set (post-mortem state).
pub(crate) fn step_translated_cores(
    ctx: &mut CorePhase<'_>,
    translation: &Translation,
    runnable: &mut IdSet,
    ready_queue: &mut ReadyQueue,
    now: u64,
    horizon: u64,
) -> Result<(), SimError> {
    let mut next = runnable.next_from(0);
    while let Some(c) = next {
        ctx.work.core_visits += 1;
        let result = ctx.step_core_translated(c, translation, now, horizon);
        // The state check runs even for a faulting core: a core that is
        // still `Running` after its fatal error (e.g. a breakpoint)
        // stays in the set, like every other observable of the
        // post-mortem state.
        let core = &mut ctx.cores[c as usize];
        if core.state != CoreState::Running {
            runnable.remove(c);
        } else if core.ready_at > now + 1 {
            // Nothing can change this core before `ready_at` (only
            // parked cores are woken from outside the walk), so every
            // visit until then would be a no-op stall.
            core.parked_at = now;
            runnable.remove(c);
            ready_queue.push(ctx.cores, c, now);
            ctx.work.deferrals += 1;
        }
        result?;
        next = runnable.next_from(c + 1);
    }
    Ok(())
}

/// Visits every core in ascending id (reference mode): eager accounting
/// for parked states, then the shared running-core step.
///
/// # Errors
///
/// Returns the first fatal error in core order and stops stepping.
pub(crate) fn step_all_cores(ctx: &mut CorePhase<'_>, now: u64) -> Result<(), SimError> {
    for c in 0..ctx.cores.len() as u32 {
        let core = &mut ctx.cores[c as usize];
        match core.state {
            CoreState::Halted => {}
            CoreState::Barrier => core.stats.barrier_cycles += 1,
            CoreState::WaitingMem => core.stats.sleep_cycles += 1,
            CoreState::Running => {
                ctx.work.core_visits += 1;
                ctx.step_running_core(c, now)?;
            }
        }
    }
    Ok(())
}

impl CorePhase<'_> {
    /// Bank holding the word at `addr`.
    fn bank_of(&self, addr: u32) -> u32 {
        (addr / 4) % self.num_banks
    }

    fn line_of(&self, pc: u32) -> Option<u32> {
        self.program
            .index_of(pc)
            .and_then(|i| self.program.source_lines.get(i).copied())
    }

    /// Steps one core known to be in [`CoreState::Running`].
    fn step_running_core(&mut self, c: u32, now: u64) -> Result<(), SimError> {
        let i = c as usize;
        if now < self.cores[i].ready_at || self.core_outbox[i].len() >= 4 {
            self.cores[i].stats.stall_cycles += 1;
            return Ok(());
        }
        self.cores[i].stats.active_cycles += 1;
        self.interp_step(c, now)
    }

    /// Steps one runnable core in translated mode. Scheduling guards are
    /// identical to [`Self::step_running_core`], except that cycles a
    /// superblock already charged in-block (`charged_until`) are not
    /// re-charged as per-visit stalls. A pc with a superblock entry runs
    /// the block; boundary instructions (and out-of-text pcs, which must
    /// fault exactly like the interpreter) take the interpreter path.
    fn step_core_translated(
        &mut self,
        c: u32,
        translation: &Translation,
        now: u64,
        horizon: u64,
    ) -> Result<(), SimError> {
        let i = c as usize;
        if now < self.cores[i].ready_at || self.core_outbox[i].len() >= 4 {
            if now > self.cores[i].charged_until {
                self.cores[i].stats.stall_cycles += 1;
            }
            return Ok(());
        }
        if let Some(entry) = translation.entry(self.cores[i].pc) {
            let timing = &self.cfg.timing;
            if run_block(&mut self.cores[i], translation, entry, now, horizon, timing) {
                self.work.superblock_entries += 1;
                return Ok(());
            }
        }
        self.cores[i].stats.active_cycles += 1;
        self.interp_step(c, now)
    }

    /// Executes exactly one instruction on core `c` through the decoded-
    /// instruction interpreter and applies its action. Shared tail of
    /// [`Self::step_running_core`] and [`Self::step_core_translated`].
    fn interp_step(&mut self, c: u32, now: u64) -> Result<(), SimError> {
        let i = c as usize;
        self.work.interpreted_steps += 1;
        let action = {
            let program = self.program;
            let timing = self.cfg.timing;
            self.cores[i].execute(program, now, &timing)
        };
        let action = match action {
            Ok(a) => a,
            Err(ExecError::IllegalPc(pc)) => return Err(SimError::IllegalPc { core: c, pc }),
            Err(ExecError::Breakpoint(pc)) => {
                return Err(SimError::Breakpoint {
                    core: c,
                    pc,
                    line: self.line_of(pc),
                })
            }
            Err(ExecError::Misaligned { pc, addr }) => {
                return Err(SimError::Misaligned {
                    core: c,
                    pc,
                    addr,
                    line: self.line_of(pc),
                })
            }
        };
        match action {
            Action::Done => Ok(()),
            Action::Halt => {
                self.halt_core(c, now);
                Ok(())
            }
            Action::Mem(intent) => self.apply_intent(c, intent, now),
        }
    }

    /// Marks a core halted. The barrier-release check this may enable runs
    /// in the machine's sequential sub-phase after the stepping walk.
    fn halt_core(&mut self, c: u32, now: u64) {
        let i = c as usize;
        if self.cores[i].state != CoreState::Halted {
            self.cores[i].state = CoreState::Halted;
            *self.halted += 1;
            self.tracer.emit(now, || TraceEvent::Halt { core: c });
        }
    }

    fn apply_intent(&mut self, c: u32, intent: MemIntent, now: u64) -> Result<(), SimError> {
        let i = c as usize;
        match intent {
            MemIntent::Fence => {
                if self.cores[i].outstanding_stores == 0 && self.core_outbox[i].is_empty() {
                    self.cores[i].pc += 4;
                }
                // Otherwise: retry next cycle (fence stalls the pipeline).
                Ok(())
            }
            MemIntent::Load {
                addr,
                rd,
                width,
                signed,
            } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    let value = self.mmio_read(c, addr - MMIO_BASE, now);
                    self.cores[i].set_reg(rd, extract(value, addr, width, signed));
                    self.cores[i].pc += 4;
                    return Ok(());
                }
                if addr >= ROM_BASE {
                    let idx = ((addr - ROM_BASE) / 4) as usize;
                    let Some(&word) = self.program.raw.get(idx) else {
                        return Err(SimError::Fault {
                            core: c,
                            addr,
                            what: "load beyond ROM",
                        });
                    };
                    self.cores[i].set_reg(rd, extract(word, addr, width, signed));
                    self.cores[i].pc += 4;
                    return Ok(());
                }
                if addr >= self.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "load outside SPM",
                    });
                }
                self.cores[i].pending = Some(PendingMem {
                    rd,
                    addr,
                    kind: PendingKind::Load { width, signed },
                });
                self.cores[i].state = CoreState::WaitingMem;
                self.cores[i].parked_at = now;
                self.cores[i].pc += 4;
                self.emit_park(c, OpKind::Load, now);
                self.push_request(c, MemRequest::Load { addr: addr & !3 }, now);
                Ok(())
            }
            MemIntent::Store { addr, value, width } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    self.cores[i].pc += 4;
                    self.mmio_write(c, addr - MMIO_BASE, value, now);
                    return Ok(());
                }
                if addr >= self.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "store outside SPM (ROM is read-only)",
                    });
                }
                if self.cores[i].outstanding_stores >= self.cfg.timing.store_buffer {
                    return Ok(()); // buffer full: stall, retry next cycle
                }
                let (aligned, lane_value, mask) = store_lanes(addr, value, width);
                self.cores[i].outstanding_stores += 1;
                self.cores[i].pc += 4;
                self.push_request(
                    c,
                    MemRequest::Store {
                        addr: aligned,
                        value: lane_value,
                        mask,
                    },
                    now,
                );
                Ok(())
            }
            MemIntent::Atomic {
                addr,
                rd,
                op,
                operand,
            } => {
                if addr >= self.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "atomic outside SPM",
                    });
                }
                let (req, kind) = match op {
                    AmoOp::Lr => (MemRequest::Lr { addr }, PendingKind::Value),
                    AmoOp::Sc => (
                        MemRequest::Sc {
                            addr,
                            value: operand,
                        },
                        PendingKind::Flag,
                    ),
                    AmoOp::LrWait => (MemRequest::LrWait { addr }, PendingKind::Value),
                    AmoOp::ScWait => (
                        MemRequest::ScWait {
                            addr,
                            value: operand,
                        },
                        PendingKind::Flag,
                    ),
                    AmoOp::MWait => (
                        MemRequest::MWait {
                            addr,
                            expected: operand,
                        },
                        PendingKind::Value,
                    ),
                    rmw => (
                        MemRequest::Amo {
                            addr,
                            op: map_rmw(rmw),
                            operand,
                        },
                        PendingKind::Value,
                    ),
                };
                self.cores[i].pending = Some(PendingMem { rd, addr, kind });
                self.cores[i].state = CoreState::WaitingMem;
                self.cores[i].parked_at = now;
                self.cores[i].pc += 4;
                self.emit_park(c, amo_op_kind(op), now);
                self.push_request(c, req, now);
                Ok(())
            }
        }
    }

    /// Marks a core parked on a blocking operation, remembering the cause
    /// for the later wake event. The cause is recorded unconditionally so
    /// that machine state (and hence its state bytes) does not depend on
    /// whether tracing is enabled; only the event emission is gated.
    fn emit_park(&mut self, c: u32, kind: OpKind, now: u64) {
        self.park_kind[c as usize] = kind;
        self.tracer.emit(now, || TraceEvent::Park {
            core: c,
            cause: kind,
        });
    }

    fn push_request(&mut self, c: u32, req: MemRequest, now: u64) {
        let wakeup = self.qnodes[c as usize].on_core_request(&req);
        let bank = self.bank_of(req.addr());
        self.tracer.emit(now, || TraceEvent::ReqSent {
            core: c,
            bank,
            kind: req_kind(&req),
        });
        self.push_outbox(c, ReqMsg { src: c, bank, req });
        if let Some(wk) = wakeup {
            let wk_bank = self.bank_of(wk.addr());
            self.tracer.emit(now, || TraceEvent::ReqSent {
                core: c,
                bank: wk_bank,
                kind: OpKind::WakeUp,
            });
            self.push_outbox(
                c,
                ReqMsg {
                    src: c,
                    bank: wk_bank,
                    req: wk,
                },
            );
        }
    }

    /// Queues a request on the core's own outbox, marking it dirty for
    /// Phase 5.
    fn push_outbox(&mut self, c: u32, msg: ReqMsg) {
        self.core_outbox[c as usize].push_back(msg);
        self.dirty_cores.insert(c);
    }

    fn mmio_read(&self, c: u32, offset: u32, now: u64) -> u32 {
        match offset {
            mmio_reg::HARTID => c,
            mmio_reg::NUM_CORES => self.cfg.topology.num_cores as u32,
            mmio_reg::CYCLE => now as u32,
            o if (mmio_reg::ARG0..mmio_reg::ARG0 + 4 * NUM_ARGS as u32).contains(&o)
                && o % 4 == 0 =>
            {
                self.cfg.args[((o - mmio_reg::ARG0) / 4) as usize]
            }
            _ => 0,
        }
    }

    fn mmio_write(&mut self, c: u32, offset: u32, value: u32, now: u64) {
        let i = c as usize;
        match offset {
            mmio_reg::EXIT => self.halt_core(c, now),
            mmio_reg::OP_COUNT => self.cores[i].stats.ops += u64::from(value),
            mmio_reg::REGION => {
                if value != 0 {
                    if self.cores[i].stats.region_start.is_none() {
                        self.cores[i].stats.region_start = Some(now);
                    }
                    self.tracer
                        .emit(now, || TraceEvent::RegionEnter { core: c });
                } else {
                    self.cores[i].stats.region_end = Some(now);
                    self.tracer.emit(now, || TraceEvent::RegionExit { core: c });
                }
            }
            mmio_reg::BARRIER => {
                // Arrival only: the release check (and its accounting) runs
                // once per cycle in the machine's sequential sub-phase, so
                // it charges every released core identically regardless
                // of visit order.
                self.cores[i].state = CoreState::Barrier;
                self.cores[i].parked_at = now;
                *self.barrier_waiting += 1;
                self.tracer
                    .emit(now, || TraceEvent::BarrierArrive { core: c });
            }
            mmio_reg::PRINT => self.debug_log.push((now, c, value)),
            _ => {}
        }
    }
}

/// Trace [`OpKind`] of a request (what a core sent towards memory).
pub(crate) fn req_kind(req: &MemRequest) -> OpKind {
    match req {
        MemRequest::Load { .. } => OpKind::Load,
        MemRequest::Store { .. } => OpKind::Store,
        MemRequest::Amo { .. } => OpKind::Amo,
        MemRequest::Lr { .. } => OpKind::Lr,
        MemRequest::Sc { .. } => OpKind::Sc,
        MemRequest::LrWait { .. } => OpKind::LrWait,
        MemRequest::ScWait { .. } => OpKind::ScWait,
        MemRequest::MWait { .. } => OpKind::MWait,
        MemRequest::WakeUp { .. } => OpKind::WakeUp,
    }
}

pub(crate) fn map_rmw(op: AmoOp) -> lrscwait_core::RmwOp {
    use lrscwait_core::RmwOp;
    match op {
        AmoOp::Swap => RmwOp::Swap,
        AmoOp::Add => RmwOp::Add,
        AmoOp::Xor => RmwOp::Xor,
        AmoOp::And => RmwOp::And,
        AmoOp::Or => RmwOp::Or,
        AmoOp::Min => RmwOp::Min,
        AmoOp::Max => RmwOp::Max,
        AmoOp::Minu => RmwOp::Minu,
        AmoOp::Maxu => RmwOp::Maxu,
        other => unreachable!("{other:?} is not an RMW AMO"),
    }
}
