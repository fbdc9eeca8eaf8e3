//! The two largest phases of `Machine::step_cycle` as `Machine` methods:
//! serving a request at its bank (`Machine::serve`, which a host store
//! takes too) and stepping the cores, with the message types they pass.
//!
//! Both update the machine's worklists as they go: serving a request
//! marks its bank dirty once the bank's outbox holds a response, the core
//! walk takes a parked, halted or deferred core out of the runnable set
//! (and files a deferred one in the ready queue) right after visiting it.
//! The order contracts are the simulated machine's own: requests are
//! serviced in `(bank, delivery index)` order, cores step in ascending id.
//!
//! # Tracing
//!
//! Every emit site is `tracer.emit(now, || TraceEvent::…)`, the same idiom
//! as the other phases: with [`Tracer::Off`] that is one predictable
//! branch and the event is never built. `serve` picks [`Bank::handle`]
//! over `handle_traced` when the tracer is off, so an untraced bank is
//! never handed an observer at all.
//!
//! [`Tracer::Off`]: lrscwait_trace::Tracer::Off
//! [`Bank::handle`]: lrscwait_core::Bank::handle

use lrscwait_core::{MemRequest, MemResponse, WordStorage};
use lrscwait_isa::AmoOp;
use lrscwait_trace::{OpKind, TraceEvent};

use crate::config::{mmio_reg, MMIO_BASE, MMIO_SIZE, NUM_ARGS, ROM_BASE};
use crate::cpu::{
    amo_op_kind, extract, store_lanes, Action, CoreState, ExecError, MemIntent, PendingKind,
    PendingMem,
};
use crate::machine::{Machine, SimError, State};
use crate::spm::Spm;
use crate::translate::run_block;

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
struct BankView<'a> {
    spm: &'a mut Spm,
    num_banks: u32,
    bank: u32,
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

/// Pseudo core id for host-injected requests ([`Machine::inject_store`]);
/// responses addressed to it are consumed by the host, never routed.
pub(crate) const HOST_CORE: u32 = u32::MAX;

impl Machine {
    /// Hands one request from `src` to `bank`, queues the bank's
    /// responses on its outbox and marks the bank dirty while the outbox
    /// holds any. The one response dropped is the acknowledgement of a
    /// host store (`src == HOST_CORE`). The bank's synchronization events
    /// reach the tracer; with the tracer off it gets
    /// [`Bank::handle`](lrscwait_core::Bank::handle) and no observer at
    /// all.
    pub(crate) fn serve(&mut self, bank: u32, src: u32, req: &MemRequest, now: u64) {
        let mut view = BankView {
            num_banks: self.num_banks(),
            spm: &mut self.state.spm,
            bank,
        };
        let adapter = &mut self.state.adapters[bank as usize];
        let out = &mut self.adapter_out;
        out.clear();
        if self.tracer.is_off() {
            adapter.handle(src, req, &mut view, out);
        } else {
            let tracer = &mut self.tracer;
            adapter.handle_traced(src, req, &mut view, out, &mut |event| {
                tracer.emit(now, || TraceEvent::Sync { bank, event });
            });
        }
        let outbox = &mut self.state.bank_outbox[bank as usize];
        for (core, resp) in out.drain(..) {
            if core == HOST_CORE {
                debug_assert_eq!(resp, MemResponse::StoreAck);
                continue;
            }
            outbox.push_back(RespMsg { core, resp });
        }
        if !outbox.is_empty() {
            self.state.dirty_banks.insert(bank);
        }
    }

    /// Steps the runnable set in ascending core id (the production
    /// stepper): a runnable core whose pc enters a superblock executes the
    /// whole block (up to `horizon`) in one call, any other pc takes one
    /// interpreter step. A visited core that stopped `Running` leaves
    /// `runnable`; one that cannot issue before `now + 2` leaves it for
    /// `ready_queue`, on the wheel slot of its `ready_at` or, 64 or more
    /// cycles ahead, on the heap (the machine re-admits it at exactly
    /// `ready_at`, crediting the skipped stall cycles as one delta).
    ///
    /// # Errors
    ///
    /// Returns the first fatal error in core order and stops stepping; the
    /// unstepped tail simply stays in the set (post-mortem state).
    pub(crate) fn step_translated_cores(&mut self, now: u64, horizon: u64) -> Result<(), SimError> {
        let mut next = self.state.runnable.next_from(0);
        while let Some(c) = next {
            self.work.core_visits += 1;
            let result = self.step_core_translated(c, now, horizon);
            // The state check runs even for a faulting core: a core that is
            // still `Running` after its fatal error (e.g. a breakpoint)
            // stays in the set, like every other observable of the
            // post-mortem state.
            let State {
                cores,
                runnable,
                ready_queue,
                ..
            } = &mut self.state;
            let core = &mut cores[c as usize];
            if core.state != CoreState::Running {
                runnable.remove(c);
            } else if core.ready_at > now + 1 {
                // Nothing can change this core before `ready_at` (only
                // parked cores are woken from outside the walk), so every
                // visit until then would be a no-op stall.
                core.parked_at = now;
                runnable.remove(c);
                ready_queue.push(cores, c, now);
                self.work.deferrals += 1;
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
    pub(crate) fn step_all_cores(&mut self, now: u64) -> Result<(), SimError> {
        for c in 0..self.state.cores.len() as u32 {
            let core = &mut self.state.cores[c as usize];
            match core.state {
                CoreState::Halted => {}
                CoreState::Barrier => core.stats.barrier_cycles += 1,
                CoreState::WaitingMem => core.stats.sleep_cycles += 1,
                CoreState::Running => {
                    self.work.core_visits += 1;
                    self.step_running_core(c, now)?;
                }
            }
        }
        Ok(())
    }

    fn line_of(&self, pc: u32) -> Option<u32> {
        self.program
            .index_of(pc)
            .and_then(|i| self.program.source_lines.get(i).copied())
    }

    /// Steps one core known to be in [`CoreState::Running`].
    fn step_running_core(&mut self, c: u32, now: u64) -> Result<(), SimError> {
        let i = c as usize;
        if now < self.state.cores[i].ready_at || self.state.core_outbox[i].len() >= 4 {
            self.state.cores[i].stats.stall_cycles += 1;
            return Ok(());
        }
        self.state.cores[i].stats.active_cycles += 1;
        self.interp_step(c, now)
    }

    /// Steps one runnable core in translated mode. Scheduling guards are
    /// identical to [`Self::step_running_core`], except that cycles a
    /// superblock already charged in-block (`charged_until`) are not
    /// re-charged as per-visit stalls. A pc with a superblock entry runs
    /// the block; boundary instructions (and out-of-text pcs, which must
    /// fault exactly like the interpreter) take the interpreter path.
    fn step_core_translated(&mut self, c: u32, now: u64, horizon: u64) -> Result<(), SimError> {
        let i = c as usize;
        let core = &mut self.state.cores[i];
        if now < core.ready_at || self.state.core_outbox[i].len() >= 4 {
            if now > core.charged_until {
                core.stats.stall_cycles += 1;
            }
            return Ok(());
        }
        if let Some(translation) = &self.translation {
            if let Some(entry) = translation.entry(core.pc) {
                let timing = &self.cfg.timing;
                if let Some(iterations) = run_block(core, translation, entry, now, horizon, timing)
                {
                    self.work.superblock_entries += 1;
                    self.work.loop_iterations += iterations;
                    return Ok(());
                }
            }
        }
        core.stats.active_cycles += 1;
        self.interp_step(c, now)
    }

    /// Executes exactly one instruction on core `c` through the decoded-
    /// instruction interpreter and applies its action. Shared tail of
    /// [`Self::step_running_core`] and [`Self::step_core_translated`].
    fn interp_step(&mut self, c: u32, now: u64) -> Result<(), SimError> {
        self.work.interpreted_steps += 1;
        let action = self.state.cores[c as usize].execute(&self.program, now, &self.cfg.timing);
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
        let core = &mut self.state.cores[c as usize];
        if core.state != CoreState::Halted {
            core.state = CoreState::Halted;
            self.state.halted += 1;
            self.tracer.emit(now, || TraceEvent::Halt { core: c });
        }
    }

    fn apply_intent(&mut self, c: u32, intent: MemIntent, now: u64) -> Result<(), SimError> {
        let i = c as usize;
        match intent {
            MemIntent::Fence => {
                if self.state.cores[i].outstanding_stores == 0
                    && self.state.core_outbox[i].is_empty()
                {
                    self.state.cores[i].pc += 4;
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
                    self.state.cores[i].set_reg(rd, extract(value, addr, width, signed));
                    self.state.cores[i].pc += 4;
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
                    self.state.cores[i].set_reg(rd, extract(word, addr, width, signed));
                    self.state.cores[i].pc += 4;
                    return Ok(());
                }
                if addr >= self.state.spm.bytes() {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "load outside SPM",
                    });
                }
                self.state.cores[i].pending = Some(PendingMem {
                    rd,
                    addr,
                    kind: PendingKind::Load { width, signed },
                });
                self.state.cores[i].state = CoreState::WaitingMem;
                self.state.cores[i].parked_at = now;
                self.state.cores[i].pc += 4;
                self.emit_park(c, OpKind::Load, now);
                self.push_request(c, MemRequest::Load { addr: addr & !3 }, now);
                Ok(())
            }
            MemIntent::Store { addr, value, width } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    self.state.cores[i].pc += 4;
                    self.mmio_write(c, addr - MMIO_BASE, value, now);
                    return Ok(());
                }
                if addr >= self.state.spm.bytes() {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "store outside SPM (ROM is read-only)",
                    });
                }
                if self.state.cores[i].outstanding_stores >= self.cfg.timing.store_buffer {
                    return Ok(()); // buffer full: stall, retry next cycle
                }
                let (aligned, lane_value, mask) = store_lanes(addr, value, width);
                self.state.cores[i].outstanding_stores += 1;
                self.state.cores[i].pc += 4;
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
                if addr >= self.state.spm.bytes() {
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
                self.state.cores[i].pending = Some(PendingMem { rd, addr, kind });
                self.state.cores[i].state = CoreState::WaitingMem;
                self.state.cores[i].parked_at = now;
                self.state.cores[i].pc += 4;
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
        self.state.park_kind[c as usize] = kind;
        self.tracer.emit(now, || TraceEvent::Park {
            core: c,
            cause: kind,
        });
    }

    fn push_request(&mut self, c: u32, req: MemRequest, now: u64) {
        let wakeup = self.state.qnodes[c as usize].on_core_request(&req);
        let bank = self.bank_of(req.addr());
        self.tracer.emit(now, || TraceEvent::ReqSent {
            core: c,
            bank,
            kind: req_kind(&req),
        });
        self.push_outbox(c as usize, ReqMsg { src: c, bank, req });
        if let Some(wakeup) = wakeup {
            self.send_wakeup(c, wakeup, now);
        }
    }

    /// Sends a `WakeUp` a Qnode emitted on behalf of core `c` to the bank
    /// that owns its address, behind whatever the core already queued.
    pub(crate) fn send_wakeup(&mut self, c: u32, wakeup: MemRequest, now: u64) {
        let bank = self.bank_of(wakeup.addr());
        self.tracer.emit(now, || TraceEvent::ReqSent {
            core: c,
            bank,
            kind: OpKind::WakeUp,
        });
        self.push_outbox(
            c as usize,
            ReqMsg {
                src: c,
                bank,
                req: wakeup,
            },
        );
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
            mmio_reg::OP_COUNT => self.state.cores[i].stats.ops += u64::from(value),
            mmio_reg::REGION => {
                if value != 0 {
                    if self.state.cores[i].stats.region_start.is_none() {
                        self.state.cores[i].stats.region_start = Some(now);
                    }
                    self.tracer
                        .emit(now, || TraceEvent::RegionEnter { core: c });
                } else {
                    self.state.cores[i].stats.region_end = Some(now);
                    self.tracer.emit(now, || TraceEvent::RegionExit { core: c });
                }
            }
            mmio_reg::BARRIER => {
                // Arrival only: the release check (and its accounting) runs
                // once per cycle in the machine's sequential sub-phase, so
                // it charges every released core identically regardless
                // of visit order.
                self.state.cores[i].state = CoreState::Barrier;
                self.state.cores[i].parked_at = now;
                self.state.barrier_waiting += 1;
                self.tracer
                    .emit(now, || TraceEvent::BarrierArrive { core: c });
            }
            mmio_reg::PRINT => self.state.debug_log.push((now, c, value)),
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
