//! Protocol message types exchanged between cores (via their Qnodes) and
//! memory-bank controllers.

/// Identifier of a core / hart.
pub type CoreId = u32;
/// Byte address (word aligned for all protocol operations).
pub type Addr = u32;
/// 32-bit memory word.
pub type Word = u32;

/// Read–modify–write function of an `amo*.w` instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// `amoswap.w`
    Swap,
    /// `amoadd.w`
    Add,
    /// `amoxor.w`
    Xor,
    /// `amoand.w`
    And,
    /// `amoor.w`
    Or,
    /// `amomin.w` (signed)
    Min,
    /// `amomax.w` (signed)
    Max,
    /// `amominu.w`
    Minu,
    /// `amomaxu.w`
    Maxu,
}

impl RmwOp {
    /// Computes the new memory value.
    #[must_use]
    pub fn apply(self, mem: Word, operand: Word) -> Word {
        match self {
            RmwOp::Swap => operand,
            RmwOp::Add => mem.wrapping_add(operand),
            RmwOp::Xor => mem ^ operand,
            RmwOp::And => mem & operand,
            RmwOp::Or => mem | operand,
            RmwOp::Min => {
                if (mem as i32) <= (operand as i32) {
                    mem
                } else {
                    operand
                }
            }
            RmwOp::Max => {
                if (mem as i32) >= (operand as i32) {
                    mem
                } else {
                    operand
                }
            }
            RmwOp::Minu => mem.min(operand),
            RmwOp::Maxu => mem.max(operand),
        }
    }
}

/// Which wait-extension instruction created a reservation-queue entry.
///
/// Carried inside [`MemResponse::SuccessorUpdate`] and
/// [`MemRequest::WakeUp`] so a Colibri controller promoting a successor
/// knows whether the new head will later issue an `scwait` ([`LrWait`]) or
/// is already finished once notified ([`MWait`]).
///
/// [`LrWait`]: WaitMode::LrWait
/// [`MWait`]: WaitMode::MWait
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Entry created by `lrwait.w`; the head owns a reservation and will
    /// close the sequence with `scwait.w`.
    LrWait,
    /// Entry created by `mwait.w`; the head is done as soon as it is woken.
    MWait,
}

/// A request arriving at a memory-bank controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemRequest {
    /// Plain load of one word.
    Load { addr: Addr },
    /// Store with a byte-lane mask (bits of `mask` select written bits).
    Store { addr: Addr, value: Word, mask: Word },
    /// RV32A read–modify–write atomic.
    Amo {
        addr: Addr,
        op: RmwOp,
        operand: Word,
    },
    /// `lr.w` — classic load-reserved (single slot per bank, MemPool style).
    Lr { addr: Addr },
    /// `sc.w` — classic store-conditional.
    Sc { addr: Addr, value: Word },
    /// `lrwait.w` — enqueue in the reservation queue; the response is
    /// withheld until this core is at the head.
    LrWait { addr: Addr },
    /// `scwait.w` — conditional store closing an `lrwait` sequence.
    ScWait { addr: Addr, value: Word },
    /// `mwait.w` — sleep until the word changes; `expected` short-circuits
    /// the sleep when memory already differs.
    MWait { addr: Addr, expected: Word },
    /// Qnode → controller: the head has passed; promote `successor`.
    WakeUp {
        addr: Addr,
        successor: CoreId,
        mode: WaitMode,
    },
}

impl MemRequest {
    /// The word address this request targets.
    #[must_use]
    pub fn addr(&self) -> Addr {
        match *self {
            MemRequest::Load { addr }
            | MemRequest::Store { addr, .. }
            | MemRequest::Amo { addr, .. }
            | MemRequest::Lr { addr }
            | MemRequest::Sc { addr, .. }
            | MemRequest::LrWait { addr }
            | MemRequest::ScWait { addr, .. }
            | MemRequest::MWait { addr, .. }
            | MemRequest::WakeUp { addr, .. } => addr,
        }
    }
}

/// A response sent from a bank controller back to a core's Qnode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemResponse {
    /// Value for a [`MemRequest::Load`].
    Load { value: Word },
    /// Acknowledgement of a [`MemRequest::Store`].
    StoreAck,
    /// Old value for a [`MemRequest::Amo`].
    Amo { old: Word },
    /// Value for a classic [`MemRequest::Lr`].
    Lr { value: Word },
    /// Success flag for a classic [`MemRequest::Sc`] (`true` = stored).
    Sc { success: bool },
    /// Response to `lrwait.w` *and* `mwait.w` (possibly delayed).
    ///
    /// `reserved == false` signals a fail-fast response: the reservation
    /// structure was full (or the architecture does not implement waiting)
    /// and no reservation was placed — the subsequent `scwait` will fail and
    /// software must retry.
    Wait { value: Word, reserved: bool },
    /// Success flag for [`MemRequest::ScWait`].
    ScWait { success: bool },
    /// Controller → predecessor Qnode: a new tail enqueued behind you.
    SuccessorUpdate { successor: CoreId, mode: WaitMode },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_apply_matches_spec() {
        assert_eq!(RmwOp::Add.apply(2, 3), 5);
        assert_eq!(RmwOp::Swap.apply(2, 3), 3);
        assert_eq!(RmwOp::Min.apply(u32::MAX, 3), u32::MAX);
        assert_eq!(RmwOp::Minu.apply(u32::MAX, 3), 3);
        assert_eq!(RmwOp::Max.apply(u32::MAX, 3), 3);
        assert_eq!(RmwOp::Maxu.apply(u32::MAX, 3), u32::MAX);
        assert_eq!(RmwOp::And.apply(0b110, 0b011), 0b010);
        assert_eq!(RmwOp::Or.apply(0b110, 0b011), 0b111);
        assert_eq!(RmwOp::Xor.apply(0b110, 0b011), 0b101);
    }
}
