//! Dependency-free binary encoding of machine state.
//!
//! A machine's state bytes (see `lrscwait-sim`'s `Machine::state_bytes`)
//! capture every piece of architectural state — core registers, bank
//! words, in-flight NoC messages, wait-unit queues, Qnode sessions — in
//! one canonical byte string for comparisons and pins. This module
//! provides the little-endian writer the whole workspace shares, plus
//! encodings for the protocol types defined in this crate
//! ([`MemRequest`], [`MemResponse`], [`WaitMode`], [`RmwOp`]).
//!
//! The format is deliberately simple: fixed-width little-endian integers,
//! `u8` discriminants for enums, a `u8` presence flag for options, and a
//! `u32` length prefix for sequences.

use crate::msg::{MemRequest, MemResponse, RmwOp, WaitMode};

/// Append-only little-endian byte sink for state encoding. A
/// [`counting`](StateWriter::counting) writer keeps only the length.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
    len: usize,
    counting: bool,
}

impl StateWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> StateWriter {
        StateWriter::default()
    }

    /// Creates a writer that counts the bytes it is handed without
    /// storing them: the length of an encoding, without its allocation.
    #[must_use]
    pub fn counting() -> StateWriter {
        StateWriter {
            counting: true,
            ..StateWriter::default()
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        if !self.counting {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Bytes written (or counted) so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Consumes the writer, returning the encoded bytes (none for a
    /// counting writer).
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl WaitMode {
    /// State-bytes discriminant.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            WaitMode::LrWait => 0,
            WaitMode::MWait => 1,
        }
    }
}

impl RmwOp {
    /// State-bytes discriminant.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            RmwOp::Swap => 0,
            RmwOp::Add => 1,
            RmwOp::Xor => 2,
            RmwOp::And => 3,
            RmwOp::Or => 4,
            RmwOp::Min => 5,
            RmwOp::Max => 6,
            RmwOp::Minu => 7,
            RmwOp::Maxu => 8,
        }
    }
}

impl MemRequest {
    /// Encodes the request (tag byte plus fields).
    pub fn save(&self, out: &mut StateWriter) {
        match *self {
            MemRequest::Load { addr } => {
                out.put_u8(0);
                out.put_u32(addr);
            }
            MemRequest::Store { addr, value, mask } => {
                out.put_u8(1);
                out.put_u32(addr);
                out.put_u32(value);
                out.put_u32(mask);
            }
            MemRequest::Amo { addr, op, operand } => {
                out.put_u8(2);
                out.put_u32(addr);
                out.put_u8(op.encode());
                out.put_u32(operand);
            }
            MemRequest::Lr { addr } => {
                out.put_u8(3);
                out.put_u32(addr);
            }
            MemRequest::Sc { addr, value } => {
                out.put_u8(4);
                out.put_u32(addr);
                out.put_u32(value);
            }
            MemRequest::LrWait { addr } => {
                out.put_u8(5);
                out.put_u32(addr);
            }
            MemRequest::ScWait { addr, value } => {
                out.put_u8(6);
                out.put_u32(addr);
                out.put_u32(value);
            }
            MemRequest::MWait { addr, expected } => {
                out.put_u8(7);
                out.put_u32(addr);
                out.put_u32(expected);
            }
            MemRequest::WakeUp {
                addr,
                successor,
                mode,
            } => {
                out.put_u8(8);
                out.put_u32(addr);
                out.put_u32(successor);
                out.put_u8(mode.encode());
            }
        }
    }
}

impl MemResponse {
    /// Encodes the response (tag byte plus fields).
    pub fn save(&self, out: &mut StateWriter) {
        match *self {
            MemResponse::Load { value } => {
                out.put_u8(0);
                out.put_u32(value);
            }
            MemResponse::StoreAck => out.put_u8(1),
            MemResponse::Amo { old } => {
                out.put_u8(2);
                out.put_u32(old);
            }
            MemResponse::Lr { value } => {
                out.put_u8(3);
                out.put_u32(value);
            }
            MemResponse::Sc { success } => {
                out.put_u8(4);
                out.put_bool(success);
            }
            MemResponse::Wait { value, reserved } => {
                out.put_u8(5);
                out.put_u32(value);
                out.put_bool(reserved);
            }
            MemResponse::ScWait { success } => {
                out.put_u8(6);
                out.put_bool(success);
            }
            MemResponse::SuccessorUpdate { successor, mode } => {
                out.put_u8(7);
                out.put_u32(successor);
                out.put_u8(mode.encode());
            }
        }
    }
}
