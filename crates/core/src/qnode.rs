//! The per-core hardware queue node (Qnode) of Colibri.
//!
//! Every core owns exactly one Qnode sitting between the core's LSU and the
//! network. It tracks the core's current wait *session* and implements the
//! linked-list hand-off rules:
//!
//! * A [`SuccessorUpdate`] arriving while the session is still open records
//!   the successor; arriving after the local side finished (the `scwait`
//!   already passed, or the `mwait` response was delivered) it bounces
//!   straight back to the controller as a [`WakeUp`].
//! * When the core issues its `scwait` and the successor is already known,
//!   the Qnode emits the [`WakeUp`] immediately after forwarding the
//!   `scwait` (same channel, so the controller sees them in order).
//! * An `mwait` response with a known successor triggers the cascade bounce.
//!
//! Sessions close deterministically (fail-fast responses, `scwait`
//! responses, `mwait` responses); the FIFO (bank → core) channel guarantees
//! a `SuccessorUpdate` can never arrive for an already-closed session.
//!
//! [`SuccessorUpdate`]: MemResponse::SuccessorUpdate
//! [`WakeUp`]: MemRequest::WakeUp

use crate::msg::{Addr, CoreId, MemRequest, MemResponse, WaitMode};
use crate::state::StateWriter;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Session {
    addr: Addr,
    mode: WaitMode,
    /// `LrWait`: the core has issued its `scwait`.
    /// `MWait`: the wait response has been delivered to the core.
    local_done: bool,
    successor: Option<(CoreId, WaitMode)>,
}

/// What the Qnode decided about an incoming response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QnodeOutput {
    /// Response to forward to the core (None: consumed by the Qnode).
    pub deliver: Option<MemResponse>,
    /// `WakeUp` request to send back to the memory controller.
    pub wakeup: Option<MemRequest>,
}

impl QnodeOutput {
    fn none() -> QnodeOutput {
        QnodeOutput {
            deliver: None,
            wakeup: None,
        }
    }
}

/// Per-core Colibri queue node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Qnode {
    session: Option<Session>,
    /// Number of `WakeUp` messages this node has emitted.
    wakeups_sent: u64,
    /// Number of `SuccessorUpdate` messages received.
    updates_received: u64,
}

impl Qnode {
    /// Creates an idle Qnode.
    #[must_use]
    pub fn new() -> Qnode {
        Qnode::default()
    }

    /// Whether a wait session is currently open (diagnostics / tests).
    #[must_use]
    pub fn has_session(&self) -> bool {
        self.session.is_some()
    }

    /// Address and mode of the open session, if any (diagnostics / tests).
    #[must_use]
    pub fn session_info(&self) -> Option<(Addr, WaitMode)> {
        self.session.map(|s| (s.addr, s.mode))
    }

    /// Number of `WakeUp` messages emitted so far.
    #[must_use]
    pub fn wakeups_sent(&self) -> u64 {
        self.wakeups_sent
    }

    /// Number of `SuccessorUpdate` messages received so far.
    #[must_use]
    pub fn updates_received(&self) -> u64 {
        self.updates_received
    }

    /// Encodes the node — open session and message counters — for a
    /// machine's state bytes.
    pub fn save_state(&self, out: &mut StateWriter) {
        match &self.session {
            Some(s) => {
                out.put_bool(true);
                out.put_u32(s.addr);
                out.put_u8(s.mode.encode());
                out.put_bool(s.local_done);
                match s.successor {
                    Some((core, mode)) => {
                        out.put_bool(true);
                        out.put_u32(core);
                        out.put_u8(mode.encode());
                    }
                    None => out.put_bool(false),
                }
            }
            None => out.put_bool(false),
        }
        out.put_u64(self.wakeups_sent);
        out.put_u64(self.updates_received);
    }

    /// Observes a request the core is sending towards memory.
    ///
    /// Returns an optional `WakeUp` request that must be sent on the same
    /// channel *after* the observed request.
    pub fn on_core_request(&mut self, req: &MemRequest) -> Option<MemRequest> {
        match *req {
            MemRequest::LrWait { addr } => {
                debug_assert!(
                    self.session.is_none(),
                    "lrwait issued with a session already open (missing scwait?)"
                );
                self.session = Some(Session {
                    addr,
                    mode: WaitMode::LrWait,
                    local_done: false,
                    successor: None,
                });
                None
            }
            MemRequest::MWait { addr, .. } => {
                debug_assert!(
                    self.session.is_none(),
                    "mwait issued with a session already open"
                );
                self.session = Some(Session {
                    addr,
                    mode: WaitMode::MWait,
                    local_done: false,
                    successor: None,
                });
                None
            }
            MemRequest::ScWait { addr, .. } => {
                let Some(session) = &mut self.session else {
                    return None; // software misuse; the controller will fail it
                };
                if session.addr != addr || session.mode != WaitMode::LrWait {
                    return None;
                }
                session.local_done = true;
                if let Some((successor, mode)) = session.successor {
                    let wakeup = MemRequest::WakeUp {
                        addr,
                        successor,
                        mode,
                    };
                    self.session = None;
                    self.wakeups_sent += 1;
                    Some(wakeup)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Processes a response arriving from memory for this core.
    pub fn on_response(&mut self, resp: MemResponse) -> QnodeOutput {
        match resp {
            MemResponse::SuccessorUpdate { successor, mode } => {
                self.updates_received += 1;
                let Some(session) = &mut self.session else {
                    debug_assert!(false, "SuccessorUpdate with no open session");
                    return QnodeOutput::none();
                };
                if session.local_done {
                    // Bounce straight back as a WakeUp.
                    let wakeup = MemRequest::WakeUp {
                        addr: session.addr,
                        successor,
                        mode,
                    };
                    self.session = None;
                    self.wakeups_sent += 1;
                    QnodeOutput {
                        deliver: None,
                        wakeup: Some(wakeup),
                    }
                } else {
                    session.successor = Some((successor, mode));
                    QnodeOutput::none()
                }
            }
            MemResponse::Wait { reserved, .. } => {
                let wakeup = match &mut self.session {
                    Some(session) if session.mode == WaitMode::MWait => {
                        // The monitor is done once notified: bounce the
                        // successor (if any) and close the session.
                        let wk = session
                            .successor
                            .map(|(successor, mode)| MemRequest::WakeUp {
                                addr: session.addr,
                                successor,
                                mode,
                            });
                        self.session = None;
                        wk
                    }
                    Some(session) if !reserved => {
                        // Fail-fast lrwait: never enqueued, nothing to hand off.
                        debug_assert!(session.successor.is_none());
                        self.session = None;
                        None
                    }
                    _ => None, // lrwait head: session stays open until scwait
                };
                if wakeup.is_some() {
                    self.wakeups_sent += 1;
                }
                QnodeOutput {
                    deliver: Some(resp),
                    wakeup,
                }
            }
            MemResponse::ScWait { .. } => {
                // Closes the session when no SuccessorUpdate ever arrived
                // (single-member queue); FIFO delivery guarantees any update
                // was seen before this response.
                self.session = None;
                QnodeOutput {
                    deliver: Some(resp),
                    wakeup: None,
                }
            }
            other => QnodeOutput {
                deliver: Some(other),
                wakeup: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lrwait_session_with_early_successor() {
        let mut q = Qnode::new();
        assert!(q
            .on_core_request(&MemRequest::LrWait { addr: 0x40 })
            .is_none());
        assert!(q.has_session());
        // Successor learned before the scwait.
        let out = q.on_response(MemResponse::SuccessorUpdate {
            successor: 7,
            mode: WaitMode::LrWait,
        });
        assert_eq!(
            out,
            QnodeOutput {
                deliver: None,
                wakeup: None
            }
        );
        // Wait response passes through.
        let out = q.on_response(MemResponse::Wait {
            value: 3,
            reserved: true,
        });
        assert_eq!(
            out.deliver,
            Some(MemResponse::Wait {
                value: 3,
                reserved: true
            })
        );
        assert_eq!(out.wakeup, None);
        // scwait issue emits the WakeUp immediately.
        let wk = q.on_core_request(&MemRequest::ScWait {
            addr: 0x40,
            value: 4,
        });
        assert_eq!(
            wk,
            Some(MemRequest::WakeUp {
                addr: 0x40,
                successor: 7,
                mode: WaitMode::LrWait
            })
        );
        assert!(!q.has_session());
        assert_eq!(q.wakeups_sent(), 1);
    }

    #[test]
    fn successor_update_after_scwait_bounces() {
        let mut q = Qnode::new();
        q.on_core_request(&MemRequest::LrWait { addr: 0x40 });
        q.on_response(MemResponse::Wait {
            value: 0,
            reserved: true,
        });
        // scwait issued first, successor unknown.
        assert!(q
            .on_core_request(&MemRequest::ScWait {
                addr: 0x40,
                value: 1
            })
            .is_none());
        // Late SuccessorUpdate bounces.
        let out = q.on_response(MemResponse::SuccessorUpdate {
            successor: 9,
            mode: WaitMode::MWait,
        });
        assert_eq!(out.deliver, None);
        assert_eq!(
            out.wakeup,
            Some(MemRequest::WakeUp {
                addr: 0x40,
                successor: 9,
                mode: WaitMode::MWait
            })
        );
        assert!(!q.has_session());
    }

    #[test]
    fn lone_scwait_closes_on_response() {
        let mut q = Qnode::new();
        q.on_core_request(&MemRequest::LrWait { addr: 0x40 });
        q.on_response(MemResponse::Wait {
            value: 0,
            reserved: true,
        });
        q.on_core_request(&MemRequest::ScWait {
            addr: 0x40,
            value: 1,
        });
        assert!(
            q.has_session(),
            "half-open until the response confirms no successor"
        );
        let out = q.on_response(MemResponse::ScWait { success: true });
        assert_eq!(out.deliver, Some(MemResponse::ScWait { success: true }));
        assert!(!q.has_session());
    }

    #[test]
    fn failfast_lrwait_closes_session() {
        let mut q = Qnode::new();
        q.on_core_request(&MemRequest::LrWait { addr: 0x40 });
        let out = q.on_response(MemResponse::Wait {
            value: 5,
            reserved: false,
        });
        assert_eq!(
            out.deliver,
            Some(MemResponse::Wait {
                value: 5,
                reserved: false
            })
        );
        assert!(!q.has_session());
    }

    #[test]
    fn mwait_bounces_known_successor_on_wake() {
        let mut q = Qnode::new();
        q.on_core_request(&MemRequest::MWait {
            addr: 0x40,
            expected: 0,
        });
        q.on_response(MemResponse::SuccessorUpdate {
            successor: 3,
            mode: WaitMode::MWait,
        });
        let out = q.on_response(MemResponse::Wait {
            value: 1,
            reserved: true,
        });
        assert_eq!(
            out.deliver,
            Some(MemResponse::Wait {
                value: 1,
                reserved: true
            })
        );
        assert_eq!(
            out.wakeup,
            Some(MemRequest::WakeUp {
                addr: 0x40,
                successor: 3,
                mode: WaitMode::MWait
            })
        );
        assert!(!q.has_session());
    }

    #[test]
    fn mwait_without_successor_closes_cleanly() {
        let mut q = Qnode::new();
        q.on_core_request(&MemRequest::MWait {
            addr: 0x40,
            expected: 0,
        });
        let out = q.on_response(MemResponse::Wait {
            value: 1,
            reserved: true,
        });
        assert_eq!(out.wakeup, None);
        assert!(!q.has_session());
    }

    #[test]
    fn non_wait_traffic_passes_through() {
        let mut q = Qnode::new();
        assert!(q.on_core_request(&MemRequest::Load { addr: 8 }).is_none());
        let out = q.on_response(MemResponse::Load { value: 2 });
        assert_eq!(out.deliver, Some(MemResponse::Load { value: 2 }));
        assert!(!q.has_session());
        // Loads during an open session do not disturb it.
        q.on_core_request(&MemRequest::LrWait { addr: 0x40 });
        q.on_core_request(&MemRequest::Store {
            addr: 8,
            value: 1,
            mask: !0,
        });
        assert!(q.has_session());
    }
}
