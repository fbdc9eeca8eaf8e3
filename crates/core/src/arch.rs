//! Synchronization-architecture selector and adapter factory.

use std::fmt;

use crate::adapter::SyncAdapter;
use crate::bank::Bank;

/// Which synchronization hardware sits in front of every SPM bank.
///
/// Mirrors the design points evaluated in the paper: the MemPool LRSC
/// baseline, the centralized reservation queue with `q` slots (ideal when
/// `q = n`), and Colibri with a configurable number of queues per
/// controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncArch {
    /// MemPool-style single reservation slot per bank (the baseline).
    Lrsc,
    /// Centralized LRSCwait queue with `slots` entries per bank.
    LrscWait {
        /// Queue capacity `q`.
        slots: usize,
    },
    /// Centralized LRSCwait queue with one entry per core (`q = n`).
    LrscWaitIdeal,
    /// Colibri distributed queue with `queues` head/tail pairs per bank.
    Colibri {
        /// Concurrently tracked addresses per controller.
        queues: usize,
    },
}

// Sweeps run whole machines on worker threads, bank and Qnode state
// included; keep both `Send` by construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<crate::Qnode>();
    assert_send::<Box<dyn SyncAdapter>>();
};

impl SyncArch {
    /// Builds a fresh bank: the shared RV32A front end with this
    /// architecture's wait unit behind it. `num_cores` sizes the ideal
    /// queue variant.
    ///
    /// The returned box is [`Send`] (a [`SyncAdapter`] supertrait bound):
    /// a sweep may run the machine owning this adapter on a worker
    /// thread.
    #[must_use]
    pub fn build(&self, num_cores: usize) -> Box<dyn SyncAdapter> {
        Box::new(Bank::new(*self, num_cores))
    }

    /// Whether this architecture implements the wait extension (so kernels
    /// using `lrwait`/`scwait`/`mwait` make forward progress without
    /// retries).
    #[must_use]
    pub fn supports_wait(&self) -> bool {
        !matches!(self, SyncArch::Lrsc)
    }
}

impl fmt::Display for SyncArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SyncArch::Lrsc => write!(f, "LRSC"),
            SyncArch::LrscWait { slots } => write!(f, "LRSCwait{slots}"),
            SyncArch::LrscWaitIdeal => write!(f, "LRSCwait_ideal"),
            SyncArch::Colibri { queues } => write!(f, "Colibri{queues}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_matching_labels() {
        assert_eq!(SyncArch::Lrsc.build(4).label(), "LRSC");
        assert_eq!(
            SyncArch::LrscWait { slots: 8 }.build(4).label(),
            "LRSCwait8"
        );
        assert_eq!(SyncArch::LrscWaitIdeal.build(16).label(), "LRSCwait_ideal");
        assert_eq!(SyncArch::Colibri { queues: 2 }.build(4).label(), "Colibri2");
    }

    #[test]
    fn classification() {
        assert!(!SyncArch::Lrsc.supports_wait());
        assert!(SyncArch::LrscWaitIdeal.supports_wait());
        assert!(SyncArch::Colibri { queues: 1 }.supports_wait());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(SyncArch::LrscWait { slots: 128 }.to_string(), "LRSCwait128");
        assert_eq!(SyncArch::LrscWaitIdeal.to_string(), "LRSCwait_ideal");
    }
}
