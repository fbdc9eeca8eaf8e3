//! The [`Workload`] trait — the uniform contract every benchmark kernel
//! implements so runners (`lrscwait-bench`'s `Experiment`/`Sweep`) can load,
//! execute and *functionally verify* any workload against any machine
//! configuration without kernel-specific glue.
//!
//! The paper's evaluation is a matrix of (kernel × architecture × geometry)
//! sweeps; this trait is the kernel axis of that matrix. Adding a new
//! scenario (a barrier kernel, an NB-FEB-style primitive comparison, …)
//! means implementing `Workload` once — every figure runner, sweep and
//! verification check then works unchanged.

use std::error::Error;
use std::fmt;

use lrscwait_asm::Program;
use lrscwait_sim::Machine;

/// A functional-verification failure: the simulation completed but produced
/// wrong results, so any measurement taken from it is meaningless.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A conservation sum (histogram total, queue checksum, op counter)
    /// does not match its expectation.
    Conservation {
        /// Which quantity was conserved incorrectly.
        what: &'static str,
        /// Expected value.
        expected: u64,
        /// Observed value.
        actual: u64,
    },
    /// An output element holds the wrong value.
    ResultMismatch {
        /// Which output structure.
        what: &'static str,
        /// Flat element index.
        index: u32,
        /// Expected word.
        expected: u32,
        /// Observed word.
        actual: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VerifyError::Conservation {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{what}: expected {expected}, found {actual} (lost updates)"
                )
            }
            VerifyError::ResultMismatch {
                what,
                index,
                expected,
                actual,
            } => {
                write!(f, "{what}[{index}]: expected {expected}, found {actual}")
            }
        }
    }
}

impl Error for VerifyError {}

/// A runnable, self-verifying benchmark workload.
///
/// Implementations are plain data descriptions; [`program`](Workload::program)
/// assembles the actual RV32IMA + Xlrscwait code on demand. `Send + Sync`
/// are supertraits so sweep runners can fan workloads across threads.
///
/// Every kernel in this crate implements the trait; the histogram kernel
/// shows the shape — a label for the legend, a program that assembles on
/// demand, and an op count for the harness to enforce:
///
/// ```
/// use lrscwait_kernels::{HistImpl, HistogramKernel, Workload};
///
/// let kernel = HistogramKernel::new(HistImpl::LrscWait, 8, 32, 4);
/// assert_eq!(kernel.label(), "LRSCwait");
/// let program = kernel.program(); // assembles RV32IMA + Xlrscwait now
/// assert!(!program.text.is_empty());
/// assert!(program.symbols.contains_key("bins"));
/// assert_eq!(kernel.expected_ops(), Some(4 * 32)); // cores × iters
/// ```
pub trait Workload: Send + Sync {
    /// Short human-readable label (figure legend entry).
    fn label(&self) -> String;

    /// Assembles the program image.
    ///
    /// # Panics
    ///
    /// May panic when the *generated* assembly fails to assemble — that is
    /// a kernel bug, not a runtime condition.
    fn program(&self) -> Program;

    /// MMIO benchmark arguments to pass, as `(index, value)` pairs.
    fn args(&self) -> Vec<(usize, u32)> {
        Vec::new()
    }

    /// Initializes machine memory before the run (input matrices, …).
    fn init(&self, machine: &mut Machine) {
        let _ = machine;
    }

    /// Checks functional correctness after a completed run — no benchmark
    /// number without a correct computation.
    ///
    /// Implementations that need symbol addresses typically re-assemble via
    /// [`program`](Workload::program): the 78-instruction queue kernel
    /// assembles in about 20 µs once warm and under 100 µs on a first call
    /// (measured on a shared 2-vCPU x86-64 host), against the
    /// milliseconds-to-minutes of the simulation it verifies, which keeps
    /// this signature free of a `Program` parameter.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first wrong result.
    fn verify(&self, machine: &Machine) -> Result<(), VerifyError>;

    /// Operations the MMIO op counter should have recorded, when the
    /// workload counts ops (throughput kernels do; latency kernels with
    /// unmeasured helper cores may return `None`).
    fn expected_ops(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_errors_display() {
        let c = VerifyError::Conservation {
            what: "bins",
            expected: 64,
            actual: 63,
        };
        assert!(c.to_string().contains("bins"));
        let r = VerifyError::ResultMismatch {
            what: "C",
            index: 3,
            expected: 8,
            actual: 9,
        };
        assert!(r.to_string().contains("C[3]"));
    }
}
