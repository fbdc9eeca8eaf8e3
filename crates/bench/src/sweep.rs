//! Fanning independent sweep points across worker threads: [`Sweep`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::experiment::BenchError;

/// Default sweep parallelism: every available core, but always more than
/// one so the figures exercise the parallel path.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .max(2)
}

pub(crate) fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fans a list of independent sweep points across worker threads.
///
/// Every simulated [`Machine`] is fully independent, so the
/// (workload × architecture × x-axis) matrix of a figure parallelizes
/// trivially; results come back **in point order** regardless of thread
/// scheduling, which keeps CSV output byte-deterministic. On the first
/// error the sweep stops handing out new points and returns that error.
///
/// [`Machine`]: lrscwait_sim::Machine
pub struct Sweep {
    name: String,
    threads: usize,
    quiet: bool,
}

impl Sweep {
    /// A sweep with the default thread count (see [`default_threads`]).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            threads: default_threads(),
            quiet: false,
        }
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = threads.max(1);
        self
    }

    /// Suppresses the progress line (used by determinism tests).
    #[must_use]
    pub fn quiet(mut self) -> Sweep {
        self.quiet = true;
        self
    }

    /// Runs `f` over every point, in parallel, preserving point order in
    /// the returned vector.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed error any worker produced.
    pub fn run<P, T, F>(&self, points: Vec<P>, f: F) -> Result<Vec<T>, BenchError>
    where
        P: Send,
        T: Send,
        F: Fn(P) -> Result<T, BenchError> + Sync,
    {
        let n = points.len();
        let threads = self.threads.min(n.max(1));
        if !self.quiet {
            eprintln!("{}: sweeping {n} points on {threads} threads", self.name);
        }
        let queue = Mutex::new(points.into_iter().enumerate());
        let cells: Vec<Mutex<Option<Result<T, BenchError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let next = lock_ignoring_poison(&queue).next();
                    let Some((index, point)) = next else { break };
                    let result = f(point);
                    if result.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    *lock_ignoring_poison(&cells[index]) = Some(result);
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for cell in cells {
            match cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(Ok(value)) => out.push(value),
                Some(Err(e)) => return Err(e),
                // A later point errored first and this one was skipped;
                // surface the error found further down instead.
                None => continue,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_point_order() {
        let sweep = Sweep::new("order-test").threads(4).quiet();
        let results = sweep.run((0..64u32).collect(), |x| Ok(x * 2)).unwrap();
        assert_eq!(results, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_propagates_errors() {
        let sweep = Sweep::new("error-test").threads(2).quiet();
        let err = sweep
            .run(vec![1u32, 2, 3], |x| {
                if x == 2 {
                    Err(BenchError::ClaimFailed("point 2 fails".into()))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert!(matches!(err, BenchError::ClaimFailed(_)), "{err}");
    }

    #[test]
    fn default_threads_is_parallel() {
        assert!(default_threads() > 1);
    }
}
