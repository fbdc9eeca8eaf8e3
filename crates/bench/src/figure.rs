//! The context a figure function runs in. A [`Figure`] carries the figure's
//! name and its parsed flags together, and its methods are the protocol
//! every figure follows: [`pick`](Figure::pick) the quick or the full
//! sweep, build an instrumented [`experiment`](Figure::experiment),
//! [`sweep`](Figure::sweep) the points, [`finish`](Figure::finish) the
//! measurements and [`write_csv`](Figure::write_csv). The free functions
//! are the searches over finished points the claims share.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use lrscwait_kernels::Workload;
use lrscwait_sim::{SimConfig, SimConfigBuilder};

use crate::args::BenchArgs;
use crate::experiment::{BenchError, Experiment, Measurement};
use crate::report::{throughput_line, write_csv, write_profile_json, write_trace_csv};
use crate::sweep::{lock_ignoring_poison, Sweep};

/// One invocation of `fig <name> [flags]`.
pub struct Figure {
    /// The figure's name: the word after `fig`, the CSV stem and the
    /// prefix of every progress line.
    pub name: &'static str,
    /// The flags given after the name.
    pub args: BenchArgs,
    /// `(simulated cycles, host seconds)` of every point
    /// [`run_dnf`](Figure::run_dnf) reported as DNF, for the summary.
    pub(crate) dnf: Mutex<Vec<(u64, f64)>>,
}

impl Figure {
    /// `quick` under `--quick`, `full` otherwise.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.args.quick {
            quick
        } else {
            full
        }
    }

    /// Builds a machine configuration with the `--exec` override applied,
    /// so one flag retargets the whole sweep.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Config`] when the configuration is rejected.
    pub fn config(&self, cfg: SimConfigBuilder) -> Result<SimConfig, BenchError> {
        let cfg = match self.args.exec {
            Some(mode) => cfg.exec_mode(mode),
            None => cfg,
        };
        Ok(cfg.build()?)
    }

    /// An experiment on [`config`](Figure::config) carrying the
    /// observability flags: `--profile` enables the phase profiler,
    /// `--trace` the synchronization analysis, `--heartbeat` and
    /// `--heartbeat-file` the periodic progress line.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Config`] when the configuration is rejected.
    pub fn experiment<'w>(
        &self,
        workload: &'w dyn Workload,
        cfg: SimConfigBuilder,
    ) -> Result<Experiment<'w>, BenchError> {
        let mut exp = Experiment::new(workload, self.config(cfg)?);
        if self.args.profile {
            exp = exp.profiled();
        }
        if self.args.trace {
            exp = exp.traced();
        }
        if let Some(secs) = self.args.heartbeat {
            exp = exp.heartbeat(secs, self.args.heartbeat_file.clone());
        }
        Ok(exp)
    }

    /// Runs `exp` as the point at `x`, treating a watchdog as a finding
    /// rather than a failure: a series that cannot finish within a very
    /// generous cycle budget has collapsed, which is the degenerate end of
    /// the curve the paper describes. Such a point is logged as DNF, with
    /// its simulated cycles and host seconds, comes back as `None`, to be
    /// dropped from the CSV, and is counted apart in the summary
    /// [`finish`](Figure::finish) prints.
    ///
    /// # Errors
    ///
    /// Every error of [`Experiment::run`] except [`BenchError::Watchdog`].
    pub fn run_dnf(&self, exp: Experiment<'_>, x: u32) -> Result<Option<Measurement>, BenchError> {
        let started = Instant::now();
        match exp.run() {
            Ok(m) => Ok(Some(m)),
            Err(BenchError::Watchdog {
                label,
                cycles,
                reason,
            }) => {
                let seconds = started.elapsed().as_secs_f64();
                eprintln!(
                    "{} {label} x={x}: DNF — watchdog after {cycles} cycles \
                     ({seconds:.2}s host time), {reason}",
                    self.name
                );
                lock_ignoring_poison(&self.dnf).push((cycles, seconds));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Fans `f` over `points` on the `--threads` workers (see [`Sweep`]),
    /// results in point order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed error any point produced.
    pub fn sweep<P, T, F>(&self, points: Vec<P>, f: F) -> Result<Vec<T>, BenchError>
    where
        P: Send,
        T: Send,
        F: Fn(P) -> Result<T, BenchError> + Sync,
    {
        let sweep = Sweep::new(self.name);
        match self.args.threads {
            Some(threads) => sweep.threads(threads),
            None => sweep,
        }
        .run(points, f)
    }

    /// What every simulating figure does with a finished sweep besides
    /// its own CSV: the one-line throughput report on stderr (completed
    /// runs, then the DNF points apart), then
    /// `<out>/<name>.profile.json` under `--profile` and
    /// `<out>/<name>.trace.csv` under `--trace`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] when an artifact cannot be written.
    pub fn finish<'a>(
        &self,
        measurements: impl IntoIterator<Item = &'a Measurement> + Clone,
    ) -> Result<(), BenchError> {
        let runs = measurements.clone().into_iter();
        let dnf = lock_ignoring_poison(&self.dnf).clone();
        eprintln!(
            "{}",
            throughput_line(self.name, runs.map(|m| (m.cycles, m.host_seconds)), dnf)
        );
        if self.args.profile {
            let points = measurements.clone().into_iter().filter_map(|m| {
                let profile = m.profile.as_ref()?;
                Some((m.label.clone(), m.x, profile))
            });
            write_profile_json(&self.args.out, self.name, points)?;
        }
        if self.args.trace {
            write_trace_csv(&self.args.out, self.name, measurements)?;
        }
        Ok(())
    }

    /// Writes the figure's CSV, `<out>/<name>.csv` (see [`write_csv`]).
    ///
    /// # Errors
    ///
    /// See [`write_csv`].
    pub fn write_csv(&self, header: &[&str], rows: &[Vec<String>]) -> Result<PathBuf, BenchError> {
        write_csv(&self.args.out, self.name, header, rows)
    }
}

/// Every `(series, x)` pair, series-major — the point matrix of a figure.
pub(crate) fn product<S: Clone, X: Copy>(series: &[S], xs: &[X]) -> Vec<(S, X)> {
    series
        .iter()
        .flat_map(|s| xs.iter().map(move |&x| (s.clone(), x)))
        .collect()
}

/// The point of `series` at `x`, by each point's `(series, x)` key.
///
/// # Errors
///
/// Returns [`BenchError::MissingPoint`] when there is no such point.
pub(crate) fn find<'a, T: 'a>(
    points: impl IntoIterator<Item = &'a T>,
    key: impl Fn(&T) -> (&str, u32),
    series: &str,
    x: u32,
) -> Result<&'a T, BenchError> {
    points
        .into_iter()
        .find(|p| key(p) == (series, x))
        .ok_or_else(|| BenchError::MissingPoint {
            series: series.to_string(),
            x,
        })
}

/// The largest of `xs` at which every one of `series` has a point: where
/// a claim compares series of which some did not finish everywhere (a DNF
/// above it only strengthens the conclusion — the collapsed series has no
/// number to compare at all).
///
/// # Errors
///
/// Returns [`BenchError::MissingPoint`] when the series share no x.
pub(crate) fn largest_common_x<'a, T: 'a>(
    points: impl IntoIterator<Item = &'a T> + Clone,
    key: impl Fn(&T) -> (&str, u32),
    series: &[impl AsRef<str>],
    xs: &[u32],
) -> Result<u32, BenchError> {
    let complete = |x: u32| {
        series
            .iter()
            .all(|s| find(points.clone(), &key, s.as_ref(), x).is_ok())
    };
    xs.iter()
        .copied()
        .filter(|&x| complete(x))
        .max()
        .ok_or_else(|| BenchError::MissingPoint {
            series: "the compared series".to_string(),
            x: 0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_sim::ExecMode;

    #[test]
    fn config_applies_the_exec_override() {
        for (exec, want) in [
            (None, ExecMode::Translated),
            (Some(ExecMode::Reference), ExecMode::Reference),
        ] {
            let args = BenchArgs {
                exec,
                ..BenchArgs::default()
            };
            let fig = Figure {
                name: "figX",
                args,
                dnf: Mutex::default(),
            };
            let cfg = fig.config(SimConfig::builder().cores(2)).unwrap();
            assert_eq!(cfg.exec_mode, want);
        }
    }

    #[test]
    fn searches_over_points() {
        let points = [("a", 1), ("a", 8), ("a", 64), ("b", 1), ("b", 8)];
        fn key<'a>(p: &'a (&'static str, u32)) -> (&'a str, u32) {
            *p
        }
        assert_eq!(find(&points, key, "b", 8).unwrap(), &("b", 8));
        let err = find(&points, key, "b", 64).unwrap_err();
        assert!(
            matches!(err, BenchError::MissingPoint { x: 64, .. }),
            "{err}"
        );
        assert_eq!(
            largest_common_x(&points, key, &["a", "b"], &[1, 8, 64]).unwrap(),
            8
        );
        assert_eq!(
            largest_common_x(&points, key, &["a"], &[1, 8, 64]).unwrap(),
            64
        );
        assert!(largest_common_x(&points, key, &["a", "c"], &[1, 8, 64]).is_err());
        assert_eq!(
            product(&["a", "b"], &[1, 2]),
            [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
        );
    }
}
