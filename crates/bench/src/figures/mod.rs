//! The figures, one function each, behind the one table `fig <name>`
//! dispatches through. [`FIGURES`] is the only place a figure is
//! registered: it is the `--help` listing, the unknown-name error and the
//! per-figure flag policy.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::args::{did_you_mean, BenchArgs, USAGE};
use crate::figure::Figure;
use crate::BenchError;

mod ablation;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig_barriers;
mod fig_latency;
mod fig_rcu;
mod histogram;
mod table1;
mod table2;

/// What a figure does with its parsed invocation.
pub type FigureFn = fn(&Figure) -> Result<(), BenchError>;

/// The flags a figure that simulates nothing cannot honour.
const NO_SIMULATION: &[&str] = &[
    "--threads",
    "--exec",
    "--trace",
    "--profile",
    "--heartbeat",
    "--heartbeat-file",
];

/// The flags a figure that drives the machine through its own harness
/// instead of an [`Experiment`](crate::Experiment) cannot honour.
const OWN_HARNESS: &[&str] = &["--trace", "--heartbeat", "--heartbeat-file"];

/// `(name, paper artifact, flags it cannot honour, function)` per figure.
pub const FIGURES: &[(&str, &str, &[&str], FigureFn)] = &[
    (
        "table1",
        "Table I — tile area per architecture",
        NO_SIMULATION,
        table1::run,
    ),
    (
        "fig3",
        "Fig. 3 — histogram throughput, LRSCwait variants",
        &[],
        fig3::run,
    ),
    (
        "fig4",
        "Fig. 4 — histogram throughput, lock variants",
        &[],
        fig4::run,
    ),
    (
        "fig5",
        "Fig. 5 — matmul slowdown under atomics interference",
        &[],
        fig5::run,
    ),
    (
        "fig6",
        "Fig. 6 — queue throughput vs. core count",
        &[],
        fig6::run,
    ),
    (
        "table2",
        "Table II — power and energy per operation",
        &[],
        table2::run,
    ),
    (
        "ablation",
        "Reservation-capacity ablation",
        &[],
        ablation::run,
    ),
    (
        "fig_barriers",
        "1024-core multi-barrier study (Bertuletti et al.) with per-node NoC heatmaps",
        &[],
        fig_barriers::run,
    ),
    (
        "fig_latency",
        "Open-loop tail latency (p50/p99/p99.9) vs offered load, LRSC vs Colibri",
        OWN_HARNESS,
        fig_latency::run,
    ),
    (
        "fig_rcu",
        "RCU grace-period latency vs core count: parked vs polling writers",
        &[],
        fig_rcu::run,
    ),
];

/// One line per figure: its name and the paper artifact it regenerates.
#[must_use]
pub fn figure_listing() -> String {
    let mut out = String::from("figures:");
    for (name, artifact, _, _) in FIGURES {
        let _ = write!(out, "\n  {name:<14} {artifact}");
    }
    out
}

/// Runs `fig <name> [flags]`: `argv` is the command line after `fig`.
///
/// # Errors
///
/// Returns [`BenchError::Usage`] with the figure listing for a missing or
/// unknown name, [`BenchError::Help`] for `--help` in its place, whatever
/// [`BenchArgs::parse`] rejects — all before any simulation starts — and
/// then the figure's own errors.
pub fn run_figure(argv: impl IntoIterator<Item = String>) -> Result<(), BenchError> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or_else(|| {
        BenchError::Usage(format!("which figure?\n{USAGE}\n{}", figure_listing()))
    })?;
    if name == "-h" || name == "--help" {
        return Err(BenchError::Help);
    }
    let Some(&(name, _, refused, run)) = FIGURES.iter().find(|(n, ..)| *n == name) else {
        let hint = did_you_mean(&name, FIGURES.iter().map(|(n, ..)| *n));
        return Err(BenchError::Usage(format!(
            "unknown figure `{name}`{hint}\n{}",
            figure_listing()
        )));
    };
    let args = BenchArgs::parse(argv, name, refused)?;
    run(&Figure {
        name,
        args,
        dnf: Mutex::default(),
    })
}
