//! `fig <name> [flags]` — regenerates one figure or table of the paper
//! (`fig --help` lists them). Writes `<out>/<name>.csv`, prints a markdown
//! rendering and the paper-claim lines to stdout; exits 2 on any error.

use std::process::ExitCode;

use lrscwait_bench::{exit_code, figure_listing, run_figure, USAGE};

fn main() -> ExitCode {
    let who = format!("fig {}", std::env::args().nth(1).unwrap_or_default());
    let help = format!("{USAGE}\n{}", figure_listing());
    exit_code(who.trim_end(), &help, run_figure(std::env::args().skip(1)))
}
