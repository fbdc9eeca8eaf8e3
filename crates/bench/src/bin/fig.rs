//! `fig <name> [flags]` — regenerates one figure or table of the paper
//! (`fig --help` lists them). Writes `<out>/<name>.csv`, prints a markdown
//! rendering and the paper-claim lines to stdout; exits 2 on any error.

use std::process::ExitCode;

use lrscwait_bench::{exit_code, run_figure, FIG};

fn main() -> ExitCode {
    let who = format!("fig {}", std::env::args().nth(1).unwrap_or_default());
    let help = FIG.help();
    exit_code(who.trim_end(), &help, run_figure(std::env::args().skip(1)))
}
