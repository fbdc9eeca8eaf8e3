//! `litmus` — fuzz the adversarial LL/SC litmus suite under seeded
//! fault plans, with the trace-stream invariant checker attached to
//! every run.
//!
//! Default mode sweeps `--seeds N` seeds over the full
//! (scenario × arch × flavor) matrix; every failure is reported with its
//! seed, the plan it ran under, the *minimized* still-failing plan, and
//! a copy-pastable repro command — all on stderr, and mirrored to
//! `<out>/litmus_failures.txt` for CI artifact upload. A markdown
//! summary goes to `<out>/litmus_summary.md` (CI appends it to the step
//! summary).
//!
//! `--seed S` re-runs the matrix at exactly one seed (the repro mode the
//! failure report points at). `--mutation drop-wakeup:N | lose-sc:N`
//! arms a deliberately-illegal fault — the self-test that proves the
//! checker catches real bugs: with a mutation armed the suite MUST fail
//! with a named invariant violation, so CI runs it and inverts the exit
//! code.
//!
//! ```sh
//! cargo run --release -p lrscwait-bench --bin litmus -- --seeds 8
//! cargo run --release -p lrscwait-bench --bin litmus -- \
//!     --scenario lost-wakeup --arch colibri:2 --seed 17
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use lrscwait_bench::litmus::{fuzz_litmus, litmus_matrix, LitmusCase, LitmusSummary};
use lrscwait_bench::{BenchError, LitmusArgs, LITMUS};
use lrscwait_sim::Mutation;

fn main() -> ExitCode {
    lrscwait_bench::exit_code("litmus", &LITMUS.help(), run())
}

/// The matrix cases the filters select.
fn selected_cases(args: &LitmusArgs) -> Vec<LitmusCase> {
    litmus_matrix()
        .into_iter()
        .filter(|c| args.scenario.is_none_or(|s| c.scenario == s))
        .filter(|c| args.arch.is_none_or(|a| c.arch == a))
        .filter(|c| !args.wait_only || c.wait_primitives)
        .collect()
}

fn render_summary(summary: &LitmusSummary, seeds: u64, mutation: Mutation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Litmus invariant check");
    let _ = writeln!(out);
    let verdict = if summary.ok() {
        "✅ green"
    } else {
        "❌ FAILED"
    };
    let _ = writeln!(
        out,
        "{} — {} cases × {} seeds = {} runs, {} failure(s)",
        verdict,
        summary.cases,
        seeds,
        summary.runs,
        summary.failures.len()
    );
    if !mutation.is_none() {
        let _ = writeln!(
            out,
            "\n(mutation self-test armed: {mutation:?} — failures above are EXPECTED)"
        );
    }
    for failure in &summary.failures {
        let _ = writeln!(out);
        let _ = writeln!(out, "### {} @ seed {}", failure.verdict.label, failure.seed);
        let _ = writeln!(out, "- {}", failure.verdict.summary());
        let _ = writeln!(out, "- plan: {}", failure.verdict.plan);
        let _ = writeln!(out, "- minimized: {}", failure.minimized);
        let _ = writeln!(out, "- repro: `{}`", failure.repro());
    }
    out
}

fn run() -> Result<(), BenchError> {
    let args = LitmusArgs::parse(std::env::args().skip(1))?;
    let mut cases = selected_cases(&args);
    if cases.is_empty() {
        return Err(LITMUS.usage(
            "the case filter matched nothing (scenario/arch/flavor combination unsupported)",
        ));
    }
    // Keep self-test runs cheap: a dropped wakeup deadlocks until the
    // watchdog, so don't make it wait out a 5M-cycle budget.
    if !args.mutation.is_none() {
        for case in &mut cases {
            case.max_cycles = 300_000;
        }
    }
    let (seed_start, seeds) = match args.single_seed {
        Some(seed) => (seed, 1),
        None => (args.seed_start, args.seeds),
    };
    eprintln!(
        "litmus: {} cases × {} seeds (start {}), mutation {:?}",
        cases.len(),
        seeds,
        seed_start,
        args.mutation
    );

    let summary = fuzz_litmus(&cases, seed_start, seeds, args.threads, args.mutation)?;
    let rendered = render_summary(&summary, seeds, args.mutation);
    println!("{rendered}");
    std::fs::create_dir_all(&args.out).map_err(BenchError::io(&args.out))?;
    let summary_path = args.out.join("litmus_summary.md");
    std::fs::write(&summary_path, &rendered).map_err(BenchError::io(&summary_path))?;

    if summary.ok() {
        eprintln!("litmus: all invariants held");
        return Ok(());
    }
    // Failing seed + minimized plan on stderr, and as an artifact file.
    let mut report = String::new();
    for failure in &summary.failures {
        let _ = writeln!(
            report,
            "FAILING SEED {}: {}",
            failure.seed, failure.verdict.label
        );
        let _ = writeln!(report, "  {}", failure.verdict.summary());
        for violation in &failure.verdict.invariants.violations {
            let _ = writeln!(report, "  {violation}");
        }
        for entry in &failure.verdict.invariants.wait_graph {
            let _ = writeln!(report, "  {entry}");
        }
        let _ = writeln!(report, "  plan: {}", failure.verdict.plan);
        let _ = writeln!(report, "  minimized plan: {}", failure.minimized);
        let _ = writeln!(report, "  repro: {}", failure.repro());
    }
    eprint!("{report}");
    let failures_path = args.out.join("litmus_failures.txt");
    std::fs::write(&failures_path, &report).map_err(BenchError::io(&failures_path))?;
    eprintln!("litmus: wrote {}", failures_path.display());
    Err(BenchError::ClaimFailed(format!(
        "{} of {} litmus runs violated invariants (see {})",
        summary.failures.len(),
        summary.runs,
        failures_path.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in ["--seeds", "--threads"] {
            match LitmusArgs::parse([flag, "0"].map(String::from)) {
                Err(BenchError::Usage(msg)) => {
                    assert!(msg.contains(&format!("{flag} must be at least 1")), "{msg}");
                }
                other => panic!(
                    "{flag} 0: expected a usage error, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
        assert!(LitmusArgs::parse(["--threads", "1"].map(String::from)).is_ok());
    }
}
