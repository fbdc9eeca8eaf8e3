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
use std::path::PathBuf;
use std::process::ExitCode;

use lrscwait_bench::litmus::{fuzz_litmus, litmus_matrix, parse_arch, LitmusCase, LitmusSummary};
use lrscwait_bench::{default_threads, BenchError};
use lrscwait_core::SyncArch;
use lrscwait_kernels::LitmusScenario;
use lrscwait_sim::Mutation;

const USAGE: &str = "\
usage: litmus [--seeds N] [--seed-start S] [--seed S] [--scenario NAME]
              [--arch A] [--wait] [--threads N] [--out DIR] [--mutation M]
  --seeds N       seeds to fuzz per case (default 8)
  --seed-start S  first seed of the fuzz range (default 1)
  --seed S        run exactly one seed (repro mode; overrides --seeds)
  --scenario NAME restrict to one scenario: aba | spurious-retry |
                  lost-wakeup | wakeup-race | eviction-storm | rcu-grace
  --arch A        restrict to one architecture: lrsc | ideal |
                  lrscwait:<slots> | colibri:<queues>
  --wait          restrict to wait-primitive flavors
  --threads N     sweep worker threads (default: all cores, min 2)
  --out DIR       artifact directory (default results)
  --mutation M    arm a deliberately-illegal fault for the checker
                  self-test: drop-wakeup:<nth> | lose-sc:<nth>
                  (the suite is then EXPECTED to fail)
  -h, --help      show this help";

fn main() -> ExitCode {
    lrscwait_bench::exit_code("litmus", USAGE, run())
}

struct Args {
    seeds: u64,
    seed_start: u64,
    single_seed: Option<u64>,
    scenario: Option<LitmusScenario>,
    arch: Option<SyncArch>,
    wait_only: bool,
    threads: usize,
    out: PathBuf,
    mutation: Mutation,
}

fn usage_err(msg: impl std::fmt::Display) -> BenchError {
    BenchError::Usage(format!("{msg}\n{USAGE}"))
}

fn parse_mutation(text: &str) -> Result<Mutation, BenchError> {
    let (name, nth) = match text.split_once(':') {
        Some((name, nth)) => (
            name,
            nth.parse::<u32>()
                .map_err(|_| usage_err(format!("--mutation {name}: bad nth `{nth}`")))?,
        ),
        None => (text, 0),
    };
    match name {
        "drop-wakeup" => Ok(Mutation::DropWakeup { nth }),
        "lose-sc" => Ok(Mutation::LoseScSuccess { nth }),
        other => Err(usage_err(format!("unknown --mutation `{other}`"))),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, BenchError> {
    let mut parsed = Args {
        seeds: 8,
        seed_start: 1,
        single_seed: None,
        scenario: None,
        arch: None,
        wait_only: false,
        threads: default_threads(),
        out: PathBuf::from("results"),
        mutation: Mutation::None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| usage_err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--seeds" => {
                parsed.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| usage_err("--seeds: not a count"))?;
            }
            "--seed-start" => {
                parsed.seed_start = value("--seed-start")?
                    .parse()
                    .map_err(|_| usage_err("--seed-start: not a number"))?;
            }
            "--seed" => {
                parsed.single_seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| usage_err("--seed: not a number"))?,
                );
            }
            "--scenario" => {
                let name = value("--scenario")?;
                parsed.scenario = Some(
                    LitmusScenario::parse(&name)
                        .ok_or_else(|| usage_err(format!("unknown --scenario `{name}`")))?,
                );
            }
            "--arch" => parsed.arch = Some(parse_arch(&value("--arch")?)?),
            "--wait" => parsed.wait_only = true,
            "--threads" => {
                parsed.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage_err("--threads: not a count"))?;
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--mutation" => parsed.mutation = parse_mutation(&value("--mutation")?)?,
            "-h" | "--help" => return Err(BenchError::Help),
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }
    if parsed.seeds == 0 {
        return Err(usage_err("--seeds must be at least 1"));
    }
    if parsed.threads == 0 {
        return Err(usage_err("--threads must be at least 1"));
    }
    Ok(parsed)
}

/// The matrix cases the filters select.
fn selected_cases(args: &Args) -> Vec<LitmusCase> {
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
    let args = parse_args(std::env::args().skip(1))?;
    let mut cases = selected_cases(&args);
    if cases.is_empty() {
        return Err(usage_err(
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
    std::fs::create_dir_all(&args.out).map_err(|source| BenchError::Io {
        path: args.out.display().to_string(),
        source,
    })?;
    let summary_path = args.out.join("litmus_summary.md");
    std::fs::write(&summary_path, &rendered).map_err(|source| BenchError::Io {
        path: summary_path.display().to_string(),
        source,
    })?;

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
    std::fs::write(&failures_path, &report).map_err(|source| BenchError::Io {
        path: failures_path.display().to_string(),
        source,
    })?;
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
            match parse_args([flag, "0"].map(String::from)) {
                Err(BenchError::Usage(msg)) => {
                    assert!(msg.contains(&format!("{flag} must be at least 1")), "{msg}");
                }
                other => panic!(
                    "{flag} 0: expected a usage error, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
        assert!(parse_args(["--threads", "1"].map(String::from)).is_ok());
    }
}
