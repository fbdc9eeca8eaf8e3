//! `ledger` — the repository's benchmark.
//!
//! One process, one thread, one workload per invocation. `ledger run`
//! measures the end-to-end metrics of a workload with tracing off; `ledger
//! trace` measures every per-layer metric (layer probes, the ledger's own
//! spans, the observer overheads and the layer model); `ledger diff` judges
//! two results against the bounds `BENCHMARK.json` fixes. See `README.md`
//! beside this file for the glossary and how to compare two commits.
//!
//! The benchmark driver calls
//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`, an
//! alias the parser rewrites to `ledger run <name>` (trace 0) or `ledger
//! trace <name>` (trace 1); every invocation ends with the driver's
//! one-line JSON object.

mod catalog;
mod diff;
mod e2e;
mod estimator;
mod host;
mod layers;
mod report;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{Document, Kind};
use workloads::Spec;

const USAGE: &str = "\
usage: ledger run <workload> [--seed S] [--reps N | --seconds S] [--out DIR] [--smoke]
       ledger trace <workload> [--seed S] [--out DIR] [--smoke]
       ledger layers [--seed S] [--out DIR]
       ledger all [--seed S] [--reps N] [--out DIR]
       ledger diff <A.json|DIR> <B.json|DIR>
       ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads:";

/// Timed repetitions of `ledger run` unless `--reps` or `--seconds` says
/// otherwise.
const DEFAULT_REPS: usize = 9;
/// The fewest repetitions a `--seconds` window holds, however slow the host:
/// below this the best-of estimator stops repeating between invocations.
/// The window decides how many more there are; the repetition itself is a
/// fixed amount of work (about 2 s on the reference host) and never adapts
/// to the clock.
const MIN_REPS: usize = 7;

/// Settings shared by the measuring commands.
#[derive(Clone, Debug)]
struct Options {
    seed: u64,
    reps: usize,
    /// `--seconds`: keep repeating until this much time has been measured.
    window: Option<Duration>,
    out: PathBuf,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            seed: 1,
            reps: DEFAULT_REPS,
            window: None,
            out: PathBuf::from("results/ledger"),
            smoke: false,
        }
    }
}

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    Run(&'static Spec),
    Trace(&'static Spec),
    Layers,
    All,
    Diff(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<(Command, Options), String> {
    let mut options = Options::default();
    let mut positional = Vec::new();
    let mut workload = None;
    let mut traced = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "--seed" => options.seed = number(value("a seed")?)?,
            "--reps" => options.reps = number(value("a count")?)?.clamp(1, 64) as usize,
            "--seconds" => {
                options.window = Some(Duration::from_secs(number(value("seconds")?)?.min(3600)));
                options.reps = MIN_REPS;
            }
            "--out" => options.out = PathBuf::from(value("a directory")?),
            "--smoke" => options.smoke = true,
            "--workload" => workload = Some(value("a workload name")?.to_string()),
            "--trace" => traced = Some(number(value("0 or 1")?)? != 0),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.as_str()),
        }
    }
    // The driver's spelling is an alias of `run <name>` / `trace <name>`.
    if let Some(name) = &workload {
        if !positional.is_empty() {
            return Err("--workload takes the place of a command".into());
        }
        let word = if traced == Some(true) { "trace" } else { "run" };
        positional = vec![word, name];
    } else if traced.is_some() {
        return Err("--trace needs --workload".into());
    }
    let spec = |name: &str| Spec::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"));
    let command = match positional.as_slice() {
        ["run", name] => Command::Run(spec(name)?),
        ["trace", name] => Command::Trace(spec(name)?),
        ["run" | "trace"] => return Err("which workload?".into()),
        ["layers"] => Command::Layers,
        ["all"] => Command::All,
        ["diff", a, b] => Command::Diff(PathBuf::from(a), PathBuf::from(b)),
        _ => return Err("unrecognised command".into()),
    };
    Ok((command, options))
}

/// `ledger run`: the end-to-end metrics of one workload, tracing off.
fn run_document(spec: &'static Spec, options: &Options) -> Document {
    let measured = e2e::measure(spec, options.smoke, options.reps, options.window);
    let mut doc = Document::new(Kind::Run, Some(spec.name), options.smoke, options.seed);
    doc.reps_requested = options.reps;
    doc.attempted = measured.attempted;
    doc.failed = measured.failed;
    doc.disturbed_reps = measured.disturbed_reps;
    doc.reps = measured.reps;
    if let (Some(run_s), Some(outcome)) = (measured.run_s, &measured.outcome) {
        let cycles = outcome.cycles as f64;
        let instructions = outcome.stats.total_instructions() as f64;
        doc.push("run_s", run_s.best, Some(run_s));
        let rate = run_s.inverted(|t| cycles / t / 1e6);
        doc.push("sim_mcycles_per_s", rate.best, Some(rate));
        let rate = run_s.inverted(|t| instructions / t / 1e6);
        doc.push("guest_mips", rate.best, Some(rate));
        doc.push("sim_cycles", cycles, None);
        doc.push(
            "guest_ops_per_kcycle",
            outcome.stats.throughput().map_or(f64::NAN, |t| t * 1000.0),
            None,
        );
    }
    doc.push("setup_s", measured.setup_s.best, Some(measured.setup_s));
    doc.push(
        "peak_rss_mib",
        host::peak_rss_mib().unwrap_or(f64::NAN),
        None,
    );
    doc
}

/// `ledger trace`: every per-layer metric of one workload.
fn trace_document(spec: &'static Spec, options: &Options) -> Document {
    let traced = trace::measure(spec, options.seed, options.smoke);
    let mut doc = Document::new(Kind::Trace, Some(spec.name), options.smoke, options.seed);
    doc.reps_requested = trace::ROUNDS;
    doc.attempted = traced.attempted;
    doc.failed = traced.failed;
    for (name, value) in &traced.metrics {
        doc.push(name, *value, None);
    }
    doc.spans = Some(traced.recorder);
    doc
}

/// `ledger layers`: the workload-independent probes only.
fn layers_document(options: &Options) -> Document {
    let scale = if options.smoke {
        layers::Scale::SMOKE
    } else {
        layers::Scale::FULL
    };
    let mut doc = Document::new(Kind::Layers, None, options.smoke, options.seed);
    doc.attempted = 1;
    for (name, value) in layers::run_all(options.seed, scale) {
        doc.push(&name, value, None);
    }
    doc
}

/// Prints a document, writes its file, and ends with the driver's line.
/// Returns whether the document is correct and was written.
fn publish(doc: &Document, out: &Path) -> bool {
    print!("{}", doc.lines());
    for defect in doc.defects() {
        eprintln!("ledger: {defect}");
    }
    let written = match doc.write(out) {
        Ok(path) => {
            eprintln!("ledger: wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            false
        }
    };
    println!("{}", doc.driver_line());
    doc.correct() && written
}

/// `ledger all`: `run` then `trace` of every workload, each in a process of
/// its own so `peak_rss_mib` and the allocator state belong to one
/// workload. Children run one after another; each is waited for.
fn run_all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for command in ["run", "trace"] {
        for spec in &workloads::ALL {
            eprintln!("ledger: {command} {}", spec.name);
            let status = std::process::Command::new(&exe)
                .arg(command)
                .arg(spec.name)
                .args(["--seed", &options.seed.to_string()])
                .args(["--reps", &options.reps.to_string()])
                .arg("--out")
                .arg(&options.out)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        for spec in &workloads::ALL {
            let note = if spec.gated {
                ""
            } else {
                " (not in BENCHMARK.json)"
            };
            println!("  {}{note}: {}", spec.name, spec.why);
        }
        return ExitCode::SUCCESS;
    }
    let (command, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            eprintln!("ledger: error: {e}\n{USAGE} {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Run(spec) => publish(&run_document(spec, &options), &options.out),
        Command::Trace(spec) => publish(&trace_document(spec, &options), &options.out),
        Command::Layers => publish(&layers_document(&options), &options.out),
        Command::All => match run_all(&options) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("ledger: error: {e}");
                return ExitCode::from(2);
            }
        },
        Command::Diff(a, b) => match diff::run(&a, &b) {
            Ok(regression) => !regression,
            Err(e) => {
                eprintln!("ledger: error: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn smoke() -> Options {
        Options {
            smoke: true,
            reps: 1,
            ..Options::default()
        }
    }

    fn names(doc: &Document) -> BTreeSet<String> {
        doc.rows.iter().map(|r| r.decl.name.clone()).collect()
    }

    fn declared(decls: Vec<catalog::Decl>) -> BTreeSet<String> {
        decls.into_iter().map(|d| d.name).collect()
    }

    #[test]
    fn smoke_runs_pass_the_gate_and_emit_the_declared_names() {
        let started = std::time::Instant::now();
        for spec in &workloads::ALL {
            let doc = run_document(spec, &smoke());
            assert!(doc.smoke);
            assert_eq!(doc.failed, 0, "{}", spec.name);
            assert!(doc.correct(), "{}: {:?}", spec.name, doc.defects());
            assert_eq!(
                names(&doc),
                declared(catalog::end_to_end()),
                "{}",
                spec.name
            );
            assert!(doc.rows.iter().all(|r| r.value > 0.0), "a metric reads 0");
            let parsed = report::parse_document(&doc.to_json()).expect("round trip");
            assert!(parsed.smoke);
            lrscwait_trace::json::parse(&doc.driver_line()).expect("driver line is JSON");
        }
        assert!(
            started.elapsed().as_secs() < 10,
            "smoke runs took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn smoke_traces_reproduce_the_digest_and_emit_the_declared_names() {
        for spec in &workloads::ALL {
            let doc = trace_document(spec, &smoke());
            assert_eq!(doc.failed, 0, "{}", spec.name);
            assert!(doc.correct(), "{}: {:?}", spec.name, doc.defects());
            assert_eq!(names(&doc), declared(catalog::per_layer()), "{}", spec.name);
            // Only a share of something that may not happen at all can be 0
            // (the residual may even be negative); everything else is a
            // time, a count or a ratio of the two and must read above it.
            for row in &doc.rows {
                let may_be_zero = row.decl.name.starts_with("model.")
                    || row.decl.name.starts_with("telemetry.phase_share.");
                assert!(
                    row.value > 0.0 || may_be_zero,
                    "{}: {} reads {}",
                    spec.name,
                    row.decl.name,
                    row.value
                );
            }
            let spans = doc.spans.as_ref().expect("the traced run records spans");
            assert_eq!(spans.spans[0].name, trace::ROOT_SPAN);
            for name in catalog::SPAN_NAMES {
                assert!(spans.spans.iter().any(|s| s.name == name), "no {name} span");
            }
            // The chunk spans carry the work where it happened: they add
            // up to the run's totals.
            let instr: u64 = spans
                .spans
                .iter()
                .filter_map(|s| s.counts)
                .map(|c| c.instr)
                .sum();
            let total = doc
                .rows
                .iter()
                .find(|r| r.decl.name == "sim.count.instr")
                .expect("declared")
                .value;
            assert_eq!(instr as f64, total, "{}", spec.name);
            report::parse_document(&doc.to_json()).expect("round trip");
        }
    }

    #[test]
    fn command_lines_parse() {
        let args = |text: &str| -> Vec<String> { text.split(' ').map(str::to_string).collect() };
        let (command, options) = parse(&args(
            "--workload busy_loop_256 --seed 7 --seconds 14 --trace 0",
        ))
        .unwrap();
        assert!(matches!(command, Command::Run(s) if s.name == "busy_loop_256"));
        // A window never holds fewer than seven repetitions.
        assert_eq!((options.seed, options.reps), (7, MIN_REPS));
        assert_eq!(options.window, Some(Duration::from_secs(14)));
        let (command, _) = parse(&args(
            "--workload busy_loop_256 --seed 7 --seconds 18 --trace 1",
        ))
        .unwrap();
        assert!(matches!(command, Command::Trace(_)));
        let (command, options) = parse(&args("run queue_sleep_256 --reps 3 --smoke")).unwrap();
        assert!(matches!(command, Command::Run(s) if s.name == "queue_sleep_256"));
        assert!(options.smoke && options.reps == 3 && options.window.is_none());
        assert!(matches!(
            parse(&args("diff a.json b.json")).unwrap().0,
            Command::Diff(..)
        ));
        for bad in [
            "run",
            "run nope",
            "frobnicate",
            "run busy_loop_256 --bogus",
            "run busy_loop_256 hist_retry_256",
            "run --workload busy_loop_256",
            "layers --trace 1",
            "--seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
