//! The command line every figure shares: [`BenchArgs`], its [`USAGE`] text
//! and the [`FLAGS`] table behind the unknown-flag listing.

use std::fmt::Write as _;
use std::path::PathBuf;

use lrscwait_sim::ExecMode;

use crate::experiment::BenchError;

/// Usage text of the `fig` driver.
pub const USAGE: &str = "\
usage: fig <name> [--quick] [--threads N] [--out DIR] [--trace] [--exec MODE]
       fig --help      (also lists the figure names)
  --quick          reduced sweep for CI / smoke testing
  --threads N      sweep worker threads (default: all cores, min 2)
  --exec MODE      execution mode for every experiment: translated (default)
                   or reference — results are bit-identical, only
                   simulator speed differs
  --out DIR        results directory (default: results)
  --trace          also attach an analysis sink per sweep point and write
                   <fig>.trace.csv (handoff latency p50/p99/max per point)
  --profile        enable the host-side phase profiler: every experiment
                   collects per-phase step timings, and the figure writes
                   <fig>.profile.json (results stay bit-identical; host
                   overhead is a few percent)
  --heartbeat SECS  emit a progress line to stderr every SECS seconds
                   per experiment: cycles vs budget, live Mcycles/s,
                   ETA
  --heartbeat-file FILE  also append each heartbeat as an NDJSON record
                   to FILE
  -h, --help       show this help
A flag the named figure cannot honour is a usage error:
  table1           evaluates the area model without simulating; takes only
                   --quick and --out (no --threads, --exec, --trace,
                   --profile, --heartbeat, --heartbeat-file)
  fig_latency      measures through its own traffic harness; takes no
                   --trace, --heartbeat, --heartbeat-file";

/// `(flag, value placeholder, one-line help)` for every flag
/// [`BenchArgs::parse`] accepts — the single source of the unknown-flag
/// error's listing (a test pins every entry to [`USAGE`]).
pub const FLAGS: &[(&str, &str, &str)] = &[
    ("--quick", "", "reduced sweep for CI / smoke testing"),
    (
        "--threads",
        "N",
        "sweep worker threads (default: all cores, min 2)",
    ),
    (
        "--exec",
        "MODE",
        "execution mode: translated (default) or reference",
    ),
    ("--out", "DIR", "results directory (default: results)"),
    (
        "--trace",
        "",
        "per-point synchronization analysis; writes <fig>.trace.csv",
    ),
    (
        "--profile",
        "",
        "host-side phase profiler; writes <fig>.profile.json",
    ),
    (
        "--heartbeat",
        "SECS",
        "stderr progress line every SECS seconds per experiment",
    ),
    (
        "--heartbeat-file",
        "FILE",
        "also append heartbeat NDJSON records to FILE",
    ),
    ("--help", "", "show this help"),
];

/// One line per valid flag with its one-line help — what the
/// unknown-flag error prints so a typo never costs a doc lookup.
#[must_use]
pub fn flag_listing() -> String {
    let mut out = String::from("valid flags:");
    for (flag, value, help) in FLAGS {
        let head = if value.is_empty() {
            (*flag).to_string()
        } else {
            format!("{flag} {value}")
        };
        let _ = write!(out, "\n  {head:<22} {help}");
    }
    out
}

/// `--exec` values and the modes they select.
const EXEC_MODES: [(&str, ExecMode); 2] = [
    ("translated", ExecMode::Translated),
    ("reference", ExecMode::Reference),
];

/// A ` (did you mean `x`?)` hint naming the closest candidate by edit
/// distance (≤ 3), or nothing when the input resembles none of them.
pub(crate) fn did_you_mean<'a>(input: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|name| (name, edit_distance(input, name)))
        .filter(|&(_, d)| d <= 3)
        .min_by_key(|&(_, d)| d)
        .map(|(name, _)| format!(" (did you mean `{name}`?)"))
        .unwrap_or_default()
}

/// Plain Levenshtein distance (flag names are short; no need for
/// anything cleverer).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// A usage error carrying the usage text.
fn usage(msg: impl std::fmt::Display) -> BenchError {
    BenchError::Usage(format!("{msg}\n{USAGE}"))
}

/// The value following `flag` on the command line.
fn value(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, BenchError> {
    it.next()
        .ok_or_else(|| usage(format!("{flag} needs {what}")))
}

/// The value following `flag`, as a count of at least 1.
fn positive(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<u64, BenchError> {
    let value = value(it, flag, &format!("a {what}"))?;
    match value.parse() {
        Ok(0) => Err(usage(format!("{flag} must be at least 1"))),
        Ok(n) => Ok(n),
        Err(_) => Err(usage(format!("{flag}: `{value}` is not a {what}"))),
    }
}

/// Parsed harness CLI flags.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Reduced sweep for CI / smoke testing.
    pub quick: bool,
    /// Sweep parallelism override (`None`: [`default_threads`]).
    ///
    /// [`default_threads`]: crate::default_threads
    pub threads: Option<usize>,
    /// Results directory.
    pub out: PathBuf,
    /// Attach an [`AnalysisSink`] per sweep point and emit the
    /// figure-level `<fig>.trace.csv` artifact.
    ///
    /// [`AnalysisSink`]: lrscwait_trace::AnalysisSink
    pub trace: bool,
    /// Execution-mode override for every experiment the figure runs
    /// (`None`: keep each config's own mode, normally translated).
    pub exec: Option<ExecMode>,
    /// Enable the host-side phase profiler on every experiment and write
    /// the `<fig>.profile.json` artifact.
    pub profile: bool,
    /// Emit a heartbeat progress line every this many seconds per
    /// experiment.
    pub heartbeat: Option<u64>,
    /// Also append heartbeat NDJSON records to this file.
    pub heartbeat_file: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            quick: false,
            threads: None,
            out: PathBuf::from("results"),
            trace: false,
            exec: None,
            profile: false,
            heartbeat: None,
            heartbeat_file: None,
        }
    }
}

impl BenchArgs {
    /// Parses the flags of `figure`, rejecting anything unknown and every
    /// flag in `refused` (the ones `figure` cannot honour).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] (including the usage text) on unknown
    /// or refused flags and missing or malformed values, and
    /// [`BenchError::Help`] on `--help`.
    pub fn parse<I>(args: I, figure: &str, refused: &[&str]) -> Result<BenchArgs, BenchError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if refused.contains(&arg.as_str()) {
                return Err(usage(format!("`{figure}` cannot honour `{arg}`")));
            }
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--threads" => {
                    let threads = positive(&mut it, "--threads", "count")?;
                    parsed.threads = Some(usize::try_from(threads).unwrap_or(usize::MAX));
                }
                "--out" => parsed.out = value(&mut it, "--out", "a directory")?.into(),
                "--trace" => parsed.trace = true,
                "--exec" => {
                    let value = value(&mut it, "--exec", "a mode")?;
                    let Some(&(_, mode)) = EXEC_MODES.iter().find(|(name, _)| *name == value)
                    else {
                        let names = EXEC_MODES.iter().map(|(name, _)| *name);
                        return Err(usage(format!(
                            "--exec: unknown mode `{value}`{} \
                             (expected translated or reference)",
                            did_you_mean(&value, names)
                        )));
                    };
                    parsed.exec = Some(mode);
                }
                "--profile" => parsed.profile = true,
                "--heartbeat" => {
                    parsed.heartbeat = Some(positive(&mut it, "--heartbeat", "seconds count")?);
                }
                "--heartbeat-file" => {
                    parsed.heartbeat_file =
                        Some(value(&mut it, "--heartbeat-file", "a file")?.into());
                }
                "-h" | "--help" => return Err(BenchError::Help),
                other => {
                    let hint = did_you_mean(other, FLAGS.iter().map(|(flag, _, _)| *flag));
                    return Err(BenchError::Usage(format!(
                        "unknown flag `{other}`{hint}\n{}",
                        flag_listing()
                    )));
                }
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FIGURES;

    /// Parses `args` for a figure that takes every flag.
    fn parse(args: &[&str]) -> Result<BenchArgs, BenchError> {
        BenchArgs::parse(args.iter().map(ToString::to_string), "figX", &[])
    }

    #[test]
    fn args_reject_unknown_flags() {
        let msg = parse(&["--frobnicate"]).unwrap_err().to_string();
        assert!(msg.contains("unknown flag"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");

        // A known flag the figure cannot honour is refused by name, for
        // every refusal in the figure table — and parses for a figure
        // that takes it.
        for &(figure, _, refused, _) in FIGURES {
            for &flag in refused {
                let args = [flag.to_string(), "1".to_string()];
                let err = BenchArgs::parse(args.clone(), figure, refused).unwrap_err();
                assert!(matches!(err, BenchError::Usage(_)), "{err}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("`{figure}` cannot honour `{flag}`")),
                    "{msg}"
                );
                assert!(
                    !matches!(
                        BenchArgs::parse(args, "figX", &[]),
                        Err(BenchError::Usage(m)) if m.contains("`figX` cannot honour")
                    ),
                    "{flag} is only refused where the table says so"
                );
            }
        }
    }

    #[test]
    fn unknown_flag_error_lists_every_flag_and_suggests() {
        let msg = parse(&["--profil"]).unwrap_err().to_string();
        assert!(msg.contains("unknown flag `--profil`"), "{msg}");
        assert!(msg.contains("did you mean `--profile`?"), "{msg}");
        for (flag, _, help) in FLAGS {
            assert!(msg.contains(flag), "listing must include {flag}:\n{msg}");
            assert!(
                msg.contains(help),
                "listing must include help for {flag}:\n{msg}"
            );
        }
        // A typo nothing like any flag gets the listing but no guess.
        let msg = parse(&["--zzzzzzzzzzzzzzzz"]).unwrap_err().to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");
    }

    #[test]
    fn every_flag_is_documented_in_usage() {
        for (flag, _, _) in FLAGS {
            assert!(USAGE.contains(flag), "USAGE must document {flag}");
        }
        // USAGE's per-figure paragraph names exactly the refusals of the
        // figure table.
        let (_, per_figure) = USAGE.split_once("usage error:\n").unwrap();
        let mut paragraphs: Vec<String> = Vec::new();
        for line in per_figure.lines() {
            match paragraphs.last_mut() {
                Some(open) if line.starts_with("   ") => open.push_str(line),
                _ => paragraphs.push(line.to_string()),
            }
        }
        for &(figure, _, refused, _) in FIGURES {
            let paragraph = paragraphs
                .iter()
                .find(|p| p.trim_start().split(' ').next() == Some(figure));
            assert_eq!(paragraph.is_some(), !refused.is_empty(), "{figure}");
            let Some(paragraph) = paragraph else { continue };
            let (_, no) = paragraph.rsplit_once("no ").unwrap();
            let named: Vec<&str> = no
                .split(|c: char| !(c.is_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .collect();
            assert_eq!(named, refused, "USAGE vs FIGURES for {figure}");
        }
    }

    #[test]
    fn args_parse_profile_and_heartbeat_flags() {
        let args = parse(&[
            "--profile",
            "--heartbeat",
            "30",
            "--heartbeat-file",
            "hb.ndjson",
        ])
        .unwrap();
        assert!(args.profile);
        assert_eq!(args.heartbeat, Some(30));
        assert_eq!(args.heartbeat_file, Some(PathBuf::from("hb.ndjson")));
        assert!(!BenchArgs::default().profile, "profiling is opt-in");
        assert!(BenchArgs::default().heartbeat.is_none());
        assert!(parse(&["--heartbeat"]).is_err());
        assert!(parse(&["--heartbeat", "0"]).is_err());
        assert!(parse(&["--heartbeat", "soon"]).is_err());
        assert!(parse(&["--heartbeat-file"]).is_err());
    }

    #[test]
    fn args_parse_all_flags() {
        let args = parse(&[
            "--quick",
            "--threads",
            "3",
            "--out",
            "outdir",
            "--trace",
            "--exec",
            "translated",
        ])
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.threads, Some(3));
        assert_eq!(args.out, PathBuf::from("outdir"));
        assert!(args.trace);
        assert_eq!(args.exec, Some(ExecMode::Translated));
        assert!(parse(&["--exec"]).is_err());
        // `event` named the deleted third mode: rejected like any other
        // unknown value; a near-miss of a live mode gets a suggestion.
        let msg = parse(&["--exec", "event"]).unwrap_err().to_string();
        assert!(msg.contains("--exec: unknown mode `event`"), "{msg}");
        assert!(msg.contains("expected translated or reference"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
        let msg = parse(&["--exec", "translate"]).unwrap_err().to_string();
        assert!(msg.contains("did you mean `translated`?"), "{msg}");
        for (name, mode) in EXEC_MODES {
            assert_eq!(parse(&["--exec", name]).unwrap().exec, Some(mode));
        }
        assert!(
            BenchArgs::default().exec.is_none(),
            "without --exec every config keeps its own mode"
        );
        assert!(!BenchArgs::default().trace, "trace artifacts are opt-in");
    }

    #[test]
    fn args_reject_bad_thread_counts() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "zero"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
    }
}
