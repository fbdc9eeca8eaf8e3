//! The command line every figure binary shares: [`BenchArgs`], its
//! [`USAGE`] text and the [`FLAGS`] table behind the unknown-flag listing.

use std::fmt::Write as _;
use std::path::PathBuf;

use lrscwait_sim::{ExecMode, SimConfig};

use crate::experiment::{BenchError, Experiment, Measurement};
use crate::report::{log_throughput, write_profile_json, write_trace_csv};
use crate::sweep::Sweep;

/// Usage text shared by every figure binary.
pub const USAGE: &str = "\
usage: <figure binary> [--quick] [--threads N] [--out DIR] [--trace] [--exec MODE]
  --quick          reduced sweep for CI / smoke testing
  --threads N      sweep worker threads (default: all cores, min 2)
  --exec MODE      execution mode for every experiment: translated (default)
                   or reference — results are bit-identical, only
                   simulator speed differs
  --out DIR        results directory (default: results)
  --trace          also attach an analysis sink per sweep point and write
                   <fig>.trace.csv (handoff latency p50/p99/max per point;
                   every simulating binary except fig_latency)
  --profile        enable the host-side phase profiler: every experiment
                   collects per-phase step timings, and the binary writes
                   <fig>.profile.json (results stay bit-identical; host
                   overhead is a few percent)
  --heartbeat SECS  emit a progress line to stderr every SECS seconds
                   per experiment: cycles vs budget, live Mcycles/s,
                   ETA
  --heartbeat-file FILE  also append each heartbeat as an NDJSON record
                   to FILE
  -h, --help       show this help";

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
fn did_you_mean<'a>(input: &str, candidates: impl Iterator<Item = &'a str>) -> String {
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
    /// Execution-mode override for every experiment the binary runs
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
    /// Parses flags, rejecting anything unknown.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] (including the usage text) on unknown
    /// flags, missing or malformed values, and `--help`.
    pub fn parse<I>(args: I) -> Result<BenchArgs, BenchError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--threads" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--threads needs a value\n{USAGE}"))
                    })?;
                    let threads: usize = value.parse().map_err(|_| {
                        BenchError::Usage(format!("--threads: `{value}` is not a count\n{USAGE}"))
                    })?;
                    if threads == 0 {
                        return Err(BenchError::Usage(format!(
                            "--threads must be at least 1\n{USAGE}"
                        )));
                    }
                    parsed.threads = Some(threads);
                }
                "--out" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--out needs a directory\n{USAGE}"))
                    })?;
                    parsed.out = PathBuf::from(value);
                }
                "--trace" => parsed.trace = true,
                "--exec" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--exec needs a mode\n{USAGE}"))
                    })?;
                    let Some(&(_, mode)) = EXEC_MODES.iter().find(|(name, _)| *name == value)
                    else {
                        let names = EXEC_MODES.iter().map(|(name, _)| *name);
                        return Err(BenchError::Usage(format!(
                            "--exec: unknown mode `{value}`{} \
                             (expected translated or reference)\n{USAGE}",
                            did_you_mean(&value, names)
                        )));
                    };
                    parsed.exec = Some(mode);
                }
                "--profile" => parsed.profile = true,
                "--heartbeat" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--heartbeat needs a seconds value\n{USAGE}"))
                    })?;
                    let secs: u64 = value.parse().map_err(|_| {
                        BenchError::Usage(format!(
                            "--heartbeat: `{value}` is not a seconds count\n{USAGE}"
                        ))
                    })?;
                    if secs == 0 {
                        return Err(BenchError::Usage(format!(
                            "--heartbeat must be at least 1 second\n{USAGE}"
                        )));
                    }
                    parsed.heartbeat = Some(secs);
                }
                "--heartbeat-file" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--heartbeat-file needs a file\n{USAGE}"))
                    })?;
                    parsed.heartbeat_file = Some(PathBuf::from(value));
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

    /// Reads flags from `std::env::args`.
    ///
    /// # Errors
    ///
    /// See [`BenchArgs::parse`].
    pub fn from_env() -> Result<BenchArgs, BenchError> {
        BenchArgs::parse(std::env::args().skip(1))
    }

    /// Applies the `--exec` mode override to a machine configuration
    /// (identity without the flag). Figure binaries pass every config
    /// they build through this so one flag retargets the whole sweep.
    #[must_use]
    pub fn configure(&self, mut cfg: SimConfig) -> SimConfig {
        if let Some(mode) = self.exec {
            cfg.exec_mode = mode;
        }
        cfg
    }

    /// Applies the observability flags to an experiment: `--profile`
    /// enables the phase profiler, `--trace` the synchronization
    /// analysis, `--heartbeat`/`--heartbeat-file` attach the periodic
    /// progress line. Figure binaries pass every
    /// experiment they build through this (like [`configure`] for
    /// configs), so the flags work uniformly across all of them.
    ///
    /// [`configure`]: BenchArgs::configure
    #[must_use]
    pub fn instrument<'w>(&self, mut exp: Experiment<'w>) -> Experiment<'w> {
        if self.profile {
            exp = exp.profiled();
        }
        if self.trace {
            exp = exp.traced();
        }
        if let Some(secs) = self.heartbeat {
            exp = exp.heartbeat(secs, self.heartbeat_file.clone());
        }
        exp
    }

    /// What every simulating binary does with a finished sweep besides
    /// its own CSV: the one-line throughput report on stderr, then
    /// `<out>/<fig>.profile.json` under `--profile` and
    /// `<out>/<fig>.trace.csv` under `--trace`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] when an artifact cannot be written.
    pub fn finish(&self, fig: &str, measurements: &[Measurement]) -> Result<(), BenchError> {
        log_throughput(fig, measurements.iter().map(|m| (m.cycles, m.host_seconds)));
        if self.profile {
            write_profile_json(&self.out, fig, measurements)?;
        }
        if self.trace {
            write_trace_csv(&self.out, fig, measurements)?;
        }
        Ok(())
    }

    /// A [`Sweep`] honouring the `--threads` override.
    #[must_use]
    pub fn sweep(&self, name: impl Into<String>) -> Sweep {
        let sweep = Sweep::new(name);
        match self.threads {
            Some(t) => sweep.threads(t),
            None => sweep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_reject_unknown_flags() {
        let err = BenchArgs::parse(vec!["--frobnicate".to_string()]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown flag"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");
    }

    #[test]
    fn unknown_flag_error_lists_every_flag_and_suggests() {
        let msg = BenchArgs::parse(vec!["--profil".to_string()])
            .unwrap_err()
            .to_string();
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
        let msg = BenchArgs::parse(vec!["--zzzzzzzzzzzzzzzz".to_string()])
            .unwrap_err()
            .to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");
    }

    #[test]
    fn every_flag_is_documented_in_usage() {
        for (flag, _, _) in FLAGS {
            assert!(USAGE.contains(flag), "USAGE must document {flag}");
        }
    }

    #[test]
    fn args_parse_profile_and_heartbeat_flags() {
        let args = BenchArgs::parse(
            [
                "--profile",
                "--heartbeat",
                "30",
                "--heartbeat-file",
                "hb.ndjson",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(args.profile);
        assert_eq!(args.heartbeat, Some(30));
        assert_eq!(args.heartbeat_file, Some(PathBuf::from("hb.ndjson")));
        assert!(!BenchArgs::default().profile, "profiling is opt-in");
        assert!(BenchArgs::default().heartbeat.is_none());
        assert!(BenchArgs::parse(["--heartbeat".to_string()]).is_err());
        assert!(BenchArgs::parse(["--heartbeat", "0"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--heartbeat", "soon"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--heartbeat-file".to_string()]).is_err());
    }

    #[test]
    fn args_parse_all_flags() {
        let args = BenchArgs::parse(
            [
                "--quick",
                "--threads",
                "3",
                "--out",
                "outdir",
                "--trace",
                "--exec",
                "translated",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.threads, Some(3));
        assert_eq!(args.out, PathBuf::from("outdir"));
        assert!(args.trace);
        assert_eq!(args.exec, Some(ExecMode::Translated));
        assert!(BenchArgs::parse(["--exec".to_string()]).is_err());
        // `event` named the deleted third mode: rejected like any other
        // unknown value; a near-miss of a live mode gets a suggestion.
        let msg = BenchArgs::parse(["--exec", "event"].map(String::from))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--exec: unknown mode `event`"), "{msg}");
        assert!(msg.contains("expected translated or reference"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
        let msg = BenchArgs::parse(["--exec", "translate"].map(String::from))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `translated`?"), "{msg}");
        for (name, mode) in EXEC_MODES {
            let args = BenchArgs::parse(["--exec", name].map(String::from)).unwrap();
            assert_eq!(args.exec, Some(mode));
            let cfg = args.configure(SimConfig::builder().cores(2).build().unwrap());
            assert_eq!(cfg.exec_mode, mode, "configure applies --exec {name}");
        }
        assert!(
            BenchArgs::default().exec.is_none(),
            "without --exec every config keeps its own mode"
        );
        assert!(!BenchArgs::default().trace, "trace artifacts are opt-in");
    }

    #[test]
    fn args_reject_bad_thread_counts() {
        assert!(BenchArgs::parse(["--threads".to_string()]).is_err());
        assert!(BenchArgs::parse(["--threads", "zero"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--threads", "0"].map(String::from)).is_err());
    }
}
