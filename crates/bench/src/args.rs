//! The command lines of `fig`, `trace` and `litmus`: one [`Cli`] table of
//! `(flag, value placeholder, one-line help, setter)` rows each, walked by
//! the [`Argv`] cursor, plus one [`Names`] table per enumerated value. The
//! parser, `--help`, the unknown-flag listing and every usage error are
//! rendered from these tables, so no flag or name is spelled twice.

use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;

use lrscwait_core::SyncArch;
use lrscwait_kernels::{BarrierImpl, HistImpl, LitmusScenario, QueueImpl};
use lrscwait_sim::{ExecMode, Mutation};

use crate::experiment::BenchError;
use crate::figures::{figure_listing, FIGURES};

/// `(name, value)` rows: the spellings an enumerated flag value accepts.
pub type Names<T> = &'static [(&'static str, T)];

/// What a flag does to the arguments parsed so far; `Err` is the usage
/// error's message.
pub type Setter<A> = fn(&mut A, &mut Argv<'_>) -> Result<(), String>;

/// A binary's command line.
pub struct Cli<A: 'static> {
    /// The `usage:` line.
    pub synopsis: &'static str,
    /// `(flag, value placeholder, one-line help, setter)` per accepted
    /// flag; `-h`/`--help` is implicit.
    pub flags: &'static [(&'static str, &'static str, &'static str, Setter<A>)],
    /// The `--help` lines after the flag listing.
    pub notes: fn() -> String,
}

/// The cursor a [`Setter`] reads its flag's value from. Each method's
/// `Err` is the usage error's message: the value is missing, or is not
/// what the method reads.
pub struct Argv<'a> {
    args: &'a mut dyn Iterator<Item = String>,
    flag: &'static str,
    placeholder: &'static str,
}

impl Argv<'_> {
    /// The value after the flag.
    pub fn value(&mut self) -> Result<String, String> {
        let missing = || format!("{} needs {}", self.flag, self.placeholder);
        self.args.next().ok_or_else(missing)
    }

    /// The value as a number.
    pub fn number<T: FromStr>(&mut self) -> Result<T, String> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| format!("{}: `{value}` is not a number", self.flag))
    }

    /// The value as a count of at least 1.
    pub fn count<T: FromStr + Default + PartialEq>(&mut self) -> Result<T, String> {
        let n = self.number()?;
        if n == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }

    /// The row of `names` the value spells.
    pub fn one_of<T: Copy>(
        &mut self,
        names: &[(&'static str, T)],
    ) -> Result<(&'static str, T), String> {
        let value = self.value()?;
        pick(self.flag, &value, names)
    }
}

/// Whether `arg` asks for the help text.
pub(crate) fn is_help(arg: &str) -> bool {
    arg == "-h" || arg == "--help"
}

impl<A: 'static> Cli<A> {
    /// Parses `args` onto `parsed`, running each flag's setter in order.
    /// `refuse` returns the usage error's message for a flag this
    /// invocation cannot honour.
    ///
    /// # Errors
    ///
    /// [`BenchError::Help`] on `-h`/`--help`; [`BenchError::Usage`], with
    /// the help text, on an unknown or refused flag and a missing or
    /// malformed value.
    pub fn parse(
        &self,
        args: impl IntoIterator<Item = String>,
        mut parsed: A,
        refuse: impl Fn(&str) -> Option<String>,
    ) -> Result<A, BenchError> {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if is_help(&arg) {
                return Err(BenchError::Help);
            }
            let Some(&(flag, placeholder, _, set)) = self.flags.iter().find(|row| row.0 == arg)
            else {
                let hint = did_you_mean(&arg, self.flags.iter().map(|row| row.0));
                return Err(self.usage(format!("unknown flag `{arg}`{hint}")));
            };
            if let Some(msg) = refuse(flag) {
                return Err(self.usage(msg));
            }
            let mut argv = Argv {
                args: &mut args,
                flag,
                placeholder,
            };
            set(&mut parsed, &mut argv).map_err(|msg| self.usage(msg))?;
        }
        Ok(parsed)
    }

    /// One line per flag with its one-line help.
    #[must_use]
    pub fn flag_listing(&self) -> String {
        let mut out = String::from("valid flags:");
        for &(flag, placeholder, help, _) in self.flags {
            line(&mut out, &format!("{flag} {placeholder}"), help);
        }
        line(&mut out, "-h, --help", "show this help");
        out
    }

    /// The `--help` text: the synopsis, the flag listing and the notes.
    #[must_use]
    pub fn help(&self) -> String {
        let (synopsis, notes) = (self.synopsis, (self.notes)());
        format!("usage: {synopsis}\n{}\n{notes}", self.flag_listing())
    }

    /// A usage error: `msg`, then the help text.
    pub fn usage(&self, msg: impl Display) -> BenchError {
        BenchError::Usage(format!("{msg}\n{}", self.help()))
    }
}

/// Appends one aligned `head  text` line to a listing.
fn line(out: &mut String, head: &str, text: impl Display) {
    let _ = write!(out, "\n  {:<22} {text}", head.trim_end());
}

/// `a | b | c`: the names of `names`, the first marked as the default
/// when `first_is_default`.
fn listing<T>(names: &[(&'static str, T)], first_is_default: bool) -> String {
    let mut out: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
    let first = format!("{} (default)", out[0]);
    if first_is_default {
        out[0] = &first;
    }
    out.join(" | ")
}

/// The row of `names` spelled `value`; the error message names the
/// nearest spelling and lists them all.
pub(crate) fn pick<T: Copy>(
    flag: &str,
    value: &str,
    names: &[(&'static str, T)],
) -> Result<(&'static str, T), String> {
    let row = names.iter().copied().find(|(name, _)| *name == value);
    row.ok_or_else(|| {
        let hint = did_you_mean(value, names.iter().map(|(name, _)| *name));
        let expected = listing(names, false);
        format!("{flag}: unknown value `{value}`{hint}; expected {expected}")
    })
}

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

/// An architecture's count name (empty: it takes none) and the
/// architecture a count selects.
type ArchRow = (&'static str, fn(usize) -> SyncArch);

/// `--arch` names.
const ARCHES: Names<ArchRow> = &[
    ("lrsc", ("", |_| SyncArch::Lrsc)),
    ("ideal", ("", |_| SyncArch::LrscWaitIdeal)),
    ("lrscwait", ("slots", |slots| SyncArch::LrscWait { slots })),
    ("colibri", ("queues", |queues| SyncArch::Colibri { queues })),
];

/// `lrsc | ideal | lrscwait:<slots> | colibri:<queues>`.
fn arch_listing() -> String {
    let names: Vec<String> = ARCHES
        .iter()
        .map(|(name, (count, _))| match *count {
            "" => (*name).to_string(),
            count => format!("{name}:<{count}>"),
        })
        .collect();
    names.join(" | ")
}

/// The `--arch` spelling of `arch`, which [`parse_arch`] reads back (so
/// repro lines are copy-pastable).
pub(crate) fn arch_slug(arch: SyncArch) -> String {
    let count = match arch {
        SyncArch::LrscWait { slots: n } | SyncArch::Colibri { queues: n } => n,
        SyncArch::Lrsc | SyncArch::LrscWaitIdeal => 0,
    };
    let (name, (what, _)) = ARCHES
        .iter()
        .find(|(_, (_, make))| make(count) == arch)
        .expect("ARCHES names every architecture");
    match *what {
        "" => (*name).to_string(),
        _ => format!("{name}:{count}"),
    }
}

/// Parses the `--arch` syntax of `trace` and `litmus`: a name of `ARCHES`,
/// with `:<count>` (at least 1) where it takes one. The error is the usage
/// error's message.
pub(crate) fn parse_arch(text: &str) -> Result<SyncArch, String> {
    let (name, count) = text
        .split_once(':')
        .map_or((text, None), |(name, count)| (name, Some(count)));
    let (_, (what, arch)) = pick("--arch", name, ARCHES)?;
    if what.is_empty() {
        return Ok(arch(0));
    }
    let count = count.ok_or_else(|| format!("--arch {name} needs `:{what}`"))?;
    match count.parse() {
        Ok(0) => Err(format!("--arch {name}: {what} must be at least 1")),
        Ok(n) => Ok(arch(n)),
        Err(_) => Err(format!("--arch {name}: bad {what} `{count}`")),
    }
}

/// `--exec` names, the default first.
pub const EXEC_MODES: Names<ExecMode> = &[
    ("translated", ExecMode::Translated),
    ("reference", ExecMode::Reference),
];

/// Parsed `fig` flags.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Reduced sweep for CI / smoke testing.
    pub quick: bool,
    /// Sweep parallelism override (`None`: [`crate::default_threads`]).
    pub threads: Option<usize>,
    /// Results directory.
    pub out: PathBuf,
    /// Attach an [`AnalysisSink`](lrscwait_trace::AnalysisSink) per sweep
    /// point and emit the figure-level `<fig>.trace.csv` artifact.
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

/// The `fig <name>` command line.
#[rustfmt::skip]
pub const FIG: Cli<BenchArgs> = Cli {
    synopsis: "fig <name> [flags]",
    flags: &[
        ("--quick", "", "reduced sweep for CI / smoke testing", |a, _| { a.quick = true; Ok(()) }),
        ("--threads", "N", "sweep worker threads (default: all cores, min 2)", |a, v| v.count().map(|n| a.threads = Some(n))),
        ("--exec", "MODE", "execution mode of every experiment; results are bit-identical", |a, v| v.one_of(EXEC_MODES).map(|(_, mode)| a.exec = Some(mode))),
        ("--out", "DIR", "results directory (default: results)", |a, v| v.value().map(|dir| a.out = dir.into())),
        ("--trace", "", "per-point synchronization analysis; writes <fig>.trace.csv", |a, _| { a.trace = true; Ok(()) }),
        ("--profile", "", "host-side phase profiler; writes <fig>.profile.json", |a, _| { a.profile = true; Ok(()) }),
        ("--heartbeat", "SECS", "stderr progress line every SECS seconds per experiment", |a, v| v.count().map(|secs| a.heartbeat = Some(secs))),
        ("--heartbeat-file", "FILE", "also append heartbeat NDJSON records to FILE", |a, v| v.value().map(|file| a.heartbeat_file = Some(file.into()))),
    ],
    notes: || {
        let mut out = String::from("values:");
        line(&mut out, "MODE", listing(EXEC_MODES, true));
        out.push_str("\nflags a figure cannot honour (a usage error before anything runs):");
        for (name, _, refused, _) in FIGURES.iter().filter(|row| !row.2.is_empty()) {
            line(&mut out, name, refused.join(" "));
        }
        format!("{out}\n{}", figure_listing())
    },
};

impl BenchArgs {
    /// Parses the flags of `figure`, rejecting every flag in `refused`
    /// (the ones `figure` cannot honour) by name.
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`].
    pub fn parse<I>(args: I, figure: &str, refused: &[&str]) -> Result<BenchArgs, BenchError>
    where
        I: IntoIterator<Item = String>,
    {
        FIG.parse(args, BenchArgs::default(), |flag| {
            refused
                .contains(&flag)
                .then(|| format!("`{figure}` cannot honour `{flag}`"))
        })
    }
}

/// The kernels `trace` runs, one per [`KERNELS`] row. Each but `Matmul`
/// (idle pollers, no `--impl`) has an implementation table:
/// [`HIST_IMPLS`], [`QUEUE_IMPLS`], [`BARRIER_IMPLS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKernel {
    Histogram,
    Queue,
    Matmul,
    Barrier,
}

/// `trace --kernel` names, the default first.
pub const KERNELS: Names<TraceKernel> = &[
    ("histogram", TraceKernel::Histogram),
    ("queue", TraceKernel::Queue),
    ("matmul", TraceKernel::Matmul),
    ("barrier", TraceKernel::Barrier),
];

/// `trace --impl` names of `--kernel histogram`, the default first.
pub const HIST_IMPLS: Names<HistImpl> = &[
    ("lrscwait", HistImpl::LrscWait),
    ("amoadd", HistImpl::AmoAdd),
    ("lrsc", HistImpl::Lrsc),
    ("ticket", HistImpl::TicketLock),
    ("tas", HistImpl::TasLock),
    ("colibri-lock", HistImpl::ColibriLock),
    ("mcs", HistImpl::McsMwaitLock),
];

/// `trace --impl` names of `--kernel queue`, the default first.
pub const QUEUE_IMPLS: Names<QueueImpl> = &[
    ("direct", QueueImpl::LrscWaitDirect),
    ("ms", QueueImpl::LrscMs),
    ("ring", QueueImpl::TicketRing),
];

/// `trace --impl` names of `--kernel barrier`, the default first.
pub const BARRIER_IMPLS: Names<BarrierImpl> = &[
    ("central-lrscwait", BarrierImpl::CentralLrscWait),
    ("central-lrsc", BarrierImpl::CentralLrsc),
    ("tree", BarrierImpl::TreeAmo),
    ("hw", BarrierImpl::HwMmio),
];

/// `trace`'s architecture without `--arch`.
const TRACE_ARCH: SyncArch = SyncArch::Colibri { queues: 4 };

/// Parsed `trace` flags: each field is the flag of its name in [`TRACE`],
/// whose help column documents it.
#[derive(Clone, Debug)]
pub struct TraceArgs {
    pub kernel: (&'static str, TraceKernel),
    pub impl_: Option<String>,
    pub arch: SyncArch,
    pub cores: u32,
    pub iters: u32,
    pub max_cycles: u64,
    pub out: PathBuf,
    pub profile: bool,
}

/// The `trace` command line.
#[rustfmt::skip]
pub const TRACE: Cli<TraceArgs> = Cli {
    synopsis: "trace [flags]",
    flags: &[
        ("--kernel", "K", "kernel to run", |a, v| v.one_of(KERNELS).map(|kernel| a.kernel = kernel)),
        ("--impl", "I", "the kernel's implementation", |a, v| v.value().map(|name| a.impl_ = Some(name))),
        ("--arch", "A", "architecture", |a, v| v.value().and_then(|t| parse_arch(&t)).map(|arch| a.arch = arch)),
        ("--cores", "N", "number of cores (default 16)", |a, v| v.number().map(|n| a.cores = n)),
        ("--iters", "N", "per-core iterations or barrier episodes (default 16)", |a, v| v.count().map(|n| a.iters = n)),
        ("--max-cycles", "N", "watchdog limit (default 2000000)", |a, v| v.number().map(|n| a.max_cycles = n)),
        ("--out", "DIR", "output directory for the Perfetto JSON (default results)", |a, v| v.value().map(|dir| a.out = dir.into())),
        ("--profile", "", "also write <trace>.profile.json, the host-side phase profile", |a, _| { a.profile = true; Ok(()) }),
    ],
    notes: || {
        let mut out = String::from("values:");
        line(&mut out, "K", listing(KERNELS, true));
        for &(name, kernel) in KERNELS {
            let impls = match kernel {
                TraceKernel::Histogram => listing(HIST_IMPLS, true),
                TraceKernel::Queue => listing(QUEUE_IMPLS, true),
                TraceKernel::Barrier => listing(BARRIER_IMPLS, true),
                TraceKernel::Matmul => "none".to_string(),
            };
            line(&mut out, &format!("I of {name}"), impls);
        }
        line(&mut out, "A", format!("{} (default {})", arch_listing(), arch_slug(TRACE_ARCH)));
        out
    },
};

impl TraceArgs {
    /// Parses the `trace` command line.
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`].
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<TraceArgs, BenchError> {
        let defaults = TraceArgs {
            kernel: KERNELS[0],
            impl_: None,
            arch: TRACE_ARCH,
            cores: 16,
            iters: 16,
            max_cycles: 2_000_000,
            out: PathBuf::from("results"),
            profile: false,
        };
        TRACE.parse(args, defaults, |_| None)
    }

    /// The row of `names`, the kernel's implementation table, that
    /// `--impl` spells (the first row without `--impl`).
    ///
    /// # Errors
    ///
    /// A usage error when it spells none of them.
    pub fn implementation<T: Copy>(
        &self,
        names: &[(&'static str, T)],
    ) -> Result<(&'static str, T), BenchError> {
        match &self.impl_ {
            None => Ok(names[0]),
            Some(name) => pick("--impl", name, names).map_err(|msg| TRACE.usage(msg)),
        }
    }
}

/// `litmus --scenario` names: each scenario's own.
fn scenarios() -> [(&'static str, LitmusScenario); 6] {
    LitmusScenario::all().map(|scenario| (scenario.name(), scenario))
}

/// `litmus --mutation` names and the mutation an `nth` arms.
const MUTATIONS: Names<fn(u32) -> Mutation> = &[
    ("drop-wakeup", |nth| Mutation::DropWakeup { nth }),
    ("lose-sc", |nth| Mutation::LoseScSuccess { nth }),
];

/// Parses `--mutation`: a name of `MUTATIONS`, with `:<nth>` (default 0).
fn parse_mutation(text: &str) -> Result<Mutation, String> {
    let (name, nth) = text.split_once(':').unwrap_or((text, "0"));
    let (_, mutation) = pick("--mutation", name, MUTATIONS)?;
    let nth = nth
        .parse()
        .map_err(|_| format!("--mutation {name}: bad nth `{nth}`"))?;
    Ok(mutation(nth))
}

/// Parsed `litmus` flags: each field is the flag of its name in
/// [`LITMUS`], whose help column documents it (`single_seed` is `--seed`,
/// `wait_only` is `--wait`).
#[derive(Clone, Debug)]
pub struct LitmusArgs {
    pub seeds: u64,
    pub seed_start: u64,
    pub single_seed: Option<u64>,
    pub scenario: Option<LitmusScenario>,
    pub arch: Option<SyncArch>,
    pub wait_only: bool,
    pub threads: usize,
    pub out: PathBuf,
    pub mutation: Mutation,
}

/// The `litmus` command line.
#[rustfmt::skip]
pub const LITMUS: Cli<LitmusArgs> = Cli {
    synopsis: "litmus [flags]",
    flags: &[
        ("--seeds", "N", "seeds to fuzz per case (default 8)", |a, v| v.count().map(|n| a.seeds = n)),
        ("--seed-start", "S", "first seed of the fuzz range (default 1)", |a, v| v.number().map(|seed| a.seed_start = seed)),
        ("--seed", "S", "run exactly one seed (repro mode; overrides --seeds)", |a, v| v.number().map(|seed| a.single_seed = Some(seed))),
        ("--scenario", "NAME", "restrict to one scenario", |a, v| v.one_of(&scenarios()).map(|(_, s)| a.scenario = Some(s))),
        ("--arch", "A", "restrict to one architecture", |a, v| v.value().and_then(|t| parse_arch(&t)).map(|arch| a.arch = Some(arch))),
        ("--wait", "", "restrict to wait-primitive flavors", |a, _| { a.wait_only = true; Ok(()) }),
        ("--threads", "N", "sweep worker threads (default: all cores, min 2)", |a, v| v.count().map(|n| a.threads = n)),
        ("--out", "DIR", "artifact directory (default results)", |a, v| v.value().map(|dir| a.out = dir.into())),
        ("--mutation", "M", "arm an illegal fault: the suite is then EXPECTED to fail", |a, v| v.value().and_then(|text| parse_mutation(&text)).map(|m| a.mutation = m)),
    ],
    notes: || {
        let mut out = String::from("values:");
        line(&mut out, "NAME", listing(&scenarios(), false));
        line(&mut out, "A", arch_listing());
        let mutations: Vec<String> = MUTATIONS.iter().map(|(name, _)| format!("{name}:<nth>")).collect();
        line(&mut out, "M", mutations.join(" | "));
        out
    },
};

impl LitmusArgs {
    /// Parses the `litmus` command line.
    ///
    /// # Errors
    ///
    /// As [`Cli::parse`].
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<LitmusArgs, BenchError> {
        let defaults = LitmusArgs {
            seeds: 8,
            seed_start: 1,
            single_seed: None,
            scenario: None,
            arch: None,
            wait_only: false,
            threads: crate::default_threads(),
            out: PathBuf::from("results"),
            mutation: Mutation::None,
        };
        LITMUS.parse(args, defaults, |_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` for a figure that takes every flag.
    fn parse(args: &[&str]) -> Result<BenchArgs, BenchError> {
        BenchArgs::parse(args.iter().map(ToString::to_string), "figX", &[])
    }

    /// The usage error's message for `args`, parsed by `parse`.
    fn usage<T: std::fmt::Debug>(
        parse: impl Fn(Vec<String>) -> Result<T, BenchError>,
        args: &[&str],
    ) -> String {
        match parse(args.iter().map(ToString::to_string).collect()) {
            Err(BenchError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
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

    /// For each binary, an unknown flag suggests the nearest one and
    /// lists the whole table with its help; a typo nothing like any flag
    /// gets the listing but no guess.
    #[test]
    fn unknown_flags_suggest_the_nearest_and_list_the_table() {
        fn check<A: std::fmt::Debug>(
            cli: &Cli<A>,
            parse: impl Fn(Vec<String>) -> Result<A, BenchError>,
            typo: &str,
            meant: &str,
        ) {
            let msg = usage(&parse, &[typo]);
            assert!(msg.contains(&format!("unknown flag `{typo}`")), "{msg}");
            assert!(msg.contains(&format!("did you mean `{meant}`?")), "{msg}");
            assert!(msg.contains(&cli.flag_listing()), "{msg}");
            for (flag, _, help, _) in cli.flags {
                assert!(msg.contains(flag) && msg.contains(help), "{flag}:\n{msg}");
            }
            let msg = usage(&parse, &["--zzzzzzzzzzzzzzzz"]);
            assert!(!msg.contains("did you mean"), "{msg}");
            assert!(msg.contains("valid flags:"), "{msg}");
        }
        check(
            &FIG,
            |a| BenchArgs::parse(a, "figX", &[]),
            "--profil",
            "--profile",
        );
        check(&TRACE, TraceArgs::parse, "--kernl", "--kernel");
        check(&LITMUS, LitmusArgs::parse, "--sedes", "--seeds");
    }

    /// For each binary, `--help` names every flag and every value an
    /// enumerated flag accepts.
    #[test]
    fn help_names_every_flag_and_value() {
        fn check<A>(cli: &Cli<A>, names: &[&str]) {
            let help = cli.help();
            for (flag, placeholder, text, _) in cli.flags {
                let head = format!("{flag} {placeholder}");
                assert!(help.contains(head.trim_end()), "{flag}:\n{help}");
                assert!(help.contains(text), "{flag}:\n{help}");
            }
            assert!(help.contains("-h, --help"), "{help}");
            for name in names {
                assert!(help.contains(name), "{name}:\n{help}");
            }
        }
        let fig: Vec<&str> = EXEC_MODES
            .iter()
            .map(|(name, _)| *name)
            .chain(FIGURES.iter().map(|(name, ..)| *name))
            .collect();
        check(&FIG, &fig);
        let trace: Vec<&str> = KERNELS
            .iter()
            .map(|(name, _)| *name)
            .chain(HIST_IMPLS.iter().map(|(name, _)| *name))
            .chain(QUEUE_IMPLS.iter().map(|(name, _)| *name))
            .chain(BARRIER_IMPLS.iter().map(|(name, _)| *name))
            .chain(ARCHES.iter().map(|(name, _)| *name))
            .collect();
        check(&TRACE, &trace);
        let litmus: Vec<&str> = scenarios()
            .iter()
            .map(|(name, _)| *name)
            .chain(ARCHES.iter().map(|(name, _)| *name))
            .chain(MUTATIONS.iter().map(|(name, _)| *name))
            .collect();
        check(&LITMUS, &litmus);
        // CI reads the figure names from the lines after `figures:`.
        let help = FIG.help();
        let (_, figures) = help.split_once("\nfigures:\n").unwrap();
        let listed: Vec<&str> = figures
            .lines()
            .map(|line| line.split_whitespace().next().unwrap())
            .collect();
        let names: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn zero_arch_counts_are_usage_errors() {
        for arch in ["lrscwait:0", "colibri:0"] {
            let msg = usage(TraceArgs::parse, &["--arch", arch]);
            assert!(msg.contains("must be at least 1"), "{msg}");
            assert!(msg.contains("usage: trace"), "{msg}");
            let msg = usage(LitmusArgs::parse, &["--arch", arch, "--seeds", "1"]);
            assert!(msg.contains("must be at least 1"), "{msg}");
            assert!(msg.contains("usage: litmus"), "{msg}");
        }
        assert_eq!(parse_arch("colibri:1"), Ok(SyncArch::Colibri { queues: 1 }));
    }

    #[test]
    fn value_errors_suggest_and_list_the_names() {
        let msg = usage(TraceArgs::parse, &["--kernel", "histgram"]);
        assert!(msg.contains("did you mean `histogram`?"), "{msg}");
        assert!(
            msg.contains("expected histogram | queue | matmul | barrier"),
            "{msg}"
        );
        for (name, scenario) in scenarios() {
            let args = LitmusArgs::parse(["--scenario".to_string(), name.to_string()]);
            assert_eq!(args.unwrap().scenario, Some(scenario), "{name}");
        }
        let msg = usage(LitmusArgs::parse, &["--scenario", "lost-wakup"]);
        assert!(msg.contains("did you mean `lost-wakeup`?"), "{msg}");
        let msg = usage(LitmusArgs::parse, &["--mutation", "drop-wakeup:x"]);
        assert!(msg.contains("bad nth `x`"), "{msg}");
        let args = LitmusArgs::parse(["--mutation".to_string(), "lose-sc".to_string()]);
        assert_eq!(args.unwrap().mutation, Mutation::LoseScSuccess { nth: 0 });
        let args = TraceArgs::parse(["--impl".to_string(), "tikcet".to_string()]).unwrap();
        let msg = args.implementation(HIST_IMPLS).unwrap_err().to_string();
        assert!(msg.contains("did you mean `ticket`?"), "{msg}");
        assert_eq!(
            TraceArgs::parse([])
                .unwrap()
                .implementation(QUEUE_IMPLS)
                .unwrap(),
            QUEUE_IMPLS[0]
        );
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
        assert!(msg.contains("--exec: unknown value `event`"), "{msg}");
        assert!(msg.contains("expected translated | reference"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
        let msg = parse(&["--exec", "translate"]).unwrap_err().to_string();
        assert!(msg.contains("did you mean `translated`?"), "{msg}");
        for &(name, mode) in EXEC_MODES {
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
