//! What a figure does with finished measurements: CSV, trace and profile
//! artifacts, the markdown table and claim checks.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lrscwait_sim::PhaseProfile;
use lrscwait_trace::json::Json;

use crate::experiment::{BenchError, Measurement};

/// Prints the one-line throughput report every simulating figure emits on
/// stderr, from each run's `(simulated cycles, host seconds)`.
pub fn log_throughput(name: &str, runs: impl IntoIterator<Item = (u64, f64)>) {
    eprintln!("{}", throughput_line(name, runs, []));
}

/// The throughput report: the completed runs' total, then — when any
/// point hit the watchdog — the DNF points' count, simulated cycles and
/// host seconds, each run given as `(simulated cycles, host seconds)`.
pub(crate) fn throughput_line(
    name: &str,
    runs: impl IntoIterator<Item = (u64, f64)>,
    dnf: impl IntoIterator<Item = (u64, f64)>,
) -> String {
    fn total(runs: impl IntoIterator<Item = (u64, f64)>) -> (usize, u64, f64) {
        runs.into_iter()
            .fold((0, 0, 0.0), |(n, c, s), (cycles, seconds)| {
                (n + 1, c + cycles, s + seconds)
            })
    }
    let (experiments, sim_cycles, host_seconds) = total(runs);
    let per_sec = if host_seconds > 0.0 {
        sim_cycles as f64 / host_seconds
    } else {
        0.0
    };
    let mut line = format!(
        "{name}: simulated {sim_cycles} cycles over {experiments} experiments in \
         {host_seconds:.2}s host time ({:.2} Mcycles/s)",
        per_sec / 1e6,
    );
    let (points, dnf_cycles, dnf_seconds) = total(dnf);
    if points > 0 {
        let _ = write!(
            line,
            "; not counted: {points} DNF ({dnf_cycles} cycles, {dnf_seconds:.2}s host time)"
        );
    }
    line
}

/// Writes the profile artifact `<dir>/<name>.profile.json` from
/// `(label, x, profile)` points: schema `lrscwait.profile-set.v2`, one
/// entry per point plus the merged aggregate, each profile an
/// `lrscwait.profile.v2` object.
///
/// Returns `Ok(None)`, writing nothing, when there are no points (the run
/// was not profiled).
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or file cannot be
/// written.
pub fn write_profile_json<'a>(
    dir: &Path,
    name: &str,
    points: impl IntoIterator<Item = (String, u32, &'a PhaseProfile)>,
) -> Result<Option<PathBuf>, BenchError> {
    let mut aggregate: Option<PhaseProfile> = None;
    let mut entries = Vec::new();
    for (label, x, profile) in points {
        match &mut aggregate {
            Some(sum) => sum.merge(profile),
            None => aggregate = Some(profile.clone()),
        }
        entries.push(object([
            ("label", Json::Str(label)),
            ("x", Json::Num(f64::from(x))),
            ("profile", profile_json(profile)),
        ]));
    }
    let Some(aggregate) = aggregate else {
        return Ok(None);
    };
    let doc = object([
        ("schema", Json::Str("lrscwait.profile-set.v2".to_string())),
        ("name", Json::Str(name.to_string())),
        ("points", Json::Arr(entries)),
        ("aggregate", profile_json(&aggregate)),
    ]);

    std::fs::create_dir_all(dir).map_err(BenchError::io(dir))?;
    let path = dir.join(format!("{name}.profile.json"));
    std::fs::write(&path, format!("{doc}\n")).map_err(BenchError::io(&path))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(path))
}

/// One profile as an `lrscwait.profile.v2` object: fixed key order,
/// phases in execution order.
fn profile_json(profile: &PhaseProfile) -> Json {
    let count = |n: u64| Json::Num(n as f64);
    let phases = profile
        .phases
        .iter()
        .map(|stat| {
            object([
                ("phase", Json::Str(stat.phase.name().to_string())),
                ("ns", count(stat.ns)),
                ("share", Json::Num(profile.share(stat.phase))),
            ])
        })
        .collect();
    object([
        ("schema", Json::Str("lrscwait.profile.v2".to_string())),
        ("wall_ns", count(profile.wall_ns)),
        ("stepped_cycles", count(profile.stepped_cycles)),
        ("sampled_cycles", count(profile.sampled_cycles)),
        ("sample_every", Json::Num(f64::from(profile.sample_every))),
        ("sampled_ns", count(profile.sampled_ns)),
        ("phases", Json::Arr(phases)),
    ])
}

/// A JSON object from `(key, value)` pairs, keys in the given order.
pub(crate) fn object<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.map(|(key, value)| (key.to_string(), value)).into())
}

/// The exit protocol the binaries share: success and `--help` (`help` on
/// stdout) exit 0, any other error goes to stderr as `"<who>: error: …"`
/// and exits 2.
pub fn exit_code(who: &str, help: &str, result: Result<(), BenchError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(BenchError::Help) => {
            println!("{help}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{who}: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Turns a failed quantitative claim into a typed error (replacing
/// `assert!`-driven control flow on bench run paths).
///
/// # Errors
///
/// Returns [`BenchError::ClaimFailed`] when `condition` is false.
pub fn check_claim(condition: bool, message: impl Into<String>) -> Result<(), BenchError> {
    if condition {
        Ok(())
    } else {
        Err(BenchError::ClaimFailed(message.into()))
    }
}

/// Writes the figure-level trace artifact `<dir>/<fig>.trace.csv`, which
/// `fig <name> --trace` adds next to the figure's CSV: one row per
/// [`traced`](crate::Experiment::traced) sweep point (its [`Measurement`]
/// carries the analysis) with the lock-handoff latency distribution
/// (count, p50, p99, max) and wait-queue occupancy (max, mean) derived
/// from the point's event stream. Every figure that runs `Experiment`s
/// takes `--trace`; the others refuse it (`fig --help` names them).
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or file cannot be
/// written.
pub fn write_trace_csv<'a>(
    dir: &Path,
    fig: &str,
    measurements: impl IntoIterator<Item = &'a Measurement>,
) -> Result<PathBuf, BenchError> {
    let rows: Vec<Vec<String>> = measurements
        .into_iter()
        .filter_map(|m| {
            let analysis = m.analysis.as_ref()?;
            Some(vec![
                m.label.clone(),
                m.x.to_string(),
                analysis.handoff.count.to_string(),
                analysis.handoff.p50.to_string(),
                analysis.handoff.p99.to_string(),
                analysis.handoff.max.to_string(),
                analysis.occupancy.max.to_string(),
                format!("{:.4}", analysis.occupancy.mean),
            ])
        })
        .collect();
    write_csv(
        dir,
        &format!("{fig}.trace"),
        &[
            "series",
            "x",
            "handoffs",
            "handoff_p50",
            "handoff_p99",
            "handoff_max",
            "occupancy_max",
            "occupancy_mean",
        ],
        &rows,
    )
}

/// Writes rows as `<dir>/<name>.csv`, creating the directory, then reads
/// the file back and checks it holds what was rendered. A field holding a
/// comma, a double quote or a line break is quoted per RFC 4180 (labels
/// are caller-chosen text); every other field is written as is.
///
/// # Errors
///
/// Returns [`BenchError::RaggedRow`], before anything is written, when a
/// row's field count differs from the header's; [`BenchError::Io`] when
/// the directory or file cannot be written or read back; and
/// [`BenchError::ClaimFailed`] when the file read back differs.
pub fn write_csv(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, BenchError> {
    if let Some((i, row)) = rows
        .iter()
        .enumerate()
        .find(|(_, row)| row.len() != header.len())
    {
        return Err(BenchError::RaggedRow(format!(
            "{name}.csv: row {i} has {} fields, the header has {}",
            row.len(),
            header.len()
        )));
    }
    std::fs::create_dir_all(dir).map_err(BenchError::io(dir))?;
    let mut text = csv_line(header.iter().copied());
    for row in rows {
        text.push_str(&csv_line(row.iter().map(String::as_str)));
    }
    let path = dir.join(format!("{name}.csv"));
    let io_error = BenchError::io(&path);
    std::fs::write(&path, &text).map_err(io_error)?;
    check_claim(
        std::fs::read_to_string(&path).map_err(io_error)? == text,
        format!(
            "{}: read back differs from the header and {} rows written",
            path.display(),
            rows.len()
        ),
    )?;
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// One CSV record, RFC 4180 quoting applied only to the fields that need
/// it.
fn csv_line<'a>(fields: impl Iterator<Item = &'a str>) -> String {
    let quoted: Vec<String> = fields
        .map(|field| {
            if field.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        })
        .collect();
    quoted.join(",") + "\n"
}

/// Renders a markdown table.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// The `keep` columns of every row, in that order — the subset of a CSV a
/// figure shows in its markdown table.
#[must_use]
pub(crate) fn columns(rows: &[Vec<String>], keep: &[usize]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| keep.iter().map(|&c| row[c].clone()).collect())
        .collect()
}

/// Prints `heading`, a blank line and the markdown table to stdout.
pub(crate) fn print_table(heading: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("{heading}\n\n{}", markdown_table(header, rows));
}

/// Formats a throughput in the paper's updates-per-cycle style.
#[must_use]
pub fn fmt_tp(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use lrscwait_core::SyncArch;
    use lrscwait_kernels::{HistImpl, HistogramKernel};
    use lrscwait_sim::SimConfig;

    #[test]
    fn markdown_rendering() {
        let md = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn throughput_line_counts_dnf_points_after_the_completed_total() {
        let runs = [(3_000_000, 1.0), (1_000_000, 1.0)];
        let completed = "figX: simulated 4000000 cycles over 2 experiments in 2.00s host time \
                         (2.00 Mcycles/s)";
        assert_eq!(throughput_line("figX", runs, []), completed);
        assert_eq!(
            throughput_line("figX", runs, [(20_000_000, 100.0), (20_000_000, 150.5)]),
            format!("{completed}; not counted: 2 DNF (40000000 cycles, 250.50s host time)")
        );
        assert_eq!(
            throughput_line("figX", [], [(7, 0.25)]),
            "figX: simulated 0 cycles over 0 experiments in 0.00s host time (0.00 Mcycles/s); \
             not counted: 1 DNF (7 cycles, 0.25s host time)"
        );
    }

    #[test]
    fn profile_artifact_self_validates() {
        use lrscwait_trace::json;
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).profiled().run().unwrap();
        let profile = m.profile.as_ref().expect("profiled run carries a profile");

        let dir = std::env::temp_dir().join(format!("lrscwait-profile-{}", std::process::id()));
        // Labels and figure names are caller-chosen text: quotes,
        // backslashes and control characters must survive the round trip
        // through the artifact.
        let labels = ["plain", r#"he said "hi"\"#, "line\nbreak\u{1}"];
        let path = write_profile_json(
            &dir,
            r#"un"it"#,
            labels.map(|label| (label.to_string(), m.x, profile)),
        )
        .unwrap()
        .expect("a profiled measurement must produce the artifact");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).expect("profile set must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some("lrscwait.profile-set.v2")
        );
        assert_eq!(
            doc.get("name").and_then(json::Json::as_str),
            Some(r#"un"it"#)
        );
        let points = doc.get("points").and_then(json::Json::as_arr).unwrap();
        let got: Vec<_> = points
            .iter()
            .map(|point| point.get("label").and_then(json::Json::as_str))
            .collect();
        assert_eq!(got, labels.map(Some));
        let agg = doc.get("aggregate").expect("aggregate present");
        assert_eq!(
            agg.get("schema").and_then(json::Json::as_str),
            Some("lrscwait.profile.v2")
        );
        let keys = |v: &json::Json| match v {
            json::Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object: {v}"),
        };
        assert_eq!(keys(&doc), ["schema", "name", "points", "aggregate"]);
        assert_eq!(keys(&points[0]), ["label", "x", "profile"]);
        assert_eq!(
            keys(agg),
            [
                "schema",
                "wall_ns",
                "stepped_cycles",
                "sampled_cycles",
                "sample_every",
                "sampled_ns",
                "phases"
            ]
        );
        // The embedded phase entries must re-sum to the sampled total.
        let phases = agg.get("phases").and_then(json::Json::as_arr).unwrap();
        assert_eq!(phases.len(), lrscwait_sim::Phase::ALL.len());
        let json_sum: f64 = phases
            .iter()
            .filter_map(|p| p.get("ns").and_then(json::Json::as_f64))
            .sum();
        let sampled = agg.get("sampled_ns").and_then(json::Json::as_f64).unwrap();
        assert!((json_sum - sampled).abs() < 0.5, "{json_sum} vs {sampled}");

        // The same goes for the CSV: a field with a comma, a quote or a
        // line break is quoted (RFC 4180), so the column count holds; a
        // plain field is written as is.
        let hostile = Measurement {
            label: "a,b \"c\"\nd".to_string(),
            ..m.clone()
        };
        let rows = [m.csv_row(), hostile.csv_row()];
        let header = ["series", "x,y", "tp", "lo", "hi", "cycles", "stalls"];
        let path = write_csv(&dir, "hostile", &header, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tail = m.csv_row()[1..].join(",");
        assert_eq!(
            text,
            format!(
                "series,\"x,y\",tp,lo,hi,cycles,stalls\n{},{tail}\n\"a,b \"\"c\"\"\nd\",{tail}\n",
                m.label
            )
        );
        // A row with a missing or an extra field would shift every later
        // column: rejected by row number before anything is written.
        for ragged in [
            m.csv_row()[..6].to_vec(),
            [m.csv_row(), vec!["8th".into()]].concat(),
        ] {
            let want = format!("row 1 has {} fields, the header has 7", ragged.len());
            let err = write_csv(&dir, "ragged", &header, &[m.csv_row(), ragged]).unwrap_err();
            assert!(
                matches!(&err, BenchError::RaggedRow(msg) if msg.contains(&want)),
                "{err}"
            );
            assert!(!dir.join("ragged.csv").exists(), "nothing may be written");
        }

        // No points (an unprofiled run), no artifact.
        assert!(write_profile_json(&dir, "none", []).unwrap().is_none());
        assert!(!dir.join("none.profile.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_csv_has_handoff_percentiles_per_point() {
        let arch = SyncArch::Colibri { queues: 4 };
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::LrscWait, 1, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(1).traced().run().unwrap();
        let analysis = m.analysis.as_ref().expect("traced run carries an analysis");
        assert!(analysis.handoff.count > 0, "contended run must hand off");
        let dir = std::env::temp_dir().join(format!("lrscwait-tracecsv-{}", std::process::id()));
        let path = write_trace_csv(&dir, "figX", std::slice::from_ref(&m)).unwrap();
        assert!(path.ends_with("figX.trace.csv"));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some(
                "series,x,handoffs,handoff_p50,handoff_p99,handoff_max,\
                 occupancy_max,occupancy_mean"
            )
        );
        let row = lines.next().expect("one data row");
        assert!(
            row.starts_with(&format!("{},1,{}", m.label, analysis.handoff.count)),
            "{row}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
