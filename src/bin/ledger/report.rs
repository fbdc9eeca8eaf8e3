//! The result document: every metric by name with its unit, printed as
//! `name value unit` lines, written as one JSON file, and summarised in the
//! one-line JSON object the benchmark driver reads.
//!
//! The emitter is hand-rolled (the workspace has no serde); every file it
//! writes is parsed back with `lrscwait_trace::json` before the ledger
//! reports success.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lrscwait_trace::json::{self, Json};

use crate::catalog::{self, Decl};
use crate::e2e::Rep;
use crate::estimator::Summary;
use crate::host;
use crate::trace::Recorder;

/// Schema tag of the result files.
pub const SCHEMA: &str = "lrscwait.ledger.v1";
/// Recorded in every result file: the repository holds no RTL or silicon
/// reference, so simulated numbers carry no error figure.
pub const MODEL_NOTE: &str = "unvalidated: no RTL or silicon reference results in this repository, so no error figure is given; simulated statistics are deterministic and compare exactly between commits";
/// Recorded in every result file: what `--seed` does and does not change.
pub const SEED_NOTE: &str = "kernels are seedless guest programs (hart-id-hashed LCGs): the seed drives only the layer-probe inputs, never the simulated statistics";

/// Which list of the catalog a document fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ledger run`: the end-to-end metrics.
    Run,
    /// `ledger trace`: every per-layer metric.
    Trace,
    /// `ledger layers`: the workload-independent probes only.
    Layers,
}

impl Kind {
    /// The command word, also the result file's suffix.
    pub fn word(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Trace => "trace",
            Kind::Layers => "layers",
        }
    }

    fn catalog(self) -> Vec<Decl> {
        match self {
            Kind::Run => catalog::end_to_end(),
            Kind::Trace | Kind::Layers => catalog::per_layer(),
        }
    }
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Its catalog entry.
    pub decl: Decl,
    /// The reported value.
    pub value: f64,
    /// Order statistics of the repetitions behind it, when it has any.
    pub summary: Option<Summary>,
}

/// One invocation's results.
#[derive(Debug)]
pub struct Document {
    /// Which command produced it.
    pub kind: Kind,
    /// The workload measured (`None` for `layers`).
    pub workload: Option<&'static str>,
    /// Whether this was a `--smoke` run (never comparable).
    pub smoke: bool,
    /// The `--seed`.
    pub seed: u64,
    /// Timed repetitions asked for.
    pub reps_requested: usize,
    /// Runs put through the correctness gate.
    pub attempted: u64,
    /// Runs that missed it.
    pub failed: u64,
    /// Timed repetitions that were disturbed by other processes.
    pub disturbed_reps: u64,
    /// The metrics, in catalog order of insertion.
    pub rows: Vec<Row>,
    /// Host-side record of each timed repetition.
    pub reps: Vec<Rep>,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
    /// The metrics this kind of document may (and, unless it is a
    /// `layers` document, must) hold.
    catalog: Vec<Decl>,
}

impl Document {
    /// An empty document.
    pub fn new(kind: Kind, workload: Option<&'static str>, smoke: bool, seed: u64) -> Self {
        Document {
            kind,
            workload,
            smoke,
            seed,
            reps_requested: 0,
            attempted: 0,
            failed: 0,
            disturbed_reps: 0,
            rows: Vec::new(),
            reps: Vec::new(),
            spans: None,
            catalog: kind.catalog(),
        }
    }

    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in this document's catalog (a ledger bug:
    /// every printed name must be declared in `BENCHMARK.json`).
    pub fn push(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let decl = self
            .catalog
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
            .clone();
        self.rows.push(Row {
            decl,
            value,
            summary,
        });
    }

    /// Catalog names this document should hold but does not, and names
    /// whose value is not a finite number. `layers` documents are exempt
    /// from completeness (they hold the probes only).
    pub fn defects(&self) -> Vec<String> {
        let mut defects = Vec::new();
        if self.kind != Kind::Layers {
            for decl in &self.catalog {
                if !self.rows.iter().any(|r| r.decl.name == decl.name) {
                    defects.push(format!("{} was not measured", decl.name));
                }
            }
        }
        for row in &self.rows {
            if !row.value.is_finite() {
                defects.push(format!("{} is not a finite number", row.decl.name));
            }
        }
        defects
    }

    /// Whether every run passed the gate and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.defects().is_empty()
    }

    /// The `name value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = write!(out, "{} {} {}", row.decl.name, row.value, row.decl.unit);
            if let Some(s) = row.summary {
                let _ = write!(
                    out,
                    "   (median {} q1 {} q3 {} n {} spread {:.1}%)",
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0
                );
            }
            out.push('\n');
        }
        out
    }

    /// The one-line object the benchmark driver reads.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(&r.decl.name),
                    number(r.value),
                    string(r.decl.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file's contents.
    pub fn to_json(&self) -> String {
        let list_name = match self.kind {
            Kind::Run => "end_to_end",
            Kind::Trace | Kind::Layers => "per_layer",
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    format!("\"name\": {}", string(&r.decl.name)),
                    format!("\"value\": {}", number(r.value)),
                    format!("\"unit\": {}", string(r.decl.unit)),
                    format!("\"list\": {}", string(list_name)),
                    format!("\"better\": {}", string(r.decl.better.word())),
                ];
                if let Some(bound) = r.decl.bound {
                    fields.push(format!("\"bound\": {}", number(bound)));
                }
                if let Some(s) = r.summary {
                    fields.push(format!(
                        "\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}",
                        s.n,
                        number(s.median),
                        number(s.q1),
                        number(s.q3)
                    ));
                }
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        let reps: Vec<String> = self
            .reps
            .iter()
            .map(|r| {
                format!(
                    "    {{\"wall_s\": {}, \"runqueue_wait_s\": {}, \"disturbed\": {}}}",
                    number(r.wall_s),
                    r.runqueue_wait_s.map_or("null".to_string(), number),
                    r.disturbed
                )
            })
            .collect();
        let spans: Vec<String> = self.spans.as_ref().map_or_else(Vec::new, |rec| {
            rec.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let counts = s.counts.map_or_else(String::new, |c| {
                        format!(
                            ", \"instr\": {}, \"requests\": {}, \"hops\": {}",
                            c.instr, c.requests, c.hops
                        )
                    });
                    format!(
                        "    {{\"run_id\": {}, \"id\": {id}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}{counts}}}",
                        rec.run_id,
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                        string(s.name),
                        s.start_ns,
                        s.end_ns
                    )
                })
                .collect()
        });
        let text = |v: Option<String>| v.map_or("null".to_string(), |s| string(&s));
        format!(
            "{{\n  \"schema\": {},\n  \"command\": {},\n  \"workload\": {},\n  \"smoke\": {},\n  \"meta\": {{\n    \"seed\": {},\n    \"reps\": {},\n    \"nproc\": {},\n    \"load_average\": {},\n    \"git_rev\": {},\n    \"rustc\": {},\n    \"ledger.disturbed_reps\": {},\n    \"model\": {},\n    \"seed_note\": {}\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": [\n{}\n  ],\n  \"reps\": [\n{}\n  ],\n  \"spans\": [\n{}\n  ]\n}}\n",
            string(SCHEMA),
            string(self.kind.word()),
            text(self.workload.map(str::to_string)),
            self.smoke,
            self.seed,
            self.reps_requested,
            host::nproc(),
            host::load_average().map_or("null".to_string(), number),
            text(host::git_rev()),
            text(host::rustc_version()),
            self.disturbed_reps,
            string(MODEL_NOTE),
            string(SEED_NOTE),
            self.attempted,
            self.failed,
            rows.join(",\n"),
            reps.join(",\n"),
            spans.join(",\n"),
        )
    }

    /// Where [`Document::write`] puts this document under `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        match (self.kind, self.workload) {
            (Kind::Run, Some(w)) => dir.join(format!("{w}.json")),
            (kind, Some(w)) => dir.join(format!("{w}.{}.json", kind.word())),
            (kind, None) => dir.join(format!("{}.json", kind.word())),
        }
    }

    /// Writes the result file under `dir` and checks that it parses back.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be written or
    /// the emitted text is not valid JSON.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = self.path(dir);
        let text = self.to_json();
        json::parse(&text).map_err(|e| format!("emitted JSON does not parse: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// A JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; `null` for a value that is not a
/// finite number.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        // `{}` prints the shortest decimal text that reads back as the
        // same f64 and never an exponent, which is valid JSON.
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A metric row read back from a result file (for `ledger diff`).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedRow {
    /// Metric name.
    pub name: String,
    /// Reported value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// Interquartile range over the median, when repetitions were recorded.
    pub spread: Option<f64>,
}

/// A result file read back (for `ledger diff`).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedDocument {
    /// Workload name, or the command word for workload-less documents.
    pub subject: String,
    /// Whether it came from a `--smoke` run.
    pub smoke: bool,
    /// Gate misses.
    pub failed: u64,
    /// Its metrics.
    pub rows: Vec<ParsedRow>,
}

/// Parses a result file written by [`Document::write`].
///
/// # Errors
///
/// Returns a message when the text is not a ledger result file.
pub fn parse_document(text: &str) -> Result<ParsedDocument, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key:?}"));
    let subject = match field("workload")? {
        Json::Str(w) => w.clone(),
        _ => field("command")?
            .as_str()
            .ok_or("command is not a string")?
            .to_string(),
    };
    let smoke = matches!(field("smoke")?, Json::Bool(true));
    let failed = field("failed")?.as_f64().ok_or("failed is not a number")? as u64;
    let mut rows = Vec::new();
    for m in field("metrics")?
        .as_arr()
        .ok_or("metrics is not an array")?
    {
        let text = |k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("metric without {k:?}"))
        };
        let num = |k: &str| m.get(k).and_then(Json::as_f64);
        let name = text("name")?;
        let value = num("value").ok_or_else(|| format!("{name} has no numeric value"))?;
        let spread = match (num("q1"), num("median"), num("q3")) {
            (Some(q1), Some(median), Some(q3)) if median != 0.0 => Some((q3 - q1) / median.abs()),
            _ => None,
        };
        rows.push(ParsedRow {
            value,
            unit: text("unit")?,
            higher_is_better: text("better")? == "higher",
            bound: num("bound"),
            spread,
            name,
        });
    }
    Ok(ParsedDocument {
        subject,
        smoke,
        failed,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        let tricky = "a\"b\\c\nd\te\u{1}f µ";
        assert_eq!(
            json::parse(&string(tricky)).unwrap(),
            Json::Str(tricky.to_string())
        );
        for v in [0.0, 1.5, -2.25e-9, 6_842_858.0, 1.0 / 3.0, 1e12] {
            assert_eq!(json::parse(&number(v)).unwrap(), Json::Num(v));
        }
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let mut doc = Document::new(Kind::Run, Some("queue_sleep_256"), false, 3);
        doc.attempted = 10;
        let times = Summary::of(&[2.0, 2.1, 2.4, 2.2]);
        doc.push("run_s", times.best, Some(times));
        doc.push("sim_cycles", 6_842_858.0, None);
        doc.reps.push(Rep {
            wall_s: 2.0,
            runqueue_wait_s: Some(0.001),
            disturbed: false,
        });
        let parsed = parse_document(&doc.to_json()).unwrap();
        assert_eq!(parsed.subject, "queue_sleep_256");
        assert!(!parsed.smoke);
        assert_eq!(parsed.failed, 0);
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].name, "run_s");
        assert_eq!(parsed.rows[0].value, 2.0);
        assert_eq!(parsed.rows[0].bound, Some(catalog::HOST_TIME_BOUND));
        assert!(!parsed.rows[0].higher_is_better);
        assert!((parsed.rows[0].spread.unwrap() - times.spread()).abs() < 1e-12);
        assert_eq!(parsed.rows[1].spread, None);
        // The driver line is one JSON object with the four contract keys.
        let line = json::parse(&doc.driver_line()).unwrap();
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "driver line lacks {key}");
        }
        let run_s = line.get("metrics").unwrap().get("run_s").unwrap();
        assert_eq!(run_s.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(run_s.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn incomplete_or_non_finite_documents_are_not_correct() {
        let mut doc = Document::new(Kind::Run, Some("busy_loop_256"), false, 1);
        doc.attempted = 1;
        doc.push("run_s", f64::NAN, None);
        let defects = doc.defects();
        assert!(defects
            .iter()
            .any(|d| d.contains("setup_s was not measured")));
        assert!(defects.iter().any(|d| d.contains("run_s is not a finite")));
        assert!(!doc.correct());
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn undeclared_names_cannot_be_emitted() {
        Document::new(Kind::Run, None, false, 1).push("made_up_metric", 1.0, None);
    }
}
