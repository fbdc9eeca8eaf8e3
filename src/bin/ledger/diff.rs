//! `ledger diff A B`: compares two result files (or two directories of
//! them) metric by metric and judges each end-to-end row against the bound
//! the benchmark fixed for it.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::catalog::EXACT_BOUND;
use crate::report::{parse_document, ParsedDocument, ParsedRow};

/// The judgement of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound and the spread.
    Improved,
    /// No worse and no better than the bound.
    WithinBound,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The repetitions of either side spread wider than the bound, so a
    /// change within it can be neither shown nor ruled out.
    Unresolved,
    /// A per-layer row: reported, never judged (it has no bound).
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        })
    }
}

/// Relative change of `new` against `base` (positive = larger) and its
/// verdict. A gain smaller than the bound or the spread is never called an
/// improvement. A simulated statistic (bound [`EXACT_BOUND`]) is compared
/// exactly: any difference at all is flagged, in the direction it went.
pub fn judge(base: &ParsedRow, new: &ParsedRow) -> (f64, Verdict) {
    let change = if base.value == new.value {
        0.0
    } else {
        (new.value - base.value) / base.value.abs()
    };
    let Some(bound) = base.bound else {
        return (change, Verdict::Info);
    };
    let bound = if bound <= EXACT_BOUND { 0.0 } else { bound };
    let worse = if base.higher_is_better {
        -change
    } else {
        change
    };
    let spread = base.spread.unwrap_or(0.0).max(new.spread.unwrap_or(0.0));
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (change, verdict)
}

fn load(path: &Path) -> Result<ParsedDocument, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_document(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.smoke {
        return Err(format!(
            "{}: a --smoke result is not a measurement and cannot be compared",
            path.display()
        ));
    }
    Ok(doc)
}

/// The file pairs to compare: the two files themselves, or every `*.json`
/// name present in both directories.
fn pairs(a: &Path, b: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if !a.is_dir() && !b.is_dir() {
        return Ok(vec![(a.to_path_buf(), b.to_path_buf())]);
    }
    if !(a.is_dir() && b.is_dir()) {
        return Err("compare two files or two directories, not one of each".into());
    }
    let mut names: Vec<_> = std::fs::read_dir(a)
        .map_err(|e| format!("{}: {e}", a.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.file_name())
        .filter(|name| Path::new(name).extension().is_some_and(|e| e == "json"))
        .filter(|name| b.join(name).is_file())
        .collect();
    names.sort();
    if names.is_empty() {
        return Err("the two directories share no result file".into());
    }
    Ok(names.iter().map(|n| (a.join(n), b.join(n))).collect())
}

/// Prints the comparison and returns whether it found a regression: a
/// `regressed` end-to-end row, or more gate misses on the new side.
///
/// # Errors
///
/// Returns a message when a file cannot be read, is not a ledger result,
/// or is a `--smoke` result.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let mut regression = false;
    println!("workload metric base new unit change verdict");
    for (path_a, path_b) in pairs(a, b)? {
        let (base, new) = (load(&path_a)?, load(&path_b)?);
        if base.subject != new.subject {
            return Err(format!(
                "{} measures {} but {} measures {}",
                path_a.display(),
                base.subject,
                path_b.display(),
                new.subject
            ));
        }
        if new.failed > base.failed {
            println!(
                "{} failed {} {} runs - regressed",
                base.subject, base.failed, new.failed
            );
            regression = true;
        }
        for row in &base.rows {
            let Some(other) = new.rows.iter().find(|r| r.name == row.name) else {
                println!(
                    "{} {} {} - {} - missing",
                    base.subject, row.name, row.value, row.unit
                );
                continue;
            };
            let (change, verdict) = judge(row, other);
            regression |= verdict == Verdict::Regressed;
            println!(
                "{} {} {} {} {} {:+.2}% {verdict}",
                base.subject,
                row.name,
                row.value,
                other.value,
                row.unit,
                change * 100.0
            );
        }
    }
    Ok(regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, higher: bool, bound: Option<f64>, spread: Option<f64>) -> ParsedRow {
        ParsedRow {
            name: "m".into(),
            value,
            unit: "s".into(),
            higher_is_better: higher,
            bound,
            spread,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let b = Some(0.10);
        let verdict = |base, new| judge(&base, &new).1;
        // Lower is better: +15 % is a regression, -15 % an improvement.
        assert_eq!(
            verdict(row(2.0, false, b, None), row(2.3, false, b, None)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(row(2.0, false, b, None), row(1.7, false, b, None)),
            Verdict::Improved
        );
        // A 5 % gain is smaller than the bound: never printed as a speed-up.
        assert_eq!(
            verdict(row(2.0, false, b, None), row(1.9, false, b, None)),
            Verdict::WithinBound
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(row(100.0, true, b, None), row(80.0, true, b, None)),
            Verdict::Regressed
        );
        // Either side's repetitions spread wider than the bound: unresolved,
        // unless the change is itself a regression.
        assert_eq!(
            verdict(
                row(2.0, false, b, Some(0.2)),
                row(1.7, false, b, Some(0.01))
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(row(2.0, false, b, Some(0.2)), row(2.5, false, b, None)),
            Verdict::Regressed
        );
        // Exact metrics: identical is within bound; one cycle either way
        // is flagged, on the shortest workload and on the longest.
        let exact = Some(EXACT_BOUND);
        for cycles in [196_541.0, 6_842_858.0] {
            let cycles_row = |value| row(value, false, exact, None);
            assert_eq!(
                verdict(cycles_row(cycles), cycles_row(cycles)),
                Verdict::WithinBound
            );
            assert_eq!(
                verdict(cycles_row(cycles), cycles_row(cycles + 1.0)),
                Verdict::Regressed
            );
            assert_eq!(
                verdict(cycles_row(cycles), cycles_row(cycles - 1.0)),
                Verdict::Improved
            );
            // The driver applies the declared share itself: it too must
            // resolve one cycle.
            assert!(1.0 / cycles > EXACT_BOUND);
        }
        // Per-layer rows carry no bound and are never judged.
        assert_eq!(
            verdict(row(5.0, false, None, None), row(50.0, false, None, None)),
            Verdict::Info
        );
    }
}
