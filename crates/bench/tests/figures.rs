//! The figures, run in-process through the entry point `fig` itself calls.

use std::path::Path;

use lrscwait_bench::{figure_listing, flag_listing, run_figure, BenchError, FIGURES};

fn fig(argv: &[&str]) -> Result<(), BenchError> {
    run_figure(argv.iter().map(ToString::to_string))
}

/// `<dir>/<name>.csv` must equal the committed `--quick` baseline, byte
/// for byte.
fn assert_baseline(dir: &Path, name: &str) {
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baseline")
        .join(format!("{name}.quick.csv"));
    let got = std::fs::read(dir.join(format!("{name}.csv"))).unwrap();
    assert!(
        got == std::fs::read(&baseline).unwrap(),
        "{name} --quick differs from {}",
        baseline.display()
    );
}

#[test]
fn quick_figures_reproduce_the_committed_baselines() {
    let dir = std::env::temp_dir().join(format!("lrscwait-figures-{}", std::process::id()));
    for name in [
        "table1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "table2",
        "ablation",
        "fig_barriers",
        "fig_latency",
        "fig_rcu",
    ] {
        fig(&[name, "--quick", "--out", dir.to_str().unwrap()]).unwrap();
        assert_baseline(&dir, name);
    }
    // The oracle stepper reproduces the figure byte for byte.
    let oracle = dir.join("reference");
    let out = oracle.to_str().unwrap();
    fig(&["fig3", "--quick", "--exec", "reference", "--out", out]).unwrap();
    assert_baseline(&oracle, "fig3");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_are_usage_errors_before_anything_runs() {
    let usage = |argv: &[&str]| match fig(argv) {
        Err(BenchError::Usage(msg)) => msg,
        other => panic!("{argv:?}: expected a usage error, got {other:?}"),
    };
    // No name or an unknown one: the figure listing, with a guess.
    assert!(usage(&[]).contains(&figure_listing()));
    let msg = usage(&["fig7"]);
    assert!(msg.contains("unknown figure `fig7`"), "{msg}");
    assert!(msg.contains("did you mean `fig"), "{msg}");
    assert!(msg.contains(&figure_listing()), "{msg}");
    for (name, artifact, ..) in FIGURES {
        assert!(msg.contains(name) && msg.contains(artifact), "{msg}");
    }
    // An unknown flag: the flag listing.
    let msg = usage(&["fig4", "--bogus"]);
    assert!(msg.contains("unknown flag `--bogus`"), "{msg}");
    assert!(msg.contains(&flag_listing()), "{msg}");
    // A flag the figure cannot honour names both, and nothing is written.
    let dir = std::env::temp_dir().join(format!("lrscwait-refused-{}", std::process::id()));
    let out = dir.to_str().unwrap();
    let msg = usage(&["fig_latency", "--quick", "--out", out, "--trace"]);
    assert!(
        msg.contains("`fig_latency` cannot honour `--trace`"),
        "{msg}"
    );
    let msg = usage(&["table1", "--out", out, "--profile"]);
    assert!(msg.contains("`table1` cannot honour `--profile`"), "{msg}");
    assert!(!dir.exists(), "a refused invocation must not start");
    // `--help` in either position is not an error of usage.
    assert!(matches!(fig(&["--help"]), Err(BenchError::Help)));
    assert!(matches!(fig(&["fig4", "-h"]), Err(BenchError::Help)));
}
