//! The figures' command line, run in-process through the entry point `fig`
//! itself calls. What the figures write is pinned by the root package's
//! `tests/pins.rs`.

use lrscwait_bench::{figure_listing, flag_listing, run_figure, BenchError, FIGURES};

fn fig(argv: &[&str]) -> Result<(), BenchError> {
    run_figure(argv.iter().map(ToString::to_string))
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
