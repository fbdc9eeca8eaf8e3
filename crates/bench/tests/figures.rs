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

/// FNV-1a-64 of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

/// `(point, byte length, FNV-1a)` of every `fig_barriers --quick` heatmap,
/// `fig_barriers.heatmap.<point>.csv`.
const HEATMAP_PINS: [(&str, usize, u64); 10] = [
    ("central-lrsc_lrsc_c64", 2477, 0x9e78_9b74_1613_7b3a),
    ("central-lrsc_lrsc_c256", 9262, 0x9642_fcc4_668a_2ad5),
    ("central-lrscwait_lrsc_c64", 2481, 0xd0f3_e9c8_b977_6aed),
    ("central-lrscwait_lrsc_c256", 9247, 0x9a08_8c40_809e_7ca0),
    ("central-lrscwait_colibri4_c64", 2410, 0xbfe4_8128_5330_ce89),
    (
        "central-lrscwait_colibri4_c256",
        8948,
        0xd9e2_dc2c_9d3c_bbd5,
    ),
    ("tree2_lrsc_c64", 3549, 0xe548_0d47_e14c_de1c),
    ("tree2_lrsc_c256", 14215, 0x2da2_8a26_b8e8_01bf),
    ("hw_lrsc_c64", 2243, 0xf787_5a93_8f70_a5fb),
    ("hw_lrsc_c256", 8735, 0x4dfe_604f_0ac1_de89),
];

/// The `fig_barriers` heatmaps in `dir` are exactly the pinned ten.
fn assert_heatmap_pins(dir: &Path) {
    let mut written: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("fig_barriers.heatmap."))
        .collect();
    written.sort();
    let mut pinned: Vec<String> = HEATMAP_PINS
        .iter()
        .map(|(point, ..)| format!("fig_barriers.heatmap.{point}.csv"))
        .collect();
    pinned.sort();
    assert_eq!(written, pinned, "fig_barriers heatmap files");
    for (point, len, digest) in HEATMAP_PINS {
        let bytes = std::fs::read(dir.join(format!("fig_barriers.heatmap.{point}.csv"))).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, digest),
            "fig_barriers heatmap {point}: (byte length, FNV-1a)"
        );
    }
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
    assert_heatmap_pins(&dir);
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
