//! The metric catalog: every name the ledger may print, with its unit, its
//! better direction and — for end-to-end metrics — its regression bound.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a unit
//! test holds the two together. A per-layer name carries no workload suffix:
//! one invocation measures one workload, and the result file records which.

use lrscwait_core::SyncArch;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` and the result files use.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the base value by which the metric may worsen before
    /// `ledger diff` reports a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// Bound of the host-time metrics, `setup_s` included. The largest a bound
/// may be, because the sandbox demands it: the same binary's best-of-9
/// `run_s` spreads 2–10 % (quartile distance over median) between
/// back-to-back invocations, as the host slows by up to half for tens of
/// seconds at a time without reporting steal time or run-queue wait.
pub const HOST_TIME_BOUND: f64 = 0.25;
/// Bound of the memory metric (its spread between invocations is 1–2 %).
pub const MEMORY_BOUND: f64 = 0.10;
/// Bound of the simulated statistics. They are deterministic, so any
/// difference is a change of the modelled design and `ledger diff` flags it
/// whatever its size. The declared share is positive only because a bound
/// must be; at one part in a billion, a single cycle on the longest workload
/// (6.8 M cycles) exceeds it a hundredfold.
pub const EXACT_BOUND: f64 = 1e-9;

/// Synchronisation architectures the `core` probes cover, each with its
/// metric-name segment.
pub const ARCHS: [(&str, SyncArch); 3] = [
    ("lrsc", SyncArch::Lrsc),
    ("lrscwait_ideal", SyncArch::LrscWaitIdeal),
    ("colibri4", SyncArch::Colibri { queues: 4 }),
];
/// Contention depths of the `core` chain probes.
pub const CHAIN_DEPTHS: [usize; 3] = [1, 16, 256];
/// Phases of `Machine::profile()` reported by name; the rest is `other`.
pub const PROFILE_PHASES: [&str; 5] = [
    "req_net_advance",
    "bank_service",
    "resp_net_advance",
    "resp_delivery",
    "core_step",
];
/// Span names of the traced run, outermost first.
pub const SPAN_NAMES: [&str; 9] = [
    "kernels.program",
    "sim.decode",
    "sim.build",
    "kernels.init",
    "sim.run",
    "sim.stats",
    "kernels.verify",
    "sim.snapshot",
    "sim.restore",
];

fn decl(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, printed by `ledger run` (`--trace 0`).
pub fn end_to_end() -> Vec<Decl> {
    use Better::{Higher, Lower};
    vec![
        decl("run_s", "s", Lower, Some(HOST_TIME_BOUND)),
        decl(
            "sim_mcycles_per_s",
            "Mcycles/s",
            Higher,
            Some(HOST_TIME_BOUND),
        ),
        decl("guest_mips", "Minstr/s", Higher, Some(HOST_TIME_BOUND)),
        decl("setup_s", "s", Lower, Some(HOST_TIME_BOUND)),
        decl("peak_rss_mib", "MiB", Lower, Some(MEMORY_BOUND)),
        decl("sim_cycles", "cycles", Lower, Some(EXACT_BOUND)),
        decl(
            "guest_ops_per_kcycle",
            "ops/kcycle",
            Higher,
            Some(EXACT_BOUND),
        ),
    ]
}

/// The per-layer metrics, printed by `ledger trace` (`--trace 1`).
pub fn per_layer() -> Vec<Decl> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(decl(name, unit, better, None));
    for (name, unit) in [
        ("kernels.program_us", "us"),
        ("asm.assemble_ns_per_instr", "ns"),
        ("isa.decode_ns_per_word", "ns"),
        ("isa.uop_lower_ns_per_instr", "ns"),
        ("sim.decode_program_ns_per_instr", "ns"),
        ("sim.translate.build_ns_per_instr", "ns"),
        ("sim.machine.build_us.c256", "us"),
        ("sim.machine.build_us.c1024", "us"),
        ("sim.machine.rss_mib.c1024", "MiB"),
        ("sim.cpu.execute_ns_per_instr.alu", "ns"),
        ("sim.cpu.execute_ns_per_instr.branchy", "ns"),
    ] {
        add(name.to_string(), unit, Lower);
    }
    for (arch, _) in ARCHS {
        for op in ["amo", "lrsc_pair", "wait_pair"] {
            add(format!("core.{arch}.handle_ns.{op}"), "ns", Lower);
        }
        for depth in CHAIN_DEPTHS {
            add(
                format!("core.{arch}.chain_ns_per_req.d{depth}"),
                "ns",
                Lower,
            );
        }
    }
    add("core.colibri4.msgs_per_handoff".to_string(), "count", Lower);
    for geometry in ["c256", "c1024"] {
        for pattern in ["uniform", "hotspot"] {
            add(
                format!("noc.advance_ns_per_hop.{geometry}.{pattern}"),
                "ns",
                Lower,
            );
        }
        add(format!("noc.idle_advance_ns.{geometry}"), "ns", Lower);
        add(
            format!("noc.hol_block_per_hop.{geometry}.hotspot"),
            "ratio",
            Lower,
        );
    }
    add("noc.try_send_ns.c256".to_string(), "ns", Lower);
    for name in ["sim.count.instr", "sim.count.requests", "sim.count.hops"] {
        add(name.to_string(), "count", Lower);
    }
    add("sim.share.sleep".to_string(), "share", Higher);
    add("core.sc_success_share".to_string(), "share", Higher);
    add("sim.machine.snapshot_mb_per_s".to_string(), "MB/s", Higher);
    add("sim.machine.restore_mb_per_s".to_string(), "MB/s", Higher);
    add("sim.machine.snapshot_mib".to_string(), "MiB", Lower);
    add("trace.sink_overhead_ratio".to_string(), "ratio", Lower);
    add("trace.events".to_string(), "count", Lower);
    add("trace.emit_ns_per_event".to_string(), "ns", Lower);
    add(
        "telemetry.profiler_overhead_ratio".to_string(),
        "ratio",
        Lower,
    );
    for phase in PROFILE_PHASES.into_iter().chain(["other"]) {
        add(format!("telemetry.phase_share.{phase}"), "share", Lower);
    }
    for layer in ["core", "adapter", "noc"] {
        add(format!("model.share.{layer}"), "share", Lower);
    }
    add("model.residual_share".to_string(), "share", Lower);
    add("ledger.trace_overhead_ratio".to_string(), "ratio", Lower);
    add("ledger.base_run_spread".to_string(), "ratio", Lower);
    for span in SPAN_NAMES {
        add(format!("ledger.span_self_ms.{span}"), "ms", Lower);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_trace::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(d.unit.len() <= 16, "unit of {} too long", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
    }

    /// The repository root: where `BENCHMARK.json` sits, above whichever
    /// manifest (root package or the ledger's own) built this test.
    fn repo_root() -> std::path::PathBuf {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
        dir
    }

    fn benchmark_json() -> Json {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("readable BENCHMARK.json");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// The benchmark driver builds the ledger through the manifest in this
    /// directory, tier-1 through the root one. Profiles are not inherited
    /// across that boundary, so the ledger's manifest repeats the root's
    /// `[profile.release]` and this test fails when the two drift apart: a
    /// later change to the root profile has to be mirrored, and then shows
    /// in the benchmark like any other change.
    #[test]
    fn both_manifests_build_with_the_same_release_profile() {
        let release_profile = |manifest: &str| -> Vec<String> {
            let path = repo_root().join(manifest);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            text.lines()
                .map(str::trim)
                .skip_while(|line| *line != "[profile.release]")
                .skip(1)
                .take_while(|line| !line.starts_with('['))
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = release_profile("Cargo.toml");
        assert!(!root.is_empty(), "the root manifest sets a release profile");
        assert_eq!(root, release_profile("src/bin/ledger/Cargo.toml"));
    }

    fn declared(doc: &Json, key: &str) -> Vec<Decl> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k| m.get(k).and_then(Json::as_str).expect("string field");
                let name = text("name");
                let ours = end_to_end()
                    .into_iter()
                    .chain(per_layer())
                    .find(|d| d.name == name)
                    .unwrap_or_else(|| panic!("{name} is not in the catalog"));
                assert_eq!(text("unit"), ours.unit, "unit of {name}");
                assert_eq!(text("better"), ours.better.word(), "direction of {name}");
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    ours.bound,
                    "bound of {name}"
                );
                ours
            })
            .collect()
    }

    #[test]
    fn catalog_equals_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), end_to_end());
        assert_eq!(declared(&doc, "per_layer"), per_layer());
        let listed: Vec<(Option<&str>, Option<&str>)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                let text = |k| w.get(k).and_then(Json::as_str);
                (text("name"), text("why"))
            })
            .collect();
        let gated: Vec<(Option<&str>, Option<&str>)> = crate::workloads::ALL
            .iter()
            .filter(|w| w.gated)
            .map(|w| (Some(w.name), Some(w.why)))
            .collect();
        assert_eq!(listed, gated);
    }
}
