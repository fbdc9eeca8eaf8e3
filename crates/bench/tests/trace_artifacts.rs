//! Trace-subsystem acceptance tests: the exported Perfetto document is
//! valid JSON with per-core tracks, the event stream reconciles exactly
//! with the `SimStats` aggregates of the same run, and attaching a sink
//! never perturbs the measurement.

use lrscwait_bench::Experiment;
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;
use lrscwait_trace::{json, AnalysisSink, PerfettoSink, SharedSink, SyncAnalysis};

const CORES: u32 = 8;

fn traced_histogram(arch: SyncArch) -> (lrscwait_bench::Measurement, SyncAnalysis, String) {
    let cfg = SimConfig::builder()
        .cores(CORES as usize)
        .arch(arch)
        .build()
        .unwrap();
    let kernel = HistogramKernel::new(HistImpl::LrscWait, 2, 8, CORES);
    let perfetto = SharedSink::new(PerfettoSink::new(Vec::new()));
    let m = Experiment::new(&kernel, cfg)
        .traced()
        .sink(Box::new(perfetto.clone()))
        .run()
        .expect("traced run completes");
    let trace_json = perfetto.with(|sink| {
        sink.finish().expect("writing to a Vec cannot fail");
        std::mem::replace(sink, PerfettoSink::new(Vec::new())).into_inner()
    });
    let analysis = m.analysis.clone().expect("traced run carries an analysis");
    (
        m,
        analysis,
        String::from_utf8(trace_json).expect("trace is UTF-8"),
    )
}

/// Acceptance: the generated Perfetto trace parses, has one track per
/// core, and its event counts reconcile with the `SimStats` aggregates —
/// on two different `SyncArch` variants (centralized queue and Colibri).
#[test]
fn perfetto_trace_reconciles_with_sim_stats() {
    for arch in [SyncArch::LrscWaitIdeal, SyncArch::Colibri { queues: 4 }] {
        let (m, report, trace_json) = traced_histogram(arch);

        // Valid JSON with a traceEvents array.
        let doc = json::parse(&trace_json).unwrap_or_else(|e| panic!("{arch}: bad JSON: {e}"));
        let events = doc
            .get("traceEvents")
            .and_then(json::Json::as_arr)
            .unwrap_or_else(|| panic!("{arch}: no traceEvents array"));
        assert!(!events.is_empty(), "{arch}: empty trace");

        // Per-core tracks: a thread_name metadata record for every core.
        for core in 0..CORES {
            assert!(
                events.iter().any(|e| {
                    e.get("name").and_then(json::Json::as_str) == Some("thread_name")
                        && e.get("tid").and_then(json::Json::as_f64) == Some(f64::from(core))
                }),
                "{arch}: no track for core {core}"
            );
        }

        // Duration spans are balanced per track.
        let count_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count_ph("B"), count_ph("E"), "{arch}: unbalanced spans");
        assert!(count_ph("C") > 0, "{arch}: no counter events");

        // Event counts reconcile exactly with the aggregate statistics.
        let a = &m.stats.adapters;
        let c = &report.counters;
        assert_eq!(c.wait_enqueued, a.wait_enqueued, "{arch}: wait_enqueued");
        assert_eq!(c.wait_failfast, a.wait_failfast, "{arch}: wait_failfast");
        assert_eq!(c.sc_success, a.sc_success, "{arch}: sc_success");
        assert_eq!(c.sc_failure, a.sc_failure, "{arch}: sc_failure");
        assert_eq!(c.scwait_success, a.scwait_success, "{arch}: scwait_success");
        assert_eq!(c.scwait_failure, a.scwait_failure, "{arch}: scwait_failure");
        assert_eq!(
            c.successor_updates, a.successor_updates,
            "{arch}: successor_updates"
        );
        assert_eq!(c.wakeups, a.wakeups, "{arch}: wakeups");
        assert_eq!(
            c.reservations_broken, a.reservations_broken,
            "{arch}: reservations_broken"
        );

        // Handoff identity: every enqueued waiter was served (the run
        // completed, the kernel retries only on fail-fast), and every
        // handoff produced a measured latency sample.
        assert_eq!(c.wait_served, c.wait_enqueued, "{arch}: served == enqueued");
        assert_eq!(
            report.handoff.count, c.handoffs,
            "{arch}: every handoff measured"
        );
        assert!(c.handoffs > 0, "{arch}: contended run must hand off");
        assert!(
            report.handoff.p50 <= report.handoff.p99 && report.handoff.p99 <= report.handoff.max,
            "{arch}: ordered percentiles {:?}",
            report.handoff
        );
        assert!(report.occupancy.max > 0, "{arch}: queue was occupied");
    }
}

/// Colibri's handoff travels bank → predecessor Qnode → bank → successor
/// (two extra network traversals); the centralized queue serves the
/// successor in the releasing cycle. The measured latency distributions
/// must show that protocol difference.
#[test]
fn colibri_handoff_latency_exceeds_centralized() {
    let (_, ideal, _) = traced_histogram(SyncArch::LrscWaitIdeal);
    let (_, colibri, _) = traced_histogram(SyncArch::Colibri { queues: 4 });
    assert!(
        colibri.handoff.p50 > ideal.handoff.p50,
        "colibri p50 {} must exceed centralized p50 {}",
        colibri.handoff.p50,
        ideal.handoff.p50
    );
}

/// Attaching a sink never changes the measurement: cycles, statistics
/// and CSV bytes are identical to an untraced run — also when the sink's
/// writer runs out of room mid-run (the error waits for `finish`).
#[test]
fn tracing_does_not_perturb_results() {
    for arch in [SyncArch::LrscWaitIdeal, SyncArch::Colibri { queues: 4 }] {
        let cfg = SimConfig::builder()
            .cores(CORES as usize)
            .arch(arch)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::LrscWait, 2, 8, CORES);
        let plain = Experiment::new(&kernel, cfg).x(2).run().unwrap();
        let sink = SharedSink::new(AnalysisSink::new());
        let traced = Experiment::new(&kernel, cfg)
            .x(2)
            .sink(Box::new(sink.clone()))
            .run()
            .unwrap();
        let full = SharedSink::new(PerfettoSink::new(std::io::Cursor::new([0u8; 512])));
        let failing = Experiment::new(&kernel, cfg)
            .x(2)
            .sink(Box::new(full.clone()))
            .run()
            .unwrap();
        assert!(full.with(PerfettoSink::finish).is_err(), "{arch}");
        for traced in [traced, failing] {
            assert_eq!(plain.cycles, traced.cycles, "{arch}");
            assert_eq!(plain.stats, traced.stats, "{arch}");
            assert_eq!(plain.csv_row(), traced.csv_row(), "{arch}");
        }
    }
}

/// The `traced()` convenience carries the analysis, and a file-backed
/// `PerfettoSink` handed in through `sink()` — the path the `trace`
/// binary takes — closes into a valid document whose event count
/// `finish` reports.
#[test]
fn experiment_conveniences() {
    let arch = SyncArch::Colibri { queues: 4 };
    let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
    let kernel = HistogramKernel::new(HistImpl::LrscWait, 2, 4, 4);
    let m = Experiment::new(&kernel, cfg).traced().run().unwrap();
    let report = m.analysis.as_ref().expect("traced run carries an analysis");
    assert_eq!(
        report.counters.scwait_success,
        m.stats.adapters.scwait_success
    );
    assert!(report.counters.wait_enqueued > 0);

    let dir = std::env::temp_dir().join(format!("lrscwait-trace-{}", std::process::id()));
    let path = dir.join("convenience.json");
    let perfetto = SharedSink::new(PerfettoSink::create(&path).unwrap());
    let m2 = Experiment::new(&kernel, cfg)
        .sink(Box::new(perfetto.clone()))
        .run()
        .unwrap();
    let event_count = perfetto.with(PerfettoSink::finish).unwrap();
    assert_eq!(m.cycles, m2.cycles, "tracing kind must not change results");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = json::parse(&text).expect("the streamed trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(json::Json::as_arr).unwrap();
    assert!(event_count > 0);
    assert_eq!(events.len() as u64, event_count);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The LRSC baseline shows the *other* side of the paper's story: no
/// queue activity at all, retries surfacing as SC failures.
#[test]
fn lrsc_baseline_traces_retries_not_waits() {
    let cfg = SimConfig::builder()
        .cores(CORES as usize)
        .arch(SyncArch::Lrsc)
        .build()
        .unwrap();
    let kernel = HistogramKernel::new(HistImpl::Lrsc, 2, 8, CORES);
    let m = Experiment::new(&kernel, cfg).traced().run().unwrap();
    let report = m.analysis.as_ref().expect("traced run carries an analysis");
    assert_eq!(report.counters.wait_enqueued, 0);
    assert_eq!(report.handoff.count, 0);
    assert_eq!(report.counters.sc_failure, m.stats.adapters.sc_failure);
    assert!(
        report.counters.sc_failure > 0,
        "8 cores on 2 bins must collide"
    );
}
