//! Perfetto / Chrome `about:tracing` JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by <https://ui.perfetto.dev>
//! and `chrome://tracing`: one thread track per core carrying sleep,
//! barrier and measured-region duration spans plus instants for SC
//! failures and Colibri hand-off messages, and process-level counter
//! tracks for the two quantities the paper's argument hinges on — how
//! many cores are waiting inside a hardware queue (`wait_queue_depth`)
//! and how many are runnable (`runnable_cores`).
//!
//! [`PerfettoSink`] writes each trace object to its `io::Write` the moment
//! the event that produced it is recorded, so host memory stays constant
//! however long the run — a 1024-core, multi-million-cycle trace never
//! accumulates in the host heap. [`PerfettoSink::create`] streams to a
//! buffered file; tests hand [`PerfettoSink::new`] a `Vec<u8>` and read it
//! back with [`into_inner`](PerfettoSink::into_inner).
//!
//! Timestamps are simulated cycles, written to the `ts` field one
//! microsecond per cycle (the viewer's time ruler then reads directly in
//! cycles).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;

use lrscwait_core::SyncEvent;

use crate::{OpKind, TraceEvent, TraceSink};

/// The single simulated process all tracks live under.
const PID: u32 = 1;

/// The event → trace-object translation: span bookkeeping, counter state
/// and the JSON rendering.
#[derive(Debug, Default)]
struct PerfettoModel {
    /// Per-core stack of open duration spans (names of pending `"B"`s).
    open: Vec<Vec<&'static str>>,
    /// Cores runnable right now (seeded from [`TraceEvent::Start`]).
    runnable: i64,
    /// Cores currently enqueued in some reservation queue.
    wait_depth: i64,
    /// Latest cycle seen (dangling spans close here on finish).
    last_cycle: u64,
}

impl PerfettoModel {
    /// Translates one simulator event into zero or more serialized trace
    /// objects, handed to `out` in order.
    fn record(&mut self, cycle: u64, event: TraceEvent, out: &mut dyn FnMut(String)) {
        match event {
            TraceEvent::Start { cores, .. } => {
                self.open = vec![Vec::new(); cores as usize];
                self.runnable = i64::from(cores);
                out(meta_json(0, "process_name", "lrscwait machine"));
                for core in 0..cores {
                    let name = format!("core {core}");
                    out(meta_json(core, "thread_name", &name));
                }
                out(counter_json(
                    cycle,
                    "runnable_cores",
                    "runnable",
                    i64::from(cores),
                ));
                out(counter_json(cycle, "wait_queue_depth", "waiting", 0));
            }
            TraceEvent::Park { core, cause } => {
                self.span_begin(cycle, core, "sleep", cause.label(), out);
                self.runnable_delta(cycle, -1, out);
            }
            TraceEvent::Wake { core, .. } => {
                self.span_end(cycle, core, out);
                self.runnable_delta(cycle, 1, out);
            }
            TraceEvent::BarrierArrive { core } => {
                self.span_begin(cycle, core, "barrier", "", out);
                self.runnable_delta(cycle, -1, out);
            }
            TraceEvent::BarrierRelease { .. } => {}
            TraceEvent::RegionEnter { core } => {
                self.span_begin(cycle, core, "region", "", out);
            }
            TraceEvent::RegionExit { core } => {
                self.span_end(cycle, core, out);
            }
            TraceEvent::Halt { core } => {
                while self
                    .open
                    .get(core as usize)
                    .is_some_and(|stack| !stack.is_empty())
                {
                    self.span_end(cycle, core, out);
                }
                out(instant_json(cycle, core, "halt"));
                self.runnable_delta(cycle, -1, out);
            }
            TraceEvent::Sync { event, .. } => match event {
                SyncEvent::WaitEnqueued { .. } => self.depth_delta(cycle, 1, out),
                SyncEvent::WaitServed { .. } => self.depth_delta(cycle, -1, out),
                SyncEvent::WaitFailFast { core, .. } => {
                    out(instant_json(cycle, core, "wait.failfast"));
                }
                SyncEvent::ScResult {
                    core,
                    success: false,
                    wait,
                    ..
                } => {
                    out(instant_json(
                        cycle,
                        core,
                        if wait { "scwait.fail" } else { "sc.fail" },
                    ));
                }
                SyncEvent::ScResult { .. } => {}
                SyncEvent::SuccessorUpdate { predecessor, .. } => {
                    out(instant_json(cycle, predecessor, "succ.update"));
                }
                SyncEvent::WakeupPromoted { successor, .. } => {
                    out(instant_json(cycle, successor, "promoted"));
                }
                SyncEvent::ReservationBroken { .. } => {}
            },
            TraceEvent::ReqSent { core, kind, .. } => {
                if kind == OpKind::WakeUp {
                    out(instant_json(cycle, core, "wakeup.sent"));
                }
            }
            // Host-injected stores have no core-track home; the Sync events
            // they provoke are rendered like any other adapter activity.
            TraceEvent::Inject { .. } => {}
        }
    }

    fn span_begin(
        &mut self,
        cycle: u64,
        core: u32,
        name: &'static str,
        arg: &str,
        out: &mut dyn FnMut(String),
    ) {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            r#"{{"ph":"B","pid":{PID},"tid":{core},"ts":{cycle},"name":"{name}""#
        );
        if !arg.is_empty() {
            let _ = write!(s, r#","args":{{"what":"{arg}"}}"#);
        }
        s.push('}');
        out(s);
        if let Some(stack) = self.open.get_mut(core as usize) {
            stack.push(name);
        }
    }

    fn span_end(&mut self, cycle: u64, core: u32, out: &mut dyn FnMut(String)) {
        if let Some(name) = self
            .open
            .get_mut(core as usize)
            .and_then(std::vec::Vec::pop)
        {
            out(format!(
                r#"{{"ph":"E","pid":{PID},"tid":{core},"ts":{cycle},"name":"{name}"}}"#
            ));
        }
    }

    fn runnable_delta(&mut self, cycle: u64, delta: i64, out: &mut dyn FnMut(String)) {
        self.runnable += delta;
        out(counter_json(
            cycle,
            "runnable_cores",
            "runnable",
            self.runnable,
        ));
    }

    fn depth_delta(&mut self, cycle: u64, delta: i64, out: &mut dyn FnMut(String)) {
        self.wait_depth += delta;
        out(counter_json(
            cycle,
            "wait_queue_depth",
            "waiting",
            self.wait_depth,
        ));
    }

    /// Serialized closers for spans still open at the end of the run
    /// (cores still parked), so every `"B"` has its `"E"`.
    fn closers(&self, out: &mut dyn FnMut(String)) {
        for (core, stack) in self.open.iter().enumerate() {
            for name in stack.iter().rev() {
                out(format!(
                    r#"{{"ph":"E","pid":{PID},"tid":{core},"ts":{},"name":"{name}"}}"#,
                    self.last_cycle
                ));
            }
        }
    }
}

fn meta_json(tid: u32, what: &str, name: &str) -> String {
    format!(r#"{{"ph":"M","pid":{PID},"tid":{tid},"name":"{what}","args":{{"name":"{name}"}}}}"#)
}

fn instant_json(cycle: u64, core: u32, name: &str) -> String {
    format!(r#"{{"ph":"i","pid":{PID},"tid":{core},"ts":{cycle},"name":"{name}","s":"t"}}"#)
}

fn counter_json(cycle: u64, name: &str, key: &str, value: i64) -> String {
    format!(r#"{{"ph":"C","pid":{PID},"ts":{cycle},"name":"{name}","args":{{"{key}":{value}}}}}"#)
}

const HEADER: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
const FOOTER: &str = "\n]}\n";

/// Perfetto JSON exporter over any [`io::Write`] (see the module docs).
///
/// I/O errors during recording are *deferred*: the sink goes quiet and
/// [`finish`](PerfettoSink::finish) reports the first error, so the
/// simulation itself is never perturbed mid-run (tracing observes, it
/// never steers — not even on a full disk).
///
/// ```no_run
/// use lrscwait_trace::{PerfettoSink, TraceEvent, TraceSink};
///
/// # fn main() -> std::io::Result<()> {
/// let mut sink = PerfettoSink::create("results/run.perfetto.json")?;
/// sink.record(0, TraceEvent::Start { cores: 4, banks: 16 });
/// sink.record(9, TraceEvent::Halt { core: 0 });
/// let events_written = sink.finish()?;
/// assert!(events_written > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PerfettoSink<W: io::Write> {
    model: PerfettoModel,
    out: W,
    written: u64,
    finished: bool,
    error: Option<io::Error>,
    /// Reusable staging buffer for one event's serialized objects (the
    /// model's callback cannot borrow the writer while the model is
    /// borrowed); capacity is retained across events.
    pending: Vec<String>,
}

impl PerfettoSink<BufWriter<File>> {
    /// Creates (truncating) the output file — parent directories included
    /// — behind a [`BufWriter`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or file cannot
    /// be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<PerfettoSink<BufWriter<File>>> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(PerfettoSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: io::Write> PerfettoSink<W> {
    /// Starts a document on `out` (the header is the first deferred
    /// write).
    pub fn new(mut out: W) -> PerfettoSink<W> {
        let error = out.write_all(HEADER.as_bytes()).err();
        PerfettoSink {
            model: PerfettoModel::default(),
            out,
            written: 0,
            finished: false,
            error,
            pending: Vec::new(),
        }
    }

    fn write_one(&mut self, s: &str) {
        if self.error.is_some() || self.finished {
            return;
        }
        let sep: &[u8] = if self.written == 0 { b"\n" } else { b",\n" };
        let result = self
            .out
            .write_all(sep)
            .and_then(|()| self.out.write_all(s.as_bytes()));
        match result {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Closes dangling duration spans (cores still parked when the run
    /// ended) at the last recorded cycle so every `"B"` has its `"E"`,
    /// writes the document footer and flushes, returning the number of
    /// event objects written. Idempotent: later calls (and later
    /// `record`s) are no-ops, so the sink can live inside a shared handle
    /// whose other clone already finished it.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered — during recording or
    /// while finishing.
    pub fn finish(&mut self) -> io::Result<u64> {
        if self.finished {
            return Ok(self.written);
        }
        let mut closers = Vec::new();
        self.model.closers(&mut |s| closers.push(s));
        for closer in &closers {
            self.write_one(closer);
        }
        self.finished = true;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.write_all(FOOTER.as_bytes())?;
        self.out.flush()?;
        Ok(self.written)
    }

    /// The underlying writer (call [`finish`](PerfettoSink::finish)
    /// first for a complete document).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: io::Write> TraceSink for PerfettoSink<W> {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.model.last_cycle = self.model.last_cycle.max(cycle);
        // Stage through the reusable buffer (the model's callback cannot
        // borrow the writer while the model is borrowed); events produce
        // at most a handful of objects and the buffer's capacity is
        // retained, so this adds no per-event allocation.
        let mut pending = std::mem::take(&mut self.pending);
        self.model.record(cycle, event, &mut |s| pending.push(s));
        for s in &pending {
            self.write_one(s);
        }
        pending.clear();
        self.pending = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, WakeCause};

    /// Streams `stream` into a `Vec<u8>`-backed sink and returns the
    /// finished document.
    fn render(stream: &[(u64, TraceEvent)]) -> String {
        let mut sink = PerfettoSink::new(Vec::new());
        for &(cycle, event) in stream {
            sink.record(cycle, event);
        }
        sink.finish().expect("writing to a Vec cannot fail");
        String::from_utf8(sink.into_inner()).expect("trace is UTF-8")
    }

    fn sample_stream() -> Vec<(u64, TraceEvent)> {
        vec![
            (0, TraceEvent::Start { cores: 2, banks: 4 }),
            (
                3,
                TraceEvent::Park {
                    core: 0,
                    cause: OpKind::LrWait,
                },
            ),
            (
                9,
                TraceEvent::Wake {
                    core: 0,
                    cause: WakeCause::Response(OpKind::LrWait),
                },
            ),
            (11, TraceEvent::BarrierArrive { core: 1 }),
            (12, TraceEvent::Halt { core: 0 }),
            (12, TraceEvent::Halt { core: 1 }),
        ]
    }

    #[test]
    fn produces_valid_json_with_per_core_tracks() {
        let text = render(&sample_stream());
        let doc = json::parse(&text).expect("exported trace must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Both cores have a thread_name metadata record.
        for core in 0..2 {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(json::Json::as_str) == Some("M")
                        && e.get("tid").and_then(json::Json::as_f64) == Some(f64::from(core))
                }),
                "core {core} track missing"
            );
        }
        // The sleep span is closed (B/E balance per tid).
        let b = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("B"))
            .count();
        let e = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("E"))
            .count();
        assert_eq!(b, e, "every B span must be closed");
    }

    #[test]
    fn counters_track_runnable_and_depth() {
        let text = render(&[
            (0, TraceEvent::Start { cores: 4, banks: 8 }),
            (
                2,
                TraceEvent::Sync {
                    bank: 0,
                    event: SyncEvent::WaitEnqueued {
                        core: 1,
                        addr: 0x40,
                        mode: lrscwait_core::WaitMode::LrWait,
                    },
                },
            ),
            (
                5,
                TraceEvent::Sync {
                    bank: 0,
                    event: SyncEvent::WaitServed {
                        core: 1,
                        addr: 0x40,
                        mode: lrscwait_core::WaitMode::LrWait,
                        handoff: true,
                    },
                },
            ),
        ]);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let depth_values: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(json::Json::as_str) == Some("wait_queue_depth"))
            .filter_map(|e| e.get("args")?.get("waiting")?.as_f64())
            .collect();
        assert_eq!(depth_values, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn dangling_spans_close_in_finish() {
        let text = render(&[
            (0, TraceEvent::Start { cores: 1, banks: 1 }),
            (
                4,
                TraceEvent::Park {
                    core: 0,
                    cause: OpKind::MWait,
                },
            ),
        ]);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(json::Json::as_str) == Some("E")),
            "finish must close the open sleep span"
        );
    }

    /// The `format!` templates above interpolate names without escaping,
    /// which is sound only while no name needs it: every park-cause label
    /// and every fixed span, instant, metadata and counter name must print
    /// as itself under the JSON escaper.
    #[test]
    fn template_names_need_no_escaping() {
        let causes = [
            OpKind::Load,
            OpKind::Store,
            OpKind::Amo,
            OpKind::Lr,
            OpKind::Sc,
            OpKind::LrWait,
            OpKind::ScWait,
            OpKind::MWait,
            OpKind::WakeUp,
        ];
        let fixed = [
            "sleep",
            "barrier",
            "region",
            "halt",
            "wait.failfast",
            "scwait.fail",
            "sc.fail",
            "succ.update",
            "promoted",
            "wakeup.sent",
            "process_name",
            "thread_name",
            "lrscwait machine",
            "core 1023",
            "runnable_cores",
            "runnable",
            "wait_queue_depth",
            "waiting",
        ];
        for name in causes.map(OpKind::label).into_iter().chain(fixed) {
            let escaped = json::Json::Str(name.to_string()).to_string();
            assert_eq!(escaped, format!("\"{name}\""));
        }
    }

    /// A fixed-size `Cursor` is an `io::Write` that fails (`WriteZero`)
    /// once its `budget` bytes are used up.
    fn failing_after(budget: usize) -> PerfettoSink<io::Cursor<Box<[u8]>>> {
        PerfettoSink::new(io::Cursor::new(vec![0; budget].into_boxed_slice()))
    }

    #[test]
    fn finish_reports_the_first_deferred_write_error() {
        let stream = sample_stream();
        let complete = render(&stream).len();
        // Room for nothing, for part of the header, for half the events,
        // and for everything but the footer.
        for budget in [0, 10, complete / 2, complete - 2] {
            let mut sink = failing_after(budget);
            for &(cycle, event) in &stream {
                sink.record(cycle, event); // goes quiet, never panics
            }
            let err = sink.finish().expect_err("the write error must surface");
            assert_eq!(err.kind(), io::ErrorKind::WriteZero, "budget {budget}");
            assert!(sink.finish().is_ok(), "finish is idempotent");
        }
        let mut sink = failing_after(complete);
        for &(cycle, event) in &stream {
            sink.record(cycle, event);
        }
        sink.finish().expect("a writer with room never errors");
        assert_eq!(
            sink.into_inner().into_inner()[..],
            *render(&stream).as_bytes()
        );
    }
}
