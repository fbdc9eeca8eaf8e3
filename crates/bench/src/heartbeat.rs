//! Heartbeat bookkeeping for long-running sweeps.
//!
//! A watchdog-bound 1024-core run or a billion-cycle sweep can sit for
//! hours with no output; the heartbeat turns that into a periodic
//! progress line: cycles simulated against the cycle budget, *live*
//! Mcycles/s since the previous beat (not the run average, so slowdowns
//! show immediately) and the ETA to the budget at that rate. This module
//! is pure bookkeeping and
//! formatting — the bench harness decides when to call
//! [`Heartbeat::due`], writes the text line to stderr and appends the
//! NDJSON line to the optional log file, so everything here is testable
//! without clocks or I/O.
//!
//! A figure run with `--heartbeat SECS` prints, every interval, the
//! current sweep point, cycles simulated against the budget, live and
//! average cycles per second and the ETA. `--heartbeat-file FILE` appends
//! the same record as one compact NDJSON object per line, with the fields
//! `label`, `beat`, `cycles`, `budget`, `elapsed_secs`,
//! `live_cycles_per_sec`, `avg_cycles_per_sec` and `eta_secs`, so a
//! dashboard or a `tail -f | jq` can watch a multi-hour sweep without
//! scraping stderr.

use std::time::{Duration, Instant};

use lrscwait_trace::json::Json;

use crate::report::object;

/// Heartbeat state for one run.
#[derive(Debug)]
pub(crate) struct Heartbeat {
    label: String,
    interval: Duration,
    budget: u64,
    started: Instant,
    last_beat: Instant,
    last_cycles: u64,
    beats: u64,
}

impl Heartbeat {
    /// A heartbeat emitting every `interval`, for a run whose watchdog /
    /// target budget is `budget` cycles (`u64::MAX`: unbudgeted).
    #[must_use]
    pub(crate) fn new(label: impl Into<String>, interval: Duration, budget: u64) -> Heartbeat {
        let now = Instant::now();
        Heartbeat {
            label: label.into(),
            interval,
            budget,
            started: now,
            last_beat: now,
            last_cycles: 0,
            beats: 0,
        }
    }

    /// Whether a beat is due at `now`.
    #[must_use]
    pub(crate) fn due(&self, now: Instant) -> bool {
        now.duration_since(self.last_beat) >= self.interval
    }

    /// Emits a beat: computes the live rate since the previous beat and
    /// advances the bookkeeping.
    pub(crate) fn beat(&mut self, now: Instant, cycles: u64) -> HeartbeatLine {
        let window = now.duration_since(self.last_beat);
        let delta_cycles = cycles.saturating_sub(self.last_cycles);
        let live = rate(delta_cycles, window);
        let elapsed = now.duration_since(self.started);
        let average = rate(cycles, elapsed);
        let eta = if self.budget == u64::MAX || live <= 0.0 {
            None
        } else {
            let remaining = self.budget.saturating_sub(cycles);
            Some(Duration::from_secs_f64(remaining as f64 / live))
        };
        self.beats += 1;
        self.last_beat = now;
        self.last_cycles = cycles;
        HeartbeatLine {
            label: self.label.clone(),
            beat: self.beats,
            cycles,
            budget: self.budget,
            elapsed,
            live_cycles_per_sec: live,
            avg_cycles_per_sec: average,
            eta,
        }
    }
}

fn rate(cycles: u64, window: Duration) -> f64 {
    let secs = window.as_secs_f64();
    if secs > 0.0 {
        cycles as f64 / secs
    } else {
        0.0
    }
}

/// One emitted heartbeat, ready to render.
#[derive(Clone, Debug)]
pub(crate) struct HeartbeatLine {
    /// Run label (experiment label; sweeps interleave several runs).
    pub label: String,
    /// 1-based beat index.
    pub beat: u64,
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Cycle budget (`u64::MAX`: unbudgeted).
    pub budget: u64,
    /// Wall time since the heartbeat was created.
    pub elapsed: Duration,
    /// Cycles per second since the previous beat.
    pub live_cycles_per_sec: f64,
    /// Cycles per second over the whole run.
    pub avg_cycles_per_sec: f64,
    /// Time to reach the budget at the live rate (`None`: unbudgeted or
    /// no progress this window).
    pub eta: Option<Duration>,
}

impl HeartbeatLine {
    /// The stderr progress line, e.g.
    /// `heartbeat fig3/lrsc: cycle 12300000/100000000 (12.3%) | live 4.21 Mcycles/s (avg 4.05) | eta<=21s`.
    #[must_use]
    pub(crate) fn render_text(&self) -> String {
        let progress = if self.budget == u64::MAX {
            format!("cycle {}", self.cycles)
        } else {
            format!(
                "cycle {}/{} ({:.1}%)",
                self.cycles,
                self.budget,
                percent(self.cycles, self.budget),
            )
        };
        let eta = match self.eta {
            Some(eta) => format!(" | eta<={}s", eta.as_secs()),
            None => String::new(),
        };
        format!(
            "heartbeat {}: {progress} | live {:.2} Mcycles/s (avg {:.2}){eta}",
            self.label,
            self.live_cycles_per_sec / 1e6,
            self.avg_cycles_per_sec / 1e6,
        )
    }

    /// The NDJSON log line: one compact JSON object, no trailing newline,
    /// fixed key order; `budget` and `eta_secs` are `null` when there is
    /// none.
    #[must_use]
    pub(crate) fn render_ndjson(&self) -> String {
        let budget = if self.budget == u64::MAX {
            Json::Null
        } else {
            Json::Num(self.budget as f64)
        };
        let eta = self.eta.map_or(Json::Null, |d| Json::Num(d.as_secs_f64()));
        object([
            ("label", Json::Str(self.label.clone())),
            ("beat", Json::Num(self.beat as f64)),
            ("cycles", Json::Num(self.cycles as f64)),
            ("budget", budget),
            ("elapsed_secs", Json::Num(self.elapsed.as_secs_f64())),
            ("live_cycles_per_sec", Json::Num(self.live_cycles_per_sec)),
            ("avg_cycles_per_sec", Json::Num(self.avg_cycles_per_sec)),
            ("eta_secs", eta),
        ])
        .to_string()
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_trace::json;

    #[test]
    fn due_respects_interval() {
        let hb = Heartbeat::new("t", Duration::from_secs(5), 1000);
        let now = Instant::now();
        assert!(!hb.due(now));
        assert!(hb.due(now + Duration::from_secs(5)));
    }

    #[test]
    fn live_rate_uses_the_window_not_the_run() {
        let mut hb = Heartbeat::new("t", Duration::from_secs(1), 10_000_000);
        let t0 = Instant::now();
        let first = hb.beat(t0 + Duration::from_secs(2), 4_000_000);
        assert!((first.live_cycles_per_sec - 2e6).abs() < 1e3);
        // Second window: 1M cycles in 1s — the live rate halves while
        // the average reflects the whole run.
        let second = hb.beat(t0 + Duration::from_secs(3), 5_000_000);
        assert!((second.live_cycles_per_sec - 1e6).abs() < 1e3);
        assert!(second.avg_cycles_per_sec > second.live_cycles_per_sec);
        assert_eq!(second.beat, 2);
    }

    #[test]
    fn eta_tracks_remaining_budget() {
        let mut hb = Heartbeat::new("t", Duration::from_secs(1), 3_000_000);
        let t0 = Instant::now();
        let line = hb.beat(t0 + Duration::from_secs(1), 1_000_000);
        let eta = line.eta.expect("budgeted run has an eta");
        assert!((eta.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn unbudgeted_run_has_no_eta() {
        let mut hb = Heartbeat::new("t", Duration::from_secs(1), u64::MAX);
        let line = hb.beat(Instant::now() + Duration::from_secs(1), 500);
        assert!(line.eta.is_none());
        assert!(line.render_text().contains("cycle 500"));
        assert!(line.render_ndjson().contains(r#""budget":null"#));
    }

    #[test]
    fn text_and_ndjson_carry_the_same_facts() {
        let mut hb = Heartbeat::new("fig3/lrsc", Duration::from_secs(1), 10_000_000);
        let line = hb.beat(Instant::now() + Duration::from_secs(2), 5_000_000);
        let text = line.render_text();
        assert!(text.contains("heartbeat fig3/lrsc"));
        assert!(text.contains("cycle 5000000/10000000 (50.0%)"));
        assert!(text.contains("eta<=2s"), "{text}");
        let doc = json::parse(&line.render_ndjson()).expect("the NDJSON line is JSON");
        let keys: Vec<&str> = match &doc {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        };
        assert_eq!(
            keys,
            [
                "label",
                "beat",
                "cycles",
                "budget",
                "elapsed_secs",
                "live_cycles_per_sec",
                "avg_cycles_per_sec",
                "eta_secs"
            ]
        );
        assert_eq!(doc.get("cycles").and_then(Json::as_f64), Some(5e6));
        let eta = doc.get("eta_secs").and_then(Json::as_f64).unwrap();
        assert!((eta - 2.0).abs() < 0.01, "{eta}");
    }

    #[test]
    fn hostile_label_survives_the_ndjson_line() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let label = format!(r#"fig "3"\{every_control}µ"#);
        let mut hb = Heartbeat::new(label.clone(), Duration::from_secs(1), 100);
        let text = hb.beat(Instant::now(), 50).render_ndjson();
        assert!(!text.contains('\n'), "one line: {text}");
        let doc = json::parse(&text).expect("the NDJSON line is JSON");
        assert_eq!(
            doc.get("label").and_then(Json::as_str),
            Some(label.as_str())
        );
    }
}
