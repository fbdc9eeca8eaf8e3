//! Per-item latency recording and tail percentiles.

/// Aggregated latency distribution of a finished run; all zero when no
/// item completed.
#[derive(Debug, Default)]
pub(crate) struct LatencyStats {
    /// Mean latency in cycles.
    pub(crate) mean: f64,
    /// Median (nearest-rank) in cycles.
    pub(crate) p50: u64,
    /// 99th percentile (nearest-rank) in cycles.
    pub(crate) p99: u64,
    /// 99.9th percentile (nearest-rank) in cycles.
    pub(crate) p999: u64,
    /// Maximum observed latency in cycles.
    pub(crate) max: u64,
}

/// Records per-item end-to-end latencies (enqueue cycle → completion
/// cycle, including host-side queue wait) and one queue-depth sample per
/// poll quantum.
#[derive(Debug, Default)]
pub(crate) struct LatencyRecorder {
    latencies: Vec<u64>,
    depth: Vec<u32>,
}

impl LatencyRecorder {
    /// Records one completed item's latency in cycles.
    pub(crate) fn record(&mut self, latency: u64) {
        self.latencies.push(latency);
    }

    /// Records the host-side queue depth (waiting items, not counting
    /// items in service).
    pub(crate) fn sample_depth(&mut self, depth: u32) {
        self.depth.push(depth);
    }

    /// Mean of the depth samples (0 when none were taken).
    pub(crate) fn mean_depth(&self) -> f64 {
        if self.depth.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.depth.iter().map(|&d| u64::from(d)).sum();
        sum as f64 / self.depth.len() as f64
    }

    /// Maximum depth sample (0 when none were taken).
    pub(crate) fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile of the recorded latencies: the smallest
    /// recorded value with at least `p` percent of samples at or below
    /// it. Returns 0 when nothing was recorded.
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// The full distribution summary.
    pub(crate) fn stats(&self) -> LatencyStats {
        if self.latencies.is_empty() {
            return LatencyStats::default();
        }
        let sum: u64 = self.latencies.iter().sum();
        LatencyStats {
            mean: sum as f64 / self.latencies.len() as f64,
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: *self.latencies.iter().max().expect("nonempty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::default();
        for v in 1..=100u64 {
            r.record(v);
        }
        assert_eq!(r.percentile(50.0), 50);
        assert_eq!(r.percentile(99.0), 99);
        assert_eq!(r.percentile(99.9), 100);
        assert_eq!(r.percentile(100.0), 100);
        let s = r.stats();
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_and_empty() {
        let mut r = LatencyRecorder::default();
        let s = r.stats();
        assert_eq!((s.p50, s.p99, s.p999, s.max), (0, 0, 0, 0));
        r.record(7);
        let s = r.stats();
        assert_eq!((s.p50, s.p99, s.p999, s.max), (7, 7, 7, 7));
    }

    #[test]
    fn depth_accounting() {
        let mut r = LatencyRecorder::default();
        for depth in [0, 4, 2] {
            r.sample_depth(depth);
        }
        assert_eq!(r.max_depth(), 4);
        assert!((r.mean_depth() - 2.0).abs() < 1e-9);
    }
}
