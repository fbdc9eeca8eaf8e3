//! The estimator: minimum, median and quartiles of a set of repetitions.
//!
//! A host-time metric's *value* is the minimum over its repetitions — on a
//! shared sandbox noise only ever adds time, so the minimum is the steadiest
//! estimate of the undisturbed cost. The median and quartiles are reported
//! beside it so a reader (and `ledger diff`) can see how wide the repetitions
//! spread.

/// Order statistics of one metric's repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of repetitions.
    pub n: usize,
    /// The estimate: the smallest time, or the largest rate derived from it.
    pub best: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// Quartiles follow Python's `statistics.quantiles(samples, n=4)`
    /// (the exclusive method), the rule the benchmark driver uses, so the
    /// spread `ledger` prints is the spread the driver computes. A single
    /// sample is its own minimum, median and quartiles.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty or holds a NaN (a ledger bug).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let n = sorted.len();
        let quartile = |i: usize| {
            if n == 1 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            n,
            best: sorted[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary of `f(sample)` for a monotone *decreasing* `f` such as a
    /// rate derived from a time: the minimum time is the maximum rate, and
    /// the quartiles swap.
    pub fn inverted(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary {
            n: self.n,
            best: f(self.best),
            q1: f(self.q3),
            median: f(self.median),
            q3: f(self.q1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.n, s.best), (9, 1.0));
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Summary::of(&[3.0]);
        assert_eq!((s.best, s.q1, s.median, s.q3), (3.0, 3.0, 3.0, 3.0));
        assert_eq!(s.spread(), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_swaps_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]).inverted(|t| 8.0 / t);
        assert_eq!(s.best, 8.0);
        assert!(s.q1 < s.median && s.median < s.q3);
    }
}
