//! Seeded open-loop arrival processes.
//!
//! Both processes are **deterministic per seed and platform-independent**:
//! the generator is a xorshift64\* PRNG and the exponential transform uses
//! a hand-rolled natural logarithm built from IEEE-754 `f64` additions,
//! multiplications and divisions only — every one of which is
//! correctly-rounded by the standard, so the same seed yields the same
//! arrival cycle sequence on every host. (The libm `f64::ln` is *not*
//! guaranteed bit-identical across platforms, which is why it is not used
//! here.)

/// xorshift64\* PRNG state (nonzero by construction).
#[derive(Debug)]
struct Rng64 {
    s: u64,
}

impl Rng64 {
    /// Seeds via one splitmix64 step so nearby seeds decorrelate.
    fn new(seed: u64) -> Rng64 {
        let z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let s = z ^ (z >> 31);
        Rng64 {
            s: if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.s = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is always defined.
    fn uniform(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // top 53 bits
        (bits + 1) as f64 * (1.0 / 9_007_199_254_740_992.0) // 2^-53
    }
}

/// Deterministic natural logarithm for positive finite normal `f64`.
///
/// Decomposes `x = m * 2^e` with `m` reduced into `[√2/2, √2)`, then
/// evaluates `ln m = 2 atanh((m-1)/(m+1))` by a fixed-length Horner
/// polynomial. With `|t| ≤ 0.1716` twelve terms put the truncation error
/// below an ulp. Uses only `+ - * /`, all correctly rounded per IEEE-754.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "det_ln domain: {x}");
    const LN2: f64 = core::f64::consts::LN_2;
    const SQRT2: f64 = core::f64::consts::SQRT_2;
    const TWO52: f64 = 4_503_599_627_370_496.0; // 2^52, exact

    // Normalize subnormals (never produced by `uniform`, handled for
    // totality) by an exact power-of-two scale.
    let (x, bias) = if x < f64::MIN_POSITIVE {
        (x * TWO52, -52i64)
    } else {
        (x, 0i64)
    };
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023 + bias;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    if m > SQRT2 {
        m /= 2.0; // exact
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut acc = 0.0;
    let mut k = 12u32;
    while k > 0 {
        k -= 1;
        acc = 1.0 / f64::from(2 * k + 1) + t2 * acc;
    }
    (e as f64) * LN2 + 2.0 * t * acc
}

/// Arrival model parameters (cycles).
#[derive(Debug)]
enum Model {
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean inter-arrival time in cycles.
        mean: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponentially
    /// distributed dwells alternate between a slow and a fast (burst)
    /// arrival rate.
    Mmpp {
        /// Mean inter-arrival time in the slow state.
        slow: f64,
        /// Mean inter-arrival time in the burst state.
        fast: f64,
        /// Mean dwell time in either state.
        dwell: f64,
    },
}

/// A seeded open-loop arrival process producing a non-decreasing sequence
/// of arrival cycles.
///
/// The process keeps a *continuous* clock internally (fractional cycles
/// carry across draws, so low rates are not quantized away) and floors it
/// to a cycle number per arrival.
#[derive(Debug)]
pub(crate) struct ArrivalProcess {
    model: Model,
    rng: Rng64,
    /// Continuous arrival clock (cycles).
    clock: f64,
    /// MMPP: currently in the burst state.
    burst: bool,
    /// MMPP: continuous time at which the current dwell ends.
    dwell_end: f64,
}

impl ArrivalProcess {
    /// A Poisson process with the given mean inter-arrival time in cycles.
    ///
    /// # Panics
    ///
    /// Panics when `mean_interarrival` is not a positive finite number.
    pub(crate) fn poisson(seed: u64, mean_interarrival: f64) -> ArrivalProcess {
        assert!(
            mean_interarrival > 0.0 && mean_interarrival.is_finite(),
            "mean inter-arrival must be positive and finite"
        );
        ArrivalProcess {
            model: Model::Poisson {
                mean: mean_interarrival,
            },
            rng: Rng64::new(seed),
            clock: 0.0,
            burst: false,
            dwell_end: 0.0,
        }
    }

    /// A two-state MMPP (bursty) process: the mean inter-arrival time
    /// alternates between `slow_interarrival` and `fast_interarrival`,
    /// with exponentially distributed state dwells of mean `mean_dwell`
    /// cycles. Starts in the slow state.
    ///
    /// # Panics
    ///
    /// Panics when any parameter is not a positive finite number.
    pub(crate) fn mmpp(
        seed: u64,
        slow_interarrival: f64,
        fast_interarrival: f64,
        mean_dwell: f64,
    ) -> ArrivalProcess {
        for (name, v) in [
            ("slow inter-arrival", slow_interarrival),
            ("fast inter-arrival", fast_interarrival),
            ("mean dwell", mean_dwell),
        ] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite"
            );
        }
        let mut p = ArrivalProcess {
            model: Model::Mmpp {
                slow: slow_interarrival,
                fast: fast_interarrival,
                dwell: mean_dwell,
            },
            rng: Rng64::new(seed),
            clock: 0.0,
            burst: false,
            dwell_end: 0.0,
        };
        let first_dwell = p.exp_sample(mean_dwell);
        p.dwell_end = first_dwell;
        p
    }

    /// Long-run mean inter-arrival time in cycles. For the MMPP this is the
    /// harmonic combination of the two state rates, since dwells in both
    /// states have equal mean.
    pub(crate) fn mean_interarrival(&self) -> f64 {
        match self.model {
            Model::Poisson { mean } => mean,
            Model::Mmpp { slow, fast, .. } => 2.0 / (1.0 / slow + 1.0 / fast),
        }
    }

    fn exp_sample(&mut self, mean: f64) -> f64 {
        -det_ln(self.rng.uniform()) * mean
    }

    /// Draws the next arrival and returns its cycle number. The sequence
    /// is non-decreasing; several arrivals may share a cycle.
    pub(crate) fn next_arrival(&mut self) -> u64 {
        match self.model {
            Model::Poisson { mean } => {
                let step = self.exp_sample(mean);
                self.clock += step;
            }
            Model::Mmpp { slow, fast, dwell } => loop {
                let mean = if self.burst { fast } else { slow };
                let candidate = self.clock + self.exp_sample(mean);
                if candidate <= self.dwell_end {
                    self.clock = candidate;
                    break;
                }
                // The dwell expired before the candidate arrival: jump to
                // the boundary, switch state and redraw. Discarding the
                // candidate is valid because the exponential distribution
                // is memoryless.
                self.clock = self.dwell_end;
                self.burst = !self.burst;
                let d = self.exp_sample(dwell);
                self.dwell_end = self.clock + d;
            },
        }
        self.clock as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_std_ln() {
        for &x in &[1e-12, 0.001, 0.5, 0.9999, 1.0, 1.5, 2.0, 7.389, 1e6] {
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "ln({x}): {got} vs {want}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn det_ln_handles_subnormals() {
        let x = f64::MIN_POSITIVE / 1024.0;
        let got = det_ln(x);
        assert!((got - x.ln()).abs() < 1e-9, "{got} vs {}", x.ln());
    }

    #[test]
    fn same_seed_same_sequence() {
        for make in [
            |s| ArrivalProcess::poisson(s, 120.0),
            |s| ArrivalProcess::mmpp(s, 400.0, 40.0, 5_000.0),
        ] {
            let mut a = make(7);
            let mut b = make(7);
            let seq_a: Vec<u64> = (0..500).map(|_| a.next_arrival()).collect();
            let seq_b: Vec<u64> = (0..500).map(|_| b.next_arrival()).collect();
            assert_eq!(seq_a, seq_b);
            let mut c = make(8);
            let seq_c: Vec<u64> = (0..500).map(|_| c.next_arrival()).collect();
            assert_ne!(seq_a, seq_c, "different seeds must differ");
        }
    }

    #[test]
    fn sequences_are_monotone_and_rate_is_sane() {
        let mut p = ArrivalProcess::poisson(3, 100.0);
        let mut last = 0;
        let mut final_cycle = 0;
        for _ in 0..10_000 {
            let t = p.next_arrival();
            assert!(t >= last);
            last = t;
            final_cycle = t;
        }
        // 10k arrivals at mean 100 ≈ 1M cycles; allow a wide band.
        let mean = final_cycle as f64 / 10_000.0;
        assert!((90.0..110.0).contains(&mean), "empirical mean {mean}");
    }

    #[test]
    fn mmpp_long_run_rate_matches_harmonic_mean() {
        let mut p = ArrivalProcess::mmpp(11, 400.0, 40.0, 10_000.0);
        let n = 50_000;
        let mut last = 0;
        for _ in 0..n {
            last = p.next_arrival();
        }
        let mean = last as f64 / f64::from(n);
        let expect = p.mean_interarrival();
        assert!(
            (mean - expect).abs() < 0.2 * expect,
            "empirical {mean} vs harmonic {expect}"
        );
    }
}
