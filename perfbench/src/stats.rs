//! Sample statistics and the seeded generator the workloads draw from.

/// Samples beyond the reported tail value: the tail is the highest
/// percentile that still has at least this many samples above it, so it
/// never rests on a handful of outliers.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A latency distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest-percentile sample with at least [`TAIL_BEYOND`]
    /// samples above it (`None` with too few samples).
    pub tail: Option<f64>,
    /// The percentile `tail` sits at: the share of samples at or below
    /// it, in percent.
    pub tail_pct: f64,
}

impl Dist {
    /// Summarises `samples`.
    pub fn of(samples: &[f64]) -> Dist {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let (tail, tail_pct) = if n > TAIL_BEYOND {
            let i = n - 1 - TAIL_BEYOND;
            (Some(s[i]), 100.0 * (i + 1) as f64 / n as f64)
        } else {
            (None, 0.0)
        };
        Dist {
            n,
            p50: median(&s),
            tail,
            tail_pct,
        }
    }
}

/// SplitMix64: a small, fast, well-mixed seeded generator. Every input
/// the benchmark generates comes from one of these, so a seed fixes the
/// inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (streams of one seed
    /// are independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let d = Dist::of(&samples);
        assert_eq!(d.n, 10);
        assert_eq!(d.tail, None, "10 samples leave none with 10 beyond");

        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let d = Dist::of(&samples);
        assert_eq!(d.tail, Some(1.0), "only the minimum has 10 beyond");

        // Shuffled input: 100 samples put the tail at the 90th value.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        let d = Dist::of(&samples);
        assert_eq!(d.n, 100);
        assert_eq!(d.tail, Some(90.0));
        assert!((d.tail_pct - 90.0).abs() < 1e-9);
        assert_eq!(d.p50, 50.5);
        let beyond = samples.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, TAIL_BEYOND);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&samples);
        assert_eq!(d.tail, Some(990.0));
        assert!((d.tail_pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn streams_are_reproducible_and_separated() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }
}
