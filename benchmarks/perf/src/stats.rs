//! Order statistics and the seeded generator behind every schedule.

/// Nearest-rank quantile of an unsorted sample: the smallest value with at
/// least `q` of the sample at or below it. Empty samples give 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median: the mean of the two middle values for an even count, so that a
/// median of ledger medians matches `statistics.median`.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so `--runs` reproduces the spread the
/// acceptance procedure computes. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, interpolated and clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median (0 for fewer
/// than two values or a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// SplitMix64: a small, well-mixed generator; the same seed always gives
/// the same sequence, on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is below 2^-60 for
    /// the single-digit `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantile() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert_eq!(quantile(&v, 0.21), 2.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // 100 samples: p95 leaves five beyond it.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&w, 0.95), 95.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn same_seed_same_sequence() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.below(5)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut a = [0, 1, 2, 3, 4];
        Rng::new(9).shuffle(&mut a);
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4]);
    }
}
