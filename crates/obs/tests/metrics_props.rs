//! Property tests for the metrics layer: histogram quantiles against
//! exact sorted-sample quantiles under randomized workloads, and
//! concurrent-writer exactness for counters and histograms.

use dhpf_obs::metrics::{Histogram, Registry, HIST_SUB};

/// The workspace's in-tree xorshift PRNG (the same generator as
/// `dhpf_omega::testing::Rng`, reproduced locally because `dhpf-obs` sits
/// below `dhpf-omega` in the dependency order).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Exact nearest-rank quantile of a sorted sample vector.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_bracket_exact_sample_quantiles() {
    let mut rng = Rng::new(0x5eed);
    for trial in 0..50 {
        let h = Histogram::new();
        let n = 1 + rng.below(2000) as usize;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            // Log-uniform magnitudes: pick an exponent, then a mantissa,
            // so every octave of the bucket range gets exercised.
            let exp = rng.below(40);
            let v = if exp == 0 {
                rng.below(8)
            } else {
                (1u64 << exp) + rng.below(1u64 << exp)
            };
            h.observe(v);
            samples.push(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, n as u64, "trial {trial}");
        assert_eq!(snap.sum, samples.iter().sum::<u64>(), "trial {trial}");
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&samples, q);
            let (lo, hi) = snap.quantile_bounds(q);
            assert!(
                lo <= exact && exact <= hi,
                "trial {trial} q={q}: exact {exact} outside bucket [{lo}, {hi}]"
            );
            // The reported value overestimates by at most the bucket
            // width: 1/HIST_SUB relative above HIST_SUB, 0 below.
            let reported = snap.quantile(q);
            if exact >= HIST_SUB {
                assert!(
                    (reported - exact) as f64 <= exact as f64 / HIST_SUB as f64,
                    "trial {trial} q={q}: reported {reported} too far above exact {exact}"
                );
            } else {
                assert_eq!(reported, exact, "unit-width buckets are exact");
            }
        }
    }
}

#[test]
fn histogram_cumulative_counts_are_monotone_and_reconcile() {
    let mut rng = Rng::new(7);
    let h = Histogram::new();
    for _ in 0..5000 {
        h.observe(rng.below(1 << 30));
    }
    let snap = h.snapshot();
    let mut prev = 0;
    for b in &snap.buckets {
        assert!(
            b.cum > prev,
            "cumulative counts must strictly increase over occupied buckets"
        );
        assert!(b.lo <= b.hi);
        prev = b.cum;
    }
    assert_eq!(prev, snap.count, "+Inf count must equal total");
}

#[test]
fn concurrent_counter_increments_are_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = Registry::new();
    let c = reg.counter("hits_total", &[]);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(
        reg.snapshot().counter("hits_total"),
        Some(THREADS as u64 * PER_THREAD)
    );
}

#[test]
fn concurrent_histogram_observations_are_exact() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = h.clone();
            s.spawn(move || {
                let mut rng = Rng::new(t + 1);
                for _ in 0..PER_THREAD {
                    h.observe(rng.below(1 << 20));
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(
        snap.buckets.last().map(|b| b.cum),
        Some(THREADS * PER_THREAD)
    );
}
