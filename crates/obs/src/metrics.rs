//! A zero-dependency, fleet-grade metrics layer: a [`Registry`] of named
//! counters, gauges, and log-linear latency histograms, built for a
//! serving tier with many concurrent writers.
//!
//! Design:
//!
//! - **Lock-free hot path.** Every metric handle ([`Counter`], [`Gauge`],
//!   [`Histogram`]) is an `Arc` around atomics; recording an observation
//!   is one or three relaxed `fetch_add`s and never takes a lock. The
//!   registry's mutex guards only registration (get-or-create of a
//!   series) and snapshotting, both off the request path — handlers
//!   resolve their handles once at startup and clone them.
//! - **Log-linear buckets.** A [`Histogram`] covers `0..2^40` with
//!   [`HIST_SUB`] sub-buckets per power of two (values below [`HIST_SUB`]
//!   get exact unit-width buckets), so the bucket containing any sample
//!   is at most `1/HIST_SUB` (12.5%) wide relative to its lower bound.
//!   Quantile extraction ([`HistSnapshot::quantile`]) walks the exact
//!   per-bucket counts with nearest-rank semantics: the returned bucket
//!   provably brackets the exact sorted-sample quantile.
//! - **Snapshot-on-read.** [`Registry::snapshot`] materializes every
//!   series into a [`MetricsSnapshot`] of plain values, sorted by name
//!   then labels, so exporters are deterministic and never observe a
//!   half-updated structure. A histogram snapshot derives its `count`
//!   from the bucket sums it just read, so cumulative bucket counts and
//!   the total always reconcile even under concurrent writers.
//!
//! ```
//! use dhpf_obs::metrics::Registry;
//!
//! let reg = Registry::new();
//! let reqs = reg.counter("requests_total", &[("op", "compile")]);
//! let lat = reg.histogram("duration_us", &[("kind", "warm")]);
//! reqs.inc();
//! lat.observe(1500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters[0].value, 1);
//! let (lo, hi) = snap.histograms[0].1.quantile_bounds(0.5);
//! assert!(lo <= 1500 && 1500 <= hi);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per power of two in a [`Histogram`] (so the relative
/// bucket width is at most `1/HIST_SUB` = 12.5%).
pub const HIST_SUB: u64 = 8;
const SUB_BITS: u32 = 3;
/// Largest representable most-significant-bit position; values at or
/// above `2^(HIST_MAX_MSB + 1)` saturate into the last bucket.
const HIST_MAX_MSB: u32 = 39;
/// Total bucket slots of one histogram (the last slot is the dedicated
/// overflow bucket for values at or above `2^(HIST_MAX_MSB + 1)`).
pub const HIST_SLOTS: usize =
    HIST_SUB as usize + (HIST_MAX_MSB - SUB_BITS + 1) as usize * HIST_SUB as usize + 1;

/// The bucket slot of value `v`.
fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > HIST_MAX_MSB {
        return HIST_SLOTS - 1;
    }
    let sub = ((v >> (msb - SUB_BITS)) - HIST_SUB) as usize;
    HIST_SUB as usize + (msb - SUB_BITS) as usize * HIST_SUB as usize + sub
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < HIST_SUB as usize {
        i as u64
    } else if i == HIST_SLOTS - 1 {
        1u64 << (HIST_MAX_MSB + 1)
    } else {
        let octave = (i - HIST_SUB as usize) / HIST_SUB as usize;
        let sub = ((i - HIST_SUB as usize) % HIST_SUB as usize) as u64;
        (HIST_SUB + sub) << octave
    }
}

/// Inclusive upper bound of bucket `i` (the last bucket is unbounded).
fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= HIST_SLOTS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// A monotonically increasing counter. Clones share one cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (occupancy, capacity, …).
/// Clones share one cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A concurrent log-linear histogram of non-negative integer samples
/// (latencies in microseconds, sizes, …). Clones share one set of
/// buckets; recording is lock-free.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCore {
            buckets: (0..HIST_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, empty histogram (not yet in any registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshots the bucket counts into plain values. The snapshot's
    /// `count` is derived from the buckets read here, so it always equals
    /// the final cumulative bucket count even mid-write.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                buckets.push(HistBucket {
                    lo: bucket_lo(i),
                    hi: bucket_hi(i),
                    cum,
                });
            }
        }
        HistSnapshot {
            count: cum,
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One occupied bucket of a [`HistSnapshot`]: its value range (inclusive
/// on both ends) and the cumulative sample count through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Smallest value the bucket holds.
    pub lo: u64,
    /// Largest value the bucket holds (`u64::MAX` for the overflow
    /// bucket).
    pub hi: u64,
    /// Samples at or below `hi` (cumulative, non-decreasing).
    pub cum: u64,
}

/// An immutable snapshot of one histogram: sparse occupied buckets with
/// cumulative counts, plus the total count and sum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total samples (equals the last bucket's `cum`).
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Occupied buckets in increasing value order.
    pub buckets: Vec<HistBucket>,
}

impl HistSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket bounds `(lo, hi)` bracketing the `q`-quantile
    /// (nearest-rank: the value of the `ceil(q·count)`-th smallest
    /// sample lies in `lo..=hi` exactly). Returns `(0, 0)` when empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for b in &self.buckets {
            if b.cum >= rank {
                return (b.lo, b.hi);
            }
        }
        let last = self.buckets.last().expect("count > 0 implies a bucket");
        (last.lo, last.hi)
    }

    /// The `q`-quantile as a single number: the upper edge of the bucket
    /// containing the nearest-rank sample (a guaranteed overestimate by
    /// at most the 12.5% bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }
}

/// The identity of one series: metric name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// Metric name (`snake_case`, e.g. `dhpf_serve_requests_total`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl SeriesId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",…}` (bare `name` when unlabeled), the key
    /// spelling of the JSON snapshot.
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(v);
                out.push('"');
            }
            out.push('}');
        }
        out
    }
}

/// One sampled scalar series in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample<T> {
    /// The series identity.
    pub id: SeriesId,
    /// The sampled value.
    pub value: T,
}

/// A point-in-time view of a whole [`Registry`], sorted by series id.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<Sample<u64>>,
    /// All gauges.
    pub gauges: Vec<Sample<i64>>,
    /// All histograms.
    pub histograms: Vec<(SeriesId, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of the counter rendered as `key` (see
    /// [`SeriesId::render`]), if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|s| s.id.render() == key)
            .map(|s| s.value)
    }

    /// The histogram rendered as `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(id, _)| id.render() == key)
            .map(|(_, h)| h)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<SeriesId, Counter>,
    gauges: BTreeMap<SeriesId, Gauge>,
    histograms: BTreeMap<SeriesId, Histogram>,
}

/// A registry of named metric series. Cheap to share (`Arc` it);
/// registration and snapshotting lock, recording through the returned
/// handles does not.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter `name{labels}`, created at zero on first request.
    /// Subsequent calls with the same identity return a handle to the
    /// same cell regardless of label order.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner
            .lock()
            .unwrap()
            .counters
            .entry(SeriesId::new(name, labels))
            .or_default()
            .clone()
    }

    /// The gauge `name{labels}`, created at zero on first request.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .entry(SeriesId::new(name, labels))
            .or_default()
            .clone()
    }

    /// The histogram `name{labels}`, created empty on first request.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(SeriesId::new(name, labels))
            .or_default()
            .clone()
    }

    /// Snapshots every series, sorted by name then labels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| Sample {
                    id: id.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| Sample {
                    id: id.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in (0..4096u64).chain([1 << 20, (1 << 40) - 1, 1 << 40, u64::MAX]) {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v || i == HIST_SLOTS - 1, "v={v} i={i}");
            assert!(v <= bucket_hi(i), "v={v} i={i}");
            if i + 1 < HIST_SLOTS {
                assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1));
            }
        }
        // Relative bucket width is bounded by 1/HIST_SUB above HIST_SUB.
        for i in HIST_SUB as usize..HIST_SLOTS - 1 {
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            assert!((hi - lo + 1) * HIST_SUB <= lo, "i={i} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x_total", &[("op", "c")]);
        let b = reg.counter("x_total", &[("op", "c")]);
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x_total{op=\"c\"}"), Some(3));
        // Label order does not split the series.
        let c = reg.counter("y_total", &[("a", "1"), ("b", "2")]);
        let d = reg.counter("y_total", &[("b", "2"), ("a", "1")]);
        c.inc();
        d.inc();
        assert_eq!(reg.snapshot().counter("y_total{a=\"1\",b=\"2\"}"), Some(2));
    }

    #[test]
    fn gauge_sets_and_adjusts() {
        let reg = Registry::new();
        let g = reg.gauge("occupancy", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(reg.snapshot().gauges[0].value, 7);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        let samples = [3u64, 3, 5, 90, 90, 91, 1000, 5000, 100_000];
        for &s in &samples {
            h.observe(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        // Median (5th of 9 sorted samples) is 90.
        let (lo, hi) = snap.quantile_bounds(0.5);
        assert!(lo <= 90 && 90 <= hi, "median bracket ({lo},{hi})");
        // p99 rounds up to the maximum.
        let (lo, hi) = snap.quantile_bounds(0.99);
        assert!(lo <= 100_000 && 100_000 <= hi, "p99 bracket ({lo},{hi})");
        assert!(snap.quantile(0.5) <= snap.quantile(0.9));
        assert!(snap.quantile(0.9) <= snap.quantile(0.99));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile_bounds(0.5), (0, 0));
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
