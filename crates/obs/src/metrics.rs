//! The metric primitives: lock-free counters, gauges and log-bucketed
//! histograms.
//!
//! Everything here is a thin wrapper over relaxed atomics. Relaxed
//! ordering is correct because metrics are independent tallies, never
//! synchronisation: a reader observing a slightly stale count is fine, a
//! reader observing a torn one is impossible (each cell is one atomic).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
///
/// `inc`/`add` take `&self` and cost one relaxed `fetch_add`, so counters
/// can sit on concurrent hot paths (threads sharing a cluster increment
/// the same counters).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (pending blocks, online devices, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// log₂ of [`SUB_BUCKETS`].
const SUB_SHIFT: u32 = 5;

/// Linear sub-buckets per power-of-two group. The first `SUB_BUCKETS`
/// values are exact; beyond that each group is refined into
/// `SUB_BUCKETS / 2` linear sub-buckets, bounding the relative recording
/// error by `2 / SUB_BUCKETS` (≈ 6%).
const SUB_BUCKETS: usize = 1 << SUB_SHIFT;

/// Power-of-two groups above the exact range: values up to `u64::MAX`
/// land in group `63 - SUB_SHIFT`.
const GROUPS: usize = 64 - SUB_SHIFT as usize;

/// Total buckets: the exact low range plus half-width linear refinements
/// of every group.
const BUCKETS: usize = SUB_BUCKETS + GROUPS * (SUB_BUCKETS / 2);

/// Bucket index of `v` (log-bucketed, HDR-style).
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_SHIFT
    let group = (exp - SUB_SHIFT) as usize;
    let sub = ((v >> (exp + 1 - SUB_SHIFT)) as usize) - SUB_BUCKETS / 2;
    SUB_BUCKETS + group * (SUB_BUCKETS / 2) + sub
}

/// Smallest value mapping to bucket `i` — the inverse of
/// [`bucket_index`], used for percentile estimation and exposition.
fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let group = (i - SUB_BUCKETS) / (SUB_BUCKETS / 2);
    let sub = (i - SUB_BUCKETS) % (SUB_BUCKETS / 2);
    ((SUB_BUCKETS / 2 + sub) as u64) << (group + 1)
}

/// Largest value mapping to bucket `i` (inclusive).
fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_lower_bound(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, …).
///
/// Values below `SUB_BUCKETS` (64) are recorded exactly; above that, buckets
/// are power-of-two groups refined by linear sub-buckets, so the recorded
/// value is within ≈ 6% of the true one while the whole `u64` range fits
/// in under a thousand buckets. `record` is one relaxed `fetch_add` on
/// the bucket plus one on the running sum — cheap enough for the
/// zero-allocation read path.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution. Concurrent recording
    /// keeps the snapshot *consistent enough*: each bucket is read once,
    /// atomically, so counts are never torn, merely slightly staggered.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram`] for the bucketing).
    buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity element of [`merge`]).
    ///
    /// [`merge`]: HistogramSnapshot::merge
    #[must_use]
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Folds another snapshot into this one — per-shard or per-node
    /// histograms aggregate into a cluster-wide distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (`q` in
    /// `[0, 1]`), e.g. `percentile(0.99)` for p99. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Maximum recorded value, rounded up to its bucket bound.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper_bound)
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// order — the exposition format renders these cumulatively.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v + 1, v + v / 3] {
                let i = bucket_index(probe);
                assert!(i < BUCKETS, "index {i} out of range for {probe}");
                if probe >= last {
                    assert!(
                        bucket_index(last) <= i,
                        "index not monotone at {last} -> {probe}"
                    );
                    last = probe;
                }
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for i in 0..BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_lower_bound(i + 1), ub + 1, "buckets tile at {i}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, SUB_BUCKETS as u64);
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(snap.buckets[v as usize], 1);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for shift in 5..40 {
            let v = (1u64 << shift) + (1u64 << (shift - 2));
            h.record(v);
            let i = bucket_index(v);
            let ub = bucket_upper_bound(i);
            let lb = bucket_lower_bound(i);
            let width = (ub - lb + 1) as f64;
            assert!(
                width / v as f64 <= 2.0 / SUB_BUCKETS as f64 + 1e-9,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn percentiles_and_mean() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.mean() - 500.5).abs() < 1.0);
        let p50 = s.percentile(0.5);
        assert!((468..=532).contains(&p50), "p50 {p50}");
        let p99 = s.percentile(0.99);
        assert!((960..=1023).contains(&p99), "p99 {p99}");
        assert!(s.max() >= 1000 && s.max() <= 1023);
        assert_eq!(s.percentile(0.0), bucket_upper_bound(bucket_index(1)));
        assert_eq!(HistogramSnapshot::empty().percentile(0.5), 0);
    }

    #[test]
    fn snapshots_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 200);
        assert_eq!(merged.sum, a.snapshot().sum + b.snapshot().sum);
        let mut identity = HistogramSnapshot::empty();
        identity.merge(&merged);
        assert_eq!(identity, merged);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
    }
}
