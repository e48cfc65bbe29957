//! The metrics registry: named counters, gauges, and fixed-bucket latency
//! histograms.
//!
//! Only a [`Telemetry`](crate::Telemetry) hands out metric handles, and a
//! handle it hands out is the one place its count lives: an enabled
//! registry gives *attached* handles (an `Arc` to shared atomic state,
//! registered under their name), a disabled one gives *no-op* handles
//! that carry `None` and drop every update, so counting costs nothing
//! when telemetry is off. No component keeps a second copy of a count;
//! state a model computes with (the EPC's resident pages, say) is a plain
//! field that is *set into* a gauge, never read back out of one.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bounds (inclusive, virtual nanoseconds) of the fixed histogram
/// buckets; a final overflow bucket catches everything above the last
/// bound. Fixed bounds keep the digest stable across runs and releases.
pub const HISTOGRAM_BOUNDS_NS: [u64; 8] = [
    1_000,          // 1 us
    10_000,         // 10 us
    100_000,        // 100 us
    1_000_000,      // 1 ms
    10_000_000,     // 10 ms
    100_000_000,    // 100 ms
    1_000_000_000,  // 1 s
    10_000_000_000, // 10 s
];

/// Number of histogram buckets including the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = HISTOGRAM_BOUNDS_NS.len() + 1;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A functional, attached counter (registered by the caller).
    pub(crate) fn new() -> Self {
        Counter {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// A counter that drops every update. This is what disabled telemetry
    /// hands out; it allocates nothing.
    pub(crate) fn noop() -> Self {
        Counter { cell: None }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    #[inline]
    pub fn get(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A gauge: a value that can move both ways (e.g. resident EPC pages).
/// Tracks a high-water mark alongside the current value.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// A functional, attached gauge (registered by the caller).
    pub(crate) fn new() -> Self {
        Gauge {
            cell: Some(Arc::new(GaugeCell::default())),
        }
    }

    /// A gauge that drops every update.
    pub(crate) fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Sets the current value, updating the peak if exceeded.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.value.store(v, Ordering::Relaxed);
            cell.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.cell {
            let new = cell.value.fetch_add(n, Ordering::Relaxed) + n;
            cell.peak.fetch_max(new, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        match &self.cell {
            Some(cell) => cell.value.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Highest value ever set (0 for a no-op gauge).
    pub fn peak(&self) -> i64 {
        match &self.cell {
            Some(cell) => cell.peak.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A fixed-bucket latency histogram over virtual nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BOUNDS_NS`] + overflow).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum_ns: u64,
    /// Largest observed value.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Mean observed latency, or 0 with no observations.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

impl Histogram {
    /// A functional, attached histogram (registered by the caller).
    pub(crate) fn new() -> Self {
        Histogram {
            cell: Some(Arc::new(HistogramCell::default())),
        }
    }

    /// A histogram that drops every observation.
    pub(crate) fn noop() -> Self {
        Histogram { cell: None }
    }

    /// Records one observation of `ns` virtual nanoseconds.
    pub fn record(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            let idx = HISTOGRAM_BOUNDS_NS
                .iter()
                .position(|&bound| ns <= bound)
                .unwrap_or(HISTOGRAM_BOUNDS_NS.len());
            cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
            cell.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Copies the current state out (all-zero for a no-op histogram).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.cell {
            Some(cell) => HistogramSnapshot {
                buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
                count: cell.count.load(Ordering::Relaxed),
                sum_ns: cell.sum_ns.load(Ordering::Relaxed),
                max_ns: cell.max_ns.load(Ordering::Relaxed),
            },
            None => HistogramSnapshot {
                buckets: [0; HISTOGRAM_BUCKETS],
                count: 0,
                sum_ns: 0,
                max_ns: 0,
            },
        }
    }
}

/// What the registry stores per name.
#[derive(Clone, Debug)]
pub(crate) enum MetricHandle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricHandle {
    pub(crate) fn value(&self) -> MetricValue {
        match self {
            MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
            MetricHandle::Gauge(g) => MetricValue::Gauge {
                value: g.get(),
                peak: g.peak(),
            },
            MetricHandle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// A point-in-time metric value, as reported by
/// [`Telemetry::metrics`](crate::Telemetry::metrics) and embedded in
/// snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge current value and high-water mark.
    Gauge {
        /// Current value.
        value: i64,
        /// Highest value ever set.
        peak: i64,
    },
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_noop_does_not() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 11, "clones share state");

        let n = Counter::noop();
        n.add(100);
        assert_eq!(n.get(), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.set(5);
        g.add(10);
        g.sub(12);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 15);
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::new();
        h.record(1_000); // inclusive upper bound → bucket 0
        h.record(1_001); // bucket 1
        h.record(50_000_000_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.max_ns, 50_000_000_000);
        assert_eq!(s.mean_ns(), (1_000 + 1_001 + 50_000_000_000) / 3);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::new().snapshot().mean_ns(), 0);
    }
}
