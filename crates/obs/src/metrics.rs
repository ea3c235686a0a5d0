//! Lock-cheap metric primitives: counters, gauges, log2 histograms.

use copra_simtime::SimInstant;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::snapshot::{GaugeSnapshot, HistogramBucket, HistogramSnapshot};

/// How many gauge samples each gauge retains (oldest evicted first).
pub const DEFAULT_GAUGE_SAMPLE_CAPACITY: usize = 4096;

/// A monotonic counter. Incrementing is one relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge sample (simulated timestamp + value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GaugeSample {
    pub sim_ns: u64,
    pub value: i64,
}

/// A last-value gauge with a bounded ring of timestamped samples.
///
/// `set`/`add` only touch the atomic; `sample` additionally appends to the
/// ring (under a short mutex) so sampled series — e.g. PFTool queue depths
/// on the WatchDog cadence — survive into the snapshot.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    samples: Mutex<VecDeque<GaugeSample>>,
    capacity: usize,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
            samples: Mutex::new(VecDeque::new()),
            capacity: DEFAULT_GAUGE_SAMPLE_CAPACITY,
        }
    }

    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Set the gauge and record a timestamped sample.
    pub fn sample(&self, now: SimInstant, value: i64) {
        self.set(value);
        let mut ring = self.samples.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(GaugeSample {
            sim_ns: now.as_nanos(),
            value,
        });
    }

    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            value: self.get(),
            samples: self.samples.lock().iter().copied().collect(),
        }
    }
}

/// Number of log2 buckets; bucket `i` counts values in `[2^i, 2^(i+1))`
/// (bucket 0 also absorbs zero), covering the full `u64` range.
const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram. Recording is two relaxed atomic adds
/// plus one on the bucket — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some(HistogramBucket {
                    log2: i as u32,
                    count,
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_and_sample() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.sample(SimInstant::from_secs(1), 9);
        g.sample(SimInstant::from_secs(2), 4);
        assert_eq!(g.get(), 4);
        let snap = g.snapshot();
        assert_eq!(snap.samples.len(), 2);
        assert_eq!(snap.samples[0].value, 9);
        assert_eq!(snap.samples[1].sim_ns, 2_000_000_000);
    }

    #[test]
    fn gauge_ring_evicts_oldest() {
        let g = Gauge::new();
        for i in 0..(DEFAULT_GAUGE_SAMPLE_CAPACITY + 10) {
            g.sample(SimInstant::from_nanos(i as u64), i as i64);
        }
        let snap = g.snapshot();
        assert_eq!(snap.samples.len(), DEFAULT_GAUGE_SAMPLE_CAPACITY);
        assert_eq!(snap.samples[0].value, 10);
    }

    #[test]
    fn histogram_log2_buckets() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // bucket 63
        assert_eq!(h.count(), 6);
        let snap = h.snapshot();
        let by_log2 = |l: u32| {
            snap.buckets
                .iter()
                .find(|b| b.log2 == l)
                .map(|b| b.count)
                .unwrap_or(0)
        };
        assert_eq!(by_log2(0), 2);
        assert_eq!(by_log2(1), 2);
        assert_eq!(by_log2(10), 1);
        assert_eq!(by_log2(63), 1);
    }

    #[test]
    fn histogram_mean() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(10);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
    }
}
