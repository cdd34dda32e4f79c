//! Statistics primitives: running means and latency histograms.
//!
//! The paper reports average latencies broken into components (Figs. 2b, 5)
//! and tail latency (p90, Fig. 2a). [`MeanTracker`] accumulates component
//! means cheaply; [`Histogram`] supports percentile queries with bounded
//! error using logarithmic bucketing.
//!
//! This module is the single implementation in the workspace:
//! `coaxial_sim::stats` re-exports it, and the telemetry pipeline's
//! per-component aggregation builds directly on [`Histogram`].

use crate::narrow::{idx, trunc_u64};

/// Accumulates a running sum and count; reports the mean.
#[derive(Debug, Clone, Default)]
pub struct MeanTracker {
    sum: f64,
    count: u64,
}

impl MeanTracker {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples, or 0.0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another tracker into this one.
    pub fn merge(&mut self, other: &MeanTracker) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Log-bucketed histogram for latency-like positive quantities.
///
/// Buckets have ~2.8 % relative width (32 sub-buckets per octave), so any
/// percentile query is accurate to within ~3 % — far tighter than the
/// run-to-run variation of the simulated system itself.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: u64,
}

/// Sub-buckets per power-of-two range.
const SUBBUCKETS_LOG2: u32 = 5;
const SUBBUCKETS: u64 = 1 << SUBBUCKETS_LOG2;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            // 64 octaves × 32 sub-buckets covers all of u64.
            buckets: vec![0; idx(64 * SUBBUCKETS)],
            count: 0,
            sum: 0.0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUBBUCKETS {
            return idx(value);
        }
        let octave = 63 - value.leading_zeros() as u64; // >= SUBBUCKETS_LOG2
        let sub = (value >> (octave - SUBBUCKETS_LOG2 as u64)) - SUBBUCKETS;
        idx((octave - SUBBUCKETS_LOG2 as u64 + 1) * SUBBUCKETS + sub)
    }

    /// Lower edge of the bucket with the given index (used to answer
    /// percentile queries).
    fn bucket_floor(index: usize) -> u64 {
        let index = index as u64;
        if index < SUBBUCKETS {
            return index;
        }
        let octave = index / SUBBUCKETS + SUBBUCKETS_LOG2 as u64 - 1;
        let sub = index % SUBBUCKETS;
        (SUBBUCKETS + sub) << (octave - SUBBUCKETS_LOG2 as u64)
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as f64;
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of recorded values (exact, not bucketed).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Value at the given percentile (0.0–100.0), within one bucket width.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = trunc_u64(((p / 100.0) * self.count as f64).ceil().max(1.0));
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_tracker_basics() {
        let mut m = MeanTracker::new();
        assert_eq!(m.mean(), 0.0);
        m.record(10.0);
        m.record(20.0);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mean_tracker_merge() {
        let mut a = MeanTracker::new();
        let mut b = MeanTracker::new();
        a.record(1.0);
        b.record(3.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_roundtrip_is_monotone() {
        let mut prev = 0usize;
        for v in [0u64, 1, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= prev, "index must be monotone in value");
            prev = idx;
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(100.0), 31);
    }

    #[test]
    fn percentile_has_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, exact) in [(50.0, 5000u64), (90.0, 9000), (99.0, 9900)] {
            let got = h.percentile(p) as f64;
            let rel = (got - exact as f64).abs() / exact as f64;
            assert!(rel < 0.04, "p{p}: got {got}, want ~{exact}");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(90.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            whole.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.percentile(90.0), whole.percentile(90.0));
        assert_eq!(a.max(), whole.max());
    }
}
