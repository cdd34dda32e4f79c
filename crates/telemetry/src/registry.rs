//! Hierarchical metrics registry.
//!
//! Components publish counters, gauges, and histograms under dot-separated
//! paths mirroring the hardware hierarchy (`dram.ch0.row_hits`,
//! `cxl.ch2.link.tx_utilization`, `server.checkpoint.state.mem_hits`). The
//! registry is a *snapshot* container: model crates keep their hot counters
//! in plain struct fields (no indirection on the simulation fast path) and
//! export them here at harvest time, so the registry's cost is zero during
//! simulation and O(metrics) at report time.
//!
//! [`SharedCounter`] covers the one exception: process-wide caches (e.g.
//! the prefill LRU in `coaxial-system`) whose hit/miss counts outlive any
//! single run. They are cheap atomics that snapshot into a registry path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::Histogram;

/// One registered metric value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A snapshot-style metrics registry keyed by hierarchical path.
///
/// Paths are ordinary strings with `.`-separated segments; `BTreeMap`
/// ordering means iteration (and rendering) groups a component's metrics
/// together naturally.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or overwrite) a counter.
    pub fn set_counter(&mut self, path: &str, value: u64) {
        self.metrics.insert(path.to_string(), MetricValue::Counter(value));
    }

    /// Add to a counter, creating it at 0 first if absent. Panics if the
    /// path is already registered as a different kind.
    pub fn add_counter(&mut self, path: &str, delta: u64) {
        match self.metrics.entry(path.to_string()).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric {path} is not a counter: {other:?}"),
        }
    }

    /// Set (or overwrite) a gauge.
    pub fn set_gauge(&mut self, path: &str, value: f64) {
        self.metrics.insert(path.to_string(), MetricValue::Gauge(value));
    }

    /// Install a histogram snapshot.
    pub fn put_histogram(&mut self, path: &str, hist: Histogram) {
        self.metrics.insert(path.to_string(), MetricValue::Histogram(hist));
    }

    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.metrics.get(path)
    }

    /// Counter value at `path`, or `None` if absent / not a counter.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.metrics.get(path) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value at `path`, or `None` if absent / not a gauge.
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.metrics.get(path) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate all metrics in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate the metrics under a path prefix (segment-aligned: prefix
    /// `dram.ch1` matches `dram.ch1.reads` but not `dram.ch10.reads`).
    pub fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a MetricValue)> {
        self.metrics
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.as_str().starts_with(prefix))
            .filter(move |(k, _)| {
                k.len() == prefix.len() || k.as_bytes().get(prefix.len()) == Some(&b'.')
            })
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one: counters add, gauges and
    /// histograms overwrite/merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.metrics {
            match (self.metrics.get_mut(k), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(slot), v) => *slot = v.clone(),
                (None, v) => {
                    self.metrics.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Render as an aligned two-column table (optionally restricted to a
    /// prefix). Histograms print count/mean/p90/max.
    pub fn render(&self, prefix: Option<&str>) -> String {
        let rows: Vec<(&str, String)> = match prefix {
            Some(p) => self.iter_prefix(p).map(|(k, v)| (k, Self::fmt_value(v))).collect(),
            None => self.iter().map(|(k, v)| (k, Self::fmt_value(v))).collect(),
        };
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }

    fn fmt_value(v: &MetricValue) -> String {
        match v {
            MetricValue::Counter(c) => format!("{c}"),
            MetricValue::Gauge(g) => format!("{g:.4}"),
            MetricValue::Histogram(h) => format!(
                "count={} mean={:.1} p90={} max={}",
                h.count(),
                h.mean(),
                h.percentile(90.0),
                h.max()
            ),
        }
    }
}

/// A process-wide atomic counter that can be cloned into static caches and
/// later snapshotted into a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct SharedCounter(Arc<AtomicU64>);

impl SharedCounter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Snapshot the current value into `reg` at `path`.
    pub fn export(&self, reg: &mut MetricsRegistry, path: &str) {
        reg.set_counter(path, self.get());
    }
}

/// A process-wide histogram that many threads record into and that later
/// snapshots into a [`MetricsRegistry`]. The [`SharedCounter`] analogue
/// for distributions: the gateway records per-request latency from its
/// worker threads and exports the histogram at `/metrics` harvest time.
/// Not for simulation fast paths — each `record` takes a mutex.
#[derive(Debug, Clone, Default)]
pub struct SharedHistogram(Arc<Mutex<Histogram>>);

impl SharedHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, value: u64) {
        self.0.lock().expect("histogram lock poisoned").record(value);
    }

    /// Clone out the current distribution.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().expect("histogram lock poisoned").clone()
    }

    /// Snapshot the current distribution into `reg` at `path`.
    pub fn export(&self, reg: &mut MetricsRegistry, path: &str) {
        reg.put_histogram(path, self.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.add_counter("dram.ch0.row_hits", 10);
        r.add_counter("dram.ch0.row_hits", 5);
        assert_eq!(r.counter("dram.ch0.row_hits"), Some(15));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn prefix_iteration_is_segment_aligned() {
        let mut r = MetricsRegistry::new();
        r.set_counter("dram.ch1.reads", 1);
        r.set_counter("dram.ch10.reads", 2);
        r.set_counter("dram.ch1.writes", 3);
        r.set_counter("cxl.ch1.reads", 4);
        let keys: Vec<&str> = r.iter_prefix("dram.ch1").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["dram.ch1.reads", "dram.ch1.writes"]);
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.set_counter("x.n", 2);
        b.set_counter("x.n", 3);
        let mut h1 = Histogram::new();
        h1.record(10);
        let mut h2 = Histogram::new();
        h2.record(30);
        a.put_histogram("x.lat", h1);
        b.put_histogram("x.lat", h2);
        b.set_gauge("x.util", 0.5);
        a.merge(&b);
        assert_eq!(a.counter("x.n"), Some(5));
        assert_eq!(a.gauge("x.util"), Some(0.5));
        match a.get("x.lat") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn render_aligns_and_orders() {
        let mut r = MetricsRegistry::new();
        r.set_counter("b.second", 2);
        r.set_counter("a.first", 1);
        let s = r.render(None);
        let first = s.lines().next().unwrap();
        assert!(first.starts_with("a.first"), "BTreeMap ordering: {s}");
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn shared_counter_snapshots() {
        let c = SharedCounter::new();
        let c2 = c.clone();
        c.add(7);
        c2.add(3);
        let mut r = MetricsRegistry::new();
        c.export(&mut r, "cache.hits");
        assert_eq!(r.counter("cache.hits"), Some(10));
    }

    #[test]
    fn shared_histogram_merges_across_clones() {
        let h = SharedHistogram::new();
        let h2 = h.clone();
        h.record(10);
        h2.record(30);
        let mut r = MetricsRegistry::new();
        h.export(&mut r, "gw.latency");
        match r.get("gw.latency") {
            Some(MetricValue::Histogram(hist)) => {
                assert_eq!(hist.count(), 2);
                assert_eq!(hist.max(), 30);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("x", 1.0);
        r.add_counter("x", 1);
    }
}
