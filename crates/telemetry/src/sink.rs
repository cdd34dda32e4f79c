//! The telemetry sink trait and its two implementations.
//!
//! Model crates (the cache hierarchy in particular) are generic over
//! `T: TelemetrySink`. Every stamping site is guarded by the associated
//! `const ENABLED`, so with [`NullTelemetry`] — the default — the compiler
//! sees `if false { ... }` and removes the site entirely: the tier-1
//! simulation path monomorphizes to exactly the pre-telemetry code. The
//! equivalence test in `coaxial-system` and the `sim_throughput` bench
//! hold this contract.
//!
//! [`TelemetryRecorder`] is the "everything on" implementation: latency
//! attribution, the event tracer, and (optionally) a bounded log of raw
//! [`MissRecord`]s for property tests.

use crate::attribution::{LatencyAttribution, MissRecord};
use crate::time::Cycle;
use crate::trace::{CounterEvent, EventTracer, TraceEvent};

/// Receiver for simulation telemetry.
///
/// Implementations must be cheap to pass by `&mut`; the hierarchy calls
/// these hooks on its hot path, guarded by `Self::ENABLED`.
pub trait TelemetrySink {
    /// Whether this sink observes anything at all. Stamping sites check
    /// this constant before doing *any* work (including computing the
    /// values to stamp), so a `false` here makes telemetry free.
    const ENABLED: bool;

    /// A primary L2 miss completed with a full latency ledger.
    fn on_miss(&mut self, rec: &MissRecord);

    /// A component occupied a time span (for the event trace).
    fn on_span(&mut self, ev: TraceEvent);

    /// A counter sample (quantity-over-time, e.g. bandwidth per epoch).
    /// Default no-op so existing sinks need not care about counters.
    fn on_counter(&mut self, ev: CounterEvent) {
        let _ = ev;
    }

    /// The statistics window restarted (end of warmup). Sinks that
    /// aggregate should drop warmup-era records so attribution covers the
    /// measured window, like every other statistic. The event tracer is
    /// *not* reset: its window is expressed in absolute cycles.
    fn on_reset(&mut self) {}
}

/// The no-op sink: telemetry disabled, zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTelemetry;

impl TelemetrySink for NullTelemetry {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_miss(&mut self, _rec: &MissRecord) {}

    #[inline(always)]
    fn on_span(&mut self, _ev: TraceEvent) {}

    #[inline(always)]
    fn on_counter(&mut self, _ev: CounterEvent) {}
}

/// Full recording sink: aggregates attribution, traces events, and keeps
/// up to `keep_requests` raw records for property tests.
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    pub attribution: LatencyAttribution,
    pub tracer: EventTracer,
    /// Raw per-request ledgers (first `keep_requests` misses).
    pub requests: Vec<MissRecord>,
    keep_requests: usize,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// A recorder with a modest default trace buffer and no raw-record log.
    pub fn new() -> Self {
        Self {
            attribution: LatencyAttribution::new(),
            tracer: EventTracer::new(1 << 16),
            requests: Vec::new(),
            keep_requests: 0,
        }
    }

    /// Restrict the event tracer to `[start, end)` cycles with the given
    /// ring capacity.
    pub fn with_trace_window(mut self, capacity: usize, start: Cycle, end: Cycle) -> Self {
        self.tracer = EventTracer::with_window(capacity, start, end);
        self
    }

    /// Keep the first `n` raw [`MissRecord`]s (for property tests).
    pub fn keep_requests(mut self, n: usize) -> Self {
        self.keep_requests = n;
        self.requests.reserve(n.min(1 << 20));
        self
    }
}

impl TelemetrySink for TelemetryRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn on_miss(&mut self, rec: &MissRecord) {
        self.attribution.record(rec);
        if self.requests.len() < self.keep_requests {
            self.requests.push(*rec);
        }
    }

    #[inline]
    fn on_span(&mut self, ev: TraceEvent) {
        self.tracer.record(ev);
    }

    #[inline]
    fn on_counter(&mut self, ev: CounterEvent) {
        self.tracer.record_counter(ev);
    }

    fn on_reset(&mut self) {
        self.attribution = LatencyAttribution::new();
        self.requests.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss() -> MissRecord {
        MissRecord {
            core: 0,
            line: 7,
            channel: 0,
            calm: false,
            llc_hit: false,
            t_l2_miss: 100,
            t_done: 300,
            noc: 12,
            llc: 20,
            issue_wait: 0,
            dram_queue: 42,
            dram_service: 126,
            cxl_link: 0,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullTelemetry::ENABLED) };
        // And usable as a sink without effect.
        let mut t = NullTelemetry;
        t.on_miss(&miss());
        t.on_span(TraceEvent { name: "x", cat: "mem", pid: 0, tid: 0, start: 0, dur: 1, line: 0 });
    }

    #[test]
    fn recorder_aggregates_and_keeps_requests() {
        let mut r = TelemetryRecorder::new().keep_requests(1);
        r.on_miss(&miss());
        r.on_miss(&miss());
        assert_eq!(r.attribution.requests(), 2);
        assert_eq!(r.requests.len(), 1, "log bounded by keep_requests");
        r.on_span(TraceEvent {
            name: "dram",
            cat: "mem",
            pid: 0,
            tid: 0,
            start: 5,
            dur: 10,
            line: 7,
        });
        assert_eq!(r.tracer.len(), 1);
    }
}
