//! `coaxial-telemetry` — the observability spine of the COAXIAL simulator.
//!
//! COAXIAL's argument rests on *where* a memory access's cycles go:
//! unloaded link latency vs. queuing at the controllers vs. DRAM service.
//! This crate provides the machinery to answer that question for every
//! simulated request, without costing the common (telemetry-off) path a
//! single instruction:
//!
//! * [`stats`] — log-bucketed latency histograms. This is the canonical
//!   home of [`Histogram`]; `coaxial-sim` re-exports it.
//! * [`attribution`] — the per-request latency ledger: each L2 miss carries
//!   timestamps stamped at the component boundaries (NoC, LLC, MSHR issue,
//!   controller queue, DRAM service, CXL link) and is folded into
//!   per-component histograms. Components sum *exactly* to the end-to-end
//!   miss latency (conservation is test-enforced).
//! * [`registry`] — a hierarchical metrics registry: counters, gauges, and
//!   histograms registered by dot-separated component path
//!   (`dram.ch0.row_hits`), mergeable and renderable as a table.
//! * [`trace`] — a bounded ring-buffer event tracer with Chrome-trace JSON
//!   export (loadable in `about://tracing` / Perfetto) over a configurable
//!   cycle window.
//! * [`sink`] — the [`TelemetrySink`] trait that model crates are generic
//!   over. [`NullTelemetry`] compiles every stamping site to nothing (the
//!   tier-1 path is bit-identical and within noise of the pre-telemetry
//!   engine); [`TelemetryRecorder`] records everything.
//! * [`time`] and [`narrow`] — the 2.4 GHz clock (`Cycle`, cycle↔ns
//!   conversions) and the typed narrowing casts, and
//! * [`json`] — the workspace's JSON parser and string escaper.
//!
//! This crate sits *below* `coaxial-sim` in the dependency graph, so `sim`
//! re-exports the stats primitives, the clock and the narrowing helpers,
//! and the gateway and `coaxial-lint` share one JSON codec from here.

// No unsafe anywhere in this crate; keep it that way (clippy::undocumented_unsafe_blocks).
#![forbid(unsafe_code)]

pub mod attribution;
pub mod json;
pub mod narrow;
pub mod registry;
pub mod sink;
pub mod stats;
pub mod time;
pub mod trace;

pub use attribution::{Component, LatencyAttribution, MissRecord, COMPONENTS};
pub use registry::{MetricValue, MetricsRegistry, SharedCounter, SharedHistogram};
pub use sink::{NullTelemetry, TelemetryRecorder, TelemetrySink};
pub use stats::Histogram;
pub use trace::{CounterEvent, EventTracer, TraceEvent};
