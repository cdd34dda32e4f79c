//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! (with the regression bounds); the smoke test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sweep-cold", "run-detailed", "serve-mixed", "sampled-horizon"];

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("setup_peak_rss_mb", "MB", "lower"),
    m("op_p50_ms", "ms", "lower"),
    m("op_p90_ms", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("sim_minstr_per_s", "Minstr/s", "higher"),
];

/// Reported by every traced run (`--trace 1`), on every workload. Layers
/// are named after the crate or module whose public functions the span
/// wraps.
pub const PER_LAYER: &[Metric] = &[
    m("cpu.self_ms", "ms", "lower"),
    m("cpu.ticks", "count", "lower"),
    m("cpu.ns_per_tick", "ns", "lower"),
    m("cpu.share", "fraction", "lower"),
    m("cache.self_ms", "ms", "lower"),
    m("cache.ns_per_tick", "ns", "lower"),
    m("cache.share", "fraction", "lower"),
    m("cache.prefill_ns_per_access", "ns", "lower"),
    m("dram.self_ms", "ms", "lower"),
    m("dram.calls", "count", "lower"),
    m("dram.ns_per_call", "ns", "lower"),
    m("dram.share", "fraction", "lower"),
    m("cxl.self_ms", "ms", "lower"),
    m("cxl.calls", "count", "lower"),
    m("cxl.ns_per_call", "ns", "lower"),
    m("cxl.share", "fraction", "lower"),
    m("engine.self_ms", "ms", "lower"),
    m("engine.share", "fraction", "lower"),
    m("engine.visited_cycles", "count", "lower"),
    m("engine.skipped_frac", "fraction", "higher"),
    m("engine.ns_per_cycle", "ns", "lower"),
    m("residual.share", "fraction", "lower"),
    m("trace.overhead_frac", "fraction", "lower"),
    m("workloads.gen_ns_per_access", "ns", "lower"),
    m("checkpoint.export_ms", "ms", "lower"),
    m("checkpoint.encode_ms", "ms", "lower"),
    m("checkpoint.decode_ms", "ms", "lower"),
    m("checkpoint.import_ms", "ms", "lower"),
    m("checkpoint.state_mb", "MB", "lower"),
    m("checkpoint.hit_ratio", "fraction", "higher"),
    m("server.prefill_ms", "ms", "lower"),
    m("server.loop_ms", "ms", "lower"),
    m("runner.busy_frac", "fraction", "higher"),
    m("runner.run_p50_ms", "ms", "lower"),
    m("gateway.parse_us", "us", "lower"),
    m("gateway.emit_us", "us", "lower"),
];
