//! SMARTS-style interval sampling: ~100× simulated horizon at similar wall
//! cost.
//!
//! A full-detail run simulates every instruction on the timing model, which
//! caps practical horizons around `Budget::quick` (thousands of
//! instructions per core) — two orders of magnitude short of the paper's
//! 200 M-instruction windows. Systematic sampling (Wunderlich et al.,
//! ISCA '03; the same shortcut CXL-DMSim takes) closes the gap by
//! alternating two execution modes over one continuous workload stream:
//!
//! 1. **Fast-forward** — the per-core trace generators advance
//!    functionally through [`coaxial_cpu::functional_advance`], streaming
//!    every access through [`Hierarchy::prefill_access`]. Cache contents
//!    (the slow-to-warm state) stay architecturally exact; no timing model
//!    ticks, so this span costs host time proportional to accesses, not
//!    simulated cycles.
//! 2. **Detailed interval** — the hierarchy is rebuilt around the warmed
//!    arrays with fresh timing state ([`Hierarchy::into_interval`]), cores
//!    are reconstructed around the same generators, and the ordinary
//!    event-driven (or lockstep-oracle) engine runs a short detailed
//!    warm-up — re-warming MSHRs, queues, and DRAM row state the
//!    fast-forward cannot maintain — followed by the measured span.
//!
//! Each interval contributes one IPC observation; the run reports their
//! mean ± 95 % Student-t confidence interval
//! ([`coaxial_sim::SampleSeries`]) and can stop early once the relative
//! half-width reaches `COAXIAL_SAMPLING_CI`. Counter-style statistics
//! (misses, bytes, latency ledgers, histograms) aggregate across intervals
//! so the usual [`RunReport`] fields stay meaningful.
//!
//! Determinism: everything — generator streams, fast-forward spans,
//! interval boundaries, early stopping — is a pure function of the config
//! seed and the `COAXIAL_SAMPLING*` knobs, so the same seed yields
//! byte-identical sampled reports on either engine (the differential suite
//! in `tests/sampling_differential.rs` pins both properties). Pipeline
//! state in flight at an interval boundary (ROB contents, a partially
//! dispatched op) is deliberately discarded, exactly like SMARTS: the next
//! interval's detailed warm-up absorbs the transient, and discarding is
//! deterministic.
//!
//! Sampled and full-detail reports are different estimators of the same
//! workload, so sampling is an explicit opt-in (`COAXIAL_SAMPLING`, the
//! `--sampled` CLI flag, or these APIs) — `Simulation::run` never reroutes
//! on its own, which keeps result caches keyed by config from serving one
//! mode's numbers to the other.
//!
//! # Cold-start bias and the warm-up knob
//!
//! The timing-state reset at each interval boundary is paid back through
//! the detailed warm-up, and *how much* warm-up matters: queue backlog on
//! bandwidth-saturated geometries converges slowly, so short warm-ups
//! measure an optimistic transient. Calibration against full-detail runs
//! over the 36-workload registry: 500 warm + 1000 measured instructions
//! per interval leaves ~+17 % mean IPC bias, 2000+2000 ~+3 %, 5000+5000
//! ~+0.1 % (the differential suite holds the latter shape inside the
//! reported CI plus a 6 % floor). The default shape follows that
//! calibration; shrink `COAXIAL_SAMPLING_WARM`/`_MEASURE` only when a
//! fast biased estimate is acceptable.

use coaxial_cache::hierarchy::trace_pid;
use coaxial_cache::{HierStats, Hierarchy, HierarchyConfig};
use coaxial_cpu::{functional_advance, Core, CoreParams, TraceSource};
use coaxial_cxl::CxlMemory;
use coaxial_dram::{ChannelStats, MemoryBackend, MultiChannel};
use coaxial_sim::{Cycle, SampleSeries};
use coaxial_telemetry::{MetricsRegistry, NullTelemetry, TelemetrySink, TraceEvent};

use crate::config::MemorySystemKind;
use crate::engine::{self, EngineKind, RunParams};
use crate::server::{checkpoint_metrics, RunReport, Simulation};

/// Shape of one sampled run: how many intervals, and how the per-core
/// instruction stride splits into fast-forward / detailed warm-up /
/// measurement. All fields come from `COAXIAL_SAMPLING*` by default.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Planned measurement intervals (≥1). CI-based early stopping may run
    /// fewer; see `ci_target`.
    pub intervals: u64,
    /// Measured instructions per core inside each interval (≥1).
    pub measure: u64,
    /// Detailed warm-up instructions per core before each measurement.
    pub warm: u64,
    /// Relative CI half-width target for early stopping; 0 disables.
    pub ci_target: f64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        // warm == measure: the bias calibration in the module docs — a
        // skimpier warm-up measures the post-reset optimistic transient.
        Self { intervals: 10, measure: 2_000, warm: 2_000, ci_target: 0.0 }
    }
}

impl SamplingConfig {
    /// Read the `COAXIAL_SAMPLING_*` knobs, falling back to the defaults.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            intervals: coaxial_sim::env::sampling_intervals(d.intervals),
            measure: coaxial_sim::env::sampling_measure(d.measure),
            warm: coaxial_sim::env::sampling_warm(d.warm),
            ci_target: coaxial_sim::env::sampling_ci_target(),
        }
    }

    /// Detailed instructions per core per interval (warm-up + measured).
    pub fn detail_per_interval(&self) -> u64 {
        self.warm + self.measure
    }
}

/// Sampling-specific half of a [`SampledReport`].
#[derive(Debug, Clone)]
pub struct SamplingSummary {
    pub intervals_planned: u64,
    pub intervals_run: u64,
    /// Whether the CI target ended the run before `intervals_planned`.
    pub early_stopped: bool,
    pub warm_per_interval: u64,
    pub measure_per_interval: u64,
    /// Requested per-core horizon (the `Simulation` instruction budget).
    pub horizon_instructions: u64,
    /// Instructions executed on the timing model (warm + measure), summed
    /// over cores and the intervals actually run.
    pub detail_instructions: u64,
    /// Instructions advanced functionally, summed over cores and intervals.
    /// Same units as `detail_instructions`, so the two split the covered
    /// horizon between them.
    pub fast_forward_instructions: u64,
    /// The early-stopping target this run was configured with (0 = off).
    pub ci_target: f64,
    /// Mean per-interval IPC — identical to the report's `ipc` field.
    pub ipc_mean: f64,
    /// 95 % Student-t confidence-interval half-width on `ipc_mean`.
    pub ipc_ci_half: f64,
    /// The raw per-interval IPC observations, in execution order.
    pub ipc_samples: Vec<f64>,
}

/// A [`RunReport`] whose statistics were estimated by interval sampling,
/// plus the sampling metadata needed to interpret it.
#[derive(Debug, Clone)]
pub struct SampledReport {
    pub report: RunReport,
    pub sampling: SamplingSummary,
}

impl Simulation {
    /// Run in interval-sampling mode and report. The simulation's
    /// instruction budget is the total per-core *horizon*; `scfg` controls
    /// how that horizon splits into fast-forward and detailed spans. The
    /// builder's warm-up budget is ignored — per-interval detailed warm-up
    /// (`scfg.warm`) replaces it, and the functional prefill still runs
    /// once up front.
    pub fn run_sampled(self, scfg: &SamplingConfig) -> SampledReport {
        self.run_sampled_with_telemetry(scfg, NullTelemetry).0
    }

    /// [`Simulation::run_sampled`] with a telemetry sink attached. Each
    /// measurement interval additionally emits one `sampling`-lane span
    /// (`trace_pid::SAMPLING`, `tid` = interval index) so Perfetto shows
    /// the measured windows on the stitched cycle axis.
    pub fn run_sampled_with_telemetry<T: TelemetrySink>(
        self,
        scfg: &SamplingConfig,
        tel: T,
    ) -> (SampledReport, T, MetricsRegistry) {
        match self.config.timing.memory.clone() {
            MemorySystemKind::DirectDdr { channels } => {
                let dram = self.config.timing.dram.clone();
                drive(&self, scfg, tel, &mut || MultiChannel::new(&dram, channels))
            }
            MemorySystemKind::Cxl { link, channels } => {
                let dram = self.config.timing.dram.clone();
                drive(&self, scfg, tel, &mut || CxlMemory::new(&link, &dram, channels))
            }
        }
    }
}

/// Fold one interval's hierarchy counters into the running aggregate.
/// Counter fields sum; the latency histogram merges; the harvest-time hit
/// ratios are handled by the caller (equal-weight interval means, since
/// every interval measures the same instruction budget).
fn fold_hier(agg: &mut HierStats, s: &HierStats) {
    agg.l2_misses += s.l2_misses;
    agg.llc_hits += s.llc_hits;
    agg.llc_misses += s.llc_misses;
    agg.mem_reads += s.mem_reads;
    agg.mem_writes += s.mem_writes;
    agg.wasted_mem_reads += s.wasted_mem_reads;
    agg.onchip_cycles += s.onchip_cycles;
    agg.queue_cycles += s.queue_cycles;
    agg.service_cycles += s.service_cycles;
    agg.cxl_cycles += s.cxl_cycles;
    agg.l2_miss_latency.merge(&s.l2_miss_latency);
    agg.calm.true_pos += s.calm.true_pos;
    agg.calm.true_neg += s.calm.true_neg;
    agg.calm.false_pos += s.calm.false_pos;
    agg.calm.false_neg += s.calm.false_neg;
    agg.prefetch.issued += s.prefetch.issued;
    agg.prefetch.useful += s.prefetch.useful;
    agg.prefetch.redundant += s.prefetch.redundant;
    agg.prefetch.throttled += s.prefetch.throttled;
}

/// Fold one interval's aggregated DDR stats into the running cross-interval
/// aggregate. Unlike [`ChannelStats::merge`] — which combines concurrent
/// channels over one shared window (elapsed = max, utilization averaged) —
/// intervals are disjoint windows: elapsed cycles sum, and the means /
/// utilization weight by each interval's traffic / window length.
fn fold_ddr(agg: &mut ChannelStats, s: &ChannelStats) {
    let total_a = (agg.reads + agg.writes) as f64;
    let total_b = (s.reads + s.writes) as f64;
    if total_a + total_b > 0.0 {
        agg.mean_queue_cycles =
            (agg.mean_queue_cycles * total_a + s.mean_queue_cycles * total_b) / (total_a + total_b);
        agg.mean_service_cycles = (agg.mean_service_cycles * total_a
            + s.mean_service_cycles * total_b)
            / (total_a + total_b);
    }
    let win_a = agg.elapsed_cycles as f64;
    let win_b = s.elapsed_cycles as f64;
    if win_a + win_b > 0.0 {
        agg.bus_utilization =
            (agg.bus_utilization * win_a + s.bus_utilization * win_b) / (win_a + win_b);
    }
    agg.reads += s.reads;
    agg.writes += s.writes;
    agg.read_bytes += s.read_bytes;
    agg.write_bytes += s.write_bytes;
    agg.row_hits += s.row_hits;
    agg.row_misses += s.row_misses;
    agg.row_conflicts += s.row_conflicts;
    agg.act += s.act;
    agg.pre += s.pre;
    agg.rd_cas += s.rd_cas;
    agg.wr_cas += s.wr_cas;
    agg.refab += s.refab;
    agg.elapsed_cycles += s.elapsed_cycles;
}

/// The sampling state machine. One functional prefill, then per interval:
/// rebuild timing state → fast-forward → detailed warm-up → measure →
/// harvest → park the generators for the next span.
fn drive<B: MemoryBackend, T: TelemetrySink>(
    sim: &Simulation,
    scfg: &SamplingConfig,
    tel: T,
    make_backend: &mut dyn FnMut() -> B,
) -> (SampledReport, T, MetricsRegistry) {
    let cfg = &sim.config;
    let func = &cfg.functional;
    let hier_cfg = HierarchyConfig {
        mem_channels: cfg.ddr_channels(),
        seed: func.seed ^ 0x11EC,
        calm_epoch: cfg.timing.calm_epoch,
        prefetch: cfg.timing.prefetch,
        ..HierarchyConfig::table_iii(
            func.cores,
            cfg.ddr_channels(),
            func.llc_mb_per_core,
            cfg.peak_bandwidth_gbs(),
            cfg.timing.calm,
        )
    };
    let mut hierarchy = Hierarchy::with_telemetry(hier_cfg, make_backend(), tel);
    // One functional prefill up front, exactly like a full-detail run
    // (checkpoint store and all). `finish_prefill` is deferred: the first
    // interval's fast-forward continues the same functional stream, and one
    // finish before the first detailed span covers both.
    let restored = sim.prefill_hierarchy(&mut hierarchy);

    // The builder's instruction budget is the total per-core horizon. Each
    // interval owns one stride of it: fast-forward across the gap, then run
    // warm + measure in detail. A stride shorter than the detail span
    // degenerates to back-to-back detailed intervals (ff = 0).
    let horizon = sim.instructions;
    let detail = scfg.detail_per_interval();
    let stride = (horizon / scfg.intervals).max(1);
    let ff_per_interval = stride.saturating_sub(detail);

    let ncores = func.active_cores;
    let mut gens: Vec<Box<dyn TraceSource>> =
        (0..ncores).map(|i| -> Box<dyn TraceSource> { sim.trace_for(i, func.seed) }).collect();

    let skip = sim.cycle_skip.unwrap_or_else(coaxial_sim::env::cycle_skip);
    let kind = sim.engine.unwrap_or_else(EngineKind::from_env);

    let mut series = SampleSeries::new();
    let mut per_core_sum = vec![0.0f64; ncores];
    let mut agg_hier = HierStats::default();
    let mut l1_ratio_sum = 0.0f64;
    let mut l2_ratio_sum = 0.0f64;
    let mut agg_ddr = ChannelStats::default();
    let mut link_util_sum: Option<(f64, f64)> = None;
    let mut link_weight = 0.0f64;
    let mut cycles_total: Cycle = 0;
    let mut total_instr = 0u64;
    let mut ff_instructions = 0u64;
    let mut skipped_cycles = 0u64;
    let mut blocked_iters = 0u64;
    let mut intervals_run = 0u64;
    let mut early_stopped = false;

    for j in 0..scfg.intervals {
        if j > 0 {
            // Keep the warmed arrays, restart every piece of timing state
            // at cycle 0 on a fresh backend.
            hierarchy = hierarchy.into_interval(make_backend());
        }
        for (i, g) in gens.iter_mut().enumerate() {
            ff_instructions += functional_advance(g.as_mut(), ff_per_interval, |line, is_store| {
                hierarchy.prefill_access(coaxial_sim::small_u32(i), line, is_store);
            });
        }
        hierarchy.finish_prefill();

        let mut cores: Vec<Core> = gens
            .drain(..)
            .enumerate()
            .map(|(i, g)| Core::new(coaxial_sim::small_u32(i), CoreParams::default(), g))
            .collect();
        let params = RunParams {
            warmup: scfg.warm,
            instructions: scfg.measure,
            // Same generous slack as the full-detail driver.
            max_cycles: detail * 120,
            skip,
        };
        let outcome = match kind {
            EngineKind::Event => engine::run_event(&params, &mut cores, &mut hierarchy),
            EngineKind::Lockstep => engine::run_lockstep(&params, &mut cores, &mut hierarchy),
        };

        let per_core: Vec<f64> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| outcome.finish_ipc[i].unwrap_or_else(|| c.ipc()))
            .collect();
        for (sum, v) in per_core_sum.iter_mut().zip(&per_core) {
            *sum += v;
        }
        series.push(per_core.iter().sum::<f64>() / per_core.len() as f64);

        let hs = hierarchy.stats();
        l1_ratio_sum += hs.l1_hit_ratio;
        l2_ratio_sum += hs.l2_hit_ratio;
        fold_hier(&mut agg_hier, &hs);
        fold_ddr(&mut agg_ddr, &hierarchy.backend().ddr_stats());
        if let Some((tx, rx)) = hierarchy.backend().link_utilization() {
            let w = outcome.now as f64;
            let (a, b) = link_util_sum.unwrap_or((0.0, 0.0));
            link_util_sum = Some((a + tx * w, b + rx * w));
            link_weight += w;
        }
        total_instr += cores.iter().map(|c| c.retired.min(scfg.measure)).sum::<u64>();
        if T::ENABLED {
            // One span per measured interval on the stitched cycle axis
            // (intervals restart at cycle 0; the running total offsets them).
            hierarchy.telemetry_mut().on_span(TraceEvent {
                name: "measure",
                cat: "sampling",
                pid: trace_pid::SAMPLING,
                tid: coaxial_sim::small_u32_u64(j),
                start: cycles_total,
                dur: outcome.now,
                line: 0,
            });
        }
        cycles_total += outcome.now;
        skipped_cycles += outcome.stats.skipped_cycles;
        blocked_iters += outcome.stats.blocked_iters;
        gens.extend(cores.into_iter().map(Core::into_trace));

        intervals_run += 1;
        if scfg.ci_target > 0.0
            && intervals_run < scfg.intervals
            && series.len() >= 3
            && series.relative_half_width() <= scfg.ci_target
        {
            early_stopped = true;
            break;
        }
    }

    let nrun = intervals_run.max(1) as f64;
    agg_hier.l1_hit_ratio = l1_ratio_sum / nrun;
    agg_hier.l2_hit_ratio = l2_ratio_sum / nrun;
    let per_core_ipc: Vec<f64> = per_core_sum.iter().map(|s| s / nrun).collect();
    let mpki = if total_instr == 0 {
        0.0
    } else {
        agg_hier.llc_misses as f64 * 1000.0 / total_instr as f64
    };
    let window_ns = coaxial_sim::cycles_to_ns(agg_ddr.elapsed_cycles);
    let (read_gbs, write_gbs) = if window_ns > 0.0 {
        (agg_ddr.read_bytes as f64 / window_ns, agg_ddr.write_bytes as f64 / window_ns)
    } else {
        (0.0, 0.0)
    };
    let peak = cfg.peak_bandwidth_gbs();
    let cxl_link_utilization = link_util_sum.map(|(a, b)| {
        if link_weight > 0.0 {
            (a / link_weight, b / link_weight)
        } else {
            (0.0, 0.0)
        }
    });
    let report = RunReport {
        config_name: cfg.name.clone(),
        workload_names: sim.workload_names(),
        ipc: series.mean(),
        per_core_ipc,
        mpki,
        breakdown_ns: agg_hier.breakdown_ns(),
        l2_miss_latency_ns: coaxial_sim::cycles_f64_to_ns(agg_hier.mean_l2_miss_latency_cycles()),
        read_gbs,
        write_gbs,
        utilization: (read_gbs + write_gbs) / peak,
        bandwidth_gbs: read_gbs + write_gbs,
        llc_miss_ratio: agg_hier.llc_miss_ratio(),
        cxl_link_utilization,
        calm: agg_hier.calm,
        hier: agg_hier,
        ddr: agg_ddr,
        // Sum of measured-window lengths (each interval restarts at 0).
        cycles: cycles_total,
        instructions: scfg.measure * intervals_run,
    };
    let sampling = SamplingSummary {
        intervals_planned: scfg.intervals,
        intervals_run,
        early_stopped,
        warm_per_interval: scfg.warm,
        measure_per_interval: scfg.measure,
        horizon_instructions: horizon,
        detail_instructions: detail * intervals_run * ncores as u64,
        fast_forward_instructions: ff_instructions,
        ci_target: scfg.ci_target,
        ipc_mean: series.mean(),
        ipc_ci_half: series.ci_half_width(),
        ipc_samples: series.samples().to_vec(),
    };

    // Harvest-time metrics. `hier.*` carries the cross-interval aggregate;
    // per-channel `mem.*` counters are per-interval (each interval runs a
    // fresh backend) and are deliberately not exported — the aggregated
    // ChannelStats lives in `report.ddr`. `server.prefill.*`/`engine.*`
    // constant paths belong to the full-detail driver (lint M01), so the
    // sampled twins live under `sampling.*`.
    let mut metrics = MetricsRegistry::new();
    report.hier.export_metrics(&mut metrics, "hier");
    metrics.set_counter("sampling.intervals.planned", scfg.intervals);
    metrics.set_counter("sampling.intervals.run", intervals_run);
    metrics.set_counter("sampling.early_stopped", u64::from(early_stopped));
    metrics.set_counter("sampling.instructions.detail", sampling.detail_instructions);
    metrics.set_counter("sampling.instructions.fast_forward", ff_instructions);
    metrics.set_counter("sampling.prefill.restored", u64::from(restored));
    metrics.set_counter("sampling.engine.skipped_cycles", skipped_cycles);
    metrics.set_counter("sampling.engine.blocked_iters", blocked_iters);
    metrics.set_gauge("sampling.ipc.mean", sampling.ipc_mean);
    metrics.set_gauge("sampling.ipc.ci_half", sampling.ipc_ci_half);
    checkpoint_metrics(&mut metrics);
    (SampledReport { report, sampling }, hierarchy.into_telemetry(), metrics)
}
